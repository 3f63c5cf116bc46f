"""The crawl's metrics export, folded from its trace and probe ledger.

Every crawl count is a fact some trace event or ledger entry already
carries, so the counters are derived, not stored: :func:`crawl_metrics`
folds them from the spans and the ledger state whenever the export is
written or read.  There is no registry to checkpoint, merge or restore,
so a resumed or sharded crawl's metrics are right whenever its trace
and ledger are; :class:`CrawlCounts` is the same fold taken a piece at
a time, as the shard merge reads the trace shard by shard.  The one
distribution, entries per closed probe scope, is a :class:`Histogram`
with a frozen bucket layout.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.obs.span import SpanDict


class Histogram:
    """A fixed-bucket histogram.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Bucket layout is frozen at
    construction so serialised state is unambiguous.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The q-quantile, linearly interpolated within its bucket.

        The continuous rank ``q * count`` is located in the bucket whose
        cumulative count covers it, and the estimate interpolates
        between the bucket's lower and upper bound by the rank's
        fractional position inside the bucket (the Prometheus
        ``histogram_quantile`` rule).  Reading off the raw upper bound
        made p50/p95 jump discontinuously whenever the quantile crossed
        a bucket edge; interpolation keeps the read-out continuous in
        ``q`` and in the observed values.  Values in the overflow bucket
        still report the last bound -- a lower-bound estimate, which is
        the best a fixed-bucket histogram can give.  Empty histograms
        report ``0.0``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            if bucket:
                if cumulative + bucket >= rank:
                    fraction = (rank - cumulative) / bucket
                    return lower + (bound - lower) * fraction
                cumulative += bucket
            lower = bound
        return self.bounds[-1] if self.bounds else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
            "total": self.total,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict[str, Any]) -> "Histogram":
        histogram = cls(name, data["bounds"])
        histogram.bucket_counts = [int(c) for c in data["buckets"]]
        histogram.total = float(data["total"])
        histogram.count = int(data["count"])
        return histogram


#: Fixed bucket upper bounds for the accesses-per-probe histogram.
PROBE_ACCESS_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
)

#: The histogram of entries per closed ``detector.probe:*`` ledger scope.
PROBE_HISTOGRAM = "probe_accesses_per_probe"


def _counter_name(event: Dict[str, Any]) -> Optional[str]:
    """The counter one trace event counts toward, if any."""
    name = event["name"]
    if name.startswith("bus."):
        return "bus.events." + name[4:]
    if name == "fault":
        return "faults." + event["attrs"]["fault_type"]
    if name == "breaker.skip":
        return "breaker.skips"
    if name.startswith(("breaker.", "watchdog.")):
        return name
    if name == "browser.recycle":
        return "recycles"
    return None


class CrawlCounts:
    """The counters of :func:`crawl_metrics`, folded a batch at a time.

    A consumer that sees a crawl's spans and ledger entries in pieces --
    the shard merge, one shard at a time -- counts each piece as it
    comes and builds the export at the end, by the same rule as
    :func:`crawl_metrics`.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def count_spans(self, spans: Iterable[SpanDict]) -> None:
        """Count the trace events of ``spans`` (see :func:`crawl_metrics`)."""
        counts = self.counts
        for span in spans:
            for event in span["events"] or ():
                name = _counter_name(event)
                if name is not None:
                    counts[name] = counts.get(name, 0) + 1

    def count_entries(self, entries: Iterable[Dict[str, Any]]) -> None:
        """Count ledger entries toward ``probe.ops.<op>``."""
        counts = self.counts
        for entry in entries:
            name = "probe.ops." + entry["op"]
            counts[name] = counts.get(name, 0) + 1

    def metrics(self, probe_sizes: Optional[Sequence[int]] = None) -> Dict[str, Any]:
        """The metrics export: the counters, names sorted, and the
        ``probe_accesses_per_probe`` histogram of ``probe_sizes`` when
        there are any."""
        histograms: Dict[str, Any] = {}
        if probe_sizes:
            histogram = Histogram(PROBE_HISTOGRAM, PROBE_ACCESS_BUCKETS)
            for size in probe_sizes:
                histogram.observe(float(size))
            histograms[PROBE_HISTOGRAM] = histogram.to_dict()
        counts = self.counts
        return {
            "counters": {name: counts[name] for name in sorted(counts)},
            "histograms": histograms,
        }


def crawl_metrics(
    spans: Iterable[SpanDict], ledger: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """A crawl's counters and histograms, folded from its trace and ledger.

    ``spans`` are span dicts (:mod:`repro.obs.span`): a tracer's, a
    checkpoint's ``trace.spans`` or parsed ``crawl.trace.jsonl`` lines;
    ``ledger`` is a :meth:`~repro.obs.probes.ProbeLedger.state_dict`.
    Trace events map to counters as follows:

    - ``bus.<name>`` -> ``bus.events.<name>``;
    - ``fault`` -> ``faults.<fault_type>``;
    - ``breaker.skip`` -> ``breaker.skips``; any other
      ``breaker.<state>`` and every ``watchdog.<name>.<action>`` keeps
      its name;
    - ``browser.recycle`` -> ``recycles``.

    Every ledger entry counts toward ``probe.ops.<op>``, and the
    ledger's probe-scope sizes fill ``probe_accesses_per_probe``.  A
    counter exists only once it counts something; names are sorted.
    """
    counts = CrawlCounts()
    counts.count_spans(spans)
    if ledger is None:
        return counts.metrics()
    counts.count_entries(ledger["entries"])
    return counts.metrics(ledger["probe_sizes"])
