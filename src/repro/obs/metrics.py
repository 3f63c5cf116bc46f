"""Counters and fixed-bucket histograms, deterministic by construction.

The registry has no global state, reads no clock of its own (values are
fed from virtual-clock deltas by the instrumented code), and serialises
to a sorted, JSON-safe dict -- so two runs with the same seed export the
same bytes, and a resumed crawl restores the registry exactly from its
checkpoint.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

#: Default latency bucket upper bounds, in virtual-clock milliseconds.
#: The last implicit bucket is +inf.  Fixed at import time so bucket
#: layout can never drift between a run and its resumption.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    30_000.0,
    60_000.0,
    120_000.0,
)


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> int:
        return self.value


class Histogram:
    """A fixed-bucket histogram over virtual-clock values.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Bucket layout is frozen at
    construction so serialised state is unambiguous.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "total", "count")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> None:
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


class MetricsRegistry:
    """Named counters and histograms for one crawl.

    Export order is sorted by name regardless of creation order, so the
    serialised registry is independent of code-path ordering.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def counter_value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    # -- serialisation ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Replace the registry's contents with a checkpointed state.

        The counter and histogram objects are replaced, so a handle
        fetched before the call feeds an orphan afterwards.  No code
        keeps one: every instrumentation site looks its metric up by
        name (``metrics.counter(name).inc()``) at each use.
        """
        self._counters = {
            name: Counter(name, int(value))
            for name, value in state.get("counters", {}).items()
        }
        self._histograms = {
            name: Histogram.from_dict(name, data)
            for name, data in state.get("histograms", {}).items()
        }


class NullMetrics:
    """Inert registry: every handle is shared and does nothing."""

    _NULL_COUNTER: Optional["_NullCounter"] = None
    _NULL_HISTOGRAM: Optional["_NullHistogram"] = None

    def counter(self, name: str) -> "_NullCounter":
        return self._NULL_COUNTER  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS
    ) -> "_NullHistogram":
        return self._NULL_HISTOGRAM  # type: ignore[return-value]

    def counter_value(self, name: str) -> int:
        return 0

    def state_dict(self) -> None:
        return None

    def load_state(self, state: Any) -> None:
        return None


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


NullMetrics._NULL_COUNTER = _NullCounter()
NullMetrics._NULL_HISTOGRAM = _NullHistogram()

#: Shared inert registry (used by :data:`repro.obs.tracer.NULL_TRACER`).
NULL_METRICS = NullMetrics()
