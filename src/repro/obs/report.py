"""The crawl report: aggregate a span tree into readable accounting.

``build_report`` walks an exported (or in-memory) trace and produces the
numbers a field-study reader needs before trusting Table 2 / Fig. 4:
how many visits ran, how many attempts and retries they cost, where the
virtual-clock time went (navigation vs. interaction vs. recovery), and
the fault / breaker / recycle distributions.  Everything derives from
the trace alone, so ``python -m repro.obs report trace.jsonl`` works on
any machine without the original crawl objects.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, Histogram
from repro.obs.span import Span

#: Span names emitted by the instrumented stack (docs/OBSERVABILITY.md).
SPAN_CRAWL = "crawl"
SPAN_VISIT = "visit"
SPAN_ATTEMPT = "attempt"
SPAN_HLISA_PERFORM = "hlisa.perform"
SPAN_WEBDRIVER_PREFIX = "webdriver."

EVENT_FAULT = "fault"
EVENT_BACKOFF = "backoff"
EVENT_RECYCLE = "browser.recycle"
EVENT_BREAKER_SKIP = "breaker.skip"
EVENT_BREAKER_PREFIX = "breaker."
EVENT_BUS_PREFIX = "bus."
EVENT_WATCHDOG_PREFIX = "watchdog."


@dataclass
class SpanAggregate:
    """Count, virtual-clock totals and fixed-bucket percentiles for one
    span name.

    Durations land in :data:`~repro.obs.metrics.
    DEFAULT_LATENCY_BUCKETS_MS` buckets at ``add`` time, so p50/p95 are
    derivable later from the aggregate alone -- including from its
    serialised form -- without keeping every duration."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0
    bucket_counts: List[int] = field(
        default_factory=lambda: [0] * (len(DEFAULT_LATENCY_BUCKETS_MS) + 1)
    )

    def add(self, duration_ms: float) -> None:
        self.count += 1
        self.total_ms += duration_ms
        if duration_ms > self.max_ms:
            self.max_ms = duration_ms
        self.bucket_counts[
            bisect_left(DEFAULT_LATENCY_BUCKETS_MS, duration_ms)
        ] += 1

    def percentile(self, q: float) -> float:
        """The q-quantile as a bucket upper bound (conservative).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``ceil(q * count)``, capped at the exact ``max_ms``
        the aggregate tracked; quantiles in the overflow bucket report
        ``max_ms``.  No interpolation: unlike
        :meth:`repro.obs.metrics.Histogram.percentile`, which places the
        quantile linearly within its bucket."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        target = math.ceil(q * self.count)
        cumulative = 0
        for bound, bucket in zip(DEFAULT_LATENCY_BUCKETS_MS, self.bucket_counts):
            cumulative += bucket
            if cumulative >= target:
                return min(bound, self.max_ms)
        return self.max_ms

    @property
    def p50_ms(self) -> float:
        return self.percentile(0.50)

    @property
    def p95_ms(self) -> float:
        return self.percentile(0.95)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_ms": self.total_ms,
            "max_ms": self.max_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
        }


@dataclass
class CrawlReport:
    """Everything the trace says about one crawl."""

    crawl_ms: float = 0.0
    visits: int = 0
    reached: int = 0
    failed: int = 0
    attempts: int = 0
    retries: int = 0
    #: Virtual-clock attribution: successful attempts, faulted/failed
    #: attempts (recovery), and -- overlapping the latter -- backoff.
    attempt_ok_ms: float = 0.0
    attempt_failed_ms: float = 0.0
    backoff_ms: float = 0.0
    faults: Dict[str, int] = field(default_factory=dict)
    breaker_events: Dict[str, int] = field(default_factory=dict)
    recycles: int = 0
    #: Event-bus dispatch counts by event name (``bus.`` prefix stripped).
    bus_events: Dict[str, int] = field(default_factory=dict)
    #: Watchdog interventions by ``<watchdog>.<action>`` (``watchdog.``
    #: prefix stripped).
    watchdog_events: Dict[str, int] = field(default_factory=dict)
    #: ``(attempts, visits)`` pairs, sorted by attempt count.
    attempts_per_visit: List[Tuple[int, int]] = field(default_factory=list)
    span_totals: Dict[str, SpanAggregate] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Optional metrics-registry snapshot (``MetricsRegistry.state_dict``).
    metrics: Optional[Dict[str, Any]] = None
    #: ``build_report(top=N)``: the N slowest sites by total visit time.
    top_sites: List[Tuple[str, SpanAggregate]] = field(default_factory=list)
    #: ``build_report(top=N)``: the N most frequent failure reasons.
    top_failure_reasons: List[Tuple[str, int]] = field(default_factory=list)
    #: ``build_report(top=N)``: the N span names costing the most *self*
    #: time (time inside the span, outside its children) -- the
    #: profiler's hotspot ranking, surfaced in the report so ``--top``
    #: answers "where does the time go" without a second invocation.
    hotspots: List[Dict[str, Any]] = field(default_factory=list)

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """count/mean/p50/p95 per metrics histogram (empty without
        metrics)."""
        histograms = (self.metrics or {}).get("histograms") or {}
        summaries = {}
        for name in sorted(histograms):
            histogram = Histogram.from_dict(name, histograms[name])
            summaries[name] = {
                "count": histogram.count,
                "mean": histogram.mean,
                "p50": histogram.percentile(0.50),
                "p95": histogram.percentile(0.95),
            }
        return summaries

    def to_dict(self) -> Dict[str, Any]:
        return {
            "crawl_ms": self.crawl_ms,
            "visits": self.visits,
            "reached": self.reached,
            "failed": self.failed,
            "attempts": self.attempts,
            "retries": self.retries,
            "attempt_ok_ms": self.attempt_ok_ms,
            "attempt_failed_ms": self.attempt_failed_ms,
            "backoff_ms": self.backoff_ms,
            "faults": {k: self.faults[k] for k in sorted(self.faults)},
            "breaker_events": {
                k: self.breaker_events[k] for k in sorted(self.breaker_events)
            },
            "recycles": self.recycles,
            "bus_events": {
                k: self.bus_events[k] for k in sorted(self.bus_events)
            },
            "watchdog_events": {
                k: self.watchdog_events[k]
                for k in sorted(self.watchdog_events)
            },
            "attempts_per_visit": [list(p) for p in self.attempts_per_visit],
            "span_totals": {
                name: self.span_totals[name].to_dict()
                for name in sorted(self.span_totals)
            },
            "event_counts": {
                k: self.event_counts[k] for k in sorted(self.event_counts)
            },
            "metrics": self.metrics,
            "histogram_summaries": self.histogram_summaries(),
            "top_sites": [
                [domain, aggregate.to_dict()]
                for domain, aggregate in self.top_sites
            ],
            "top_failure_reasons": [list(p) for p in self.top_failure_reasons],
            "hotspots": [dict(spot) for spot in self.hotspots],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = ["crawl report", "============"]
        lines.append(f"{'crawl duration':28s} {self.crawl_ms:12.1f} ms")
        lines.append(f"{'visits':28s} {self.visits:12d}")
        lines.append(f"{'  reached':28s} {self.reached:12d}")
        lines.append(f"{'  failed':28s} {self.failed:12d}")
        lines.append(f"{'attempts (incl. retries)':28s} {self.attempts:12d}")
        lines.append(f"{'retries':28s} {self.retries:12d}")
        lines.append("")
        lines.append("virtual-clock attribution")
        lines.append(f"{'  successful attempts':28s} {self.attempt_ok_ms:12.1f} ms")
        lines.append(
            f"{'  failed attempts (recovery)':28s} {self.attempt_failed_ms:12.1f} ms"
        )
        lines.append(f"{'    of which backoff':28s} {self.backoff_ms:12.1f} ms")
        if self.faults:
            lines.append("")
            lines.append("faults injected")
            for name in sorted(self.faults):
                lines.append(f"{'  ' + name:28s} {self.faults[name]:12d}")
        if self.recycles:
            lines.append(f"{'browser recycles':28s} {self.recycles:12d}")
        if self.breaker_events:
            lines.append("")
            lines.append("circuit breaker")
            for name in sorted(self.breaker_events):
                lines.append(
                    f"{'  ' + name:28s} {self.breaker_events[name]:12d}"
                )
        if self.bus_events:
            lines.append("")
            lines.append("event bus dispatches")
            for name in sorted(self.bus_events):
                lines.append(f"{'  ' + name:28s} {self.bus_events[name]:12d}")
        if self.watchdog_events:
            lines.append("")
            lines.append("watchdog interventions")
            for name in sorted(self.watchdog_events):
                lines.append(
                    f"{'  ' + name:28s} {self.watchdog_events[name]:12d}"
                )
        if self.attempts_per_visit:
            lines.append("")
            lines.append("attempts per visit")
            for attempts, visits in self.attempts_per_visit:
                lines.append(f"{'  ' + str(attempts) + ' attempt(s)':28s} {visits:12d}")
        lines.append("")
        lines.append("span totals")
        for name in sorted(self.span_totals):
            aggregate = self.span_totals[name]
            lines.append(
                f"{'  ' + name:28s} {aggregate.count:8d} x "
                f"{aggregate.total_ms:12.1f} ms total  "
                f"p50 {aggregate.p50_ms:10.1f} ms  "
                f"p95 {aggregate.p95_ms:10.1f} ms"
            )
        summaries = self.histogram_summaries()
        if summaries:
            lines.append("")
            lines.append("metric histograms")
            for name, summary in summaries.items():
                lines.append(
                    f"{'  ' + name:28s} {summary['count']:8d} x  "
                    f"mean {summary['mean']:10.1f}  "
                    f"p50 {summary['p50']:10.1f}  "
                    f"p95 {summary['p95']:10.1f}"
                )
        if self.top_sites:
            lines.append("")
            lines.append(f"slowest sites (top {len(self.top_sites)})")
            for domain, aggregate in self.top_sites:
                lines.append(
                    f"{'  ' + domain:28s} {aggregate.count:4d} visit(s) "
                    f"{aggregate.total_ms:12.1f} ms total  "
                    f"max {aggregate.max_ms:10.1f} ms"
                )
        if self.top_failure_reasons:
            lines.append("")
            lines.append(
                f"failure reasons (top {len(self.top_failure_reasons)})"
            )
            for reason, count in self.top_failure_reasons:
                lines.append(f"{'  ' + reason:28s} {count:12d}")
        if self.hotspots:
            lines.append("")
            lines.append(f"hotspots by self time (top {len(self.hotspots)})")
            for spot in self.hotspots:
                lines.append(
                    f"{'  ' + spot['name']:28s} {spot['count']:8d} x "
                    f"{spot['self_ms']:12.1f} ms self  "
                    f"{spot['total_ms']:12.1f} ms total"
                )
        return "\n".join(lines) + "\n"


def build_report(
    spans: List[Span],
    metrics: Optional[Dict[str, Any]] = None,
    top: int = 0,
) -> CrawlReport:
    """Aggregate a trace (see :mod:`repro.obs.export`) into a report.

    ``top`` > 0 additionally ranks the ``top`` slowest sites (by total
    visit time on the virtual clock) and the ``top`` most frequent
    failure reasons, with deterministic name tie-breaks, and keeps the
    profiler's ``top`` hotspots (:func:`repro.obs.profile.hotspots`).
    """
    report = CrawlReport(metrics=metrics)
    attempts_histogram: Dict[int, int] = {}
    site_aggregates: Dict[str, SpanAggregate] = {}
    failure_counts: Dict[str, int] = {}
    for span in spans:
        aggregate = report.span_totals.get(span.name)
        if aggregate is None:
            aggregate = report.span_totals[span.name] = SpanAggregate()
        aggregate.add(span.duration_ms)

        if span.name == SPAN_CRAWL:
            report.crawl_ms += span.duration_ms
        elif span.name == SPAN_VISIT:
            report.visits += 1
            if span.status == "ok":
                report.reached += 1
            else:
                report.failed += 1
                if top > 0 and span.status.startswith("failed:"):
                    reason = span.status[len("failed:"):]
                    failure_counts[reason] = failure_counts.get(reason, 0) + 1
            attempts = int(span.attrs.get("attempts", 1))
            attempts_histogram[attempts] = attempts_histogram.get(attempts, 0) + 1
            if top > 0:
                domain = str(span.attrs.get("domain", "(unknown)"))
                site = site_aggregates.get(domain)
                if site is None:
                    site = site_aggregates[domain] = SpanAggregate()
                site.add(span.duration_ms)
        elif span.name == SPAN_ATTEMPT:
            report.attempts += 1
            if span.status == "ok":
                report.attempt_ok_ms += span.duration_ms
            else:
                report.attempt_failed_ms += span.duration_ms

        for event in span.events or []:
            report.event_counts[event.name] = (
                report.event_counts.get(event.name, 0) + 1
            )
            if event.name == EVENT_FAULT:
                fault_type = str(event.attrs.get("fault_type", "unknown"))
                report.faults[fault_type] = report.faults.get(fault_type, 0) + 1
            elif event.name == EVENT_BACKOFF:
                report.retries += 1
                report.backoff_ms += float(event.attrs.get("delay_ms", 0.0))
            elif event.name == EVENT_RECYCLE:
                report.recycles += 1
            elif event.name.startswith(EVENT_BREAKER_PREFIX):
                key = event.name[len(EVENT_BREAKER_PREFIX) :]
                report.breaker_events[key] = (
                    report.breaker_events.get(key, 0) + 1
                )
            elif event.name.startswith(EVENT_BUS_PREFIX):
                key = event.name[len(EVENT_BUS_PREFIX) :]
                report.bus_events[key] = report.bus_events.get(key, 0) + 1
            elif event.name.startswith(EVENT_WATCHDOG_PREFIX):
                key = event.name[len(EVENT_WATCHDOG_PREFIX) :]
                report.watchdog_events[key] = (
                    report.watchdog_events.get(key, 0) + 1
                )
    report.attempts_per_visit = sorted(attempts_histogram.items())
    if top > 0:
        report.top_sites = sorted(
            site_aggregates.items(),
            key=lambda item: (-item[1].total_ms, item[0]),
        )[:top]
        report.top_failure_reasons = sorted(
            failure_counts.items(), key=lambda item: (-item[1], item[0])
        )[:top]
        # Imported here: repro.obs.profile imports this module.
        from repro.obs.profile import build_profile, hotspots

        report.hotspots = hotspots(build_profile(spans), top=top)
    return report
