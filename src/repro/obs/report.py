"""The crawl report: aggregate a span tree into readable accounting.

``build_report`` walks an exported (or in-memory) trace and produces the
numbers a field-study reader needs before trusting Table 2 / Fig. 4:
how many visits ran, how many attempts and retries they cost, where the
virtual-clock time went (navigation vs. interaction vs. recovery), and
the fault / breaker / recycle distributions.  Everything derives from
the trace alone, so ``python -m repro.obs report trace.jsonl`` works on
any machine without the original crawl objects.

Per-span-name numbers (counts, total/self/max time, per-visit p50/p95)
are not folded here: the report carries the profiler's accounting of
the same spans (:func:`repro.obs.profile.build_profile`), so a trace
gives one answer whichever command reads it.  Quantiles of raw
durations are exact (:func:`repro.obs.profile.nearest_rank`); only
metrics that exist solely as buckets are read by interpolation
(:meth:`repro.obs.metrics.Histogram.percentile`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.obs.profile import (
    SPAN_VISIT,
    build_profile,
    hotspots,
    render_profile_text,
)
from repro.obs.span import STATUS_OK, SpanDict, duration_ms

#: Span names emitted by the instrumented stack (docs/OBSERVABILITY.md).
SPAN_CRAWL = "crawl"
SPAN_ATTEMPT = "attempt"

EVENT_FAULT = "fault"
EVENT_BACKOFF = "backoff"
EVENT_RECYCLE = "browser.recycle"
EVENT_BREAKER_SKIP = "breaker.skip"
EVENT_BREAKER_PREFIX = "breaker."
EVENT_BUS_PREFIX = "bus."
EVENT_WATCHDOG_PREFIX = "watchdog."


@dataclass
class CrawlReport:
    """Everything the trace says about one crawl."""

    #: The profiler's accounting of the same trace (:func:`repro.obs.
    #: profile.build_profile`): the one source of every per-span-name
    #: count, total/self/max time and per-visit p50/p95.
    profile: Dict[str, Any]
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
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: Optional metrics export: :func:`repro.obs.metrics.crawl_metrics`
    #: of the same trace and the crawl's probe ledger.
    metrics: Optional[Dict[str, Any]] = None
    #: ``build_report(top=N)``: the N slowest sites by total visit
    #: time, each ``{"count", "total_ms", "max_ms"}``.
    top_sites: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    #: ``build_report(top=N)``: the N most frequent failure reasons.
    top_failure_reasons: List[Tuple[str, int]] = field(default_factory=list)
    #: ``build_report(top=N)``: rows per ranking, the profile's hotspot
    #: table included (``0``: no site or failure rankings, every span
    #: name in the table).
    top: int = 0

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
            "event_counts": {
                k: self.event_counts[k] for k in sorted(self.event_counts)
            },
            "metrics": self.metrics,
            "histogram_summaries": self.histogram_summaries(),
            "top_sites": [list(p) for p in self.top_sites],
            "top_failure_reasons": [list(p) for p in self.top_failure_reasons],
            "hotspots": (
                hotspots(self.profile, top=self.top) if self.top > 0 else []
            ),
            "profile": self.profile,
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
            for domain, site in self.top_sites:
                lines.append(
                    f"{'  ' + domain:28s} {site['count']:4d} visit(s) "
                    f"{site['total_ms']:12.1f} ms total  "
                    f"max {site['max_ms']:10.1f} ms"
                )
        if self.top_failure_reasons:
            lines.append("")
            lines.append(
                f"failure reasons (top {len(self.top_failure_reasons)})"
            )
            for reason, count in self.top_failure_reasons:
                lines.append(f"{'  ' + reason:28s} {count:12d}")
        return "\n".join(lines) + "\n\n" + render_profile_text(
            self.profile, top=self.top
        )


def build_report(
    spans: List[SpanDict],
    metrics: Optional[Dict[str, Any]] = None,
    top: int = 0,
) -> CrawlReport:
    """Aggregate a trace (see :mod:`repro.obs.export`) into a report.

    ``top`` > 0 additionally ranks the ``top`` slowest sites (by total
    visit time on the virtual clock) and the ``top`` most frequent
    failure reasons, with deterministic name tie-breaks, and cuts the
    profile's hotspot table (:func:`repro.obs.profile.hotspots`) to
    ``top`` rows.
    """
    profile = build_profile(spans)
    names = profile["names"]
    report = CrawlReport(
        profile=profile,
        crawl_ms=names.get(SPAN_CRAWL, {}).get("total_ms", 0.0),
        visits=profile["visits"],
        attempts=names.get(SPAN_ATTEMPT, {}).get("count", 0),
        metrics=metrics,
        top=top,
    )
    attempts_histogram: Dict[int, int] = {}
    site_totals: Dict[str, Dict[str, Any]] = {}
    failure_counts: Dict[str, int] = {}
    for span in spans:
        name = span["name"]
        status = span["status"]
        if name == SPAN_VISIT:
            if status == STATUS_OK:
                report.reached += 1
            else:
                report.failed += 1
                if top > 0 and status.startswith("failed:"):
                    reason = status[len("failed:"):]
                    failure_counts[reason] = failure_counts.get(reason, 0) + 1
            attrs = span["attrs"]
            attempts = int(attrs.get("attempts", 1))
            attempts_histogram[attempts] = attempts_histogram.get(attempts, 0) + 1
            if top > 0:
                domain = str(attrs.get("domain", "(unknown)"))
                site = site_totals.get(domain)
                if site is None:
                    site = site_totals[domain] = {
                        "count": 0,
                        "total_ms": 0.0,
                        "max_ms": 0.0,
                    }
                duration = duration_ms(span)
                site["count"] += 1
                site["total_ms"] += duration
                site["max_ms"] = max(site["max_ms"], duration)
        elif name == SPAN_ATTEMPT:
            if status == STATUS_OK:
                report.attempt_ok_ms += duration_ms(span)
            else:
                report.attempt_failed_ms += duration_ms(span)

        for event in span["events"]:
            event_name = event["name"]
            report.event_counts[event_name] = (
                report.event_counts.get(event_name, 0) + 1
            )
            if event_name == EVENT_FAULT:
                fault_type = str(event["attrs"].get("fault_type", "unknown"))
                report.faults[fault_type] = report.faults.get(fault_type, 0) + 1
            elif event_name == EVENT_BACKOFF:
                report.retries += 1
                report.backoff_ms += float(event["attrs"].get("delay_ms", 0.0))
            elif event_name == EVENT_RECYCLE:
                report.recycles += 1
            elif event_name.startswith(EVENT_BREAKER_PREFIX):
                key = event_name[len(EVENT_BREAKER_PREFIX) :]
                report.breaker_events[key] = (
                    report.breaker_events.get(key, 0) + 1
                )
            elif event_name.startswith(EVENT_BUS_PREFIX):
                key = event_name[len(EVENT_BUS_PREFIX) :]
                report.bus_events[key] = report.bus_events.get(key, 0) + 1
            elif event_name.startswith(EVENT_WATCHDOG_PREFIX):
                key = event_name[len(EVENT_WATCHDOG_PREFIX) :]
                report.watchdog_events[key] = (
                    report.watchdog_events.get(key, 0) + 1
                )
    report.attempts_per_visit = sorted(attempts_histogram.items())
    if top > 0:
        report.top_sites = sorted(
            site_totals.items(),
            key=lambda item: (-item[1]["total_ms"], item[0]),
        )[:top]
        report.top_failure_reasons = sorted(
            failure_counts.items(), key=lambda item: (-item[1], item[0])
        )[:top]
    return report
