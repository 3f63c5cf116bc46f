"""Cross-shard browser-health algebra: fault logs, their fold, and
recycle placement.

The *only* crawl-path state that crosses site (hence shard) boundaries
is the per-browser fault/recycle counter pair on
:class:`~repro.browser.session.BrowserSession`.  Everything else a
visit observes derives from per-visit rng streams, the per-site circuit
breaker (fresh each site) or the virtual clock -- all invariant under
where the shard boundary falls.

Three facts make parallel sharding sound:

1. **Fault sequences are entry-state-independent.**  Whether an attempt
   faults, and with which type, comes from the fault plan and the visit
   rng -- never from the browser's accumulated counters.  So a shard
   run with *any* entry state observes the same ``(browser, fatal)``
   fault sequence.
2. **Recycle decisions are a fold over that sequence.**  The
   :class:`~repro.crawl.watchdogs.crash.CrashWatchdog` recycles on
   every fatal fault (state-independent); the
   :class:`~repro.crawl.watchdogs.recycle.RecycleWatchdog` recycles
   when the running non-fatal count reaches the budget -- the only
   entry-state-*dependent* observable.  :func:`fold_fault_log` replays
   that machine over a recorded log, so the merge can compute where a
   serial crawl's budget fires in every shard from the shards' own logs.
3. **Recycle placement is bookkeeping only.**  A recycle never advances
   the clock and no visit observes it, so :func:`place_recycles` moves a
   shard's recycle trace events to the fold's positions instead of
   re-running the shard (``tests/test_shard.py::TestRecyclePlacement``).

The log itself is reconstructed from the shard's trace
(:func:`fault_log_from_spans`) rather than captured live: the merge
reads it off the trace the shard checkpoint carries, so a shard
interrupted and resumed mid-way still reports its *complete* fault
history.  Both functions walk span dicts (:mod:`repro.obs.span`), as
the merge reads them from the shard checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.faults.types import FaultType
from repro.obs.span import SpanDict

#: Trace event the supervisor records for every observed fault.
FAULT_EVENT = "fault"

#: Trace event of the fault's bus publish; a fault-budget recycle's
#: events follow it directly, at the same timestamp.
FAULT_OBSERVED_EVENT = "bus.fault_observed"

#: Trace event the recycle watchdog records when the fault budget
#: triggers -- the one entry-state-dependent observable.
RECYCLE_TRIGGER_EVENT = "watchdog.recycle.recycle_requested"

#: Trace events per fault-budget recycle (see :func:`_recycle_events`).
_RECYCLE_GROUP_SIZE = 4

#: Span names the fault log is read from.
_ATTEMPT_SPAN = "attempt"
_VISIT_SPAN = "visit"


@dataclass(frozen=True)
class FaultLogEntry:
    """One observed fault, in timeline order."""

    #: Browser slot the fault struck (== the visit_index of the visit,
    #: the supervisor pins instance ``i`` to visit index ``i``).
    browser: int
    #: Browser-fatal faults recycle immediately via the crash watchdog.
    fatal: bool
    #: Whether the recycle watchdog's budget fired on this fault *in the
    #: run the log was read from* (used to detect entry-state drift).
    triggered: bool


def fresh_browser_states(instances: int) -> List[Dict[str, int]]:
    """The state every browser starts a serial crawl with."""
    return [{"fault_count": 0, "recycles": 0} for _ in range(instances)]


def _attempt_spans(spans: Sequence[SpanDict]) -> Iterator[Tuple[SpanDict, int]]:
    """``(attempt span, browser slot)`` for every attempt with events.

    Fault events live on ``attempt`` spans; the owning browser slot is
    the enclosing ``visit`` span's ``visit_index``.  Spans are stored in
    start order and attempts never overlap on the serial shard timeline,
    so walking spans (and each span's events) in order yields the
    chronological fault sequence.
    """
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        if span["name"] != _ATTEMPT_SPAN or not span["events"]:
            continue
        visit = by_id.get(span["parent_id"])
        if visit is None or visit["name"] != _VISIT_SPAN:
            continue
        yield span, int(visit["attrs"]["visit_index"])


def fault_log_from_spans(spans: Sequence[SpanDict]) -> List[FaultLogEntry]:
    """Reconstruct the shard's fault log from its span tree."""
    log: List[FaultLogEntry] = []
    for span, browser in _attempt_spans(spans):
        for event in span["events"]:
            name = event["name"]
            if name == FAULT_EVENT:
                fatal = FaultType(event["attrs"]["fault_type"]).browser_fatal
                log.append(FaultLogEntry(browser, fatal, False))
            elif name == RECYCLE_TRIGGER_EVENT and log:
                last = log[-1]
                log[-1] = FaultLogEntry(last.browser, last.fatal, True)
    return log


def observed_triggers(log: Sequence[FaultLogEntry]) -> List[int]:
    """Positions where the recycle budget fired in the recorded run."""
    return [
        position for position, entry in enumerate(log) if entry.triggered
    ]


def fold_fault_log(
    entry_states: Sequence[Dict[str, int]],
    log: Sequence[FaultLogEntry],
    recycle_after_faults: int,
    recycling: bool = True,
) -> Tuple[List[Dict[str, int]], List[int]]:
    """Replay the watchdog recycle machine over a fault log.

    Returns ``(exit_states, trigger_positions)``: the per-browser
    fault/recycle counters after the log, and the log positions where
    the non-fatal fault budget fires.  ``recycling=False`` models the
    ``watchdogs=()`` ablation: counters never move and nothing triggers.
    """
    states = [dict(state) for state in entry_states]
    triggers: List[int] = []
    if not recycling:
        return states, triggers
    for position, entry in enumerate(log):
        state = states[entry.browser]
        if entry.fatal:
            # CrashWatchdog: immediate recycle, counter reset.
            state["recycles"] += 1
            state["fault_count"] = 0
            continue
        state["fault_count"] += 1
        if state["fault_count"] >= recycle_after_faults:
            triggers.append(position)
            state["recycles"] += 1
            state["fault_count"] = 0
    return states, triggers


def _recycle_events(
    ts_ms: float, browser: int, budget: int
) -> List[Dict[str, Any]]:
    """One fault-budget recycle's trace events, in emission order: the
    watchdog's request, its bus publish, the supervisor's recycle and the
    bus acknowledgement."""
    return [
        {
            "ts_ms": ts_ms,
            "name": RECYCLE_TRIGGER_EVENT,
            "attrs": {"browser": browser, "fault_count": budget},
        },
        {"ts_ms": ts_ms, "name": "bus.browser_recycle_requested", "attrs": {}},
        {
            "ts_ms": ts_ms,
            "name": "browser.recycle",
            "attrs": {"browser": browser, "reason": "fault-budget"},
        },
        {"ts_ms": ts_ms, "name": "bus.browser_recycled", "attrs": {}},
    ]


def place_recycles(
    spans: Sequence[SpanDict], triggers: Sequence[int], recycle_after_faults: int
) -> None:
    """Move a shard's fault-budget recycles to the log positions
    ``triggers``, in place: every recorded recycle group goes, and one is
    inserted after the ``bus.fault_observed`` event of each triggering
    fault.  Folded from fresh states, the budget fires at a count of
    exactly ``recycle_after_faults``."""
    wanted = set(triggers)
    position = -1
    for span, browser in _attempt_spans(spans):
        events = span["events"]
        placed: List[Dict[str, Any]] = []
        index = 0
        while index < len(events):
            event = events[index]
            name = event["name"]
            if name == RECYCLE_TRIGGER_EVENT:
                index += _RECYCLE_GROUP_SIZE
                continue
            placed.append(event)
            index += 1
            if name == FAULT_EVENT:
                position += 1
            elif name == FAULT_OBSERVED_EVENT and position in wanted:
                placed += _recycle_events(event["ts_ms"], browser, recycle_after_faults)
        span["events"] = placed
