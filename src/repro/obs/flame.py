"""Flame-graph exports for human inspection: speedscope + chrome trace.

The canonical profile (:mod:`repro.obs.profile`) is the byte-compared
artifact; these exports exist so a human can *look* at a crawl --
https://www.speedscope.app renders the evented format directly, and
``chrome://tracing`` / Perfetto load the chrome-trace JSON.  Both are
pure functions of the span tree on the virtual clock, so they inherit
the determinism of the trace (and the tests assert the speedscope
export of serial and sharded runs byte-match too).

Span events are emitted by a recursive pre-order walk -- open parent,
children in start order, close parent -- which guarantees the strict
nesting the speedscope evented format requires even when a child span
shares a boundary timestamp with its parent.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from repro.obs.export import canonical_json
from repro.obs.span import SpanDict, duration_ms

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _end_ms(span: SpanDict, fallback: float) -> float:
    return fallback if span["end_ms"] is None else span["end_ms"]


def _start_order(span: SpanDict):
    return span["start_ms"], span["span_id"]


def speedscope_document(
    spans: Sequence[SpanDict], name: str = "crawl"
) -> Dict[str, Any]:
    """The trace as a speedscope *evented* profile document.

    Frames are the sorted unique span names; events are well-nested
    open/close pairs on the virtual-clock timeline in milliseconds.
    """
    frame_names = sorted({span["name"] for span in spans})
    frame_index = {name: i for i, name in enumerate(frame_names)}
    children: Dict[int, List[SpanDict]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)

    end_value = 0.0
    for span in children.get(0, ()):
        end = _end_ms(span, span["start_ms"])
        if end > end_value:
            end_value = end

    events: List[Dict[str, Any]] = []

    def walk(span: SpanDict) -> None:
        frame = frame_index[span["name"]]
        events.append({"type": "O", "frame": frame, "at": span["start_ms"]})
        for child in sorted(children.get(span["span_id"], ()), key=_start_order):
            walk(child)
        events.append({"type": "C", "frame": frame, "at": _end_ms(span, end_value)})

    for root in sorted(children.get(0, ()), key=_start_order):
        walk(root)

    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs",
        "shared": {"frames": [{"name": n} for n in frame_names]},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "milliseconds",
                "startValue": 0.0,
                "endValue": end_value,
                "events": events,
            }
        ],
    }


def write_speedscope(
    path: Union[str, Path], spans: Sequence[SpanDict], name: str = "crawl"
) -> Path:
    """Write a speedscope JSON file; returns the path written."""
    path = Path(path)
    path.write_text(canonical_json(speedscope_document(spans, name=name)) + "\n")
    return path


def chrome_trace_document(spans: Sequence[SpanDict]) -> Dict[str, Any]:
    """The trace as chrome-trace *complete* (``ph: X``) events.

    Timestamps and durations are microseconds per the format; every
    span lands on one pid/tid because the virtual clock is a single
    serial timeline.
    """
    events = []
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["start_ms"] * 1_000.0,
                "dur": duration_ms(span) * 1_000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span_id": span["span_id"], "status": span["status"]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path], spans: Sequence[SpanDict]
) -> Path:
    """Write a chrome-trace JSON file; returns the path written."""
    path = Path(path)
    path.write_text(canonical_json(chrome_trace_document(spans)) + "\n")
    return path
