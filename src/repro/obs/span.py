"""Spans: the trace's unit of work, as the dict its trace line encodes.

A span is one timed region on the *virtual* clock -- never the wall
clock.  It is a plain dict with eight keys, the same from
:meth:`repro.obs.tracer.Tracer.start` to every reader, and the same
dict a ``crawl.trace.jsonl`` line or a checkpoint's span list parses
to:

- ``span_id``: sequential, 1-based; ids double as start order, so a
  trace serialises to the same bytes on every run with the same seed;
- ``parent_id``: the enclosing span's id, 0 for a root;
- ``name``;
- ``start_ms``;
- ``end_ms``: ``None`` while the span is open;
- ``status``: :data:`STATUS_OK` unless the instrumented region failed
  (e.g. ``"fault:driver-crash"`` on a faulted attempt);
- ``attrs``: JSON-safe attributes;
- ``events``: point-in-time annotations (fault injections, backoff
  delays, breaker transitions...), each a ``{"ts_ms", "name",
  "attrs"}`` dict, in record order.

Canonical JSON sorts keys, so a span encodes to the same text whatever
order its keys were written in.
"""

from __future__ import annotations

from typing import Any, Dict

#: Status of a span that completed without incident.
STATUS_OK = "ok"

#: A span: the parsed JSON a trace line or checkpoint item holds.
SpanDict = Dict[str, Any]


def duration_ms(span: SpanDict) -> float:
    """The span's duration; 0 while it is still open."""
    end_ms = span["end_ms"]
    return 0.0 if end_ms is None else end_ms - span["start_ms"]
