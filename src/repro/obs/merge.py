"""Recombining per-shard observability state into one serial timeline.

A sharded crawl (:mod:`repro.shard`) runs one supervisor -- with its own
virtual clock, tracer and probe ledger -- per contiguous block of the
population.  Each shard's checkpoint therefore
holds a clean *segment*: span ids count from 1, timestamps count from 0.
The shard merge (:mod:`repro.shard.merge`) splices the segments back
together with the functions here, so the result is byte-identical to
what a single serial supervisor would have exported:

- **spans**: every shard's root ``crawl`` span is the same region of the
  serial timeline, so shard 0's root survives (re-ended at the total
  duration) and the other roots are dropped; non-root spans are
  renumbered sequentially across shards and their timestamps shifted by
  the preceding shards' total duration.  Spans are the dicts
  :mod:`repro.obs.span` describes, as the merge reads them from the
  shard checkpoints.
- **ledger entries**: renumbered sequentially, timestamps shifted; they
  too stay the parsed JSON dicts the checkpoints hold.

The merged metrics export needs no merge of its own: it is
:func:`~repro.obs.metrics.crawl_metrics` of the merged trace and ledger.

``python -m repro.obs report|profile`` also uses :func:`merge_spans` to
splice a plain directory of trace files end to end.

Exactness contract: every supervisor-clock advance lies on a dyadic
grid (config constants plus :data:`repro.faults.recovery.DELAY_GRID_MS`-
quantised backoff), so the float additions here are exact and
associativity cannot bite -- shifting a shard-local timestamp by the
offset reproduces the serial timestamp bit for bit.  The oracle tests
in ``tests/test_shard.py`` assert the resulting bytes literally.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.obs.span import SpanDict


class MergeError(ValueError):
    """Raised when shard segments cannot form one serial timeline."""


def shard_durations(shard_spans: Sequence[Sequence[SpanDict]]) -> List[float]:
    """Each shard's total virtual duration, read off its root span.

    Every shard trace must start with a closed root span (``parent_id``
    0) whose timeline starts at 0 -- exactly what a fresh supervisor
    produces.
    """
    durations = []
    for index, spans in enumerate(shard_spans):
        if not spans:
            raise MergeError(f"shard {index}: empty trace")
        root = spans[0]
        if root["parent_id"] != 0:
            raise MergeError(f"shard {index}: first span is not a root")
        if root["start_ms"] != 0.0:
            raise MergeError(
                f"shard {index}: root starts at {root['start_ms']} ms, not 0"
            )
        if root["end_ms"] is None:
            raise MergeError(f"shard {index}: root span is still open")
        for span in spans[1:]:
            if span["parent_id"] == 0:
                raise MergeError(
                    f"shard {index}: multiple root spans "
                    f"(span_id={span['span_id']})"
                )
        durations.append(root["end_ms"])
    return durations


def _shift_span(
    span: SpanDict, new_id: int, new_parent: int, offset_ms: float
) -> SpanDict:
    end_ms = span["end_ms"]
    shifted = {
        **span,
        "span_id": new_id,
        "parent_id": new_parent,
        "start_ms": span["start_ms"] + offset_ms,
        "end_ms": None if end_ms is None else end_ms + offset_ms,
    }
    if span["events"]:
        shifted["events"] = [
            {**event, "ts_ms": event["ts_ms"] + offset_ms}
            for event in span["events"]
        ]
    return shifted


def merge_spans(shard_spans: Sequence[Sequence[SpanDict]]) -> List[SpanDict]:
    """Splice per-shard span lists into one serial trace.

    Shard k's non-root span ``x`` becomes span ``x - 1 + base_k`` where
    ``base_k = 1 + sum(len(shard_j) - 1 for j < k)`` -- the serial
    tracer's sequential numbering; parents pointing at the local root
    (id 1) re-point at the surviving root.  Inputs are not mutated: the
    merged spans are new dicts, which share only the inputs' ``attrs``.
    """
    durations = shard_durations(shard_spans)
    total = 0.0
    for duration in durations:
        total += duration
    root = shard_spans[0][0]
    merged_root = _shift_span(root, 1, 0, 0.0)
    merged_root["end_ms"] = total
    merged: List[SpanDict] = [merged_root]
    base = 1
    offset = 0.0
    for spans, duration in zip(shard_spans, durations):
        for span in spans[1:]:
            if span["span_id"] < 2:
                raise MergeError("non-root span with reserved id")
            parent_id = span["parent_id"]
            parent = 1 if parent_id == 1 else parent_id - 1 + base
            merged.append(
                _shift_span(span, span["span_id"] - 1 + base, parent, offset)
            )
        base += len(spans) - 1
        offset += duration
    return merged


def merge_ledger_entries(
    shard_entries: Sequence[Sequence[Dict[str, Any]]],
    durations: Sequence[float],
) -> List[Dict[str, Any]]:
    """Concatenate per-shard ledger entry dicts (the parsed
    ``crawl.ledger.jsonl`` lines a checkpoint holds), renumbering ids
    and shifting timestamps by the preceding shards' durations.  Inputs
    are not mutated."""
    if len(shard_entries) != len(durations):
        raise MergeError("one duration per shard ledger required")
    merged: List[Dict[str, Any]] = []
    offset = 0.0
    for entries, duration in zip(shard_entries, durations):
        for entry in entries:
            merged.append(
                {
                    **entry,
                    "entry_id": len(merged) + 1,
                    "ts_ms": entry["ts_ms"] + offset,
                }
            )
        offset += duration
    return merged
