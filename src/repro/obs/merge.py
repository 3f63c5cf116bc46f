"""Recombining per-shard observability state into one serial timeline.

A sharded crawl (:mod:`repro.shard`) runs one supervisor -- with its own
virtual clock, tracer and probe ledger -- per contiguous block of the
population.  Each shard's checkpoint therefore
holds a clean *segment*: span ids count from 1, timestamps count from 0.
The shard merge (:mod:`repro.shard.merge`) splices the segments back
together, one shard at a time in plan order, with a :class:`Splice`, so
the result is byte-identical to what a single serial supervisor would
have exported:

- **spans**: every shard's root ``crawl`` span is the same region of the
  serial timeline, so shard 0's root survives (re-ended at the total
  duration, :func:`merged_root`) and the other roots are dropped;
  non-root spans are renumbered sequentially across shards and their
  timestamps shifted by the preceding shards' total duration.  Spans
  are the dicts :mod:`repro.obs.span` describes, as the merge reads
  them from the shard checkpoints.
- **ledger entries**: renumbered sequentially, timestamps shifted; they
  too are the dicts :mod:`repro.obs.probes` describes, as the merge
  reads them from the shard checkpoints.

:class:`Splice` carries the running id bases and clock offset from one
shard to the next, so the rebasing rule lives in one place: the shard
merge's fold calls it once per shard, and :func:`merge_spans`, which
splices whole lists of span segments, is a loop over it.
``python -m repro.obs report|profile`` uses :func:`merge_spans` to
splice a plain directory of trace files end to end.

The merged metrics export needs no merge of its own: its counters count
the merged trace and ledger by :mod:`repro.obs.metrics`' one rule.

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


def shard_duration(index: int, spans: Sequence[SpanDict]) -> float:
    """Shard ``index``'s total virtual duration, read off its root span.

    The shard's trace must start with a closed root span (``parent_id``
    0) whose timeline starts at 0, and hold no other root -- exactly
    what a fresh supervisor produces.
    """
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
    return root["end_ms"]


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


def merged_root(root: SpanDict, end_ms: float) -> SpanDict:
    """Shard 0's root span as the merged trace's root, ended at
    ``end_ms``, the shards' total duration."""
    merged = _shift_span(root, 1, 0, 0.0)
    merged["end_ms"] = end_ms
    return merged


class Splice:
    """Where the next shard's segment lands on the merged timeline.

    Shard k's non-root span ``x`` becomes span ``x - 1 + base_k`` where
    ``base_k = 1 + sum(len(shard_j) - 1 for j < k)`` -- the serial
    tracer's sequential numbering; parents pointing at the local root
    (id 1) re-point at the surviving root.  Ledger entries are numbered
    on from the preceding shards' count.  Both shift their timestamps
    by ``offset_ms``, the preceding shards' total duration, summed in
    shard order exactly like the serial clock's advances.  Each shard
    is spliced by :meth:`spans` and/or :meth:`entries`, then
    :meth:`advance`.  Inputs are not mutated: the rebased spans and
    entries are new dicts, which share only the inputs' ``attrs``.
    """

    def __init__(self) -> None:
        self.span_base = 1
        self.entry_count = 0
        self.offset_ms = 0.0

    def spans(self, spans: Sequence[SpanDict]) -> List[SpanDict]:
        """The shard's non-root spans, renumbered and shifted."""
        base, offset = self.span_base, self.offset_ms
        rebased: List[SpanDict] = []
        for span in spans[1:]:
            if span["span_id"] < 2:
                raise MergeError("non-root span with reserved id")
            parent_id = span["parent_id"]
            parent = 1 if parent_id == 1 else parent_id - 1 + base
            rebased.append(
                _shift_span(span, span["span_id"] - 1 + base, parent, offset)
            )
        self.span_base += len(rebased)
        return rebased

    def entries(self, entries: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """The shard's ledger entry dicts (its parsed
        ``crawl.ledger.jsonl`` lines), renumbered and shifted."""
        first, offset = self.entry_count + 1, self.offset_ms
        rebased = [
            {**entry, "entry_id": first + position, "ts_ms": entry["ts_ms"] + offset}
            for position, entry in enumerate(entries)
        ]
        self.entry_count += len(rebased)
        return rebased

    def advance(self, duration_ms: float) -> None:
        """Move past a spliced shard that lasted ``duration_ms``."""
        self.offset_ms += duration_ms


def merge_spans(shard_spans: Sequence[Sequence[SpanDict]]) -> List[SpanDict]:
    """Splice per-shard span lists into one serial trace (see
    :class:`Splice`); inputs are not mutated."""
    splice = Splice()
    rebased: List[SpanDict] = []
    for index, spans in enumerate(shard_spans):
        duration = shard_duration(index, spans)
        rebased += splice.spans(spans)
        splice.advance(duration)
    return [merged_root(shard_spans[0][0], splice.offset_ms), *rebased]

