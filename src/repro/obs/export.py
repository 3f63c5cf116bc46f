"""Byte-stable trace serialisation: JSONL out, JSONL in.

One JSON object per line, one line per span, in ``span_id`` (= start)
order, with sorted keys and minimal separators.  Because every value in
a span derives from the seed and the virtual clock, two crawls with the
same seed -- or one interrupted-and-resumed crawl and its uninterrupted
twin -- serialise to the same bytes, which the tests assert literally.

A line encodes a span's :meth:`~repro.obs.span.Span.to_dict` form, so
the shard merge, which splices spans as parsed JSON, writes its trace
without building :class:`~repro.obs.span.Span` objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.obs.span import Span, SpanDict

#: The line encoder, built once: a merged trace has tens of thousands of
#: lines, and ``json.dumps`` with options builds an encoder per call.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def span_to_json(data: SpanDict) -> str:
    """One span, in its :meth:`Span.to_dict` form, as a canonical
    single-line JSON object."""
    return _LINE_ENCODER.encode(data)


def span_dicts_to_jsonl(spans: Iterable[SpanDict]) -> str:
    """Spans in their :meth:`Span.to_dict` form as canonical JSONL
    (trailing newline included)."""
    lines = [span_to_json(data) for data in spans]
    return "\n".join(lines) + "\n" if lines else ""


def trace_to_jsonl(spans: Iterable[Span]) -> str:
    """The whole trace as canonical JSONL (trailing newline included)."""
    return span_dicts_to_jsonl(span.to_dict() for span in spans)


def write_trace(path: Union[str, Path], spans: Iterable[Span]) -> Path:
    """Write a JSONL trace file; returns the path written."""
    path = Path(path)
    path.write_text(trace_to_jsonl(spans))
    return path


def parse_span_dicts(text: str) -> List[SpanDict]:
    """Parse a JSONL trace into its lines' span dicts (inverse of
    :func:`span_dicts_to_jsonl`)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def parse_trace(text: str) -> List[Span]:
    """Parse a JSONL trace back into spans (inverse of
    :func:`trace_to_jsonl`)."""
    return [Span.from_dict(data) for data in parse_span_dicts(text)]


def read_trace(path: Union[str, Path]) -> List[Span]:
    """Read a JSONL trace file written by :func:`write_trace`."""
    return parse_trace(Path(path).read_text())
