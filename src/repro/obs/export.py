"""Byte-stable trace serialisation: JSONL out, JSONL in.

One JSON object per line, one line per span, in ``span_id`` (= start)
order, with sorted keys and minimal separators.  Because every value in
a span derives from the seed and the virtual clock, two crawls with the
same seed -- or one interrupted-and-resumed crawl and its uninterrupted
twin -- serialise to the same bytes, which the tests assert literally.

A line encodes one span dict (:mod:`repro.obs.span`) and parses back
to an equal dict: the tracer, the checkpoint, the shard merge and every
reader share that one form.

:func:`canonical_json` is the one canonical JSON encoding in
``repro``: every trace line, ledger line, canonical export file and
checkpoint item is its text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.obs.span import SpanDict

#: ``value`` as canonical JSON: sorted keys, ``,`` and ``:`` separators,
#: no whitespace.  One encoder, built once: a crawl encodes tens of
#: thousands of spans and records, and ``json.dumps`` with options
#: builds an encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def span_to_json(span: SpanDict) -> str:
    """One span as a canonical single-line JSON object."""
    return canonical_json(span)


def jsonl_parts(lines: Sequence[str]) -> List[str]:
    """Single-line JSON texts as the parts of a JSONL file: one per
    line, trailing newline included; no lines make an empty file.  A
    writer can write the parts one at a time and never hold the file
    whole."""
    return [part for line in lines for part in (line, "\n")]


def lines_to_jsonl(lines: Sequence[str]) -> str:
    """The JSONL file of :func:`jsonl_parts`, joined."""
    return "".join(jsonl_parts(lines))


def trace_to_jsonl(spans: Iterable[SpanDict]) -> str:
    """The whole trace as canonical JSONL (trailing newline included)."""
    return lines_to_jsonl([span_to_json(span) for span in spans])


def write_trace(path: Union[str, Path], spans: Iterable[SpanDict]) -> Path:
    """Write a JSONL trace file; returns the path written."""
    path = Path(path)
    path.write_text(trace_to_jsonl(spans))
    return path


def parse_trace(text: str) -> List[SpanDict]:
    """Parse a JSONL trace back into spans (inverse of
    :func:`trace_to_jsonl`)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def read_trace(path: Union[str, Path]) -> List[SpanDict]:
    """Read a JSONL trace file written by :func:`write_trace`."""
    return parse_trace(Path(path).read_text())
