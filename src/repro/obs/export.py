"""Byte-stable trace serialisation: JSONL out, JSONL in.

One JSON object per line, one line per span, in ``span_id`` (= start)
order, with sorted keys and minimal separators.  Because every value in
a span derives from the seed and the virtual clock, two crawls with the
same seed -- or one interrupted-and-resumed crawl and its uninterrupted
twin -- serialise to the same bytes, which the tests assert literally.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.obs.span import Span

_SEPARATORS = (",", ":")


def span_to_json(span: Span) -> str:
    """One span as a canonical single-line JSON object."""
    return json.dumps(span.to_dict(), sort_keys=True, separators=_SEPARATORS)


def trace_to_jsonl(spans: Iterable[Span]) -> str:
    """The whole trace as canonical JSONL (trailing newline included)."""
    lines = [span_to_json(span) for span in spans]
    return "\n".join(lines) + "\n" if lines else ""


def write_trace(path: Union[str, Path], spans: Iterable[Span]) -> Path:
    """Write a JSONL trace file; returns the path written."""
    path = Path(path)
    path.write_text(trace_to_jsonl(spans))
    return path


def parse_trace(text: str) -> List[Span]:
    """Parse a JSONL trace back into spans (inverse of
    :func:`trace_to_jsonl`)."""
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def read_trace(path: Union[str, Path]) -> List[Span]:
    """Read a JSONL trace file written by :func:`write_trace`."""
    return parse_trace(Path(path).read_text())
