"""Supervisor checkpoints: the version-3 layout and its encoding.

A checkpoint file is exactly ``json.dumps(payload)`` of the dict
:func:`checkpoint_payload` lays out (default separators, key order as
listed there).  The supervisor writes one at site boundaries and at
crawl end; the shard merge writes one from its merged parts; both go
through :func:`write_checkpoint`, so the layout is written down once.

A checkpoint grows only through three lists -- visit records, spans and
probe-ledger entries -- and an item never changes once it is in its
list, except that a span stays open until it ends.  An
:class:`EncodedList` therefore keeps each item's JSON text and hands it
back as an :class:`EncodedArray`, which :func:`dumps` splices verbatim:
a write re-encodes only what is new, the spans still open, and the small
parts (clock, stats, browsers, ids, probe sizes), yet produces the same
bytes as encoding the whole payload.

:func:`split_checkpoint` reads that layout back: the parsed document
plus where each top-level value's text lies, so the shard merge can
splice the shards' record arrays into its own checkpoint verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Version 2 added the ``trace`` field that carries the observability
#: state across interruptions, and the optional ``ledger`` field (present
#: only when the supervisor was built with a probe ledger).  Version 3
#: drops the ``metrics`` field, which the metrics export now folds from
#: the trace and the ledger, and adds the ledger's ``probe_sizes``.
CHECKPOINT_VERSION = 3


class EncodedArray:
    """A JSON array whose items are already encoded, spliced by :func:`dumps`.

    ``texts`` are joined verbatim between the brackets: the items' JSON
    texts with their ``", "`` separators, as ``json.dumps`` lays them
    out.  An :class:`EncodedList` keeps one item per text (each later one
    behind its separator); the shard merge splices one shard's record
    array per text, with a ``", "`` text between two shards.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: List[str]) -> None:
        self.texts = texts


def dumps(value: Any) -> str:
    """``json.dumps(value)``, with :class:`EncodedArray` values spliced in.

    Dicts are walked (their keys must be strings, as every checkpoint
    key is); any other value is encoded by ``json.dumps``, so an
    :class:`EncodedArray` may sit in a dict but not inside a list.  The
    document is joined once: a checkpoint runs to tens of megabytes,
    and every intermediate copy of it would cost as much as its write.
    """
    parts: List[str] = []
    _encode(value, parts)
    return "".join(parts)


def _encode(value: Any, parts: List[str]) -> None:
    if isinstance(value, EncodedArray):
        parts.append("[")
        parts.extend(value.texts)
        parts.append("]")
    elif isinstance(value, dict):
        parts.append("{")
        for index, (key, item) in enumerate(value.items()):
            parts.append((", " if index else "") + json.dumps(key) + ": ")
            _encode(item, parts)
        parts.append("}")
    else:
        parts.append(json.dumps(value))


_DECODER = json.JSONDecoder()


def split_checkpoint(
    text: str,
) -> Tuple[Dict[str, Any], Dict[str, Tuple[int, int]]]:
    """Parse a checkpoint :func:`dumps` wrote, and locate its top-level
    values.

    Returns ``(json.loads(text), offsets)``: ``text[start:end]`` is the
    JSON text of the value at ``key`` for ``offsets[key] == (start,
    end)``.  The top level must be laid out exactly as :func:`dumps`
    lays out a dict -- ``{``, ``"key": value`` items joined by ``", "``,
    ``}`` and nothing after it -- or :class:`ValueError` is raised.
    """
    payload: Dict[str, Any] = {}
    offsets: Dict[str, Tuple[int, int]] = {}
    position = _expect(text, 0, "{")
    last = len(text) - 1
    while position < last:
        if payload:
            position = _expect(text, position, ", ")
        key, end = _DECODER.raw_decode(text, position)
        if (
            not isinstance(key, str)
            or key in payload
            or text[position:end] != json.dumps(key)
        ):
            raise ValueError(f"checkpoint layout: bad key at char {position}")
        position = _expect(text, end, ": ")
        payload[key], end = _DECODER.raw_decode(text, position)
        offsets[key] = (position, end)
        position = end
    if position != last or not text.endswith("}"):
        raise ValueError(f"checkpoint layout: no closing brace at char {position}")
    return payload, offsets


def _expect(text: str, position: int, token: str) -> int:
    if not text.startswith(token, position):
        raise ValueError(f"checkpoint layout: expected {token!r} at char {position}")
    return position + len(token)


class EncodedList:
    """The JSON array of one append-only list, each item encoded once.

    ``final`` tells whether an item can still change (a span is final
    once it ends); items that were not final when last encoded are
    encoded again on the next call.  Nothing else is: the list passed to
    :meth:`array` must be the one list the kept texts were encoded from,
    grown only at its end.
    """

    def __init__(self, final: Callable[[Any], bool] = lambda item: True) -> None:
        self._final = final
        self._texts: List[str] = []
        self._unfinal: List[int] = []

    def array(self, items: Sequence[Any]) -> EncodedArray:
        """``items`` as a JSON array, encoding only the items that are
        new or were not final at the previous call."""
        texts = self._texts
        unfinal, self._unfinal = self._unfinal, []
        for index in unfinal:
            texts[index] = self._encode(items, index)
        for index in range(len(texts), len(items)):
            texts.append(self._encode(items, index))
        return EncodedArray(texts)

    def _encode(self, items: Sequence[Any], index: int) -> str:
        item = items[index]
        if not self._final(item):
            self._unfinal.append(index)
        text = json.dumps(item.to_dict())
        return ", " + text if index else text


class CheckpointTexts:
    """The JSON one ``crawl()`` call keeps for its records, spans and
    probe-ledger entries, so each of its checkpoint writes encodes only
    what changed since the last."""

    def __init__(self) -> None:
        self.records = EncodedList()
        self.spans = EncodedList(final=lambda span: not span.open)
        self.entries = EncodedList()


def checkpoint_payload(
    *,
    crawler_name: str,
    seed: int,
    instances: int,
    clock_ms: float,
    stats: Dict[str, int],
    browsers: List[Dict[str, int]],
    trace: Optional[Dict[str, Any]],
    records: Any,
    ledger: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The version-3 checkpoint document.

    ``trace`` is ``None`` for an untraced crawl.  Only a ledger-enabled
    crawl writes the ``ledger`` key.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "crawler_name": crawler_name,
        "seed": seed,
        "instances": instances,
        "clock_ms": clock_ms,
        "stats": stats,
        "browsers": browsers,
        "trace": trace,
        "records": records,
    }
    if ledger is not None:
        payload["ledger"] = ledger
    return payload


def write_checkpoint(path: Path, payload: Dict[str, Any]) -> None:
    """Atomically replace ``path`` with the encoded ``payload``."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(dumps(payload))
    tmp.replace(path)
