"""Supervisor checkpoints: the version-4 layout, its encoding and its reader.

A checkpoint is one JSON object with its keys in the order
:func:`checkpoint_payload` lists them.  Every value but three arrays is
encoded as ``json.dumps`` encodes it (``", "`` and ``": "``
separators).  The three arrays hold their items in export encoding --
:func:`~repro.obs.export.canonical_json`, items joined by ``,``:

- the trace's ``spans``: each item is its ``crawl.trace.jsonl`` line;
- the ledger's ``entries``: each item is its ``crawl.ledger.jsonl`` line;
- ``records``, the last key: each item is its element of
  ``crawl.records.json``.  ``records_sha256``, just before it, is the
  sha256 of the array's text, brackets included.

A span and a ledger entry are the same dict in the tracer or ledger,
in the checkpoint and in their export file, so each item is encoded as
it is, and decoded back to the dict it was.

The supervisor writes a checkpoint at site boundaries and at crawl end,
through :func:`write_checkpoint`; the shard merge writes one from its
merged parts.  Both lay it out by :func:`checkpoint_payload` and encode
it by one rule (:func:`dump_parts`), so the layout is written down
once.  Every checkpoint, merged crawl file and shard manifest is
written by :func:`write_atomically`: a part at a time to a ``.tmp``
sibling, which then replaces the file, so no writer holds a document
whole and a failed write leaves the previous file as it was.

A checkpoint grows only through those three lists, and an item never
changes once it is in its list, except that a span stays open until it
ends.  An :class:`EncodedList` therefore keeps each item's text and
hands it back as an :class:`EncodedArray`, which :func:`dump_parts`
splices verbatim: a write encodes only what is new, the spans still
open, and the small values (clock, stats, browsers, ids, probe sizes).
The record list also keeps a running sha256 of its text, so no write
hashes the whole array.

:func:`read_checkpoint` is the one reader, for resume and for the shard
merge.  It checks the layout, the version and the record digest, decodes
every other value, and hands the record array back as text -- located,
never decoded -- so the merge can join the shards' record texts into
its own files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.export import canonical_json

#: Version 2 added the ``trace`` field that carries the observability
#: state across interruptions, and the optional ``ledger`` field (present
#: only when the supervisor was built with a probe ledger).  Version 3
#: dropped the ``metrics`` field, which the metrics export folds from
#: the trace and the ledger, and added the ledger's ``probe_sizes``.
#: Version 4 encodes spans, ledger entries and records in their export
#: encoding, and puts the records last, behind ``records_sha256``.
CHECKPOINT_VERSION = 4


class EncodedArray:
    """A JSON array whose items are already encoded, spliced by
    :func:`dump_parts`.

    ``texts`` are joined verbatim between the brackets: the items'
    canonical texts, each but the first behind its ``,``.  An
    :class:`EncodedList` keeps one item per text; the shard merge passes
    each shard's record array as one text, the ``,`` between two shards
    as a text of its own.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: List[str]) -> None:
        self.texts = texts

    def sha256(self) -> str:
        """The sha256 of the array's JSON text, brackets included."""
        digest = hashlib.sha256(b"[")
        for text in self.texts:
            digest.update(text.encode())
        digest.update(b"]")
        return digest.hexdigest()


def dump_parts(value: Any) -> List[str]:
    """``json.dumps(value)`` as the texts that joined make it, with
    :class:`EncodedArray` values spliced in.

    Dicts are walked (their keys must be strings, as every checkpoint
    key is); any other value is encoded by ``json.dumps``, so an
    :class:`EncodedArray` may sit in a dict but not inside a list.  The
    document is never joined: a checkpoint runs to tens of megabytes,
    and :func:`write_atomically` writes it a part at a time.
    """
    parts: List[str] = []
    _encode(value, parts)
    return parts


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
) -> Tuple[Dict[str, Any], Tuple[int, int]]:
    """Check a checkpoint :func:`dump_parts` encoded, and decode all of
    it but its records.

    Returns ``(head, (start, end))``: ``head`` maps every key but
    ``records`` to ``json.loads`` of its value, and ``text[start:end]``
    is the record array's text, which is located but never decoded.
    Raises :class:`ValueError` unless ``version`` comes first and is
    :data:`CHECKPOINT_VERSION`; the top level is laid out exactly as
    :func:`dump_parts` lays out a dict -- ``{``, ``"key": value`` items
    joined by ``", "``, ``}`` and nothing after it; ``records`` is the
    last key, after ``records_sha256``; and the record text's sha256 is
    ``records_sha256``.
    """
    position = _expect(text, 0, '{"version": ')
    version, position = _DECODER.raw_decode(text, position)
    if version != CHECKPOINT_VERSION:
        raise ValueError("unsupported checkpoint version")
    head: Dict[str, Any] = {"version": version}
    while True:
        position = _expect(text, position, ", ")
        key, end = _DECODER.raw_decode(text, position)
        if (
            not isinstance(key, str)
            or key in head
            or text[position:end] != json.dumps(key)
        ):
            raise ValueError(f"checkpoint layout: bad key at char {position}")
        position = _expect(text, end, ": ")
        if key == "records":
            break
        head[key], position = _DECODER.raw_decode(text, position)
    start, end = position, len(text) - 1
    if not (text.startswith("[", start) and text.endswith("]}")):
        raise ValueError(
            f"checkpoint layout: records at char {start} are not the last value"
        )
    if "records_sha256" not in head:
        raise ValueError("checkpoint layout: no records_sha256 before the records")
    if hashlib.sha256(text[start:end].encode()).hexdigest() != head["records_sha256"]:
        raise ValueError("checkpoint records do not match their records_sha256")
    return head, (start, end)


def _expect(text: str, position: int, token: str) -> int:
    if not text.startswith(token, position):
        raise ValueError(f"checkpoint layout: expected {token!r} at char {position}")
    return position + len(token)


def read_checkpoint(path: Path) -> Tuple[Dict[str, Any], str]:
    """The checkpoint at ``path``: its decoded values but ``records``,
    and the record array's text.

    The one reader for resume and for the shard merge.  A file
    :func:`split_checkpoint` refuses raises :class:`ValueError` naming
    ``path``; nothing is written, so a refused file stays as it was.
    """
    try:
        text = path.read_text()
        head, (start, end) = split_checkpoint(text)
    except ValueError as error:
        raise ValueError(f"{error} in {path}") from None
    return head, text[start:end]


class EncodedList:
    """The JSON array of one append-only list, each item encoded once.

    ``to_json`` encodes one item.  ``final`` tells whether an item can
    still change (a span is final once it ends); items that were not
    final when last encoded are encoded again on the next call.  Nothing
    else is: the list passed to :meth:`array` must be the one list the
    kept texts were encoded from, grown only at its end.
    """

    def __init__(
        self,
        to_json: Callable[[Any], str],
        final: Callable[[Any], bool] = lambda item: True,
    ) -> None:
        self._to_json = to_json
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
        text = self._to_json(item)
        return "," + text if index else text


class HashedList(EncodedList):
    """An :class:`EncodedList` of items that never change, which also
    keeps the sha256 of its array's text as the text grows."""

    def __init__(self, to_json: Callable[[Any], str]) -> None:
        super().__init__(to_json)
        self._digest = hashlib.sha256(b"[")

    def _encode(self, items: Sequence[Any], index: int) -> str:
        # Every item is final, so each index is encoded exactly once,
        # in order: the running digest sees the array's text as written.
        text = super()._encode(items, index)
        self._digest.update(text.encode())
        return text

    def sha256(self) -> str:
        """The sha256 of the array :meth:`array` last returned."""
        digest = self._digest.copy()
        digest.update(b"]")
        return digest.hexdigest()


class CheckpointTexts:
    """The JSON one ``crawl()`` call keeps for its records, spans and
    probe-ledger entries, so each of its checkpoint writes encodes only
    what changed since the last."""

    def __init__(self) -> None:
        self.records = HashedList(lambda record: record.to_json())
        self.spans = EncodedList(
            canonical_json, final=lambda span: span["end_ms"] is not None
        )
        self.entries = EncodedList(canonical_json)


def checkpoint_payload(
    *,
    crawler_name: str,
    seed: int,
    instances: int,
    clock_ms: float,
    stats: Dict[str, int],
    browsers: List[Dict[str, int]],
    trace: Optional[Dict[str, Any]],
    records: EncodedArray,
    records_sha256: str,
    ledger: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The version-4 checkpoint document.

    ``trace`` is ``None`` for an untraced crawl.  Only a ledger-enabled
    crawl writes the ``ledger`` key.  ``records_sha256`` is
    ``records``'s digest (:meth:`EncodedArray.sha256`).
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
    }
    if ledger is not None:
        payload["ledger"] = ledger
    payload["records_sha256"] = records_sha256
    payload["records"] = records
    return payload


def tmp_sibling(path: Path) -> Path:
    """Where an atomic write of ``path`` puts its text before moving it
    into place: ``path`` with ``.tmp`` appended."""
    return path.with_name(path.name + ".tmp")


def write_atomically(files: Sequence[Tuple[Path, Iterable[str]]]) -> None:
    """Write each file's parts to its :func:`tmp_sibling`, a part at a
    time, then move every tmp file into place.

    Whether the writes succeed or raise, no tmp file is left: on
    success each has replaced its file; otherwise they are removed, and
    no file was replaced unless every tmp file was complete.
    """
    tmps = [tmp_sibling(path) for path, _ in files]
    try:
        for tmp, (_, parts) in zip(tmps, files):
            with tmp.open("w") as handle:
                handle.writelines(parts)
        for tmp, (path, _) in zip(tmps, files):
            tmp.replace(path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def write_checkpoint(path: Path, payload: Dict[str, Any]) -> None:
    """Atomically replace ``path`` with the encoded ``payload``."""
    write_atomically([(path, dump_parts(payload))])
