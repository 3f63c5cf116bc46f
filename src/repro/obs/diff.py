"""Diffing two canonical JSONL export files (traces or probe ledgers).

The exports are byte-stable by construction, so the interesting question
is never "are the files equal?" (``cmp`` answers that) but *where* two
runs diverged: which spans or ledger entries were added, which vanished,
and which changed in place -- field by field.  ``python -m repro.obs
diff`` exposes this; CI uses it to assert that two same-seed crawls (or
an interrupted-and-resumed crawl and its uninterrupted twin) produced
zero differences.  A sharded crawl is diffed through its merged
``crawl.trace.jsonl`` / ``crawl.ledger.jsonl``, which the shard merge
writes once every shard is done.

Records are keyed by their stable sequential id (``span_id`` for
traces, ``entry_id`` for ledgers); the kind of each file is detected
from that key, and diffing a trace against a ledger is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.obs.export import canonical_json

#: id key per export kind; doubles as the kind detector.
_ID_KEYS = {"trace": "span_id", "ledger": "entry_id"}


class ExportKindError(ValueError):
    """Raised when a file is not a recognised export, or kinds differ."""


@dataclass
class FieldChange:
    """One field whose value differs between the two files."""

    field: str
    a: Any
    b: Any

    def to_dict(self) -> Dict[str, Any]:
        return {"field": self.field, "a": self.a, "b": self.b}


@dataclass
class RecordChange:
    """One record (same id in both files) with differing fields."""

    record_id: int
    changes: List[FieldChange]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record_id": self.record_id,
            "changes": [c.to_dict() for c in self.changes],
        }


@dataclass
class ExportDiff:
    """The structured difference between two exports of one kind."""

    kind: str
    #: ids present only in the second (``b``) file.
    added: List[int] = field(default_factory=list)
    #: ids present only in the first (``a``) file.
    removed: List[int] = field(default_factory=list)
    changed: List[RecordChange] = field(default_factory=list)
    a_total: int = 0
    b_total: int = 0

    @property
    def identical(self) -> bool:
        return not (self.added or self.removed or self.changed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "identical": self.identical,
            "a_total": self.a_total,
            "b_total": self.b_total,
            "added": self.added,
            "removed": self.removed,
            "changed": [c.to_dict() for c in self.changed],
        }

    # -- rendering -------------------------------------------------------

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self, limit: int = 20) -> str:
        """A unified-diff-flavoured summary; ``limit`` caps the per-
        section detail lines (0 = no cap)."""
        lines = [
            f"kind: {self.kind}",
            f"records: a={self.a_total} b={self.b_total}",
        ]
        if self.identical:
            lines.append("identical: yes")
            return "\n".join(lines) + "\n"
        lines.append(
            "identical: no "
            f"(+{len(self.added)} -{len(self.removed)} "
            f"~{len(self.changed)})"
        )
        id_key = _ID_KEYS[self.kind]
        for sign, ids in (("+", self.added), ("-", self.removed)):
            for record_id in _capped(ids, limit):
                lines.append(f"  {sign} {id_key}={record_id}")
            lines.extend(_overflow(ids, limit))
        for change in _capped(self.changed, limit):
            for delta in change.changes:
                lines.append(
                    f"  ~ {id_key}={change.record_id} {delta.field}: "
                    f"{_fmt(delta.a)} -> {_fmt(delta.b)}"
                )
        lines.extend(_overflow(self.changed, limit))
        return "\n".join(lines) + "\n"


def _capped(items: List[Any], limit: int) -> List[Any]:
    return items if limit <= 0 else items[:limit]


def _overflow(items: List[Any], limit: int) -> List[str]:
    if 0 < limit < len(items):
        return [f"  ... {len(items) - limit} more"]
    return []


def _fmt(value: Any) -> str:
    return canonical_json(value)


# -- loading ------------------------------------------------------------------


def detect_kind(record: Dict[str, Any]) -> str:
    """``"trace"`` or ``"ledger"``, from the record's id key."""
    for kind, id_key in _ID_KEYS.items():
        if id_key in record:
            return kind
    raise ExportKindError(
        "record has neither span_id nor entry_id; not a repro.obs export"
    )


def load_export(path: Union[str, Path]) -> Tuple[str, Dict[int, Dict[str, Any]]]:
    """Load a JSONL export as ``(kind, {id: record})``.

    An empty file loads as an empty trace (kind cannot be detected, and
    the distinction does not matter for an empty record set).
    """
    records: Dict[int, Dict[str, Any]] = {}
    kind = ""
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        record_kind = detect_kind(record)
        if not kind:
            kind = record_kind
        elif record_kind != kind:
            raise ExportKindError(f"{path}: mixed {kind}/{record_kind} records")
        records[int(record[_ID_KEYS[kind]])] = record
    return kind or "trace", records


# -- diffing ------------------------------------------------------------------


def diff_records(
    kind: str,
    a: Dict[int, Dict[str, Any]],
    b: Dict[int, Dict[str, Any]],
) -> ExportDiff:
    """Diff two id-keyed record maps of the same kind."""
    result = ExportDiff(kind=kind, a_total=len(a), b_total=len(b))
    result.added = sorted(set(b) - set(a))
    result.removed = sorted(set(a) - set(b))
    for record_id in sorted(set(a) & set(b)):
        record_a, record_b = a[record_id], b[record_id]
        fields = sorted(set(record_a) | set(record_b))
        changes = [
            FieldChange(name, record_a.get(name), record_b.get(name))
            for name in fields
            if record_a.get(name) != record_b.get(name)
        ]
        if changes:
            result.changed.append(RecordChange(record_id, changes))
    return result


def diff_exports(
    path_a: Union[str, Path], path_b: Union[str, Path]
) -> ExportDiff:
    """Diff two export files (both traces, or both ledgers).

    A genuinely empty file takes the other file's kind: zero records
    diff cleanly against either kind.
    """
    kind_a, records_a = load_export(path_a)
    kind_b, records_b = load_export(path_b)
    if records_a and records_b and kind_a != kind_b:
        raise ExportKindError(
            f"cannot diff a {kind_a} export against a {kind_b} export"
        )
    kind = kind_a if records_a else kind_b
    return diff_records(kind, records_a, records_b)
