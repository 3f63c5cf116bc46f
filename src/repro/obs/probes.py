"""The probe ledger: detection-surface tracing in the JS object model.

The paper's Table 1 side effects are the observable residue of detector
probes (``for-in`` enumeration, ``Object.keys``, descriptor
introspection, ``toString`` brand checks) hitting a spoofed
``navigator``.  The ledger records every fundamental operation performed
on *instrumented* objects -- ``get``/``set``/``has``, ``ownKeys``/
``getOwnPropertyDescriptor``/``getPrototypeOf``, getter invocations,
Proxy trap firings (trap vs. forward), ``toString`` renderings and WebIDL
brand checks -- so each side effect can be attributed to the exact
accesses that exposed it.

Determinism contract (same as the span tracer):

- entry ids are sequential in record order;
- timestamps come from a :class:`~repro.clock.VirtualClock`, never the
  wall clock;
- the JSONL export is canonical (``sort_keys``, fixed separators), so
  two same-seed runs -- or an interrupted-and-resumed run and its
  uninterrupted twin -- write byte-identical ledgers.

Instrumentation is attribute-based so :mod:`repro.jsobject` never
imports this package: hook points guard on a ``_probe_ledger`` class
attribute that defaults to ``None``, keeping the ledger-off overhead to
one attribute check per operation.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.clock import VirtualClock
from repro.jsobject.functions import JSFunction, NativeAccessor
from repro.jsobject.jsobject import JSObject
from repro.jsobject.proxy import JSProxy
from repro.obs.export import canonical_json, lines_to_jsonl

#: Scope-label prefix marking one detector probe's accesses; the
#: attribution tooling keys on it.
PROBE_SCOPE_PREFIX = "detector.probe:"

#: Scope-label prefix for a spoofing method's install phase.
SPOOF_SCOPE_PREFIX = "spoof.install:"

#: Object-label prefix marking accesses on the *reference* (pristine)
#: navigator a probe compares against.
REFERENCE_LABEL_PREFIX = "ref:"

class LedgerEntry:
    """One fundamental operation observed on an instrumented object."""

    __slots__ = ("entry_id", "ts_ms", "scope", "obj", "op", "key", "via", "detail")

    def __init__(
        self,
        entry_id: int,
        ts_ms: float,
        scope: str,
        obj: str,
        op: str,
        key: Optional[str] = None,
        via: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.entry_id = entry_id
        self.ts_ms = ts_ms
        #: ``/``-joined scope stack at record time (may be ``""``).
        self.scope = scope
        #: Label of the instrumented object (e.g. ``navigator.__proto__``).
        self.obj = obj
        #: Operation name (``get``, ``ownKeys``, ``toString``, ...).
        self.op = op
        #: Property key, for keyed operations.
        self.key = key
        #: ``"trap"``/``"forward"`` for proxy operations, else ``None``.
        self.via = via
        #: JSON-safe operation payload (result keys, function name, ...).
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry_id": self.entry_id,
            "ts_ms": self.ts_ms,
            "scope": self.scope,
            "obj": self.obj,
            "op": self.op,
            "key": self.key,
            "via": self.via,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LedgerEntry":
        return cls(
            entry_id=int(data["entry_id"]),
            ts_ms=float(data["ts_ms"]),
            scope=str(data["scope"]),
            obj=str(data["obj"]),
            op=str(data["op"]),
            key=data.get("key"),
            via=data.get("via"),
            detail=data.get("detail"),
        )

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, LedgerEntry) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f" via={self.via}" if self.via else ""
        key = f" {self.key!r}" if self.key is not None else ""
        return f"<LedgerEntry #{self.entry_id} {self.obj}.{self.op}{key}{via}>"


class ProbeLedger:
    """An append-only, deterministic record of instrumented operations.

    Parameters
    ----------
    clock:
        Timestamp source; a supervisor re-wires this onto its own shared
        clock (the one checkpoint resume advances in place).
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._entries: List[LedgerEntry] = []
        self._next_id = 1
        self._scope_stack: List[str] = []
        self._scope_str = ""
        #: Entries recorded in each closed ``detector.probe:*`` scope, in
        #: closing order (a probe that reads nothing counts 0): the
        #: ``probe_accesses_per_probe`` histogram of
        #: :func:`~repro.obs.metrics.crawl_metrics`.
        self.probe_sizes: List[int] = []

    # -- recording -------------------------------------------------------

    def record(
        self,
        op: str,
        obj: str,
        key: Optional[str] = None,
        via: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> LedgerEntry:
        entry = LedgerEntry(
            self._next_id,
            self.clock.now(),
            self._scope_str,
            obj,
            op,
            key=key,
            via=via,
            detail=detail,
        )
        self._next_id += 1
        self._entries.append(entry)
        return entry

    @contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Attribute entries recorded inside to ``label`` (nestable)."""
        self._scope_stack.append(label)
        self._scope_str = "/".join(self._scope_stack)
        start = len(self._entries)
        try:
            yield
        finally:
            self._scope_stack.pop()
            self._scope_str = "/".join(self._scope_stack)
            if label.startswith(PROBE_SCOPE_PREFIX):
                self.probe_sizes.append(len(self._entries) - start)

    # -- introspection ---------------------------------------------------

    @property
    def entries(self) -> List[LedgerEntry]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def slice_from(self, start: int) -> List[LedgerEntry]:
        """Entries recorded since ``start`` (= an earlier ``len(self)``)."""
        return self._entries[start:]

    def op_counts(self) -> Dict[str, int]:
        """``{op: count}`` over the whole ledger, sorted by op name."""
        counts: Dict[str, int] = {}
        for entry in self._entries:
            counts[entry.op] = counts.get(entry.op, 0) + 1
        return {op: counts[op] for op in sorted(counts)}

    # -- serialisation ---------------------------------------------------

    def state_dict(self, entries: Any = None) -> Dict[str, Any]:
        """JSON-safe snapshot of the ledger.

        ``entries`` stands in for the encoded entry list: a checkpoint
        writer passes the JSON array it keeps for :attr:`entries`.
        """
        return {
            "next_id": self._next_id,
            "scopes": list(self._scope_stack),
            "probe_sizes": list(self.probe_sizes),
            "entries": (
                [entry.to_dict() for entry in self._entries]
                if entries is None
                else entries
            ),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self._next_id = int(state.get("next_id", 1))
        self._scope_stack = [str(s) for s in state.get("scopes", [])]
        self._scope_str = "/".join(self._scope_stack)
        self.probe_sizes = [int(size) for size in state.get("probe_sizes", [])]
        self._entries = [
            LedgerEntry.from_dict(data) for data in state.get("entries", [])
        ]


# -- canonical JSONL export ---------------------------------------------------


def entry_to_json(entry: LedgerEntry) -> str:
    """One entry as a canonical single-line JSON object."""
    return canonical_json(entry.to_dict())


def ledger_to_jsonl(entries: Iterable[LedgerEntry]) -> str:
    """The whole ledger as canonical JSONL (trailing newline included)."""
    return lines_to_jsonl([entry_to_json(entry) for entry in entries])


def write_ledger(
    path: Union[str, Path], ledger: Union[ProbeLedger, Iterable[LedgerEntry]]
) -> Path:
    """Write a JSONL ledger file; returns the path written."""
    entries = ledger.entries if isinstance(ledger, ProbeLedger) else ledger
    path = Path(path)
    path.write_text(ledger_to_jsonl(entries))
    return path


def parse_ledger(text: str) -> List[LedgerEntry]:
    """Parse JSONL back into entries (inverse of :func:`ledger_to_jsonl`)."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            entries.append(LedgerEntry.from_dict(json.loads(line)))
    return entries


def read_ledger(path: Union[str, Path]) -> List[LedgerEntry]:
    """Read a JSONL ledger file written by :func:`write_ledger`."""
    return parse_ledger(Path(path).read_text())


# -- instrumentation ----------------------------------------------------------


def _attach_function(fn: Any, ledger: ProbeLedger, label: str) -> None:
    if isinstance(fn, NativeAccessor):
        fn._probe_ledger = ledger
        fn._probe_label = label
        fn.get_function._probe_ledger = ledger
        fn.get_function._probe_label = label
    elif isinstance(fn, JSFunction):
        fn._probe_ledger = ledger
        fn._probe_label = label


def instrument(obj: Any, ledger: ProbeLedger, label: str = "navigator") -> Any:
    """Attach ``ledger`` to an object graph: the object, its prototype
    chain, and every function value / native accessor hanging off them.

    Prototypes are labelled ``<label>.__proto__[...]``, functions and
    accessors ``<owner-label>.<property>``.  A proxy and its target share
    the proxy's label -- the ``via`` field of proxy entries distinguishes
    the layers.  Attaching records nothing and is idempotent, so callers
    may re-instrument after a spoof replaced parts of the graph.
    """
    node: Any = obj
    lbl = label
    seen = set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        node._probe_ledger = ledger
        node._probe_label = lbl
        if isinstance(node, JSProxy):
            node = node.target
            continue
        if not isinstance(node, JSObject):
            break
        for name, desc in node._own.items():
            _attach_function(desc.value, ledger, f"{lbl}.{name}")
            _attach_function(desc.get, ledger, f"{lbl}.{name}")
            _attach_function(desc.set, ledger, f"{lbl}.{name}")
        node = node._proto
        lbl = lbl + ".__proto__"
    return obj


def instrument_window(window: Any, ledger: ProbeLedger) -> Any:
    """Instrument a window's navigator graph and remember the ledger on
    the window, so detection re-instruments after spoofing swaps the
    navigator object out."""
    window.probe_ledger = ledger
    instrument(window.navigator, ledger, "navigator")
    return window


def ledger_of(obj: Any) -> Optional[ProbeLedger]:
    """The ledger an object (or window) is instrumented with, if any."""
    ledger = getattr(obj, "probe_ledger", None)
    if ledger is None:
        ledger = getattr(obj, "_probe_ledger", None)
    return ledger
