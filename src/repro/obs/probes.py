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

An entry is a plain dict with eight keys (:data:`ENTRY_KEYS`), the same
from :meth:`ProbeLedger.record` to every reader, and the same dict a
``crawl.ledger.jsonl`` line or a checkpoint's entry list parses to:

- ``entry_id``: sequential, 1-based, in record order;
- ``ts_ms``: the virtual clock at record time;
- ``scope``: the ``/``-joined scope stack at record time (may be ``""``);
- ``obj``: the label of the instrumented object (e.g.
  ``navigator.__proto__``);
- ``op``: the operation (``get``, ``ownKeys``, ``toString``, ...);
- ``key``: the property key of a keyed operation, else ``None``;
- ``via``: ``"trap"``/``"forward"`` for a proxy operation, else ``None``;
- ``detail``: the JSON-safe operation payload (result keys, function
  name, ...), or ``None``.

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

#: A ledger entry: the parsed JSON a ledger line or checkpoint item holds.
EntryDict = Dict[str, Any]

#: The keys of every entry.
ENTRY_KEYS = frozenset(
    ("entry_id", "ts_ms", "scope", "obj", "op", "key", "via", "detail")
)


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
        self._entries: List[EntryDict] = []
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
    ) -> None:
        """Append one entry, stamped with the next id, the clock and the
        current scope."""
        self._entries.append(
            {
                "entry_id": self._next_id,
                "ts_ms": self.clock.now(),
                "scope": self._scope_str,
                "obj": obj,
                "op": op,
                "key": key,
                "via": via,
                "detail": detail,
            }
        )
        self._next_id += 1

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
    def entries(self) -> List[EntryDict]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def slice_from(self, start: int) -> List[EntryDict]:
        """Entries recorded since ``start`` (= an earlier ``len(self)``)."""
        return self._entries[start:]

    # -- serialisation ---------------------------------------------------

    def state_dict(self, entries: Any = None) -> Dict[str, Any]:
        """JSON-safe snapshot of the ledger.

        The snapshot holds the ledger's own entry dicts, not copies.
        ``entries`` stands in for the entry list: a checkpoint writer
        passes the JSON array it keeps for :attr:`entries`.
        """
        return {
            "next_id": self._next_id,
            "scopes": list(self._scope_stack),
            "probe_sizes": list(self.probe_sizes),
            "entries": list(self._entries) if entries is None else entries,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Replace the ledger's contents with a checkpointed snapshot,
        adopting its entry dicts."""
        self._next_id = state["next_id"]
        self._scope_stack = list(state["scopes"])
        self._scope_str = "/".join(self._scope_stack)
        self.probe_sizes = list(state["probe_sizes"])
        self._entries = list(state["entries"])


# -- canonical JSONL export ---------------------------------------------------


def ledger_to_jsonl(entries: Iterable[EntryDict]) -> str:
    """The whole ledger as canonical JSONL (trailing newline included)."""
    return lines_to_jsonl([canonical_json(entry) for entry in entries])


def write_ledger(
    path: Union[str, Path], ledger: Union[ProbeLedger, Iterable[EntryDict]]
) -> Path:
    """Write a JSONL ledger file; returns the path written."""
    entries = ledger.entries if isinstance(ledger, ProbeLedger) else ledger
    path = Path(path)
    path.write_text(ledger_to_jsonl(entries))
    return path


def parse_ledger(text: str) -> List[EntryDict]:
    """Parse JSONL back into entries (inverse of :func:`ledger_to_jsonl`).

    Raises :class:`ValueError` on a line that is not an object with
    exactly the :data:`ENTRY_KEYS`.
    """
    entries = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        entry = json.loads(line)
        if not isinstance(entry, dict) or entry.keys() != ENTRY_KEYS:
            raise ValueError(
                f"ledger line {number} is not an entry with the keys "
                f"{', '.join(sorted(ENTRY_KEYS))}"
            )
        entries.append(entry)
    return entries


def read_ledger(path: Union[str, Path]) -> List[EntryDict]:
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
