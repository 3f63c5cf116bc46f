"""The deterministic tracer: builds the per-crawl span tree.

Design constraints, in order:

1. **Determinism** -- span ids are sequential integers, timestamps come
   from the shared :class:`~repro.clock.VirtualClock`, and no global
   state exists, so two runs with the same seed produce byte-identical
   traces.
2. **Resumability** -- :meth:`Tracer.state_dict` /
   :meth:`Tracer.load_state` round-trip the full tracer (finished spans,
   the open-span stack, the id counter), and
   :meth:`Tracer.resume_or_start` re-enters a checkpointed root span, so
   an interrupted-then-resumed crawl's trace equals an uninterrupted
   one's.
3. **Bounded overhead** -- hot paths use explicit ``start``/``end``
   pairs (no generator-based context manager per visit or attempt) and
   the :data:`NULL_TRACER` keeps untraced code at one attribute check.

The tracer deliberately holds a *reference* to the supervisor's clock
rather than a copy: checkpoint resume must advance that one shared
clock in place (see ``CrawlSupervisor._load_checkpoint``), never rebind
it, or the tracer would keep stamping spans from a stale timeline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.clock import VirtualClock
from repro.obs.span import STATUS_OK, SpanDict


class Tracer:
    """Seed- and clock-deterministic span recorder.

    Spans are stored in start order (== ``span_id`` order) and finished
    in strict LIFO discipline: :meth:`end` must receive the innermost
    open span.  Events attach to the innermost open span.  Each span is
    the dict :mod:`repro.obs.span` describes, written in place.
    """

    #: Real tracers record; the shared :data:`NULL_TRACER` does not.
    enabled = True

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._spans: List[SpanDict] = []
        self._stack: List[SpanDict] = []
        self._next_id = 1

    # -- recording -------------------------------------------------------

    def start(self, name: str, **attrs: Any) -> SpanDict:
        """Open a span as a child of the innermost open span."""
        stack = self._stack
        span = {
            "span_id": self._next_id,
            "parent_id": stack[-1]["span_id"] if stack else 0,
            "name": name,
            "start_ms": self.clock.now(),
            "end_ms": None,
            "status": STATUS_OK,
            "attrs": attrs,
            "events": [],
        }
        self._next_id += 1
        self._spans.append(span)
        stack.append(span)
        return span

    def end(self, span: SpanDict) -> SpanDict:
        """Close ``span``; it must be the innermost open span."""
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span['name']!r} is not the innermost open span"
            )
        self._stack.pop()
        span["end_ms"] = self.clock.now()
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanDict]:
        """Context-managed span; marks status on exceptions."""
        span = self.start(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span["status"] = f"error:{type(exc).__name__}"
            raise
        finally:
            self.end(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to the innermost open span.

        Dropped silently when no span is open: events describe work, and
        all instrumented work runs inside a span.
        """
        if self._stack:
            self._stack[-1]["events"].append(
                {"ts_ms": self.clock.now(), "name": name, "attrs": attrs}
            )

    def resume_or_start(self, name: str, **attrs: Any) -> SpanDict:
        """Re-enter a checkpointed root span, or open a fresh one.

        Three cases, in order:

        - an open root span of this name was restored (mid-crawl
          checkpoint): continue it;
        - a *closed* root span of this name was restored (the checkpoint
          was written at crawl end): reopen it, so re-running over the
          same or a grown population extends one timeline instead of
          forking a second root;
        - otherwise start a new root span.
        """
        if self._stack:
            root = self._stack[0]
            if root["name"] == name:
                return root
        for span in self._spans:
            if span["parent_id"] == 0 and span["name"] == name:
                if span["end_ms"] is not None:
                    span["end_ms"] = None
                    self._stack.insert(0, span)
                return span
        return self.start(name, **attrs)

    # -- inspection ------------------------------------------------------

    @property
    def spans(self) -> List[SpanDict]:
        """All spans, in start order (finished and still-open)."""
        return list(self._spans)

    @property
    def open_spans(self) -> List[SpanDict]:
        """The open-span stack, outermost first."""
        return list(self._stack)

    # -- checkpoint state ------------------------------------------------

    def state_dict(self, spans: Any = None) -> Dict[str, Any]:
        """JSON-safe snapshot of the full tracer.

        The snapshot holds the tracer's own span dicts, not copies:
        encode it before recording more.  ``spans`` stands in for the
        span list: a checkpoint writer passes the JSON array it keeps
        for :attr:`spans`.
        """
        return {
            "next_id": self._next_id,
            "open": [span["span_id"] for span in self._stack],
            "spans": list(self._spans) if spans is None else spans,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Replace the tracer's contents with a checkpointed snapshot,
        adopting its span dicts."""
        self._spans = list(state["spans"])
        by_id = {span["span_id"]: span for span in self._spans}
        self._stack = [by_id[span_id] for span_id in state["open"]]
        self._next_id = state["next_id"]


class NullTracer:
    """Inert tracer: records nothing, costs one attribute check.

    Shares the :class:`Tracer` surface so instrumented code never
    branches on "is tracing on?" beyond the ``enabled`` flag (and hot
    paths may skip even the null calls by checking it).
    """

    enabled = False
    clock = None

    def start(self, name: str, **attrs: Any) -> SpanDict:
        """A fresh span that nothing records: instrumented code may write
        its ``status`` and ``attrs``, and no other call sees them."""
        return {
            "span_id": 0,
            "parent_id": 0,
            "name": name,
            "start_ms": 0.0,
            "end_ms": None,
            "status": STATUS_OK,
            "attrs": attrs,
            "events": [],
        }

    def end(self, span: SpanDict) -> SpanDict:
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanDict]:
        yield self.start(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def resume_or_start(self, name: str, **attrs: Any) -> SpanDict:
        return self.start(name, **attrs)

    @property
    def spans(self) -> List[SpanDict]:
        return []

    @property
    def open_spans(self) -> List[SpanDict]:
        return []

    def state_dict(self, spans: Any = None) -> None:
        return None

    def load_state(self, state: Any) -> None:
        return None


#: Shared inert tracer; assign it wherever tracing should be off.
NULL_TRACER = NullTracer()
