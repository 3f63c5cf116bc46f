"""Listener registration and bubbling dispatch.

A trimmed-down DOM event flow: events dispatched on an element bubble up
through its ancestors to the document and then the window, except for the
handful of non-bubbling types (``focus``/``blur``, ``mouseenter``/
``mouseleave``), matching the semantics detectors rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.events.event import Event

Listener = Callable[[Event], None]

#: Event types that do not propagate upwards in this model.  In the real
#: DOM, ``focus``/``blur`` and ``scroll`` do not *bubble* either, but they
#: are observable at the document/window via the capture phase (or their
#: bubbling twins ``focusin``/``focusout``); since this model has no
#: capture phase, they are allowed to propagate so a document-level
#: recorder sees what a real instrumented page sees.
NON_BUBBLING = frozenset({"mouseenter", "mouseleave", "load"})


class EventTarget:
    """Mixin providing ``addEventListener``-style listener management.

    Every target holds ``parent_target``, the next target in the bubbling
    path, as a plain attribute (``None`` ends the path, as on a window),
    so a dispatch reads one attribute per node.  The owning class keeps
    the link current as its tree changes: an element links to its parent,
    else its document (:class:`~repro.dom.element.Element`), and a
    document to its window (:class:`~repro.dom.document.Document`).
    """

    def __init__(self) -> None:
        self._listeners: Dict[str, List[Listener]] = {}
        #: Next target in the bubbling path (``None`` terminates).
        self.parent_target: Optional[EventTarget] = None

    # -- registration -------------------------------------------------------

    def add_event_listener(self, event_type: str, listener: Listener) -> None:
        """Register ``listener`` for events of ``event_type``."""
        self._listeners.setdefault(event_type, []).append(listener)

    def remove_event_listener(self, event_type: str, listener: Listener) -> None:
        """Unregister a previously added listener (no-op if absent)."""
        listeners = self._listeners.get(event_type)
        if listeners and listener in listeners:
            listeners.remove(listener)

    def listener_count(self, event_type: Optional[str] = None) -> int:
        """Number of listeners for ``event_type`` (or all types)."""
        if event_type is not None:
            return len(self._listeners.get(event_type, []))
        return sum(len(ls) for ls in self._listeners.values())

    # -- dispatch -------------------------------------------------------------

    def dispatch_event(self, event: Event) -> None:
        """Dispatch ``event`` at this target and bubble it upwards.

        Each node on the path looks up its listeners for the event's type
        when the event reaches it, and runs a copy of that list: a
        listener may add a listener to a node further up and have it run
        for this very event, while changes to the node it runs on wait
        for the next event.  Nodes without listeners cost one lookup.
        The walk reads a node's ``parent_target`` when it leaves that
        node, after its listeners ran: a listener that detaches its own
        node stops the bubbling there, and one that moves the target
        elsewhere leaves the rest of the walk on the path it was on.
        """
        if event.target is None:
            event.target = self
        event_type = event.type
        bubbles = event_type not in NON_BUBBLING
        node = self
        while node is not None:
            listeners = node._listeners.get(event_type)
            if listeners:
                for listener in listeners[:]:
                    listener(event)
            node = node.parent_target if bubbles else None
