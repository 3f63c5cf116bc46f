"""The recording website of Appendix E.

The paper measures interaction "from the website perspective" with a page
whose JavaScript records events.  :class:`EventRecorder` plays that role:
it subscribes to a window/document for the Appendix D covering set (or any
requested set) and stores the raw timeline, with typed accessors the
analysis layer builds on.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.events.event import Event
from repro.events.taxonomy import COVERING_SET_EVENTS


class EventRecorder:
    """Records dispatched events in arrival order.

    ``events`` is append-only between :meth:`clear` calls: events may be
    appended to it directly (as ``deserialize_recording`` does), but not
    removed, reordered or replaced in place.  :meth:`of_type` answers
    from a per-type index of positions in ``events`` that relies on
    this; :meth:`clear` resets it, and a reassigned or shorter ``events``
    list rebuilds it.

    Parameters
    ----------
    event_types:
        Event names to record; defaults to the Appendix D covering set.
        An empty selection records nothing.
    """

    def __init__(self, event_types: Optional[Iterable[str]] = None) -> None:
        self.event_types: Tuple[str, ...] = tuple(
            COVERING_SET_EVENTS if event_types is None else event_types
        )
        self.events: List[Event] = []
        #: ``(target, listener)`` per :meth:`attach` call.
        self._attached_to: List[Tuple[object, Callable[[Event], None]]] = []
        #: event type -> positions in ``_indexed`` (the list the index
        #: covers), for its first ``_indexed_len`` events.
        self._positions: Dict[str, List[int]] = {}
        self._indexed: Optional[List[Event]] = None
        self._indexed_len = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, target) -> "EventRecorder":
        """Subscribe to ``target`` (a window, document or element).

        The listener is the bound ``append`` of the current ``events``
        list, so recording an event runs no Python frame.  Reassign
        ``events`` only before attaching (or re-attach afterwards).
        """
        record = self.events.append
        for event_type in self.event_types:
            target.add_event_listener(event_type, record)
        self._attached_to.append((target, record))
        return self

    def detach(self) -> None:
        """Unsubscribe from every previously attached target."""
        for target, record in self._attached_to:
            for event_type in self.event_types:
                target.remove_event_listener(event_type, record)
        self._attached_to.clear()

    def clear(self) -> None:
        """Drop all recorded events (and the type index)."""
        self.events.clear()
        self._indexed = None

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def of_type(self, *event_types: str) -> List[Event]:
        """Recorded events whose type is one of ``event_types``, in arrival
        order, each once, in a new list.

        Answered from the type index: the first query builds it in one
        pass over ``events``, later ones extend it over the events
        appended since.
        """
        events = self.events
        start = self._indexed_len
        if events is not self._indexed or len(events) < start:
            self._positions = {}
            self._indexed = events
            start = 0
        positions = self._positions
        end = self._indexed_len = len(events)
        for index in range(start, end):
            positions.setdefault(events[index].type, []).append(index)
        if len(event_types) == 1:
            hits = positions.get(event_types[0], ())
        else:
            hits = sorted(
                index
                for kind in set(event_types)
                for index in positions.get(kind, ())
            )
        return [events[index] for index in hits]

    def mouse_path(self) -> List[Tuple[float, float, float]]:
        """``(timestamp, x, y)`` triples of every mousemove, in order."""
        return [
            (e.timestamp, e.client_x, e.client_y) for e in self.of_type("mousemove")
        ]

    def clicks(self) -> List["ClickRecord"]:
        """Pair up mousedown/mouseup into clicks with dwell times.

        Unmatched downs (button still held at the end of the recording) are
        omitted.
        """
        records: List[ClickRecord] = []
        pending: dict = {}
        for event in self.of_type("mousedown", "mouseup"):
            if event.type == "mousedown":
                pending[event.button] = event
            else:
                down = pending.pop(event.button, None)
                if down is not None:
                    records.append(ClickRecord(down=down, up=event))
        return records

    def key_strokes(self) -> List["KeyStroke"]:
        """Pair up keydown/keyup into keystrokes with dwell times.

        Interleaved (rollover) typing is handled: each keyup matches the
        oldest unmatched keydown *of the same key*.
        """
        strokes: List[KeyStroke] = []
        pending: dict = {}
        for event in self.of_type("keydown", "keyup"):
            if event.type == "keydown":
                pending.setdefault(event.key, []).append(event)
            else:
                downs = pending.get(event.key)
                if downs:
                    strokes.append(KeyStroke(down=downs.pop(0), up=event))
        strokes.sort(key=lambda s: s.down.timestamp)
        return strokes

    def wheel_ticks(self) -> List[Event]:
        """All wheel events, in order."""
        return self.of_type("wheel")

    def scroll_events(self) -> List[Event]:
        """All scroll events, in order."""
        return self.of_type("scroll")

    def time_span(self) -> float:
        """Milliseconds between the first and last recorded event."""
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].timestamp - self.events[0].timestamp


class ClickRecord:
    """A matched mousedown/mouseup pair."""

    def __init__(self, down: Event, up: Event) -> None:
        self.down = down
        self.up = up

    @property
    def dwell_ms(self) -> float:
        """Time the button was held (paper: Selenium's is negligible)."""
        return self.up.timestamp - self.down.timestamp

    @property
    def position(self) -> Tuple[float, float]:
        """Viewport coordinates of the press."""
        return (self.down.client_x, self.down.client_y)

    @property
    def button(self) -> int:
        return self.down.button

    @property
    def target(self):
        return self.down.target

    @property
    def target_box(self):
        """The target's layout box *at press time* (moving elements keep
        their dispatch-time geometry here)."""
        return self.down.target_box

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Click {self.position} dwell={self.dwell_ms:.1f}ms>"


class KeyStroke:
    """A matched keydown/keyup pair."""

    def __init__(self, down: Event, up: Event) -> None:
        self.down = down
        self.up = up

    @property
    def key(self) -> str:
        return self.down.key

    @property
    def dwell_ms(self) -> float:
        """Time the key was held down."""
        return self.up.timestamp - self.down.timestamp

    def flight_ms_to(self, next_stroke: "KeyStroke") -> float:
        """Flight time: this key's release to the next key's press.

        Negative values indicate rollover (the next key was pressed before
        this one was released), which the paper observed in fast human
        typing and never in Selenium's.
        """
        return next_stroke.down.timestamp - self.up.timestamp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KeyStroke {self.key!r} dwell={self.dwell_ms:.1f}ms>"


def flight_times(strokes: Sequence[KeyStroke]) -> List[float]:
    """Flight times between consecutive keystrokes."""
    return [
        strokes[i].flight_ms_to(strokes[i + 1]) for i in range(len(strokes) - 1)
    ]
