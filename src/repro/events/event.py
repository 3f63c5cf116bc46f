"""The event object dispatched through the simulated browser.

A single class covers mouse, wheel, keyboard, touch and focus events; the
fields irrelevant to a given type stay at their neutral defaults, mirroring
how DOM event interfaces share a common base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple


@dataclass(slots=True)
class Event:
    """A DOM-style interaction event.

    Slotted: an input session builds thousands of these, so an instance
    carries no ``__dict__`` and only the declared fields can be assigned.
    The input pipeline builds events positionally, in field order.

    Attributes
    ----------
    type:
        Event name (one of :data:`repro.events.taxonomy.ALL_INTERACTION_EVENTS`).
    timestamp:
        Milliseconds since page load, quantised to the browser's event
        granularity (1 ms, per Appendix D).
    target:
        The :class:`~repro.dom.element.Element` (or document/window object)
        the event fired on.
    client_x / client_y:
        Pointer position in viewport coordinates (integer-valued floats, as
        browsers report integers).
    page_x / page_y:
        Pointer position in page coordinates (client + scroll offset).
    button / buttons:
        Pressed button for down/up events (0 left, 1 middle, 2 right) and
        the button bitmask held during the event.
    delta_x / delta_y:
        Wheel deltas in pixels.
    key / code:
        Logical key value (e.g. ``"A"``) and physical code (e.g. ``"KeyA"``).
    shift_key / ctrl_key / alt_key / meta_key:
        Modifier state at dispatch time.  The paper notes Selenium emits
        capital letters *without* a Shift press -- detectable here.
    detail:
        Click count for click/dblclick (as in the DOM).
    is_trusted:
        ``True`` for events produced by the input pipeline; scripts that
        synthesise events (``dispatchEvent``) produce untrusted ones.
    """

    type: str
    timestamp: float
    target: Any = None
    client_x: float = 0.0
    client_y: float = 0.0
    page_x: float = 0.0
    page_y: float = 0.0
    button: int = 0
    buttons: int = 0
    delta_x: float = 0.0
    delta_y: float = 0.0
    key: str = ""
    code: str = ""
    shift_key: bool = False
    ctrl_key: bool = False
    alt_key: bool = False
    meta_key: bool = False
    detail: int = 0
    is_trusted: bool = True
    #: Snapshot of the target element's layout box at dispatch time (what
    #: a handler reading ``getBoundingClientRect`` would have seen).  The
    #: live ``target.box`` may change later (moving elements), so
    #: analysis code must use this snapshot.
    target_box: Any = None
    #: Free-form extras (e.g. visibility state for ``visibilitychange``);
    #: ``None`` for the events that carry none.
    extra: Optional[dict] = None

    @property
    def client_point(self) -> Tuple[float, float]:
        """Viewport coordinates as a tuple."""
        return (self.client_x, self.client_y)

    @property
    def modifiers(self) -> Tuple[bool, bool, bool, bool]:
        """``(shift, ctrl, alt, meta)`` modifier flags."""
        return (self.shift_key, self.ctrl_key, self.alt_key, self.meta_key)

    def target_id(self) -> Optional[str]:
        """The target element's id, if the target is an element with one."""
        return getattr(self.target, "id", None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"{self.type}@{self.timestamp:.0f}ms"]
        if self.type.startswith(("mouse", "click", "dblclick", "aux", "context", "pointer")):
            bits.append(f"({self.client_x:.0f},{self.client_y:.0f})")
        if self.key:
            bits.append(f"key={self.key!r}")
        if self.delta_y:
            bits.append(f"dy={self.delta_y:.0f}")
        return f"<Event {' '.join(bits)}>"
