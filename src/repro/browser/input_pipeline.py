"""OS-level input -> DOM events, with Firefox's quirks.

Every agent in the reproduction -- Selenium, HLISA, the naive baselines,
the generative human and the Appendix G tools -- ultimately produces input
through this pipeline, so detectors observe all of them through the *same*
channel, exactly as a website observes all visitors through the same event
API.

Quirks reproduced from the paper's Appendix D:

- **Wheel ticks**: one wheel `click` scrolls :data:`WHEEL_TICK_PX` = 57 px
  ("the amount scrolled by a scroll-wheel 'click' is fixed (57 pixels in
  our setup)").
- **Double-click interval**: Firefox asks its environment for the maximal
  interval between two clicks of a double click -- 500 ms by default on
  desktop, but 600 ms was observed under Selenium.  The pipeline takes the
  interval as a constructor parameter so a WebDriver-controlled browser
  can exhibit the Selenium value.
- **Mousemove coalescing**: mousemove granularity varies and does not
  correlate with speed; the pipeline rate-limits mousemove dispatch to
  one twin per :data:`MOUSEMOVE_MIN_INTERVAL_MS`.
- **Keyboard timestamps** are quantised to 1 ms by the clock.
- **Programmatic scrolling** (``window.scrollTo``) fires ``scroll``
  without any ``wheel`` event and with arbitrary distance -- Selenium's
  recognisable scrolling style.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.browser.window import Window
from repro.dom.element import Element
from repro.events.event import Event
from repro.geometry import Point

#: Pixels scrolled per mouse-wheel click (paper, Section 4.1/Appendix D).
WHEEL_TICK_PX = 57.0

#: Default maximal interval between two clicks of a double click (ms).
DEFAULT_DOUBLE_CLICK_INTERVAL_MS = 500.0

#: The interval observed when Firefox runs under Selenium (Appendix D).
SELENIUM_DOUBLE_CLICK_INTERVAL_MS = 600.0

#: Minimal time between two dispatched mousemove events (coalescing).
MOUSEMOVE_MIN_INTERVAL_MS = 5.0

#: Mouse buttons, as in ``MouseEvent.button``.
LEFT_BUTTON, MIDDLE_BUTTON, RIGHT_BUTTON = 0, 1, 2

_BUTTON_MASKS = {LEFT_BUTTON: 1, RIGHT_BUTTON: 2, MIDDLE_BUTTON: 4}

#: Modifier key names -> Event attribute.
_MODIFIERS = {
    "Shift": "shift_key",
    "Control": "ctrl_key",
    "Alt": "alt_key",
    # AltGr (ISO layouts) reports as the AltGraph key; browsers surface
    # it through the alt modifier flag.
    "AltGraph": "alt_key",
    "Meta": "meta_key",
}


def key_code_for(key: str) -> str:
    """Physical ``code`` value for a logical key (US layout)."""
    if len(key) == 1:
        if key.isalpha():
            return f"Key{key.upper()}"
        if key.isdigit():
            return f"Digit{key}"
        specials = {
            " ": "Space",
            ".": "Period",
            ",": "Comma",
            ";": "Semicolon",
            "'": "Quote",
            "/": "Slash",
            "\\": "Backslash",
            "-": "Minus",
            "=": "Equal",
        }
        return specials.get(key, "Unidentified")
    if key == "AltGraph":
        return "AltRight"
    if key in ("Shift", "Control", "Alt", "Meta"):
        return f"{key}Left"
    return key  # Enter, Tab, Backspace, ...


class InputPipeline:
    """Synthesises trusted DOM events from OS-level input primitives.

    The one input path: every pointer walk is :meth:`follow_path`,
    :meth:`dispatch_batch` or :meth:`move_mouse_to`, each one
    :meth:`_walk`; focus moves through :meth:`focus`, and a page load
    resets hover through :meth:`page_loaded`.
    """

    def __init__(
        self,
        window: Window,
        *,
        double_click_interval_ms: float = DEFAULT_DOUBLE_CLICK_INTERVAL_MS,
    ) -> None:
        self.window = window
        self.double_click_interval_ms = double_click_interval_ms
        #: Running count of synthesised events (always on; one int add).
        #: ``benchmarks/test_hlisa_events_per_sec.py`` reads deltas
        #: around action batches.
        self.events_dispatched = 0
        #: Current pointer position in *client* (viewport) coordinates.
        #: Starts at (0, 0) -- the tell-tale the paper's Appendix F notes.
        self.pointer = Point(0.0, 0.0)
        #: ``(pointer, scroll_x, scroll_y, client_x, client_y, page_x,
        #: page_y)`` of the last event built: the events of one pointer
        #: sample share one rounding (see :meth:`_base_event`).
        self._rounded: tuple = (None, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self._buttons_mask = 0
        self._pressed_keys: set = set()
        self._modifiers = {attr: False for attr in _MODIFIERS.values()}
        self._hovered: Optional[Element] = None
        self._down_targets: dict = {}
        self._last_click: dict = {}
        self._last_mousemove_ts: Optional[float] = None
        #: HTML5 drag state: the draggable element being dragged (if any),
        #: where the press happened, and the current drop target.
        self._drag_source: Optional[Element] = None
        self._drag_armed_at: Optional[Point] = None
        self._drag_over: Optional[Element] = None

    # -- event construction -----------------------------------------------------

    def _base_event(
        self,
        event_type: str,
        target,
        *,
        button: int = 0,
        detail: int = 0,
        delta_x: float = 0.0,
        delta_y: float = 0.0,
        key: str = "",
        code: str = "",
    ) -> Event:
        """A trusted event reading the clock, pointer, scroll offset,
        buttons and modifiers now (each event takes its own snapshot: a
        listener may move the pointer or scroll between the two events of
        a pointer twin).  The four rounded coordinates are reused while
        the pointer is the same object (``Point`` is immutable) and both
        scroll offsets are equal, so the events of one pointer sample
        round once.  Built positionally, in :class:`Event` field order:
        it runs once per synthesised event."""
        self.events_dispatched += 1
        window = self.window
        pointer = self.pointer
        scroll_x = window.scroll_x
        scroll_y = window.scroll_y
        rounded = self._rounded
        if rounded[0] is not pointer or rounded[1] != scroll_x or rounded[2] != scroll_y:
            rounded = self._round(pointer, scroll_x, scroll_y)
        modifiers = self._modifiers
        return Event(
            event_type,
            window.clock.event_timestamp(),
            target,
            rounded[3],
            rounded[4],
            rounded[5],
            rounded[6],
            button,
            self._buttons_mask,
            delta_x,
            delta_y,
            key,
            code,
            modifiers["shift_key"],
            modifiers["ctrl_key"],
            modifiers["alt_key"],
            modifiers["meta_key"],
            detail,
            True,
            getattr(target, "box", None),
        )

    def _round(self, pointer: Point, scroll_x: float, scroll_y: float) -> tuple:
        """Round ``pointer`` and its page position, and keep the result
        as :attr:`_rounded` for the next event of the same sample."""
        x, y = pointer
        # ``float(round(v))``, not ``round(v, 0)``: the latter keeps the
        # sign of a small negative (``-0.0``).
        rounded = self._rounded = (
            pointer,
            scroll_x,
            scroll_y,
            float(round(x)),
            float(round(y)),
            float(round(x + scroll_x)),
            float(round(y + scroll_y)),
        )
        return rounded

    def _element_under_pointer(self) -> Element:
        window = self.window
        x, y = self.pointer
        return window.document.element_at((x + window.scroll_x, y + window.scroll_y))

    # -- mouse movement -----------------------------------------------------------

    def move_mouse_to(self, x: float, y: float, force_event: bool = False) -> Optional[Event]:
        """Move the OS cursor to client coordinates ``(x, y)``.

        One sample of a pointer walk, with no clock advance: the step
        :meth:`_walk` runs per sample (hover transitions, drag progress,
        then at most one ``pointermove``/``mousemove`` pair, rate-limited
        unless ``force_event``).  Returns the dispatched mousemove, or
        ``None`` if it was coalesced away.
        """
        return self._walk(((None, (x, y)),), force_event)[1]

    def dispatch_batch(self, moves) -> int:
        """Advance the clock and move the pointer along ``moves`` in one pass.

        ``moves`` is an iterable of ``(advance_ms, point)`` pairs: the clock
        advance *before* the cursor reaches ``point``.  The final sample's
        mousemove is forced through the rate limiter (the WebDriver
        pointer-move contract), so the event stream is the per-point loop
        of ``clock.advance(advance_ms)`` + :meth:`move_mouse_to`, forcing
        the last, by construction.  Returns the number of mousemove
        events dispatched.
        """
        return self._walk(list(moves), True)[0]

    def follow_path(self, path) -> int:
        """Walk a timed path ``[(t_ms, point), ...]``, times counted from now.

        Each sample advances the clock by ``max(t - previous, 0.0)``, and
        one forced sample at the final point, with no clock advance, ends
        the walk.  The agents, Appendix F behaviours and Table 4 tools
        move the cursor this way.  Returns the number of mousemove events
        dispatched.
        """
        moves = []
        previous = 0.0
        for t, point in path:
            moves.append((max(t - previous, 0.0), point))
            previous = t
        if not moves:
            return 0
        moves.append((None, moves[-1][1]))
        return self._walk(moves, True)[0]

    def _walk(self, moves, force_last: bool) -> Tuple[int, Optional[Event]]:
        """The pointer step, once per ``(advance_ms, (x, y))`` of ``moves``.

        Per sample: advance the clock by ``advance_ms`` (``None``: no
        advance), move the pointer, hit-test the page, fire the hover
        transitions (mouseover/out/enter/leave) when the element under
        the cursor changes, progress a drag, then dispatch one
        ``pointermove``/``mousemove`` twin unless the rate limiter
        coalesces it (less than :data:`MOUSEMOVE_MIN_INTERVAL_MS` after
        the previous twin); ``force_last`` forces the final sample's twin.

        The window and its clock are held in locals.  Whatever a listener
        can change -- hover, drag and coalescing state, the pointer, the
        scroll offsets, buttons, modifiers, the document -- is read per
        sample or per event, so a walk equals its samples run one at a
        time.  The twin is built inline, each event with
        :meth:`_base_event`'s reads.  Returns the number of mousemoves
        dispatched and the final sample's mousemove (``None`` if it was
        coalesced).
        """
        window = self.window
        clock = window.clock
        advance = clock.advance
        event_timestamp = clock.event_timestamp
        base_event = self._base_event
        last_index = len(moves) - 1
        dispatched = 0
        event = None
        for index, (advance_ms, (x, y)) in enumerate(moves):
            if advance_ms is not None:
                advance(advance_ms)
            x = float(x)
            y = float(y)
            self.pointer = Point(x, y)
            current = window.document.element_at((x + window.scroll_x, y + window.scroll_y))
            previous = self._hovered
            if previous is not current:
                if previous is not None:
                    previous.dispatch_event(base_event("mouseout", previous))
                    previous.dispatch_event(base_event("mouseleave", previous))
                current.dispatch_event(base_event("mouseover", current))
                current.dispatch_event(base_event("mouseenter", current))
                self._hovered = current
            if self._drag_source is not None or self._drag_armed_at is not None:
                self._progress_drag(current)
            now = clock.now()
            last_ts = self._last_mousemove_ts
            if (
                not (force_last and index == last_index)
                and last_ts is not None
                and now - last_ts < MOUSEMOVE_MIN_INTERVAL_MS
            ):
                event = None
                continue
            self._last_mousemove_ts = now
            # Firefox fires the pointer event first, then its mouse twin
            # (Appendix C lists both families; their pairing is itself a
            # consistency signal -- scripts that synthesise only mouse
            # events miss the pointer twins).
            for event_type in ("pointermove", "mousemove"):
                self.events_dispatched += 1
                pointer = self.pointer
                scroll_x = window.scroll_x
                scroll_y = window.scroll_y
                rounded = self._rounded
                if rounded[0] is not pointer or rounded[1] != scroll_x or rounded[2] != scroll_y:
                    rounded = self._round(pointer, scroll_x, scroll_y)
                modifiers = self._modifiers
                event = Event(
                    event_type,
                    event_timestamp(),
                    current,
                    rounded[3],
                    rounded[4],
                    rounded[5],
                    rounded[6],
                    0,
                    self._buttons_mask,
                    0.0,
                    0.0,
                    "",
                    "",
                    modifiers["shift_key"],
                    modifiers["ctrl_key"],
                    modifiers["alt_key"],
                    modifiers["meta_key"],
                    0,
                    True,
                    current.box,
                )
                current.dispatch_event(event)
            dispatched += 1
        return dispatched, event

    # -- buttons --------------------------------------------------------------------

    def mouse_down(self, button: int = LEFT_BUTTON) -> Event:
        """Press a mouse button over the current pointer position."""
        target = self._element_under_pointer()
        self._buttons_mask |= _BUTTON_MASKS.get(button, 0)
        self._down_targets[button] = target
        target.dispatch_event(self._base_event("pointerdown", target, button=button))
        event = self._base_event("mousedown", target, button=button)
        target.dispatch_event(event)
        if button == LEFT_BUTTON:
            self.focus(target if target.focusable else None)
            if target.draggable:
                self._drag_armed_at = self.pointer
        return event

    def mouse_up(self, button: int = LEFT_BUTTON) -> Event:
        """Release a mouse button; synthesises click/dblclick/contextmenu."""
        target = self._element_under_pointer()
        self._buttons_mask &= ~_BUTTON_MASKS.get(button, 0)
        down_target = self._down_targets.pop(button, None)
        target.dispatch_event(self._base_event("pointerup", target, button=button))
        event = self._base_event("mouseup", target, button=button)
        target.dispatch_event(event)
        if button == LEFT_BUTTON and self._drag_source is not None:
            # A completed drag suppresses the click, as in real browsers.
            self._finish_drag(target)
            return event
        if button == LEFT_BUTTON:
            self._drag_armed_at = None
        if down_target is target:
            if button == LEFT_BUTTON:
                self._synthesise_click(target)
            elif button == RIGHT_BUTTON:
                target.dispatch_event(
                    self._base_event("contextmenu", target, button=button)
                )
                target.dispatch_event(
                    self._base_event("auxclick", target, button=button, detail=1)
                )
            else:
                target.dispatch_event(
                    self._base_event("auxclick", target, button=button, detail=1)
                )
        return event

    #: Maximal cursor travel between two clicks of a double click (px);
    #: desktop environments cancel the double click beyond a few pixels.
    DOUBLE_CLICK_SLOP_PX = 8.0

    #: Cursor travel that turns a press on a draggable into a drag (px).
    DRAG_START_THRESHOLD_PX = 5.0

    def _progress_drag(self, hovered: Element) -> None:
        """Advance the HTML5 drag state machine on cursor movement.

        Appendix C's drag family: ``dragstart`` once the press on a
        draggable element travels a few pixels, ``drag`` on the source
        and ``dragover`` on the potential drop target while moving, with
        ``dragenter``/``dragleave`` on target changes.
        """
        down_target = self._down_targets.get(LEFT_BUTTON)
        if self._drag_source is None:
            if (
                self._drag_armed_at is not None
                and down_target is not None
                and down_target.draggable
                and self._drag_armed_at.distance_to(self.pointer)
                >= self.DRAG_START_THRESHOLD_PX
            ):
                self._drag_source = down_target
                down_target.dispatch_event(
                    self._base_event("dragstart", down_target)
                )
            else:
                return
        source = self._drag_source
        source.dispatch_event(self._base_event("drag", source))
        if hovered is not self._drag_over:
            if self._drag_over is not None:
                self._drag_over.dispatch_event(
                    self._base_event("dragleave", self._drag_over)
                )
            hovered.dispatch_event(self._base_event("dragenter", hovered))
            self._drag_over = hovered
        hovered.dispatch_event(self._base_event("dragover", hovered))

    def _finish_drag(self, drop_target: Element) -> None:
        """Fire ``drop`` on the target and ``dragend`` on the source."""
        source = self._drag_source
        drop_target.dispatch_event(self._base_event("drop", drop_target))
        source.dispatch_event(self._base_event("dragend", source))
        self._drag_source = None
        self._drag_armed_at = None
        self._drag_over = None

    def _synthesise_click(self, target: Element) -> None:
        now = self.window.clock.now()
        last = self._last_click.get(LEFT_BUTTON)
        if (
            last is not None
            and last["target"] is target
            and now - last["time"] <= self.double_click_interval_ms
            and last["position"].distance_to(self.pointer) <= self.DOUBLE_CLICK_SLOP_PX
        ):
            count = last["count"] + 1
        else:
            count = 1
        self._last_click[LEFT_BUTTON] = {
            "time": now,
            "target": target,
            "count": count,
            "position": self.pointer,
        }
        target.dispatch_event(
            self._base_event("click", target, button=LEFT_BUTTON, detail=count)
        )
        if count >= 2 and count % 2 == 0:
            target.dispatch_event(
                self._base_event("dblclick", target, button=LEFT_BUTTON, detail=count)
            )

    # -- focus and page loads -------------------------------------------------------

    def focus(self, element: Optional[Element]) -> None:
        """Move keyboard focus to ``element`` (``None`` blurs), dispatching
        the transitions :meth:`Document.set_focus` returns."""
        for event_type, target in self.window.document.set_focus(element):
            target.dispatch_event(self._base_event(event_type, target))

    def page_loaded(self) -> None:
        """A new document replaced the page: the next sample enters the
        element under the pointer without leaving the old page's."""
        self._hovered = None

    # -- wheel / scrolling ------------------------------------------------------------

    def wheel(self, delta_y: float = WHEEL_TICK_PX, delta_x: float = 0.0) -> Event:
        """Turn the mouse wheel: ``wheel`` event, then viewport scroll.

        Human wheel scrolling arrives in +/-57 px ticks; callers may pass
        other deltas to model free-spinning wheels or trackpads.
        """
        target = self._element_under_pointer()
        event = self._base_event("wheel", target, delta_y=delta_y, delta_x=delta_x)
        target.dispatch_event(event)
        if self.window.smooth_scroll:
            self.window.smooth_scroll_by(delta_x, delta_y)
        else:
            self.window.scroll_by(delta_x, delta_y)
        return event

    def scroll_programmatic(self, x: float, y: float) -> bool:
        """``window.scrollTo(x, y)``: no wheel event, arbitrary distance.

        This is how Selenium scrolls -- the paper notes the missing wheel
        events and unbounded distances as its recognisable signature.
        """
        return self.window.scroll_to(x, y)

    # -- keyboard ----------------------------------------------------------------------

    #: Scroll distances for keyboard scrolling (Appendix D lists arrow
    #: keys and the space bar among the many scroll origins).
    ARROW_SCROLL_PX = 38.0
    PAGE_SCROLL_OVERLAP_PX = 60.0

    def key_down(self, key: str) -> Event:
        """Press a key; fires keydown (+keypress for printable keys).

        The event's logical ``key`` is taken verbatim: the pipeline does
        not force ``Shift`` for capitals.  Detectors can therefore see a
        capital letter arriving without any Shift press -- exactly how
        Selenium types (Section 4.1).

        When no text field has focus, navigation keys scroll the page --
        one of the wheel-less scroll origins that make scroll-based bot
        detection inconclusive (Appendix D).
        """
        target = self.window.document.active_element or self.window.document.body
        if key in _MODIFIERS:
            self._modifiers[_MODIFIERS[key]] = True
        self._pressed_keys.add(key)
        event = self._base_event("keydown", target, key=key, code=key_code_for(key))
        target.dispatch_event(event)
        editing = target.tag in ("input", "textarea")
        if len(key) == 1:
            target.dispatch_event(
                self._base_event("keypress", target, key=key, code=key_code_for(key))
            )
            if editing:
                self._insert_text(target, key)
            elif key == " ":
                self._keyboard_scroll(" ")
        elif key == "Enter":
            self._insert_text(target, "\n")
        elif key == "Backspace":
            if target.value:
                target.value = target.value[:-1]
        elif not editing:
            self._keyboard_scroll(key)
        return event

    def _keyboard_scroll(self, key: str) -> None:
        """Scroll the window for navigation keys (no wheel events)."""
        window = self.window
        page = window.viewport_height - self.PAGE_SCROLL_OVERLAP_PX
        if key == "ArrowDown":
            window.scroll_by(0, self.ARROW_SCROLL_PX)
        elif key == "ArrowUp":
            window.scroll_by(0, -self.ARROW_SCROLL_PX)
        elif key in ("PageDown", " "):
            window.scroll_by(0, page)
        elif key == "PageUp":
            window.scroll_by(0, -page)
        elif key == "End":
            window.scroll_to(window.scroll_x, window.max_scroll_y)
        elif key == "Home":
            window.scroll_to(window.scroll_x, 0)

    def key_up(self, key: str) -> Event:
        """Release a key; fires keyup."""
        target = self.window.document.active_element or self.window.document.body
        if key in _MODIFIERS:
            self._modifiers[_MODIFIERS[key]] = False
        self._pressed_keys.discard(key)
        event = self._base_event("keyup", target, key=key, code=key_code_for(key))
        target.dispatch_event(event)
        return event

    def _insert_text(self, target: Element, text: str) -> None:
        if target.tag in ("input", "textarea"):
            target.value += text

    # -- touch --------------------------------------------------------------------

    def touch_start(self, x: float, y: float) -> Event:
        """Place a finger on the screen (touch devices).

        Appendix D notes touch movement is also reflected in ``mousemove``
        (compatibility events); HLISA cannot synthesise these at all
        (Appendix F), which is what
        :class:`repro.detection.crosscheck.TouchClaimDetector` exploits.
        """
        self.pointer = Point(float(x), float(y))
        target = self._element_under_pointer()
        event = self._base_event("touchstart", target)
        target.dispatch_event(event)
        return event

    def touch_end(self) -> Event:
        """Lift the finger."""
        target = self._element_under_pointer()
        event = self._base_event("touchend", target)
        target.dispatch_event(event)
        return event

    @property
    def pressed_keys(self) -> frozenset:
        """Keys currently held down (rollover shows up here)."""
        return frozenset(self._pressed_keys)

    @property
    def hovered_element(self) -> Optional[Element]:
        """The element currently under the pointer (None before any move)."""
        return self._hovered
