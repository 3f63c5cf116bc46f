"""``HLISA_ActionChains``: the paper's Table 3 API, in full.

Every Selenium ``ActionChains`` call is provided with the same signature;
recognisably-artificial behaviours are replaced by the humanised models of
:mod:`repro.models`; a few functions are new (``move_to``,
``move_to_element_outside_viewport``, ``scroll_by``, ``scroll_to``).

Execution strategy (Section 4.1, "Implementation and deployment"): HLISA
plans human-like interaction, then realises it exclusively through
**fine-grained Selenium API calls** -- pointer moves of
:data:`~repro.core.patching.HLISA_POINTER_MOVE_DURATION_MS` (50 ms, after
patching Selenium's lower bound), ``key_down``/``key_up``,
``click_and_hold``/``release`` and pauses.  Each humanised curve thus
reaches the browser as a piecewise-linear chain of short Selenium moves,
exactly as the real HLISA drives real Selenium.

Scrolling goes through the driver's scripted ``window.scrollBy`` in
57-px wheel ticks with human cadence.  No trusted ``wheel`` events are
produced -- the same limitation the real HLISA has -- which the paper
argues is acceptable because many human scrolling methods (scroll bar,
arrow keys, anchors) produce no wheel events either (Appendix D).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.core import patching
from repro.geometry import Point
from repro.models.bezier import TrajectoryParams, hlisa_path
from repro.models.clicks import ClickParams, hlisa_click_point, hlisa_dwell_ms
from repro.models.layouts import US_LAYOUT, KeyboardLayout
from repro.models.scroll_cadence import ScrollCadence, ScrollParams
from repro.models.typing_rhythm import TypingParams, TypingRhythm
from repro.webdriver.action_chains import ActionChains
from repro.webdriver.actions import PointerDown, PointerUp
from repro.webdriver.webelement import WebElement


class HLISA_ActionChains:
    """Drop-in, human-like replacement for Selenium's ``ActionChains``.

    Parameters
    ----------
    webdriver:
        The (simulated) Selenium driver to act through.
    seed:
        Seed for the action chain's random generator; pass an int for
        reproducible interaction, ``None`` for fresh randomness.
    layout:
        Keyboard layout whose modifier conventions typing follows; keep
        it consistent with the browser's language fingerprint
        (Section 4.1: pages can infer the layout from modifier usage).
    trajectory_params / click_params / typing_params / scroll_params:
        Model parameters; defaults are the values "found in our
        experiment" (see :mod:`repro.models.calibration` for re-fitting
        them from recorded data).
    """

    def __init__(
        self,
        webdriver,
        *,
        seed: Optional[int] = None,
        trajectory_params: Optional[TrajectoryParams] = None,
        click_params: Optional[ClickParams] = None,
        typing_params: Optional[TypingParams] = None,
        scroll_params: Optional[ScrollParams] = None,
        layout: KeyboardLayout = US_LAYOUT,
    ) -> None:
        self._driver = webdriver
        self._rng = np.random.default_rng(seed)
        self._trajectory_params = trajectory_params or TrajectoryParams(
            sample_interval_ms=patching.HLISA_POINTER_MOVE_DURATION_MS
        )
        self._click_params = click_params or ClickParams()
        self._typing = TypingRhythm(self._rng, typing_params, layout=layout)
        self._scroll = ScrollCadence(self._rng, scroll_params)
        self._queue: List[Callable[[], None]] = []
        # HLISA needs short Selenium pointer moves (Section 4.1).
        patching.patch_pointer_move_duration()

    # ------------------------------------------------------------------ #
    # chain plumbing (Table 3: perform / reset_actions / pause)
    # ------------------------------------------------------------------ #

    def perform(self) -> None:
        """Execute all queued actions, then clear the chain."""
        for thunk in self._queue:
            thunk()
        self._queue = []

    def reset_actions(self) -> "HLISA_ActionChains":
        """Remove all actions from the current chain."""
        self._queue = []
        return self

    def pause(self, duration: float) -> "HLISA_ActionChains":
        """Pause the chain for ``duration`` **seconds** (Table 3)."""

        def _do() -> None:
            ActionChains(self._driver).pause(duration).perform()

        self._queue.append(_do)
        return self

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _pointer(self) -> Point:
        return self._driver.pipeline.pointer

    def _run_path_through_selenium(self, target: Point) -> None:
        """Move the pointer along a humanised curve to ``target``.

        The curve is sampled at the patched Selenium move duration and
        issued as a chain of fine-grained, fixed-duration pointer moves.
        """
        start = self._pointer()
        if start.distance_to(target) < 0.75:
            return
        window = self._driver.window
        clamped = Point(
            min(max(target.x, 0.0), window.viewport_width),
            min(max(target.y, 0.0), window.viewport_height),
        )
        points = hlisa_path(start, clamped, self._rng, params=self._trajectory_params)
        chain = ActionChains(self._driver)
        previous_t = 0.0
        for t, point in points[1:]:
            duration = max(t - previous_t, 1.0)
            safe = Point(
                min(max(point.x, 0.0), window.viewport_width),
                min(max(point.y, 0.0), window.viewport_height),
            )
            chain._move(safe.x, safe.y, origin="viewport", duration_ms=duration)
            previous_t = t
        chain.perform()

    def _element_target(self, element: WebElement, offset: Optional[Point] = None) -> Point:
        """Client-coordinate target inside an element.

        Without an explicit offset, a human-like position is drawn from
        the click model ("moves to random location in element",
        Table 4) -- never the exact centre.
        """
        window = self._driver.window
        box = element.dom_element.box
        if box is None:
            raise ValueError("element has no layout box")
        if offset is None:
            page_point = hlisa_click_point(box, self._rng, self._click_params)
        else:
            page_point = Point(box.x + offset.x, box.y + offset.y)
        return window.page_to_client(page_point)

    # ------------------------------------------------------------------ #
    # mouse movement (Table 3)
    # ------------------------------------------------------------------ #

    def move_to(self, x: float, y: float) -> "HLISA_ActionChains":
        """Move the cursor from the current position to ``(x, y)``.

        New in HLISA (absent from Selenium's ActionChains).
        """

        def _do() -> None:
            self._run_path_through_selenium(Point(float(x), float(y)))

        self._queue.append(_do)
        return self

    def move_by_offset(self, x: float, y: float) -> "HLISA_ActionChains":
        """Move the cursor relative to its current position."""

        def _do() -> None:
            current = self._pointer()
            self._run_path_through_selenium(Point(current.x + x, current.y + y))

        self._queue.append(_do)
        return self

    def move_to_element(self, element: WebElement) -> "HLISA_ActionChains":
        """Move to a human-chosen position within the element's bounds."""

        def _do() -> None:
            self._run_path_through_selenium(self._element_target(element))

        self._queue.append(_do)
        return self

    def move_to_element_with_offset(
        self, element: WebElement, x: float, y: float
    ) -> "HLISA_ActionChains":
        """Move to an offset relative to the element's top-left corner."""

        def _do() -> None:
            self._run_path_through_selenium(
                self._element_target(element, offset=Point(float(x), float(y)))
            )

        self._queue.append(_do)
        return self

    def move_to_element_outside_viewport(self, element: WebElement) -> "HLISA_ActionChains":
        """Scroll the element into the viewport, then move to it.

        New in HLISA.  Scrolling uses the humanised wheel cadence rather
        than Selenium's teleporting ``scrollTo``.
        """

        def _do() -> None:
            self._scroll_element_into_view(element)
            self._run_path_through_selenium(self._element_target(element))

        self._queue.append(_do)
        return self

    def _scroll_element_into_view(self, element: WebElement) -> None:
        window = self._driver.window
        center = element.dom_element.center
        if window.is_in_viewport(center):
            return
        target_y = max(0.0, center.y - window.viewport_height / 2.0)
        self._scroll_with_cadence(target_y - window.scroll_y)

    # ------------------------------------------------------------------ #
    # clicking (Table 3)
    # ------------------------------------------------------------------ #

    def click(self, element: Optional[WebElement] = None) -> "HLISA_ActionChains":
        """Click with human dwell; moves to the element first if given."""
        if element is not None:
            self.move_to_element(element)

        def _do() -> None:
            dwell = hlisa_dwell_ms(self._rng, self._click_params)
            chain = ActionChains(self._driver)
            chain.click_and_hold()
            chain.pause(dwell / 1000.0)
            chain.release()
            chain.perform()

        self._queue.append(_do)
        return self

    def click_and_hold(self, element: Optional[WebElement] = None) -> "HLISA_ActionChains":
        """Same as click without the release action (Table 3)."""
        if element is not None:
            self.move_to_element(element)

        def _do() -> None:
            ActionChains(self._driver).click_and_hold().perform()

        self._queue.append(_do)
        return self

    def release(self, element: Optional[WebElement] = None) -> "HLISA_ActionChains":
        """Same as click without the press action (Table 3)."""
        if element is not None:
            self.move_to_element(element)

        def _do() -> None:
            ActionChains(self._driver).release().perform()

        self._queue.append(_do)
        return self

    def double_click(self, element: Optional[WebElement] = None) -> "HLISA_ActionChains":
        """A click plus "an additional click shortly after the first"."""
        if element is not None:
            self.move_to_element(element)

        def _do() -> None:
            gap_ms = float(np.clip(self._rng.normal(120.0, 35.0), 40.0, 350.0))
            chain = ActionChains(self._driver)
            for i in range(2):
                dwell = hlisa_dwell_ms(self._rng, self._click_params)
                chain.click_and_hold()
                chain.pause(dwell / 1000.0)
                chain.release()
                if i == 0:
                    chain.pause(gap_ms / 1000.0)
            chain.perform()

        self._queue.append(_do)
        return self

    def context_click(self, element: Optional[WebElement] = None) -> "HLISA_ActionChains":
        """Same as click using the right mouse button (Table 3)."""
        if element is not None:
            self.move_to_element(element)

        def _do() -> None:
            dwell = hlisa_dwell_ms(self._rng, self._click_params)
            chain = ActionChains(self._driver)
            chain._actions.append(PointerDown(2))
            chain.pause(dwell / 1000.0)
            chain._actions.append(PointerUp(2))
            chain.perform()

        self._queue.append(_do)
        return self

    # ------------------------------------------------------------------ #
    # drag and drop (Table 3)
    # ------------------------------------------------------------------ #

    def drag_and_drop(self, element1: WebElement, element2: WebElement) -> "HLISA_ActionChains":
        """Press over ``element1``, move to ``element2``, release."""
        self.click_and_hold(element1)
        self.pause(0.08)
        self.move_to_element(element2)
        self.release()
        return self

    def drag_and_drop_by_offset(
        self, element: WebElement, x: float, y: float
    ) -> "HLISA_ActionChains":
        """Press on ``element``, move by ``(x, y)``, release."""
        self.click_and_hold(element)
        self.pause(0.08)
        self.move_by_offset(x, y)
        self.release()
        return self

    # ------------------------------------------------------------------ #
    # keyboard (Table 3)
    # ------------------------------------------------------------------ #

    def send_keys(self, keys: str) -> "HLISA_ActionChains":
        """Type ``keys`` with a human rhythm.

        Dwell and flight times come from the normal-distribution typing
        model, contextual pauses follow Alves et al., and Shift is pressed
        for characters that need it.
        """

        def _do() -> None:
            from repro.webdriver.keys import decode_keys

            plan = self._typing.plan(decode_keys(keys))
            chain = ActionChains(self._driver)
            for dt_ms, kind, key in plan:
                if dt_ms > 0:
                    chain.pause(dt_ms / 1000.0)
                if kind == "down":
                    chain.key_down(key)
                else:
                    chain.key_up(key)
            chain.perform()

        self._queue.append(_do)
        return self

    def send_keys_to_element(self, element: WebElement, keys: str) -> "HLISA_ActionChains":
        """Select (click) the element, then :meth:`send_keys` (Table 3)."""
        self.click(element)
        self.pause(0.15)
        return self.send_keys(keys)

    def key_down(self, value: str) -> "HLISA_ActionChains":
        """Pass-through to Selenium's ``key_down`` (Table 3 legend)."""

        def _do() -> None:
            ActionChains(self._driver).key_down(value).perform()

        self._queue.append(_do)
        return self

    def key_up(self, value: str) -> "HLISA_ActionChains":
        """Pass-through to Selenium's ``key_up`` (Table 3 legend)."""

        def _do() -> None:
            ActionChains(self._driver).key_up(value).perform()

        self._queue.append(_do)
        return self

    # ------------------------------------------------------------------ #
    # scrolling (Table 3; new in HLISA)
    # ------------------------------------------------------------------ #

    def scroll_by(self, x: float, y: float) -> "HLISA_ActionChains":
        """Scroll the viewport by a distance, in human wheel ticks."""

        def _do() -> None:
            self._scroll_with_cadence(y, dx=x)

        self._queue.append(_do)
        return self

    def scroll_to(self, x: float, y: float) -> "HLISA_ActionChains":
        """Scroll until ``(x, y)`` is at the top-left corner."""

        def _do() -> None:
            window = self._driver.window
            self._scroll_with_cadence(y - window.scroll_y, dx=x - window.scroll_x)

        self._queue.append(_do)
        return self

    def _scroll_with_cadence(self, dy: float, dx: float = 0.0) -> None:
        clock = self._driver.window.clock
        for pause_ms, delta in self._scroll.plan(dy):
            if pause_ms > 0:
                clock.advance(pause_ms)
            self._driver.execute_script(f"window.scrollBy(0, {delta})")
        if dx:
            self._driver.execute_script(f"window.scrollBy({dx}, 0)")

    def __len__(self) -> int:
        return len(self._queue)
