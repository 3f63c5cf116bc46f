"""The experiment's subjects: Selenium, naive, HLISA, and the human.

Each agent implements the same three interaction verbs the tasks need --
click an element, type into an element, scroll by a distance -- through a
different mechanism:

- :class:`SeleniumAgent` uses the (simulated) Selenium ``ActionChains``:
  straight uniform moves, centre clicks, zero dwell, 13,333 cpm typing,
  single-shot programmatic scrolls;
- :class:`NaiveAgent` applies the paper's "naive solutions": plain Bézier
  movement at uniform speed, uniformly random click placement, fixed
  typing delays, metronome scrolling;
- :class:`HLISAAgent` goes through :class:`HLISA_ActionChains`;
- :class:`HumanAgent` is the generative human model, driving the input
  pipeline directly (a human needs no automation framework).
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.core.hlisa_action_chains import HLISA_ActionChains
from repro.dom.element import Element
from repro.experiment.session import Session
from repro.geometry import Point
from repro.humans import (
    HumanClicking,
    HumanPointing,
    HumanProfile,
    HumanScrolling,
    HumanTyping,
)
from repro.humans.pointing import fitts_duration_ms
from repro.models.bezier import naive_bezier_path
from repro.models.clicks import uniform_click_point
from repro.webdriver.action_chains import ActionChains


class Agent(Protocol):
    """What a task needs from a subject."""

    name: str
    #: Whether this agent requires a WebDriver-controlled browser.
    automated: bool

    def click_element(self, session: Session, element: Element) -> None: ...

    def type_text(self, session: Session, element: Element, text: str) -> None: ...

    def scroll_by(self, session: Session, dy: float) -> None: ...


class SeleniumAgent:
    """Plain Selenium interaction (the paper's baseline)."""

    name = "selenium"
    automated = True

    def click_element(self, session: Session, element: Element) -> None:
        handle = session.web_element(element)
        ActionChains(session.driver).click(handle).perform()

    def type_text(self, session: Session, element: Element, text: str) -> None:
        handle = session.web_element(element)
        ActionChains(session.driver).send_keys_to_element(handle, text).perform()

    def scroll_by(self, session: Session, dy: float) -> None:
        # One programmatic scroll, arbitrary distance, no wheel events.
        window = session.window
        session.driver.execute_script(
            f"window.scrollTo(0, {window.scroll_y + dy})"
        )


class NaiveAgent:
    """The naive improvements the paper evaluates and rejects.

    Movement: plain Bézier at uniform speed (Fig. 1 C).  Clicks: uniform
    over the element (Fig. 2 bottom-left).  Typing: fixed inter-key delay.
    Scrolling: 57 px ticks at a fixed interval.
    """

    name = "naive"
    automated = True

    def __init__(self, seed: int = 23) -> None:
        self.rng = np.random.default_rng(seed)
        #: Fixed per-key delay (ms): humanly *possible*, but rhythmless.
        self.key_delay_ms = 100.0
        self.scroll_tick_interval_ms = 100.0

    def click_element(self, session: Session, element: Element) -> None:
        target_page = uniform_click_point(element.box, self.rng)
        target = session.window.page_to_client(target_page)
        path = naive_bezier_path(session.pipeline.pointer, target, self.rng)
        session.pipeline.follow_path(path)
        session.pipeline.mouse_down()
        session.clock.advance(80.0)  # fixed, rhythmless dwell
        session.pipeline.mouse_up()

    def type_text(self, session: Session, element: Element, text: str) -> None:
        from repro.humans.typing import needs_shift

        self.click_element(session, element)
        for char in text:
            shifted = needs_shift(char)
            if shifted:
                # Mechanically correct Shift synthesis (staying within
                # the humanly possible) -- but with the same fixed,
                # rhythmless timing as everything else.
                session.pipeline.key_down("Shift")
                session.clock.advance(self.key_delay_ms / 4.0)
            session.pipeline.key_down(char)
            session.clock.advance(self.key_delay_ms / 2.0)
            session.pipeline.key_up(char)
            if shifted:
                session.clock.advance(self.key_delay_ms / 4.0)
                session.pipeline.key_up("Shift")
                session.clock.advance(self.key_delay_ms / 4.0)
            else:
                session.clock.advance(self.key_delay_ms / 2.0)

    def scroll_by(self, session: Session, dy: float) -> None:
        direction = 1.0 if dy > 0 else -1.0
        remaining = abs(dy)
        while remaining > 0:
            session.pipeline.wheel(direction * 57.0)
            session.clock.advance(self.scroll_tick_interval_ms)
            remaining -= 57.0


class HLISAAgent:
    """HLISA-driven interaction (the paper's contribution)."""

    name = "hlisa"
    automated = True

    def __init__(self, seed: int = 31) -> None:
        self.seed = seed
        self._chain: Optional[HLISA_ActionChains] = None
        self._session: Optional[Session] = None

    def _chain_for(self, session: Session) -> HLISA_ActionChains:
        if self._session is not session:
            self._chain = HLISA_ActionChains(session.driver, seed=self.seed)
            self._session = session
        return self._chain

    def click_element(self, session: Session, element: Element) -> None:
        chain = self._chain_for(session)
        chain.click(session.web_element(element))
        chain.perform()

    def type_text(self, session: Session, element: Element, text: str) -> None:
        chain = self._chain_for(session)
        chain.send_keys_to_element(session.web_element(element), text)
        chain.perform()

    def scroll_by(self, session: Session, dy: float) -> None:
        chain = self._chain_for(session)
        chain.scroll_by(0, dy)
        chain.perform()


class HumanAgent:
    """The generative human model, acting directly on the browser."""

    name = "human"
    automated = False

    def __init__(self, profile: Optional[HumanProfile] = None) -> None:
        self.profile = profile or HumanProfile()
        rng = self.profile.rng()
        self.pointing = HumanPointing(self.profile, rng)
        self.clicking = HumanClicking(self.profile, rng)
        self.typing = HumanTyping(self.profile, rng)
        self.scrolling = HumanScrolling(self.profile, rng)

    def click_element(self, session: Session, element: Element) -> None:
        window = session.window
        start = session.pipeline.pointer
        width = min(element.box.width, element.box.height)
        # Sample this trial's movement duration first so click accuracy
        # can be coupled to it (speed-accuracy trade-off).
        center_client = window.page_to_client(element.box.center)
        duration = self.pointing.duration_ms(start, center_client, width)
        typical = fitts_duration_ms(
            start.distance_to(center_client),
            width,
            self.profile.fitts_a_ms,
            self.profile.fitts_b_ms,
        )
        speed_factor = typical / duration if duration > 0 else 1.0
        target_page = self.clicking.click_point(
            element.box,
            approach_from=window.client_to_page(start),
            speed_factor=speed_factor,
        )
        target = window.page_to_client(target_page)
        path = self.pointing.path(start, target, target_width=width, duration_ms=duration)
        session.pipeline.follow_path(path)
        session.pipeline.mouse_down()
        session.clock.advance(self.clicking.dwell_ms())
        session.pipeline.mouse_up()

    def type_text(self, session: Session, element: Element, text: str) -> None:
        self.click_element(session, element)
        session.clock.advance(180.0)  # settle before typing
        for dt_ms, kind, key in self.typing.plan(text):
            session.clock.advance(max(dt_ms, 0.0))
            if kind == "down":
                session.pipeline.key_down(key)
            else:
                session.pipeline.key_up(key)

    def scroll_by(self, session: Session, dy: float) -> None:
        for pause_ms, delta in self.scrolling.plan(dy):
            session.clock.advance(pause_ms)
            session.pipeline.wheel(delta)

    def scroll_by_scrollbar(self, session: Session, dy: float) -> None:
        """Scroll by dragging the scrollbar thumb (Appendix D origin).

        The thumb is browser chrome, so the page observes only the
        continuous ``scroll`` events -- no wheel, no mouse events.
        """
        window = session.window
        plan = self.scrolling.plan_scrollbar_drag(dy, window.scroll_y)
        for dt_ms, target_y in plan:
            session.clock.advance(dt_ms)
            window.scroll_to(window.scroll_x, target_y)


class InjectedEventsAgent:
    """The cheapest bot: script-dispatched synthetic events.

    Instead of synthesising OS input, it calls the DOM equivalent of
    ``element.dispatchEvent(new MouseEvent(...))`` -- zero movement, zero
    timing, and every event carries ``isTrusted == false``.  Sits *below*
    even Selenium on the arms-race ladder (Selenium's events are at least
    trusted); the level-1 battery destroys it.
    """

    name = "injected"
    automated = True

    def _dispatch(self, session: Session, element: Element, event_type: str, **kw) -> None:
        from repro.events.event import Event

        box = element.box
        center = box.center if box else None
        element.dispatch_event(
            Event(
                event_type,
                timestamp=session.clock.event_timestamp(),
                target=element,
                target_box=box,
                client_x=center.x if center else 0.0,
                client_y=center.y if center else 0.0,
                page_x=center.x if center else 0.0,
                page_y=center.y if center else 0.0,
                is_trusted=False,
                **kw,
            )
        )

    def click_element(self, session: Session, element: Element) -> None:
        self._dispatch(session, element, "mousedown", button=0)
        self._dispatch(session, element, "mouseup", button=0)
        self._dispatch(session, element, "click", button=0, detail=1)

    def type_text(self, session: Session, element: Element, text: str) -> None:
        session.document.set_focus(element)
        for char in text:
            self._dispatch(session, element, "keydown", key=char)
            self._dispatch(session, element, "keyup", key=char)
            element.value += char  # scripts set .value directly

    def scroll_by(self, session: Session, dy: float) -> None:
        session.window.scroll_by(0, dy)


#: Factories for the four standard subjects, keyed by name.
STANDARD_AGENTS = {
    "selenium": SeleniumAgent,
    "naive": NaiveAgent,
    "hlisa": HLISAAgent,
    "human": HumanAgent,
}
