"""The bachelor-thesis typing framework ([20] in the paper).

Noordzij's WildFragSim work incorporated typing rhythm from the HCI
literature into a Java framework: keystroke flight times drawn from
published distributions (data-based timings), plus straightforward
mouse movement to reach the field.  No dwell-time model (key press and
release are emitted back-to-back), no Shift synthesis, no scrolling.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dom.element import Element
from repro.experiment.session import Session
from repro.geometry import Point
from repro.tools.base import ToolBackend, register

#: Flight-time parameters per context, lifted from HCI keystroke
#: literature (ms): (mean, sd).
FLIGHT_TABLE = {
    "default": (170.0, 55.0),
    "after_space": (320.0, 110.0),
    "after_sentence": (780.0, 260.0),
}


@register
class ThesisTypingBackend(ToolBackend):
    """Data-based typing rhythm; movement only as a means to an end."""

    name = "[20]"
    selenium_ready = True  # the thesis drives a Selenium-like framework

    POINT_INTERVAL_MS = 12.0

    def _flight(self, previous: str) -> float:
        if previous in ".!?":
            mean, sd = FLIGHT_TABLE["after_sentence"]
        elif previous == " ":
            mean, sd = FLIGHT_TABLE["after_space"]
        else:
            mean, sd = FLIGHT_TABLE["default"]
        return float(max(self.rng.normal(mean, sd), 20.0))

    def _move_to(self, session: Session, element: Element) -> None:
        start = session.pipeline.pointer
        target = session.window.page_to_client(element.box.center)
        n = 40
        path: List[Tuple[float, Point]] = []
        for i in range(n):
            tau = i / (n - 1)
            path.append(
                (
                    i * self.POINT_INTERVAL_MS,
                    Point(
                        start.x + (target.x - start.x) * tau,
                        start.y + (target.y - start.y) * tau,
                    ),
                )
            )
        session.pipeline.follow_path(path)

    def type_text(self, session: Session, element: Element, text: str) -> None:
        self._move_to(session, element)
        session.pipeline.mouse_down()
        session.clock.advance(60.0)
        session.pipeline.mouse_up()
        previous = ""
        for char in text:
            if previous:
                session.clock.advance(self._flight(previous))
            # No dwell model: press and release back to back.
            session.pipeline.key_down(char)
            session.clock.advance(2.0)
            session.pipeline.key_up(char)
            previous = char
