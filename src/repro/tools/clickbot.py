"""ClickBot: movement plus clicks with *accidental* behaviours.

The Java tool (https://github.com/amSangi/ClickBot) distinguishes itself
in Table 4 by simulating human slip-ups: occasional accidental right
clicks, accidental double clicks, and accidental "no clicks" (pressing
next to the target or not pressing at all), on top of moved clicks with
a realistic hold time.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dom.element import Element
from repro.experiment.session import Session
from repro.geometry import Point
from repro.models.bezier import BezierTrajectory
from repro.tools.base import ToolBackend, register


@register
class ClickBotBackend(ToolBackend):
    """Curved movement + clicks with accidental right/double/no clicks."""

    name = "ClickBot"
    selenium_ready = False

    TARGET_POINTS = 55
    POINT_INTERVAL_MS = 11.0
    P_ACCIDENTAL_RIGHT = 0.03
    P_ACCIDENTAL_DOUBLE = 0.02
    P_ACCIDENTAL_MISS = 0.05

    def move_to_element(self, session: Session, element: Element) -> None:
        start = session.pipeline.pointer
        target_page = element.box.center
        # Slight randomisation inside the element.
        jitter_x = float(self.rng.normal(0.0, element.box.width * 0.08))
        jitter_y = float(self.rng.normal(0.0, element.box.height * 0.08))
        target = session.window.page_to_client(
            element.box.clamp(Point(target_page.x + jitter_x, target_page.y + jitter_y))
        )
        curve = BezierTrajectory(start, target, self.rng, control_offset_frac=0.15)
        tau = np.linspace(0.0, 1.0, self.TARGET_POINTS)
        path: List[Tuple[float, Point]] = [
            (i * self.POINT_INTERVAL_MS, curve.at(float(t)))
            for i, t in enumerate(tau)
        ]
        session.pipeline.follow_path(path)

    def _hold(self, session: Session) -> None:
        session.clock.advance(float(max(self.rng.normal(85.0, 20.0), 25.0)))

    def click_element(self, session: Session, element: Element) -> None:
        self.move_to_element(session, element)
        roll = float(self.rng.random())
        if roll < self.P_ACCIDENTAL_RIGHT:
            # Accidental right click, then the intended left click.
            session.pipeline.mouse_down(button=2)
            self._hold(session)
            session.pipeline.mouse_up(button=2)
            session.clock.advance(float(self.rng.uniform(150.0, 400.0)))
        elif roll < self.P_ACCIDENTAL_RIGHT + self.P_ACCIDENTAL_MISS:
            # Accidental no-click: hesitate, nudge the cursor, give up on
            # this attempt entirely (as a distracted human would).
            pointer = session.pipeline.pointer
            session.clock.advance(float(self.rng.uniform(200.0, 500.0)))
            session.pipeline.move_mouse_to(
                pointer.x + float(self.rng.normal(0, 3)),
                pointer.y + float(self.rng.normal(0, 3)),
                force_event=True,
            )
            return
        session.pipeline.mouse_down()
        self._hold(session)
        session.pipeline.mouse_up()
        if float(self.rng.random()) < self.P_ACCIDENTAL_DOUBLE:
            session.clock.advance(float(self.rng.uniform(60.0, 180.0)))
            session.pipeline.mouse_down()
            self._hold(session)
            session.pipeline.mouse_up()
