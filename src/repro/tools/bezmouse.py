"""BezMouse: Bézier movement with noise, built to script games.

The original (https://github.com/vincentbavitz/bezmouse) draws a Bézier
curve, perturbs points with random "shake", and replays them with a
per-point sleep drawn from a small range -- so the pace is roughly
realistic and the path shivers, but there is no systematic
acceleration/deceleration profile.  Clicks are simple press/release with
a short random hold.
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
class BezMouseBackend(ToolBackend):
    """Shaky Bézier movement + simple clicks."""

    name = "BezMouse"
    selenium_ready = False

    TARGET_POINTS = 60
    SHAKE_SD_PX = 1.5

    def move_to_element(self, session: Session, element: Element) -> None:
        start = session.pipeline.pointer
        target = session.window.page_to_client(element.box.center)
        curve = BezierTrajectory(start, target, self.rng, control_offset_frac=0.2)
        tau = np.linspace(0.0, 1.0, self.TARGET_POINTS)  # uniform pace
        path: List[Tuple[float, Point]] = []
        t = 0.0
        for i, value in enumerate(tau):
            p = curve.at(float(value))
            if 0 < i < self.TARGET_POINTS - 1:
                p = Point(
                    p.x + float(self.rng.normal(0.0, self.SHAKE_SD_PX)),
                    p.y + float(self.rng.normal(0.0, self.SHAKE_SD_PX)),
                )
            path.append((t, p))
            t += float(self.rng.uniform(6.0, 14.0))  # per-point sleep range
        session.pipeline.follow_path(path)

    def click_element(self, session: Session, element: Element) -> None:
        self.move_to_element(session, element)
        # Delegates to a plain pyautogui.click(): no hold-time model.
        session.pipeline.mouse_down()
        session.clock.advance(1.0)
        session.pipeline.mouse_up()
