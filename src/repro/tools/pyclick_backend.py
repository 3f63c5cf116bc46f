"""PyClick: Bézier ``HumanCurve`` with distortion and easing tweens.

The original (https://github.com/patrikoss/pyclick) composes a Bézier
curve through random internal knots, adds per-point "distortion"
(vertical pixel noise), and replays it under an easing tween
(``easeOutQuad`` by default) -- so it accelerates/decelerates and
shivers.  It moves and clicks (single left click, no dwell model).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dom.element import Element
from repro.experiment.session import Session
from repro.geometry import Point
from repro.models.bezier import BezierTrajectory
from repro.tools.base import ToolBackend, register


def ease_out_quad(tau: np.ndarray) -> np.ndarray:
    """PyClick's default tween: fast start, decelerating finish."""
    return 1.0 - (1.0 - tau) ** 2


@register
class PyClickBackend(ToolBackend):
    """HumanCurve movement + plain clicks."""

    name = "PyC"
    selenium_ready = False

    TARGET_POINTS = 70
    POINT_INTERVAL_MS = 9.0
    DISTORTION_SD_PX = 1.2

    def _human_curve(self, start: Point, end: Point) -> List[Point]:
        curve = BezierTrajectory(start, end, self.rng, control_offset_frac=0.15)
        tau = ease_out_quad(np.linspace(0.0, 1.0, self.TARGET_POINTS))
        points = [curve.at(float(t)) for t in tau]
        # Distortion: vertical pixel noise on interior points.
        distorted = [points[0]]
        for p in points[1:-1]:
            distorted.append(
                Point(p.x, p.y + float(self.rng.normal(0.0, self.DISTORTION_SD_PX)))
            )
        distorted.append(points[-1])
        return distorted

    def move_to_element(self, session: Session, element: Element) -> None:
        start = session.pipeline.pointer
        target = session.window.page_to_client(element.box.center)
        curve = self._human_curve(start, target)
        path: List[Tuple[float, Point]] = [
            (i * self.POINT_INTERVAL_MS, p) for i, p in enumerate(curve)
        ]
        session.pipeline.follow_path(path)

    def click_element(self, session: Session, element: Element) -> None:
        self.move_to_element(session, element)
        # Plain click: press/release with no dwell model (the library
        # delegates to pyautogui.click()).
        session.pipeline.mouse_down()
        session.clock.advance(1.0)
        session.pipeline.mouse_up()
