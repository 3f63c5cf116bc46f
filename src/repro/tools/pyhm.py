"""pyHM ("Python Human Movements"): humanised movement and clicks.

The package (https://pypi.org/project/pyHM/) moves the cursor along a
curved path with an eased (accelerating/decelerating) pace and offers
click helpers with a short hold.  No tremor model, no keyboard, no
scrolling, and clicks land on the element centre.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dom.element import Element
from repro.experiment.session import Session
from repro.geometry import Point
from repro.models.bezier import BezierTrajectory
from repro.tools.base import ToolBackend, register


def ease_in_out_sine(tau: np.ndarray) -> np.ndarray:
    """Symmetric sinusoidal easing: accelerate, then decelerate."""
    return 0.5 * (1.0 - np.cos(np.pi * tau))


@register
class PyHMBackend(ToolBackend):
    """Eased curve movement + centre clicks with a short hold."""

    name = "pyHM"
    selenium_ready = False

    TARGET_POINTS = 65
    POINT_INTERVAL_MS = 10.0

    def move_to_element(self, session: Session, element: Element) -> None:
        start = session.pipeline.pointer
        target = session.window.page_to_client(element.box.center)
        curve = BezierTrajectory(start, target, self.rng, control_offset_frac=0.16)
        tau = ease_in_out_sine(np.linspace(0.0, 1.0, self.TARGET_POINTS))
        path: List[Tuple[float, Point]] = [
            (i * self.POINT_INTERVAL_MS, curve.at(float(t)))
            for i, t in enumerate(tau)
        ]
        session.pipeline.follow_path(path)

    def click_element(self, session: Session, element: Element) -> None:
        self.move_to_element(session, element)
        session.pipeline.mouse_down()
        session.clock.advance(float(max(self.rng.normal(90.0, 25.0), 30.0)))
        session.pipeline.mouse_up()
