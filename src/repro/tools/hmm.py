""""Human-like mouse movement" (HMM): the StackOverflow B-spline answer.

The original (https://stackoverflow.com/a/48690652) interpolates a cubic
B-spline through a handful of random knots between start and target and
replays it with ``pyautogui`` at an essentially constant pace.  Result:
a nicely curved path -- but uniform speed, no tremor, and no click or
keyboard support.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dom.element import Element
from repro.experiment.session import Session
from repro.geometry import Point
from repro.tools.base import ToolBackend, Unsupported, register


def bspline_path(
    start: Point,
    end: Point,
    rng: np.random.Generator,
    *,
    knots: int = 3,
    samples: int = 60,
) -> List[Point]:
    """A clamped cubic-B-spline-style curve through random interior knots.

    Implemented as repeated de-Boor-like smoothing of the control
    polygon (Chaikin refinement), which converges to a quadratic
    B-spline -- matching the original's visual character without scipy.
    """
    span = start.distance_to(end)
    control = [start]
    for i in range(1, knots + 1):
        along = i / (knots + 1)
        offset = float(rng.uniform(-span * 0.12, span * 0.12))
        # Perpendicular direction of the chord.
        ux, uy = (end.x - start.x) / max(span, 1e-9), (end.y - start.y) / max(span, 1e-9)
        control.append(
            Point(
                start.x + (end.x - start.x) * along - uy * offset,
                start.y + (end.y - start.y) * along + ux * offset,
            )
        )
    control.append(end)

    points = control
    for _ in range(5):  # Chaikin corner cutting converges to a B-spline
        refined = [points[0]]
        for a, b in zip(points, points[1:]):
            refined.append(Point(a.x * 0.75 + b.x * 0.25, a.y * 0.75 + b.y * 0.25))
            refined.append(Point(a.x * 0.25 + b.x * 0.75, a.y * 0.25 + b.y * 0.75))
        refined.append(points[-1])
        points = refined

    # Resample uniformly by arc length: replayed at a fixed per-point
    # interval this yields the original's constant pace (and a perfectly
    # smooth curve -- no tremor).
    distances = np.concatenate(
        [[0.0], np.cumsum([points[i].distance_to(points[i + 1]) for i in range(len(points) - 1)])]
    )
    total = distances[-1] if distances[-1] > 0 else 1.0
    targets = np.linspace(0.0, total, samples)
    resampled: List[Point] = []
    j = 0
    for target in targets:
        while j < len(distances) - 2 and distances[j + 1] < target:
            j += 1
        span_len = distances[j + 1] - distances[j]
        frac = (target - distances[j]) / span_len if span_len > 0 else 0.0
        a, b = points[j], points[j + 1]
        resampled.append(Point(a.x + (b.x - a.x) * frac, a.y + (b.y - a.y) * frac))
    return resampled


@register
class HMMBackend(ToolBackend):
    """B-spline movement; pointing only (the answer moves, it never
    clicks)."""

    name = "HMM"
    selenium_ready = False

    #: The original replays ~100 points with pyautogui's minimum sleep;
    #: effective pace is constant and brisk.
    POINT_INTERVAL_MS = 9.0

    def move_to_element(self, session: Session, element: Element) -> None:
        start = session.pipeline.pointer
        target = session.window.page_to_client(element.box.center)
        curve = bspline_path(start, target, self.rng)
        path: List[Tuple[float, Point]] = [
            (i * self.POINT_INTERVAL_MS, p) for i, p in enumerate(curve)
        ]
        session.pipeline.follow_path(path)

    def click_element(self, session: Session, element: Element) -> None:
        # Movement-only tool: it can take the cursor there, but offers no
        # click of its own.
        self.move_to_element(session, element)
        raise Unsupported("HMM moves the cursor but does not click")
