"""Session-level behaviours: warm-up, spontaneous movement, misclicks,
idle selection.

These operate on a driver (anything exposing ``window`` + ``pipeline``)
and intentionally live outside the HLISA chain API -- they belong to the
*experiment*, not to the interaction library (paper, Appendix F).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry import Point
from repro.models.bezier import hlisa_path
from repro.models.clicks import hlisa_dwell_ms


def warm_up_cursor(driver, rng: Optional[np.random.Generator] = None) -> Point:
    """Move the cursor away from (0, 0) before the page is (re)loaded.

    Appendix F: "Mouse movement starting at (0,0), which can be solved by
    moving the mouse prior to loading a page."  Returns the warm-up
    target so experiments can log it.
    """
    rng = rng if rng is not None else np.random.default_rng()
    window = driver.window
    target = Point(
        float(rng.uniform(window.viewport_width * 0.2, window.viewport_width * 0.8)),
        float(rng.uniform(window.viewport_height * 0.2, window.viewport_height * 0.8)),
    )
    path = hlisa_path(driver.pipeline.pointer, target, rng)
    driver.pipeline.follow_path(path)
    return target


class SpontaneousMovements:
    """Occasional purposeless cursor wandering between actions.

    Call :meth:`maybe_wander` between experiment steps; with probability
    ``probability`` the cursor drifts to a nearby random point along a
    humanised path, as idle humans do.
    """

    def __init__(
        self,
        driver,
        probability: float = 0.3,
        max_drift_px: float = 220.0,
        seed: Optional[int] = None,
    ) -> None:
        self.driver = driver
        self.probability = probability
        self.max_drift_px = max_drift_px
        self.rng = np.random.default_rng(seed)

    def maybe_wander(self) -> bool:
        """Wander with the configured probability; returns whether it did."""
        if self.rng.random() >= self.probability:
            return False
        window = self.driver.window
        current = self.driver.pipeline.pointer
        drift = Point(
            float(
                np.clip(
                    current.x + self.rng.normal(0, self.max_drift_px / 2),
                    5,
                    window.viewport_width - 5,
                )
            ),
            float(
                np.clip(
                    current.y + self.rng.normal(0, self.max_drift_px / 2),
                    5,
                    window.viewport_height - 5,
                )
            ),
        )
        self.driver.pipeline.follow_path(hlisa_path(current, drift, self.rng))
        self.driver.window.clock.advance(float(self.rng.uniform(150, 900)))
        return True


def misclick_then_correct(
    driver,
    element,
    rng: Optional[np.random.Generator] = None,
    miss_distance_px: float = 28.0,
) -> None:
    """Click *next to* an element, pause, then click it properly.

    Appendix F lists misclicking among the behaviours to be handled "on
    the level of an experiment".  The miss lands just outside the
    element's boundary on the approach side.
    """
    rng = rng if rng is not None else np.random.default_rng()
    window = driver.window
    box = element.dom_element.box
    center = box.center
    angle = float(rng.uniform(0, 2 * np.pi))
    miss_page = Point(
        center.x + np.cos(angle) * (box.width / 2 + miss_distance_px),
        center.y + np.sin(angle) * (box.height / 2 + miss_distance_px),
    )
    miss_client = window.page_to_client(miss_page)
    miss_client = Point(
        float(np.clip(miss_client.x, 2, window.viewport_width - 2)),
        float(np.clip(miss_client.y, 2, window.viewport_height - 2)),
    )
    driver.pipeline.follow_path(hlisa_path(driver.pipeline.pointer, miss_client, rng))
    driver.pipeline.mouse_down()
    driver.window.clock.advance(hlisa_dwell_ms(rng))
    driver.pipeline.mouse_up()
    # Realise the mistake, pause, then correct.
    driver.window.clock.advance(float(rng.uniform(250, 700)))
    from repro.models.clicks import hlisa_click_point

    target_client = window.page_to_client(hlisa_click_point(box, rng))
    driver.pipeline.follow_path(hlisa_path(driver.pipeline.pointer, target_client, rng))
    driver.pipeline.mouse_down()
    driver.window.clock.advance(hlisa_dwell_ms(rng))
    driver.pipeline.mouse_up()


def idle_select_deselect(driver, rng: Optional[np.random.Generator] = None) -> None:
    """Select and deselect part of the page without purpose.

    Appendix F's example of "non-functional interaction with webpages":
    a short press-drag-release over text followed by a click elsewhere to
    deselect.
    """
    rng = rng if rng is not None else np.random.default_rng()
    window = driver.window
    start = driver.pipeline.pointer
    drag_end = Point(
        float(np.clip(start.x + rng.uniform(60, 180), 5, window.viewport_width - 5)),
        float(np.clip(start.y + rng.normal(0, 8), 5, window.viewport_height - 5)),
    )
    driver.pipeline.mouse_down()
    driver.pipeline.follow_path(hlisa_path(start, drag_end, rng))
    driver.window.clock.advance(float(rng.uniform(80, 300)))
    driver.pipeline.mouse_up()
    driver.window.clock.advance(float(rng.uniform(200, 600)))
    # Deselect: single click at the drag end.
    driver.pipeline.mouse_down()
    driver.window.clock.advance(hlisa_dwell_ms(rng))
    driver.pipeline.mouse_up()
