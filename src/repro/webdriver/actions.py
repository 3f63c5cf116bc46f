"""W3C-actions-style primitives and their executor.

Selenium's ``ActionChains`` compiles API calls into low-level *actions*
(pointer moves, button transitions, key transitions, pauses).  This module
holds those primitives and, crucially, the internal factory
:func:`create_pointer_move`:

    "The default Selenium API enforces a lower bound on the duration of
    mouse movements that is too high for simulating human interaction.
    For Selenium versions <4, we change this duration to 50 msec by
    overriding the internal Selenium function ``create_pointer_move()``."
    -- Section 4.1

The lower bound lives in :data:`MIN_POINTER_MOVE_DURATION_MS`;
:mod:`repro.core.patching` overrides the factory exactly the way HLISA
patches Selenium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.geometry import Point, lerp_point
from repro.webdriver.errors import (
    InvalidArgumentException,
    MoveTargetOutOfBoundsException,
)

#: Default duration of one pointer-move action (W3C actions default).
DEFAULT_POINTER_MOVE_DURATION_MS = 250.0

#: Selenium's lower bound on pointer-move durations (the value HLISA's
#: patch replaces with 50 ms).
MIN_POINTER_MOVE_DURATION_MS = 250.0

#: Interpolation tick for pointer moves (one event per tick).
POINTER_MOVE_TICK_MS = 16.0


@dataclass
class PointerMove:
    """Move the pointer to a target over ``duration_ms``.

    ``origin`` is ``"viewport"`` (absolute client coordinates),
    ``"pointer"`` (relative to the current position) or a ``WebElement``
    (offset from the element's centre).
    """

    x: float
    y: float
    duration_ms: float
    origin: Union[str, object] = "viewport"


@dataclass
class PointerDown:
    button: int = 0


@dataclass
class PointerUp:
    button: int = 0


@dataclass
class KeyDown:
    key: str


@dataclass
class KeyUp:
    key: str


@dataclass
class Pause:
    duration_ms: float


@dataclass
class ScrollTo:
    """Programmatic scroll to an absolute page offset (no wheel events)."""

    x: float
    y: float


Action = Union[PointerMove, PointerDown, PointerUp, KeyDown, KeyUp, Pause, ScrollTo]


def create_pointer_move(
    x: float,
    y: float,
    duration_ms: float = DEFAULT_POINTER_MOVE_DURATION_MS,
    origin: Union[str, object] = "viewport",
) -> PointerMove:
    """Factory for pointer-move actions, enforcing Selenium's lower bound.

    This module-level function is looked up *at call time* by
    :class:`~repro.webdriver.action_chains.ActionChains`, so replacing it
    (as :func:`repro.core.patching.patch_pointer_move_duration` does)
    changes the behaviour of every chain -- mirroring how HLISA overrides
    Selenium's internal ``create_pointer_move``.
    """
    if duration_ms < 0:
        raise InvalidArgumentException(f"negative move duration: {duration_ms}")
    clamped = max(duration_ms, MIN_POINTER_MOVE_DURATION_MS)
    return PointerMove(x=x, y=y, duration_ms=clamped, origin=origin)


class ActionExecutor:
    """Executes compiled actions against a driver's input pipeline.

    Pointer moves interpolate **linearly at uniform speed** -- Selenium's
    tell-tale trajectory (paper, Fig. 1 A).
    """

    def __init__(self, driver) -> None:
        self.driver = driver

    # -- helpers ---------------------------------------------------------------

    def _resolve_target(self, action: PointerMove) -> Point:
        pipeline = self.driver.pipeline
        window = self.driver.window
        if action.origin == "pointer":
            return Point(pipeline.pointer.x + action.x, pipeline.pointer.y + action.y)
        if action.origin == "viewport":
            return Point(action.x, action.y)
        # element origin: offset from the element centre, in client coords
        element = action.origin
        center_page = element.dom_element.center
        center_client = window.page_to_client(center_page)
        return Point(center_client.x + action.x, center_client.y + action.y)

    def _check_bounds(self, point: Point) -> None:
        window = self.driver.window
        if not (
            0 <= point.x <= window.viewport_width
            and 0 <= point.y <= window.viewport_height
        ):
            raise MoveTargetOutOfBoundsException(
                f"move target ({point.x:.0f}, {point.y:.0f}) is outside the "
                f"viewport {window.viewport_width:.0f}x{window.viewport_height:.0f}"
            )

    # -- execution ----------------------------------------------------------------

    def execute(self, actions: List[Action]) -> None:
        for action in actions:
            self._execute_one(action)

    def _execute_one(self, action: Action) -> None:
        pipeline = self.driver.pipeline
        clock = self.driver.window.clock
        if isinstance(action, PointerMove):
            target = self._resolve_target(action)
            self._check_bounds(target)
            start = pipeline.pointer
            ticks = max(1, int(math.ceil(action.duration_ms / POINTER_MOVE_TICK_MS)))
            tick_ms = action.duration_ms / ticks
            pipeline.dispatch_batch(
                (tick_ms, lerp_point(start, target, i / ticks))
                for i in range(1, ticks + 1)
            )
        elif isinstance(action, PointerDown):
            pipeline.mouse_down(action.button)
        elif isinstance(action, PointerUp):
            pipeline.mouse_up(action.button)
        elif isinstance(action, KeyDown):
            pipeline.key_down(action.key)
        elif isinstance(action, KeyUp):
            pipeline.key_up(action.key)
        elif isinstance(action, Pause):
            clock.advance(action.duration_ms)
        elif isinstance(action, ScrollTo):
            pipeline.scroll_programmatic(action.x, action.y)
        else:  # pragma: no cover - defensive
            raise InvalidArgumentException(f"unknown action {action!r}")
