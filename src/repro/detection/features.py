"""One analysis per recording, shared by every detector.

:class:`RecordingFeatures` is the view of one recording every interaction
detector reads: the cursor movements and their kinematics, the matched
clicks and keystrokes, and the click, typing and scroll summaries.  Each
is computed on first use and then kept, so a battery that hands one
instance to all of its detectors splits the mouse path, runs
:func:`~repro.analysis.trajectory.trajectory_metrics` over a movement,
pairs the clicks and keystrokes and summarises the typing once per
recording -- not once per detector that asks.  A battery that never looks
at a modality (say, scrolling) never pays for it.

The view reads its recorder lazily: build it once the recording is
complete, and build a new one if more events arrive.

The same features feed the level-4 profile vector
(:attr:`RecordingFeatures.profile_vector`): pointing kinematics, click
placement and typing rhythm.  Missing modalities yield ``None`` there so
the profile matcher can restrict itself to features both enrolment and
probe recordings share.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.clicks import ClickMetrics, click_metrics
from repro.analysis.scroll_metrics import ScrollMetrics, scroll_metrics
from repro.analysis.trajectory import (
    PathSample,
    TrajectoryMetrics,
    split_movements,
    trajectory_metrics,
)
from repro.analysis.typing_metrics import MODIFIER_KEYS, TypingMetrics, typing_metrics
from repro.events.event import Event
from repro.events.recorder import ClickRecord, EventRecorder, KeyStroke

FeatureVector = Dict[str, Optional[float]]

#: Feature names, in canonical order.
FEATURE_NAMES = (
    "mean_speed_px_s",
    "speed_cv",
    "jitter_rms_px",
    "straightness",
    "click_offset_mean",
    "click_offset_std",
    "click_dwell_mean_ms",
    "key_dwell_mean_ms",
    "key_dwell_std_ms",
    "key_flight_mean_ms",
    "chars_per_minute",
)

#: A click is only placed meaningfully on a target this many px wide
#: and high.
MIN_TARGET_EXTENT_PX = 4

#: Latest a movement may end before its click (ms) to count as the
#: click's approach.
APPROACH_GAP_MS = 1500.0


class RecordingFeatures:
    """Lazily computed, cached analysis of one :class:`EventRecorder`."""

    def __init__(self, recorder: EventRecorder) -> None:
        self.recorder = recorder
        self._streams: Dict[Tuple[str, ...], List[Event]] = {}

    @classmethod
    def of(cls, recording: Union[EventRecorder, "RecordingFeatures"]) -> "RecordingFeatures":
        """``recording`` itself if it is already a feature view, else a
        fresh view of it."""
        return recording if isinstance(recording, cls) else cls(recording)

    # -- event streams --------------------------------------------------------

    @property
    def events(self) -> List[Event]:
        """Every recorded event, in arrival order."""
        return self.recorder.events

    def of_type(self, *event_types: str) -> List[Event]:
        """Recorded events of the given types, in order: one recorder
        query per distinct ``event_types`` tuple, answered from the
        recorder's type index and cached here."""
        stream = self._streams.get(event_types)
        if stream is None:
            stream = self._streams[event_types] = self.recorder.of_type(*event_types)
        return stream

    @cached_property
    def scroll_events(self) -> List[Event]:
        return self.recorder.scroll_events()

    @cached_property
    def wheel_ticks(self) -> List[Event]:
        return self.recorder.wheel_ticks()

    # -- pointing -------------------------------------------------------------

    @cached_property
    def mouse_path(self) -> List[PathSample]:
        """``(timestamp, x, y)`` of every mousemove, in order."""
        return self.recorder.mouse_path()

    @cached_property
    def movements(self) -> List[List[PathSample]]:
        """The mouse path split into movements at resting pauses."""
        return split_movements(self.mouse_path)

    @cached_property
    def movement_metrics(self) -> List[TrajectoryMetrics]:
        """Trajectory metrics of each movement, in the order of
        :attr:`movements`."""
        return [trajectory_metrics(movement) for movement in self.movements]

    # -- clicks ---------------------------------------------------------------

    @cached_property
    def clicks(self) -> List[ClickRecord]:
        """Matched mousedown/mouseup pairs."""
        return self.recorder.clicks()

    @cached_property
    def placed_clicks(self) -> List[ClickRecord]:
        """Clicks on a target large enough for placement to mean anything
        (see :data:`MIN_TARGET_EXTENT_PX`)."""
        return [
            click
            for click in self.clicks
            if click.target_box is not None
            and click.target_box.width >= MIN_TARGET_EXTENT_PX
            and click.target_box.height >= MIN_TARGET_EXTENT_PX
        ]

    @cached_property
    def click_placement(self) -> Optional[ClickMetrics]:
        """Placement summary of :attr:`placed_clicks` (``None`` without
        any)."""
        placed = self.placed_clicks
        if not placed:
            return None
        return click_metrics(
            [click.position for click in placed], [click.target_box for click in placed]
        )

    @cached_property
    def approaches(self) -> List[Tuple[ClickRecord, TrajectoryMetrics]]:
        """Each click paired with the metrics of the movement that led to
        it: the latest movement ending no later than the press (1 ms of
        slack), if it ended at most :data:`APPROACH_GAP_MS` before."""
        if not self.movements:
            return []
        end_times = [movement[-1][0] for movement in self.movements]
        pairs: List[Tuple[ClickRecord, TrajectoryMetrics]] = []
        for click in self.clicks:
            t_click = click.down.timestamp
            best: Optional[int] = None
            for index, end_t in enumerate(end_times):
                if end_t <= t_click + 1.0 and (best is None or end_t > end_times[best]):
                    best = index
            if best is None or t_click - end_times[best] > APPROACH_GAP_MS:
                continue
            pairs.append((click, self.movement_metrics[best]))
        return pairs

    # -- typing ---------------------------------------------------------------

    @cached_property
    def key_strokes(self) -> List[KeyStroke]:
        """Matched keydown/keyup pairs, ordered by press time."""
        return self.recorder.key_strokes()

    @cached_property
    def character_strokes(self) -> List[KeyStroke]:
        """:attr:`key_strokes` without the modifier keys."""
        return [s for s in self.key_strokes if s.key not in MODIFIER_KEYS]

    @cached_property
    def typing(self) -> Optional[TypingMetrics]:
        """Typing summary (``None`` when no character key was typed)."""
        if not self.character_strokes:
            return None
        return typing_metrics(self.key_strokes)

    # -- scrolling ------------------------------------------------------------

    @cached_property
    def scrolling(self) -> ScrollMetrics:
        return scroll_metrics(self.scroll_events, self.wheel_ticks)

    # -- level-4 profile vector -----------------------------------------------

    @cached_property
    def profile_vector(self) -> FeatureVector:
        """The behavioural feature vector of the profile matcher.

        Absent modalities (no clicks recorded, no typing, ...) produce
        ``None`` entries rather than fabricated zeros.
        """
        features: FeatureVector = {name: None for name in FEATURE_NAMES}

        movements = [m for m in self.movement_metrics if m.chord_length > 80]
        if movements:
            features["mean_speed_px_s"] = float(
                np.mean([m.mean_speed_px_s for m in movements])
            )
            features["speed_cv"] = float(np.mean([m.speed_cv for m in movements]))
            features["jitter_rms_px"] = float(
                np.mean([m.jitter_rms_px for m in movements])
            )
            features["straightness"] = float(
                np.mean([m.straightness for m in movements])
            )

        if len(self.placed_clicks) >= 5:
            placement = self.click_placement
            features["click_offset_mean"] = placement.mean_radial_offset
            features["click_offset_std"] = placement.std_radial_offset
            features["click_dwell_mean_ms"] = float(
                np.mean([c.dwell_ms for c in self.clicks])
            )

        if len(self.key_strokes) >= 10 and self.typing is not None:
            features["key_dwell_mean_ms"] = self.typing.dwell_mean_ms
            features["key_dwell_std_ms"] = self.typing.dwell_std_ms
            features["key_flight_mean_ms"] = self.typing.flight_mean_ms
            features["chars_per_minute"] = self.typing.chars_per_minute

        return features


Recording = Union[EventRecorder, RecordingFeatures]


def extract_features(recording: Recording) -> FeatureVector:
    """The profile feature vector of one recording (see
    :attr:`RecordingFeatures.profile_vector`)."""
    return dict(RecordingFeatures.of(recording).profile_vector)
