"""Detector interface and verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import List

from repro.detection.features import RecordingFeatures
from repro.events.recorder import EventRecorder


class DetectionLevel(IntEnum):
    """The detector escalation levels of the paper's Fig. 3.

    Numbering follows the arms-race ladder: a level-``k`` detector is
    expected to catch simulators below level ``k`` on the simulator side
    and to pass simulators at or above it.
    """

    ARTIFICIAL = 1  # "Detect artificial behaviour"
    DEVIATION = 2  # "Detect deviations from human behaviour"
    CONSISTENCY = 3  # "Tracking consistency of behaviour"
    PROFILE = 4  # "Recognise specific user profile"


@dataclass
class Verdict:
    """One detector's opinion about one recording."""

    detector: str
    is_bot: bool
    #: Confidence-ish score in [0, 1]; 0 = certainly human.
    score: float = 0.0
    #: Human-readable evidence (empty when not flagged).
    reasons: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_bot


class Detector:
    """Base class: judge a recording, return a verdict.

    Detectors see interaction only through the recorded DOM events --
    the same channel a real website has -- as analysed once per
    recording by :class:`~repro.detection.features.RecordingFeatures`.
    Subclasses implement :meth:`judge`; a battery hands every detector
    the same features, while :meth:`observe` judges a lone recording.
    """

    #: Detector name (shown in reports).
    name: str = "detector"
    #: Arms-race level this detector belongs to.
    level: DetectionLevel = DetectionLevel.ARTIFICIAL

    def observe(self, recorder: EventRecorder) -> Verdict:
        """Judge one recording on its own."""
        return self.judge(RecordingFeatures(recorder))

    def judge(self, features: RecordingFeatures) -> Verdict:
        raise NotImplementedError

    def _human(self) -> Verdict:
        return Verdict(self.name, is_bot=False, score=0.0)

    def _bot(self, score: float, *reasons: str) -> Verdict:
        return Verdict(self.name, is_bot=True, score=min(max(score, 0.0), 1.0), reasons=list(reasons))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} level={int(self.level)}>"
