"""Detector batteries: cumulative per-level detector sets and reports.

A website "at level k" of the arms race deploys every detector up to and
including level ``k`` -- escalation adds capabilities, it does not discard
the cheap checks.  :class:`DetectorBattery` assembles that set and runs a
recording through it, analysing the recording once
(:class:`~repro.detection.features.RecordingFeatures`) for all of its
detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.detection.artificial import ARTIFICIAL_DETECTORS
from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.consistency import CONSISTENCY_DETECTORS
from repro.detection.deviation import DEVIATION_DETECTORS
from repro.detection.features import Recording, RecordingFeatures
from repro.detection.profile_match import EnrolledProfileDetector


@dataclass
class BatteryReport:
    """All verdicts from one battery run."""

    level: DetectionLevel
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def is_bot(self) -> bool:
        """Whether any detector flagged the recording."""
        return any(v.is_bot for v in self.verdicts)

    @property
    def triggered(self) -> List[Verdict]:
        """The verdicts that flagged the recording."""
        return [v for v in self.verdicts if v.is_bot]

    def triggered_names(self) -> List[str]:
        return [v.detector for v in self.triggered]

    def __str__(self) -> str:
        if not self.is_bot:
            return f"[level {int(self.level)}] human"
        names = ", ".join(self.triggered_names())
        return f"[level {int(self.level)}] BOT ({names})"


class DetectorBattery:
    """All interaction detectors up to a given arms-race level.

    Parameters
    ----------
    level:
        Highest detector level to include (cumulative).
    profile_detector:
        An *enrolled* :class:`EnrolledProfileDetector` for level 4; when
        ``level`` is ``PROFILE`` and none is supplied, level 4 is simply
        skipped (profiles require enrolment data).
    """

    def __init__(
        self,
        level: DetectionLevel = DetectionLevel.CONSISTENCY,
        profile_detector: Optional[EnrolledProfileDetector] = None,
    ) -> None:
        self.level = level
        self.detectors: List[Detector] = []
        if level >= DetectionLevel.ARTIFICIAL:
            self.detectors.extend(cls() for cls in ARTIFICIAL_DETECTORS)
        if level >= DetectionLevel.DEVIATION:
            self.detectors.extend(cls() for cls in DEVIATION_DETECTORS)
        if level >= DetectionLevel.CONSISTENCY:
            self.detectors.extend(cls() for cls in CONSISTENCY_DETECTORS)
        if level >= DetectionLevel.PROFILE and profile_detector is not None:
            if not profile_detector.enrolled:
                raise ValueError("profile detector must be enrolled first")
            self.detectors.append(profile_detector)

    def evaluate(self, recording: Recording) -> BatteryReport:
        """Run every detector over the recording.

        ``recording`` is an :class:`EventRecorder` or, to share one
        analysis between several batteries, its
        :class:`RecordingFeatures`.
        """
        features = RecordingFeatures.of(recording)
        return BatteryReport(
            level=self.level,
            verdicts=[detector.judge(features) for detector in self.detectors],
        )

    def evaluate_only_level(self, recording: Recording) -> BatteryReport:
        """Run only this battery's top-level detectors (for the arms-race
        matrix, where each rung is examined in isolation)."""
        features = RecordingFeatures.of(recording)
        return BatteryReport(
            level=self.level,
            verdicts=[
                detector.judge(features)
                for detector in self.detectors
                if detector.level == self.level
            ],
        )
