"""The detection tournament validating Fig. 3.

Every simulator level runs the browsing scenario; every cumulative
detector battery judges every recording.  The result is the detection
matrix the paper's conceptual model predicts: lower-triangular, with
HLISA undetected until consistency tracking enters.

A genuine human subject is always included as the false-positive control
-- "detectors must not be too strict or risk barring human visitors
entry".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.armsrace.levels import SimulatorLevel, expected_detection
from repro.armsrace.simulators import simulator_for_level
from repro.detection.base import DetectionLevel
from repro.detection.battery import DetectorBattery
from repro.detection.features import RecordingFeatures
from repro.detection.profile_match import EnrolledProfileDetector
from repro.events.recorder import EventRecorder
from repro.experiment.agents import HumanAgent
from repro.experiment.tasks import BrowsingScenario
from repro.humans.profile import HumanProfile


@dataclass
class TournamentResult:
    """Detection matrix + false-positive control."""

    #: detected[simulator_level][detector_level] -> flagged?
    matrix: Dict[SimulatorLevel, Dict[DetectionLevel, bool]] = field(default_factory=dict)
    #: human_flags[detector_level] -> was the genuine human flagged?
    human_flags: Dict[DetectionLevel, bool] = field(default_factory=dict)
    #: Names of the detectors that fired per (simulator, detector level).
    evidence: Dict[Tuple[SimulatorLevel, DetectionLevel], List[str]] = field(
        default_factory=dict
    )

    def matches_model(self) -> bool:
        """Whether the empirical matrix equals the Fig. 3 prediction and
        the human was never flagged."""
        for sim, per_detector in self.matrix.items():
            for det, detected in per_detector.items():
                if detected != expected_detection(sim, det):
                    return False
        return not any(self.human_flags.values())

    def mismatches(self) -> List[str]:
        """Human-readable list of deviations from the model."""
        problems: List[str] = []
        for sim, per_detector in self.matrix.items():
            for det, detected in per_detector.items():
                expected = expected_detection(sim, det)
                if detected != expected:
                    verb = "caught" if detected else "missed"
                    problems.append(
                        f"detector level {int(det)} {verb} simulator level "
                        f"{int(sim)} (model expects "
                        f"{'caught' if expected else 'missed'})"
                    )
        for det, flagged in self.human_flags.items():
            if flagged:
                problems.append(f"detector level {int(det)} flagged the human")
        return problems

    def format_matrix(self) -> str:
        """The Fig. 3 matrix as a printable table."""
        lines = ["simulator \\ detector   L1  L2  L3  L4"]
        for sim in sorted(self.matrix):
            cells = []
            for det in sorted(self.matrix[sim]):
                cells.append(" X " if self.matrix[sim][det] else " . ")
            lines.append(f"level {int(sim)} ({sim.name:17s}) {' '.join(cells)}")
        human_cells = " ".join(
            " X " if self.human_flags.get(d) else " . "
            for d in sorted(self.human_flags)
        )
        lines.append(f"human   ({'CONTROL':17s}) {human_cells}")
        return "\n".join(lines)


class Tournament:
    """Runs the full simulator-vs-detector tournament.

    Parameters
    ----------
    subject:
        The human individual the level-4 detector enrols on (and the
        level-4 simulator impersonates).
    scenario:
        The browsing scenario every agent performs.
    enrolment_runs:
        How many scenario recordings the profile detector learns from.
    """

    def __init__(
        self,
        subject: Optional[HumanProfile] = None,
        scenario: Optional[BrowsingScenario] = None,
        enrolment_runs: int = 3,
        profile_z_threshold: float = 2.0,
    ) -> None:
        self.subject = subject or HumanProfile()
        self.scenario = scenario or BrowsingScenario()
        self.enrolment_runs = enrolment_runs
        self.profile_z_threshold = profile_z_threshold

    def _record(self, agent) -> EventRecorder:
        return self.scenario.run(agent).recorder

    def _enrolled_detector(self) -> EnrolledProfileDetector:
        detector = EnrolledProfileDetector(z_threshold=self.profile_z_threshold)
        recordings = []
        for i in range(self.enrolment_runs):
            agent = HumanAgent(self.subject.with_seed(self.subject.seed + 17 * (i + 1)))
            recordings.append(self._record(agent))
        detector.enroll(recordings)
        return detector

    def run(self) -> TournamentResult:
        """Play every simulator against every detector battery."""
        result = TournamentResult()
        profile_detector = self._enrolled_detector()

        batteries = {
            level: DetectorBattery(
                level,
                profile_detector=(
                    profile_detector if level >= DetectionLevel.PROFILE else None
                ),
            )
            for level in DetectionLevel
        }

        # The genuine human control (a fresh session of the subject).
        # Each recording is analysed once and judged by every battery.
        human = RecordingFeatures(
            self._record(HumanAgent(self.subject.with_seed(self.subject.seed + 5000)))
        )
        for det_level, battery in batteries.items():
            result.human_flags[det_level] = battery.evaluate(human).is_bot

        for sim_level in SimulatorLevel:
            agent = simulator_for_level(sim_level, target_profile=self.subject)
            features = RecordingFeatures(self._record(agent))
            result.matrix[sim_level] = {}
            for det_level, battery in batteries.items():
                report = battery.evaluate(features)
                result.matrix[sim_level][det_level] = report.is_bot
                result.evidence[(sim_level, det_level)] = report.triggered_names()
        return result
