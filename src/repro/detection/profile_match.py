"""Level-4 detector: "recognise specific user profile" (Fig. 3).

    "This requires an enrolment period during which the detector learns
    the specific individual's interaction patterns.  The only way to
    defeat such detection mechanisms is to move from simulating
    interaction that is plausibly human, to simulating the specific
    interaction profile of a specific individual."

The detector enrols on recordings of one user, stores per-feature means
and standard deviations, and flags any recording whose feature vector
deviates too far -- even when the behaviour is perfectly plausible for
*some* human.  (The paper notes this level of tracking may fall under the
GDPR's purview.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import FEATURE_NAMES, Recording, RecordingFeatures


class EnrolledProfileDetector(Detector):
    """Per-user profile matching over behavioural features."""

    name = "enrolled-profile"
    level = DetectionLevel.PROFILE

    #: Per-feature |z| counted as a strong deviation.
    STRONG_Z = 2.5
    #: Number of strong deviations that rejects a probe outright.
    STRONG_VOTES = 2

    def __init__(self, z_threshold: float = 3.0, min_features: int = 3) -> None:
        #: Mean absolute z-score beyond which a probe is rejected.
        self.z_threshold = z_threshold
        #: Minimum shared features required to issue a verdict at all.
        self.min_features = min_features
        self._means: Dict[str, float] = {}
        self._stds: Dict[str, float] = {}
        self.enrolled = False

    # -- enrolment ---------------------------------------------------------

    def enroll(self, recordings: Sequence[Recording]) -> None:
        """Learn the user's profile from several recordings."""
        if len(recordings) < 2:
            raise ValueError("enrolment needs at least 2 recordings")
        per_feature: Dict[str, List[float]] = {name: [] for name in FEATURE_NAMES}
        for recording in recordings:
            for name, value in RecordingFeatures.of(recording).profile_vector.items():
                if value is not None:
                    per_feature[name].append(value)
        for name, values in per_feature.items():
            if len(values) >= 2:
                self._means[name] = float(np.mean(values))
                # Floor the std at 10% of the mean so a freakishly
                # consistent enrolment doesn't reject everything.
                spread = float(np.std(values, ddof=1))
                floor = abs(self._means[name]) * 0.10 + 1e-6
                self._stds[name] = max(spread, floor)
        if not self._means:
            raise ValueError("enrolment recordings carried no usable features")
        self.enrolled = True

    # -- matching -------------------------------------------------------------

    def z_scores(self, recording: Recording) -> Dict[str, float]:
        """Per-feature |z| of a probe recording against the profile."""
        if not self.enrolled:
            raise RuntimeError("detector has not been enrolled")
        probe = RecordingFeatures.of(recording).profile_vector
        scores: Dict[str, float] = {}
        for name, value in probe.items():
            if value is None or name not in self._means:
                continue
            scores[name] = abs(value - self._means[name]) / self._stds[name]
        return scores

    def judge(self, features: RecordingFeatures) -> Verdict:
        scores = self.z_scores(features)
        if len(scores) < self.min_features:
            return self._human()
        mean_z = float(np.mean(list(scores.values())))
        strong = [name for name, z in scores.items() if z >= self.STRONG_Z]
        if mean_z > self.z_threshold or len(strong) >= self.STRONG_VOTES:
            worst: Tuple[str, float] = max(scores.items(), key=lambda kv: kv[1])
            return self._bot(
                min(max(mean_z / (2 * self.z_threshold), len(strong) / 4.0), 1.0),
                f"behaviour deviates from the enrolled profile "
                f"(mean |z| = {mean_z:.1f}; {len(strong)} strong deviations; "
                f"worst: {worst[0]} at {worst[1]:.1f})",
            )
        return self._human()
