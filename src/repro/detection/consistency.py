"""Level-3 detectors: "tracking consistency of behaviour" (Fig. 3).

    "The next escalation is to recognise that certain interactions are
    correlated.  For example, faster mouse movement may be correlated
    with higher (or lower) accuracy clicks.  Detectors that move to this
    level will detect simulators that lack such internal consistency."

HLISA draws each signal from its own independent distribution, so the
couplings human motor control produces are missing:

- **distance-speed coupling** (Fitts' law): humans complete long
  movements at higher average speed (time grows only logarithmically
  with distance); HLISA's average speed is distance-independent;
- **speed-accuracy trade-off**: hurried human movements end in sloppier
  clicks; HLISA's click scatter ignores how the cursor arrived;
- **environment consistency**: a double-click whose two clicks are more
  than 500 ms apart is impossible in a default desktop environment but
  accepted under Selenium's observed 600 ms interval (Appendix D).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import RecordingFeatures


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 3 or np.std(x) < 1e-12 or np.std(y) < 1e-12:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


class DistanceSpeedCouplingDetector(Detector):
    """Fitts'-law signature: long movements should be faster on average.

    Human movement time grows logarithmically with distance, so average
    speed rises steeply with distance.  A simulator drawing speed from a
    distance-independent distribution shows no such correlation.
    """

    name = "distance-speed-coupling"
    level = DetectionLevel.CONSISTENCY
    minimum_movements = 25

    def judge(self, features: RecordingFeatures) -> Verdict:
        movements = [
            m
            for m in features.movement_metrics
            if m.chord_length > 60 and m.duration_ms > 0
        ]
        if len(movements) < self.minimum_movements:
            return self._human()
        distances = np.array([m.chord_length for m in movements])
        speeds = np.array([m.mean_speed_px_s for m in movements])
        if float(np.ptp(distances)) < 200.0:
            return self._human()  # no distance variation: nothing to test
        r = _pearson(distances, speeds)
        if r < 0.25:
            return self._bot(
                0.8,
                f"movement speed uncorrelated with distance (r={r:.2f}); "
                "human movement times follow Fitts' law",
            )
        return self._human()


class SpeedAccuracyCouplingDetector(Detector):
    """Hurried approaches should end in sloppier clicks."""

    name = "speed-accuracy-coupling"
    level = DetectionLevel.CONSISTENCY
    minimum_clicks = 30

    def judge(self, features: RecordingFeatures) -> Verdict:
        speeds: List[float] = []
        offsets: List[float] = []
        for click, metrics in features.approaches:
            box = click.target_box
            if box is None or box.width < 4 or metrics.chord_length < 60:
                continue
            center = box.center
            dx = (click.position[0] - center.x) / max(box.width / 2.0, 1e-9)
            dy = (click.position[1] - center.y) / max(box.height / 2.0, 1e-9)
            # Normalise speed by the Fitts-expected speed for this
            # distance *and target size*, so only the subject's hurry
            # remains -- not the task geometry.
            distance = metrics.chord_length
            width = max(min(box.width, box.height), 1.0)
            expected_t = 120.0 + 140.0 * math.log2(distance / width + 1.0)
            relative_speed = (distance / max(metrics.duration_ms, 1.0)) / (
                distance / expected_t
            )
            speeds.append(relative_speed)
            offsets.append(math.hypot(dx, dy))
        if len(speeds) < self.minimum_clicks:
            return self._human()
        offset_arr = np.array(offsets)
        if float(np.std(offset_arr)) < 1e-6:
            # Degenerate scatter (everything dead-centre) is level-1 prey.
            return self._human()
        r = _pearson(np.array(speeds), offset_arr)
        if r < 0.12:
            return self._bot(
                0.75,
                f"click accuracy independent of approach speed (r={r:.2f}); "
                "humans trade speed for accuracy",
            )
        return self._human()


class DoubleClickEnvironmentDetector(Detector):
    """Double clicks only a Selenium-configured environment would accept.

    Firefox asks its environment for the maximal double-click interval:
    500 ms on a default desktop, 600 ms observed under Selenium
    (Appendix D).  A ``dblclick`` whose two clicks are 500-600 ms apart
    therefore reveals the automated environment.
    """

    name = "double-click-environment"
    level = DetectionLevel.CONSISTENCY

    def judge(self, features: RecordingFeatures) -> Verdict:
        dblclicks = features.of_type("dblclick")
        if not dblclicks:
            return self._human()
        downs = [e.timestamp for e in features.of_type("mousedown")]
        for dbl in dblclicks:
            prior = [t for t in downs if t <= dbl.timestamp]
            if len(prior) < 2:
                continue
            gap = prior[-1] - prior[-2]
            if 500.0 < gap <= 600.0:
                return self._bot(
                    0.95,
                    f"double click accepted at a {gap:.0f} ms interval -- "
                    "beyond the default 500 ms environment limit",
                )
        return self._human()


#: The standard level-3 battery (level-specific detectors only; batteries
#: are cumulative across levels, see :mod:`repro.detection.battery`).
CONSISTENCY_DETECTORS = (
    DistanceSpeedCouplingDetector,
    SpeedAccuracyCouplingDetector,
    DoubleClickEnvironmentDetector,
)
