"""The (0,0)-origin detector (why Appendix F's warm-up matters).

A freshly opened automated browser has its (virtual) cursor parked at
the viewport origin; the first observed movement therefore starts at
(0, 0) -- a human's cursor is wherever their hand left it.  This is an
artificial-behaviour (level 1) signal that the *experiment*, not the
interaction API, must remove (by moving the mouse before the page
loads).
"""

from __future__ import annotations

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import RecordingFeatures

#: Radius around the origin considered "parked at (0,0)" (px).
ORIGIN_RADIUS_PX = 3.0


class OriginStartDetector(Detector):
    """First cursor activity begins exactly at the viewport origin."""

    name = "origin-start"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        path = features.mouse_path
        if not path:
            return self._human()
        _, x, y = path[0]
        if abs(x) <= ORIGIN_RADIUS_PX and abs(y) <= ORIGIN_RADIUS_PX:
            return self._bot(
                0.7,
                f"first cursor sample at ({x:.0f}, {y:.0f}) -- the parked "
                "position of a freshly opened automated browser",
            )
        return self._human()
