"""Cross-layer consistency checks: fingerprint x interaction.

The paper treats fingerprinting and interaction as separate detection
avenues; the *combination* is stronger than either ("detectors can only
escalate further by incorporating information beyond interaction").
These detectors need both a window (fingerprint surface) and a recording
(interaction), so they sit outside the interaction-only batteries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import Recording, RecordingFeatures


class TouchClaimDetector(Detector):
    """The device claims touch; the visitor only ever uses a mouse.

    A navigator reporting ``maxTouchPoints > 0`` (a phone/tablet profile)
    whose entire session consists of mouse events and zero touch events
    is either a desktop browser lying about its identity or an automation
    framework that -- like HLISA (Appendix F: "HLISA does not account for
    touch actions") -- cannot synthesise touch.
    """

    name = "touch-claim-mismatch"
    level = DetectionLevel.CONSISTENCY
    minimum_mouse_events = 30

    def __init__(self, window) -> None:
        self.window = window

    def judge(self, features: RecordingFeatures) -> Verdict:
        claimed = self.window.navigator.get("maxTouchPoints")
        if not isinstance(claimed, int) or claimed <= 0:
            return self._human()
        touches = features.of_type("touchstart", "touchend")
        mouse = features.of_type("mousemove", "mousedown")
        if len(mouse) >= self.minimum_mouse_events and not touches:
            return self._bot(
                0.8,
                f"navigator claims {claimed} touch points but the session "
                f"contains {len(mouse)} mouse events and no touch at all",
            )
        return self._human()


class SmoothScrollMismatchDetector(Detector):
    """Tick-jump scrolling on a smooth-scrolling browser profile.

    With Firefox's smooth scrolling enabled, every wheel tick animates
    over several sub-tick scroll events; a visitor whose scroll offsets
    jump a full 57 px at a time is bypassing the compositor -- i.e.
    scripting ``scrollBy`` (the future-work refinement the paper notes
    HLISA would need for smooth-scrolling profiles).
    """

    name = "smooth-scroll-mismatch"
    level = DetectionLevel.CONSISTENCY
    minimum_scroll_events = 12

    def __init__(self, window) -> None:
        self.window = window

    def judge(self, features: RecordingFeatures) -> Verdict:
        if not getattr(self.window, "smooth_scroll", False):
            return self._human()
        scrolls = features.scroll_events
        if len(scrolls) < self.minimum_scroll_events:
            return self._human()
        import numpy as np

        offsets = np.array([e.page_y for e in scrolls], dtype=float)
        steps = np.abs(np.diff(np.concatenate([[0.0], offsets])))
        steps = steps[steps > 0]
        if steps.size and float(np.median(steps)) >= 50.0:
            return self._bot(
                0.75,
                f"median scroll step {float(np.median(steps)):.0f} px on a "
                "smooth-scrolling profile (animated frames expected)",
            )
        return self._human()


@dataclass
class CrossCheckReport:
    """Verdicts from the cross-layer battery."""

    verdicts: List[Verdict]

    @property
    def is_bot(self) -> bool:
        return any(v.is_bot for v in self.verdicts)


def cross_check(window, recording: Recording) -> CrossCheckReport:
    """Run all fingerprint-x-interaction consistency checks."""
    features = RecordingFeatures.of(recording)
    detectors = [TouchClaimDetector(window), SmoothScrollMismatchDetector(window)]
    return CrossCheckReport([d.judge(features) for d in detectors])
