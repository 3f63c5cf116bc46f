"""Level-2 detectors: "detect deviations from human behaviour" (Fig. 3).

The naive improvements stay within what is humanly *possible* but not
within what humans actually *do*.  These detectors compare observed
behaviour to a model of human behaviour:

- click scatter should be a centre-clustered cloud, not uniform over the
  element, and should occasionally miss the centre by a lot but never sit
  in the far corners (Fig. 2);
- long movements should carry tremor and a bell-shaped speed profile --
  a perfectly smooth curve is a parametric curve, not a hand (Fig. 1 C);
- typing should have variable dwell/flight; a metronome is a bot;
- scroll ticks should come in sweeps with finger-repositioning breaks.
"""

from __future__ import annotations

import numpy as np

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import RecordingFeatures


class ClickScatterDetector(Detector):
    """Distributional test on click placement (needs many clicks)."""

    name = "click-scatter"
    level = DetectionLevel.DEVIATION
    minimum_clicks = 20

    def judge(self, features: RecordingFeatures) -> Verdict:
        if len(features.placed_clicks) < self.minimum_clicks:
            return self._human()
        metrics = features.click_placement
        if metrics.exact_center_rate > 0.25:
            return self._bot(
                0.9,
                f"{metrics.exact_center_rate:.0%} of clicks on the exact centre "
                "(humans hardly ever click there)",
            )
        if metrics.corner_rate > 0.04:
            return self._bot(
                0.85,
                f"{metrics.corner_rate:.0%} of clicks in far corners "
                "(uniform randomisation reaches places humans never do)",
            )
        if metrics.n >= 30 and metrics.uniform_p_x > 0.2:
            return self._bot(
                0.8,
                "click placement consistent with a uniform distribution "
                "over the element (humans cluster around the centre)",
            )
        if metrics.mean_radial_offset < 0.05:
            return self._bot(
                0.8, "click scatter implausibly tight around the centre"
            )
        if metrics.mean_radial_offset > 0.95:
            return self._bot(0.7, "click scatter implausibly wide")
        return self._human()


class UniformSpeedDetector(Detector):
    """Movements at constant speed (no acceleration or deceleration).

    A constant-velocity cursor is within physical reach of a hand for a
    moment, but real movements always show a bell-shaped speed profile --
    making uniformity a *deviation from human behaviour* (the "artificial
    noise" class of Fig. 3's second rung), which is exactly what the
    naive Bézier baseline gets wrong (Fig. 1 C).
    """

    name = "uniform-speed"
    level = DetectionLevel.DEVIATION

    def judge(self, features: RecordingFeatures) -> Verdict:
        flagged = 0
        considered = 0
        for metrics in features.movement_metrics:
            if metrics.chord_length < 200 or metrics.n_samples < 8:
                continue
            considered += 1
            if metrics.speed_cv < 0.10:
                flagged += 1
        if considered and flagged / considered > 0.5:
            return self._bot(
                0.9, f"{flagged}/{considered} movements at uniform speed"
            )
        return self._human()


class TrajectoryShapeDetector(Detector):
    """Smooth parametric curves and flat speed profiles."""

    name = "trajectory-shape"
    level = DetectionLevel.DEVIATION

    def judge(self, features: RecordingFeatures) -> Verdict:
        movements = [
            m
            for m in features.movement_metrics
            if m.chord_length > 250 and m.n_samples >= 12
        ]
        if len(movements) < 2:
            return self._human()
        # Tremor-free curves: a curved path with essentially no residual
        # from a smooth polynomial is a parametric curve (naive Bézier).
        smooth = [m for m in movements if m.jitter_rms_px < 0.55]
        if len(smooth) / len(movements) > 0.6:
            return self._bot(
                0.85,
                f"{len(smooth)}/{len(movements)} long movements carry no "
                "motor tremor",
            )
        # Flat speed: humans accelerate then decelerate.
        flat = [
            m
            for m in movements
            if m.speed_cv < 0.2 and m.edge_to_middle_speed_ratio > 0.8
        ]
        if len(flat) / len(movements) > 0.6:
            return self._bot(
                0.8,
                f"{len(flat)}/{len(movements)} movements lack an "
                "acceleration/deceleration profile",
            )
        return self._human()


class RhythmlessTypingDetector(Detector):
    """Constant dwell/flight times: humanly possible pace, inhuman rhythm."""

    name = "rhythmless-typing"
    level = DetectionLevel.DEVIATION

    def judge(self, features: RecordingFeatures) -> Verdict:
        metrics = features.typing
        if len(features.key_strokes) < 15 or metrics is None:
            return self._human()
        if metrics.dwell_std_ms < 6.0:
            return self._bot(
                0.9,
                f"key dwell std {metrics.dwell_std_ms:.1f} ms -- metronomic",
            )
        if metrics.flight_std_ms < 10.0 and metrics.n_strokes >= 20:
            return self._bot(
                0.85,
                f"flight-time std {metrics.flight_std_ms:.1f} ms -- metronomic",
            )
        return self._human()


class PauselessTypingDetector(Detector):
    """No contextual pauses in a long text.

    Human writing pauses at word and sentence boundaries (Alves et al.);
    a flight-time distribution whose upper tail is no longer than its
    median has no pauses at all.
    """

    name = "pauseless-typing"
    level = DetectionLevel.DEVIATION

    def judge(self, features: RecordingFeatures) -> Verdict:
        strokes = features.character_strokes
        if len(strokes) < 40:
            return self._human()
        downs = np.array([s.down.timestamp for s in strokes])
        gaps = np.diff(downs)
        gaps = gaps[gaps > 0]
        if gaps.size < 20:
            return self._human()
        ratio = float(np.quantile(gaps, 0.95) / max(np.median(gaps), 1e-9))
        if ratio < 1.6:
            return self._bot(
                0.75,
                f"95th-percentile keystroke gap only {ratio:.2f}x the median "
                "-- no word/sentence pauses",
            )
        return self._human()


class MetronomeScrollDetector(Detector):
    """Scroll ticks at a fixed interval, without sweep structure.

    Scoped to *tick-wise* scrolling (per-event steps around the 57 px
    wheel tick): continuous scrolling -- scrollbar drags, smooth-scroll
    frames, trackpads -- is frame-paced by the display, and any cadence
    test there would flag humans (the paper's Appendix D point that
    scrolling is a weak detection signal).
    """

    name = "metronome-scroll"
    level = DetectionLevel.DEVIATION

    #: Per-event step range considered tick-wise scrolling (px).
    TICK_STEP_RANGE = (40.0, 80.0)
    #: Gaps at or below the display frame interval mean continuous
    #: (drag/animated) scrolling, not discrete wheel ticks.
    FRAME_PACED_GAP_MS = 40.0

    def judge(self, features: RecordingFeatures) -> Verdict:
        metrics = features.scrolling
        if metrics.n_scroll_events < 12:
            return self._human()
        if metrics.median_tick_gap_ms <= 0:
            return self._human()
        low, high = self.TICK_STEP_RANGE
        if not (low <= metrics.median_scroll_step_px <= high):
            return self._human()  # continuous scrolling: out of scope
        if metrics.median_tick_gap_ms <= self.FRAME_PACED_GAP_MS:
            return self._human()  # frame-paced drag/animation: out of scope
        if not metrics.has_sweep_structure:
            ratio = metrics.p90_tick_gap_ms / metrics.median_tick_gap_ms
            return self._bot(
                0.7,
                f"scroll cadence has no finger-repositioning breaks "
                f"(p90/median gap = {ratio:.2f})",
            )
        return self._human()


#: The standard level-2 battery.
DEVIATION_DETECTORS = (
    UniformSpeedDetector,
    ClickScatterDetector,
    TrajectoryShapeDetector,
    RhythmlessTypingDetector,
    PauselessTypingDetector,
    MetronomeScrollDetector,
)
