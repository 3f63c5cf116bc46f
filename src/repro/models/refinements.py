"""Intra-level refinements of the arms race (Section 4.2 / Appendix F).

The paper's model allows both sides to *refine* within a rung: "either
side can refine their techniques -- in this case, the models on which
detection/simulation is based."  Appendix F names the concrete opening:
"HLISA currently uses a normal distribution ... while human behaviour is
not normally distributed."

This module implements one full refinement cycle:

- :class:`SkewAwareTypingDetector` -- a *refined* level-2 detector that
  tests the shape (skewness) of the dwell-time distribution.  Real
  keystroke timings are right-skewed; stock HLISA's normal draws are
  symmetric.  Deliberately **not** part of the standard battery -- it is
  the next move in the race, not the status quo.
- :class:`LognormalTypingRhythm` -- the simulator's counter-refinement:
  HLISA's typing model with moment-matched lognormal draws, which
  restores the skew and defeats the refined detector.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import RecordingFeatures
from repro.humans.typing import lognormal_ms, needs_shift
from repro.models.typing_rhythm import KeyEvent, TypingParams, TypingRhythm


def sample_skewness(values) -> float:
    """Adjusted Fisher-Pearson sample skewness."""
    arr = np.asarray(list(values), dtype=float)
    n = arr.size
    if n < 3:
        raise ValueError("need at least 3 values for skewness")
    mean = arr.mean()
    sd = arr.std(ddof=1)
    if sd < 1e-12:
        return 0.0
    g1 = float(np.mean(((arr - mean) / sd) ** 3))
    return g1 * np.sqrt(n * (n - 1)) / (n - 2)


class SkewAwareTypingDetector(Detector):
    """Refined level-2 detector: dwell-time distribution *shape*.

    Human dwell times are right-skewed (lognormal-like, skewness well
    above zero); a symmetric dwell distribution over enough keystrokes
    marks a normal-model simulator.  Needs many samples -- shape tests
    on small samples are noise.
    """

    name = "skew-aware-typing"
    level = DetectionLevel.DEVIATION
    minimum_strokes = 60
    #: Human dwell skewness sits around 3*cv (~0.7 at cv 0.25); the
    #: threshold leaves head-room for sampling noise.
    skew_threshold = 0.30

    def judge(self, features: RecordingFeatures) -> Verdict:
        strokes = features.character_strokes
        if len(strokes) < self.minimum_strokes:
            return self._human()
        dwells = [s.dwell_ms for s in strokes]
        skew = sample_skewness(dwells)
        if skew < self.skew_threshold:
            return self._bot(
                0.7,
                f"dwell-time skewness {skew:.2f}: symmetric distribution "
                "(human keystroke timings are right-skewed)",
            )
        return self._human()


class LognormalTypingRhythm(TypingRhythm):
    """The counter-refinement: HLISA's typing with lognormal draws.

    Same API, same parameters, same contextual pauses and Shift model --
    only the distribution family changes, restoring the skew the refined
    detector measures.
    """

    def _normal(self, mean: float, sd: float, floor: float) -> float:
        # Replace every normal draw in the plan generation with a
        # moment-matched lognormal one.
        if mean <= 0:
            return floor
        return float(max(lognormal_ms(self.rng, mean, max(sd, 1e-6)), floor))

    def _draw_batch(self, means, sds, floors):
        # Batched counterpart of :meth:`_normal` for the vectorised plan
        # path: moment-matched lognormal draws realised in one generator
        # call.  Non-positive means take the floor *without* consuming a
        # draw, exactly as the scalar guard does, so the stream position
        # stays identical to the per-value sequence.
        out = np.asarray(floors, dtype=float).copy()
        mask = means > 0
        if mask.any():
            m = means[mask]
            s = np.maximum(sds[mask], 1e-6)
            variance_ratio = (s / m) ** 2
            sigma2 = np.log1p(variance_ratio)
            mu = np.log(m) - sigma2 / 2.0
            out[mask] = np.maximum(
                self.rng.lognormal(mu, np.sqrt(sigma2)), floors[mask]
            )
        return out
