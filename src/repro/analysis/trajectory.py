"""Cursor-trajectory metrics (Fig. 1's qualitative contrasts, made
quantitative).

Given a recorded mouse path ``[(t_ms, x, y), ...]`` the metrics capture:

- **straightness**: chord length / path length (1.0 = perfect line);
- **speed profile**: per-segment speeds, their coefficient of variation
  (uniform-speed movement has CV ~ 0), and an acceleration signature --
  mean speed in the first and last fifths relative to the middle (humans
  accelerate then decelerate, so edge/middle << 1);
- **jitter energy**: RMS residual of the path from its smoothed version
  (human tremor; absent from straight lines and plain Béziers);
- **curvature**: mean absolute turn angle per segment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

PathSample = Tuple[float, float, float]  # (t_ms, x, y)


@dataclass(frozen=True)
class TrajectoryMetrics:
    """Shape/kinematics summary of one cursor movement."""

    n_samples: int
    duration_ms: float
    path_length: float
    chord_length: float
    straightness: float
    mean_speed_px_s: float
    peak_speed_px_s: float
    speed_cv: float
    edge_to_middle_speed_ratio: float
    jitter_rms_px: float
    mean_abs_turn_rad: float

    @property
    def has_bell_speed_profile(self) -> bool:
        """Accelerates at the start and decelerates at the end."""
        return self.edge_to_middle_speed_ratio < 0.75

    @property
    def is_straight(self) -> bool:
        """Effectively a straight line."""
        return self.straightness > 0.995

    @property
    def is_uniform_speed(self) -> bool:
        """Effectively constant speed."""
        return self.speed_cv < 0.12


def split_movements(
    path: Sequence[PathSample],
    min_gap_ms: float = 120.0,
    min_samples: int = 4,
) -> List[List[PathSample]]:
    """Split a recording into individual movements.

    A new movement starts wherever the cursor rested for more than
    ``min_gap_ms`` between consecutive mousemove events.  Movements with
    fewer than ``min_samples`` samples (twitches) are dropped.
    """
    samples = list(path)
    movements: List[List[PathSample]] = []
    current: List[PathSample] = []
    for sample in samples:
        if current and sample[0] - current[-1][0] > min_gap_ms:
            if len(current) >= min_samples:
                movements.append(current)
            current = []
        current.append(sample)
    if len(current) >= min_samples:
        movements.append(current)
    return movements


def per_movement_metrics(
    path: Sequence[PathSample],
    min_gap_ms: float = 120.0,
) -> List[TrajectoryMetrics]:
    """Trajectory metrics for each movement in a recording."""
    return [
        trajectory_metrics(m) for m in split_movements(path, min_gap_ms=min_gap_ms)
    ]


@functools.lru_cache(maxsize=None)
def _savitzky_golay_center_weights(window: int, degree: int = 2) -> np.ndarray:
    """Weights that evaluate a local least-squares polynomial at the
    window centre (classic Savitzky-Golay smoothing coefficients).

    Memoised per window size; the returned array is read-only.
    """
    half = window // 2
    t = np.arange(-half, half + 1, dtype=float)
    design = np.vander(t, degree + 1, increasing=True)
    pseudo_inverse = np.linalg.pinv(design)
    weights = pseudo_inverse[0].copy()  # evaluation of the constant term at t=0
    weights.setflags(write=False)
    return weights


def _polynomial_residual_rms(x: np.ndarray, y: np.ndarray) -> float:
    """RMS residual of the path from a *local* quadratic fit (tremor).

    Any smooth curve -- straight line, Bézier, B-spline -- is locally
    quadratic over a short window, so its residual vanishes; hand tremor
    and HLISA's injected jitter do not.  A global polynomial would
    mislabel smooth-but-complex curves as jittery.  (``np.correlate``
    with the weights runs the same C loop as ``np.convolve`` with the
    reversed weights, which reverses them back.)
    """
    n = x.size
    if n < 5:
        return 0.0
    window = min(9, n if n % 2 == 1 else n - 1)
    if window < 5:
        window = 5
    half = window // 2
    weights = _savitzky_golay_center_weights(window)
    rx = x[half : n - half] - np.correlate(x, weights, "valid")
    ry = y[half : n - half] - np.correlate(y, weights, "valid")
    return math.sqrt(float(np.add.reduce(rx * rx + ry * ry)) / rx.size)


def trajectory_metrics(path: Sequence[PathSample]) -> TrajectoryMetrics:
    """Compute :class:`TrajectoryMetrics` from a recorded mouse path.

    The kernel runs once per movement, so it spends few NumPy calls, and
    every field keeps the bits of the ndarray-method formulation
    (``np.diff``, ``.sum``/``.mean``/``.std``/``.max``, ``np.convolve``,
    ``np.mean`` over a list).  The rule: each replacement runs the same
    ufunc loop over the same operands in the same order.  A mean is the
    ``np.add.reduce`` sum divided by the count; the speed variance is
    NumPy's ``_var`` (sum, divide, subtract, square, sum, divide); no
    reduction is split or reordered, because pairwise summation rounds
    by block.  ``tests/test_recording_features.py`` compares all fields
    by ``repr``.
    """
    samples = list(path)
    if len(samples) < 2:
        raise ValueError("need at least 2 samples for trajectory metrics")
    t, x, y = (np.array(column, dtype=float) for column in zip(*samples))

    dx = x[1:] - x[:-1]
    dy = y[1:] - y[:-1]
    seg_len = np.hypot(dx, dy)
    dt = t[1:] - t[:-1]
    duration = float(t[-1] - t[0])
    path_length = float(np.add.reduce(seg_len))
    chord = float(math.hypot(x[-1] - x[0], y[-1] - y[0]))
    straightness = chord / path_length if path_length > 1e-9 else 1.0

    valid = dt > 0
    speeds = seg_len[valid] / (dt[valid] / 1000.0)
    n_speeds = speeds.size
    mean_speed = peak_speed = speed_cv = 0.0
    if n_speeds:
        mean_speed = float(np.add.reduce(speeds)) / n_speeds
        peak_speed = float(np.maximum.reduce(speeds))
        if mean_speed > 1e-9:
            deviations = speeds - mean_speed
            variance = float(np.add.reduce(deviations * deviations)) / n_speeds
            speed_cv = math.sqrt(variance) / mean_speed

    edge_ratio = 1.0
    if n_speeds >= 5:
        fifth = max(1, n_speeds // 5)
        edge = np.concatenate((speeds[:fifth], speeds[-fifth:]))
        middle = speeds[fifth:-fifth]
        middle_mean = float(np.add.reduce(middle)) / middle.size
        if middle_mean > 1e-9:
            edge_ratio = float(np.add.reduce(edge)) / edge.size / middle_mean

    # Jitter: RMS residual from a low-order polynomial fit of the path
    # over (normalised) time.  Straight lines and smooth Bézier curves fit
    # almost exactly; human tremor and HLISA's added jitter do not.
    jitter_rms = _polynomial_residual_rms(x, y)

    # Mean absolute turn angle between consecutive non-degenerate
    # segments.  ``math.atan2`` (not ``np.arctan2``, whose SIMD builds
    # may round differently) keeps the angle identical on every host.
    moving = seg_len >= 1e-9
    turning = moving[:-1] & moving[1:]
    dx0, dx1, dy0, dy1 = dx[:-1], dx[1:], dy[:-1], dy[1:]
    cross = (dx0 * dy1 - dy0 * dx1)[turning]
    dot = (dx0 * dx1 + dy0 * dy1)[turning]
    turns = np.absolute(
        np.fromiter(map(math.atan2, cross.tolist(), dot.tolist()), float, cross.size)
    )
    mean_turn = float(np.add.reduce(turns)) / turns.size if turns.size else 0.0

    return TrajectoryMetrics(
        n_samples=len(samples),
        duration_ms=duration,
        path_length=path_length,
        chord_length=chord,
        straightness=min(straightness, 1.0),
        mean_speed_px_s=mean_speed,
        peak_speed_px_s=peak_speed,
        speed_cv=speed_cv,
        edge_to_middle_speed_ratio=edge_ratio,
        jitter_rms_px=jitter_rms,
        mean_abs_turn_rad=mean_turn,
    )
