"""One analysis per recording: the shared detector features.

The detector battery analyses a recording once
(:class:`~repro.detection.features.RecordingFeatures`) and hands the same
features to every detector.  These tests pin that this changes no verdict
and that each analysis step really runs once per recording.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import trajectory
from repro.analysis.trajectory import TrajectoryMetrics, split_movements, trajectory_metrics
from repro.armsrace.tournament import Tournament
from repro.detection import DetectionLevel, DetectorBattery, EnrolledProfileDetector
from repro.detection import features as features_module
from repro.detection.features import RecordingFeatures, extract_features
from repro.events.event import Event
from repro.events.recorder import EventRecorder
from repro.experiment import BrowsingScenario, HLISAAgent, HumanAgent, NaiveAgent, SeleniumAgent
from repro.humans import HumanProfile

KINDS = ("hlisa", "selenium", "human", "naive")

#: Digests of every verdict and profile vector over :func:`_recordings`,
#: computed by the per-detector analysis that preceded the shared
#: features (each detector re-split the path, re-ran the trajectory
#: metrics and re-paired clicks and keystrokes itself).
GOLDEN_VERDICTS = "9b644809fabc1b17cb0a4bb82af2f125346408c3d8322b71cc58cf307ef9735c"
GOLDEN_PROFILES = "95f83fe0f4901ad0a580b788c7004b603fd95294d34701b76b97a4fec33a4dc1"
GOLDEN_TOURNAMENT = "f9e93fb53be0620d96e6f8d5ae9fd6c890d040dc589e59fa5578b520ceb19b79"


def _agent(kind, seed):
    if kind == "hlisa":
        return HLISAAgent(seed=seed)
    if kind == "selenium":
        return SeleniumAgent()
    if kind == "human":
        return HumanAgent(HumanProfile(seed=seed))
    return NaiveAgent(seed=seed)


def _recordings():
    """Two full and one short session per agent kind."""
    return [
        (kind, scenario.run(_agent(kind, 1000 + seed)).recorder)
        for kind in KINDS
        for seed in range(2)
        for scenario in (
            (BrowsingScenario(seed=seed), BrowsingScenario(seed=seed, clicks=8))
            if seed == 0
            else (BrowsingScenario(seed=seed),)
        )
    ]


def _profile_battery():
    enrolment = [
        BrowsingScenario(seed=900 + i).run(_agent("human", 77)).recorder
        for i in range(3)
    ]
    detector = EnrolledProfileDetector(z_threshold=2.0)
    detector.enroll(enrolment)
    return DetectorBattery(DetectionLevel.PROFILE, profile_detector=detector)


def _verdict_key(verdict):
    return repr(
        (verdict.detector, verdict.is_bot, f"{verdict.score:.9f}", tuple(verdict.reasons))
    )


def _profile_key(vector):
    return repr(
        [(name, None if value is None else f"{value:.9g}") for name, value in sorted(vector.items())]
    )


@pytest.fixture(scope="module")
def recordings():
    return _recordings()


@pytest.fixture(scope="module")
def battery():
    return _profile_battery()


class TestVerdictsUnchanged:
    def test_battery_verdicts_match_golden(self, recordings, battery):
        digest = hashlib.sha256()
        for _, recorder in recordings:
            for verdict in battery.evaluate(recorder).verdicts:
                digest.update(_verdict_key(verdict).encode())
        assert digest.hexdigest() == GOLDEN_VERDICTS

    def test_profile_vectors_match_golden(self, recordings):
        digest = hashlib.sha256()
        for _, recorder in recordings:
            digest.update(_profile_key(extract_features(recorder)).encode())
        assert digest.hexdigest() == GOLDEN_PROFILES

    def test_tournament_matches_golden(self):
        result = Tournament().run()
        key = repr(
            (
                sorted(result.matrix.items()),
                sorted(result.human_flags.items()),
                sorted(result.evidence.items()),
            )
        )
        assert hashlib.sha256(key.encode()).hexdigest() == GOLDEN_TOURNAMENT

    def test_shared_features_equal_fresh_analysis(self, recordings, battery):
        """A detector judging the battery's shared features says exactly
        what it says about the recording on its own: no detector sees
        another's leftovers."""
        for _, recorder in recordings:
            shared = battery.evaluate(recorder).verdicts
            alone = [detector.observe(recorder) for detector in battery.detectors]
            assert [_verdict_key(v) for v in shared] == [_verdict_key(v) for v in alone]

    def test_evaluate_accepts_features(self, recordings, battery):
        _, recorder = recordings[0]
        features = RecordingFeatures(recorder)
        assert RecordingFeatures.of(features) is features
        by_recorder = battery.evaluate(recorder).verdicts
        by_features = battery.evaluate(features).verdicts
        assert [_verdict_key(v) for v in by_features] == [_verdict_key(v) for v in by_recorder]


class CountingRecorder(EventRecorder):
    """A recorder counting calls of its scanning accessors."""

    SCANS = ("of_type", "mouse_path", "clicks", "key_strokes", "scroll_events", "wheel_ticks")

    def __init__(self, source: EventRecorder) -> None:
        super().__init__(source.event_types)
        self.events = list(source.events)
        self.calls = {name: 0 for name in self.SCANS}

    def __getattribute__(self, name):
        if name in CountingRecorder.SCANS:
            object.__getattribute__(self, "calls")[name] += 1
        return object.__getattribute__(self, name)


class TestAnalysedOnce:
    def test_trajectory_metrics_once_per_movement(self, recordings, monkeypatch):
        calls = []

        def counted(path):
            calls.append(len(path))
            return trajectory_metrics(path)

        monkeypatch.setattr(features_module, "trajectory_metrics", counted)
        battery = DetectorBattery(DetectionLevel.CONSISTENCY)
        for kind, recorder in recordings:
            calls.clear()
            battery.evaluate(recorder)
            assert len(calls) == len(split_movements(recorder.mouse_path())), kind

    def test_each_stream_scanned_once(self, recordings, battery):
        for kind, source in recordings:
            recorder = CountingRecorder(source)
            battery.evaluate(recorder)
            for name in CountingRecorder.SCANS[1:]:
                assert recorder.calls[name] <= 1, (kind, name)
            # Every scan goes through ``of_type``: the five accessors
            # above plus keydown, mousedown, pointerdown and dblclick.
            assert recorder.calls["of_type"] <= 9, kind

    def test_features_are_lazy(self, recordings):
        _, recorder = recordings[0]
        features = RecordingFeatures(recorder)
        assert features.scrolling.n_scroll_events >= 0
        assert "movement_metrics" not in vars(features)
        assert "typing" not in vars(features)


def _keystroke(key, down_ms, up_ms):
    return [Event("keydown", down_ms, key=key), Event("keyup", up_ms, key=key)]


class TestModifierOnlyTyping:
    """Pressing only modifier keys types no character: the typing
    detectors have nothing to judge (they used to raise)."""

    @pytest.fixture
    def recorder(self):
        recorder = EventRecorder()
        for i in range(12):
            recorder.events.extend(_keystroke("Shift", 200.0 * i, 200.0 * i + 90.0))
        return recorder

    def test_typing_metrics_absent(self, recorder):
        features = RecordingFeatures(recorder)
        assert len(features.key_strokes) == 12
        assert features.character_strokes == []
        assert features.typing is None
        assert extract_features(recorder)["chars_per_minute"] is None

    def test_battery_judges_human(self, recorder):
        report = DetectorBattery(DetectionLevel.CONSISTENCY).evaluate(recorder)
        assert not report.is_bot


def _reference_trajectory_metrics(path):
    """The per-segment formulation of the turn angle and smoothing
    weights that :func:`trajectory_metrics` vectorises and memoises."""
    t = np.array([s[0] for s in path], dtype=float)
    x = np.array([s[1] for s in path], dtype=float)
    y = np.array([s[2] for s in path], dtype=float)
    dx, dy = np.diff(x), np.diff(y)
    turns = []
    for i in range(len(dx) - 1):
        a = math.hypot(dx[i], dy[i])
        b = math.hypot(dx[i + 1], dy[i + 1])
        if a < 1e-9 or b < 1e-9:
            continue
        cross = dx[i] * dy[i + 1] - dy[i] * dx[i + 1]
        dot = dx[i] * dx[i + 1] + dy[i] * dy[i + 1]
        turns.append(abs(math.atan2(cross, dot)))
    mean_turn = float(np.mean(turns)) if turns else 0.0

    n = x.size
    jitter = 0.0
    if n >= 5:
        window = max(min(9, n if n % 2 == 1 else n - 1), 5)
        half = window // 2
        grid = np.arange(-half, half + 1, dtype=float)
        weights = np.linalg.pinv(np.vander(grid, 3, increasing=True))[0]
        rx = x[half : n - half] - np.convolve(x, weights[::-1], mode="valid")
        ry = y[half : n - half] - np.convolve(y, weights[::-1], mode="valid")
        if rx.size:
            jitter = float(np.sqrt(np.mean(rx**2 + ry**2)))
    return mean_turn, jitter


def _ndarray_method_trajectory_metrics(path):
    """:func:`trajectory_metrics` as it read before its NumPy calls were
    trimmed: ``np.diff``, the ndarray ``sum``/``mean``/``std``/``max``
    methods, ``np.convolve`` and ``np.mean`` over the list of turns.
    The kernel must give the same bits in every field."""
    samples = list(path)
    t = np.array([s[0] for s in samples], dtype=float)
    x = np.array([s[1] for s in samples], dtype=float)
    y = np.array([s[2] for s in samples], dtype=float)

    dx, dy = np.diff(x), np.diff(y)
    seg_len = np.hypot(dx, dy)
    dt = np.diff(t)
    duration = float(t[-1] - t[0])
    path_length = float(seg_len.sum())
    chord = float(math.hypot(x[-1] - x[0], y[-1] - y[0]))
    straightness = chord / path_length if path_length > 1e-9 else 1.0

    valid = dt > 0
    speeds = np.zeros(0)
    if valid.any():
        speeds = seg_len[valid] / (dt[valid] / 1000.0)
    mean_speed = float(speeds.mean()) if speeds.size else 0.0
    peak_speed = float(speeds.max()) if speeds.size else 0.0
    speed_cv = float(speeds.std() / mean_speed) if speeds.size and mean_speed > 1e-9 else 0.0

    edge_ratio = 1.0
    if speeds.size >= 5:
        fifth = max(1, speeds.size // 5)
        edge = np.concatenate([speeds[:fifth], speeds[-fifth:]])
        middle = speeds[fifth:-fifth] if speeds.size > 2 * fifth else speeds
        middle_mean = float(middle.mean()) if middle.size else mean_speed
        if middle_mean > 1e-9:
            edge_ratio = float(edge.mean() / middle_mean)

    jitter_rms = 0.0
    n = x.size
    if n >= 5:
        window = max(min(9, n if n % 2 == 1 else n - 1), 5)
        half = window // 2
        weights = trajectory._savitzky_golay_center_weights(window)
        rx = x[half : n - half] - np.convolve(x, weights[::-1], mode="valid")
        ry = y[half : n - half] - np.convolve(y, weights[::-1], mode="valid")
        if rx.size:
            jitter_rms = float(np.sqrt(np.mean(rx**2 + ry**2)))

    turning = (seg_len[:-1] >= 1e-9) & (seg_len[1:] >= 1e-9)
    cross = (dx[:-1] * dy[1:] - dy[:-1] * dx[1:])[turning]
    dot = (dx[:-1] * dx[1:] + dy[:-1] * dy[1:])[turning]
    turns = [abs(math.atan2(c, d)) for c, d in zip(cross.tolist(), dot.tolist())]
    mean_turn = float(np.mean(turns)) if turns else 0.0

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


def _field_reprs(metrics):
    return [(field.name, repr(getattr(metrics, field.name))) for field in dataclasses.fields(metrics)]


@pytest.fixture(scope="module")
def golden_browsing_movements():
    """Every movement of the four agents' browsing scenarios that
    ``tests/test_event_stream_golden.py`` pins, short ones included."""
    return [
        movement
        for kind in KINDS
        for seed in (0, 1)
        for movement in split_movements(
            BrowsingScenario(seed=seed).run(_agent(kind, 500 + seed)).recorder.mouse_path(),
            min_samples=2,
        )
    ]


_STEPS = st.tuples(
    # Zero steps repeat a timestamp; a zero move is a stationary sample.
    st.sampled_from((0.0, 0.0, 1.0, 4.0, 8.0, 8.3, 16.0, 16.7, 33.4)),
    st.just((0.0, 0.0))
    | st.tuples(*[st.floats(-80.0, 80.0, allow_nan=False, allow_infinity=False)] * 2),
)


@st.composite
def _paths(draw):
    """2-150 samples with repeated timestamps and stationary samples mixed
    into arbitrary float steps."""
    t = draw(st.floats(0.0, 5000.0))
    x = draw(st.floats(-10.0, 1400.0))
    y = draw(st.floats(-10.0, 800.0))
    path = [(t, x, y)]
    steps = draw(st.integers(1, 149))
    for step_ms, (step_x, step_y) in draw(st.lists(_STEPS, min_size=steps, max_size=steps)):
        t, x, y = t + step_ms, x + step_x, y + step_y
        path.append((t, x, y))
    return path


class TestTrajectoryKernel:
    def test_every_field_matches_the_ndarray_methods_on_golden_sessions(
        self, golden_browsing_movements
    ):
        assert len(golden_browsing_movements) > 300
        for movement in golden_browsing_movements:
            assert _field_reprs(trajectory_metrics(movement)) == _field_reprs(
                _ndarray_method_trajectory_metrics(movement)
            )

    @settings(max_examples=80, deadline=None)
    @given(path=_paths())
    def test_every_field_matches_the_ndarray_methods_on_random_paths(self, path):
        assert _field_reprs(trajectory_metrics(path)) == _field_reprs(
            _ndarray_method_trajectory_metrics(path)
        )

    def test_matches_per_segment_reference(self, recordings):
        checked = 0
        for _, recorder in recordings:
            for movement in split_movements(recorder.mouse_path(), min_samples=2):
                metrics = trajectory_metrics(movement)
                mean_turn, jitter = _reference_trajectory_metrics(movement)
                assert metrics.mean_abs_turn_rad == mean_turn
                assert metrics.jitter_rms_px == jitter
                checked += 1
        assert checked > 100

    def test_degenerate_segments_skip_turns(self):
        # A resting sample, then one right-angle turn between two legs.
        path = [
            (0.0, 0.0, 0.0),
            (10.0, 10.0, 0.0),
            (20.0, 10.0, 0.0),
            (30.0, 10.0, 10.0),
            (40.0, 20.0, 10.0),
        ]
        metrics = trajectory_metrics(path)
        assert metrics.mean_abs_turn_rad == pytest.approx(math.pi / 2)
        assert metrics.mean_abs_turn_rad == _reference_trajectory_metrics(path)[0]

    def test_smoothing_weights_are_shared_read_only(self):
        weights = trajectory._savitzky_golay_center_weights(9)
        assert weights is trajectory._savitzky_golay_center_weights(9)
        with pytest.raises(ValueError):
            weights[0] = 0.0
