"""Vectorised motor kernels vs their scalar golden references.

The human-motor hot path (pointing, Bézier trajectories, typing rhythms,
scroll cadences) is generated array-at-once; this suite asserts the
byte-identity contract against :mod:`repro.models.scalar_reference` --
same seed, same profile, same output, compared with ``==`` on the full
timestamped structures -- plus the three motor-timing regression fixes
and the batched dispatch path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.browser.input_pipeline import InputPipeline
from repro.browser.window import Window
from repro.dom.document import Document
from repro.events.dispatch import EventTarget
from repro.events.recorder import EventRecorder
from repro.events.taxonomy import ALL_INTERACTION_EVENTS
from repro.geometry import Box, Point
from repro.humans.pointing import (
    CORRECTION_MAX_FRAC,
    DEGENERATE_DISTANCE_PX,
    HumanPointing,
    _smoothed_noise,
    fitts_duration_ms,
)
from repro.humans.profile import HumanProfile
from repro.humans.scrolling import HumanScrolling
from repro.lint import render_text, run_lint
from repro.models.bezier import hlisa_path, naive_bezier_path
from repro.models.layouts import DE_LAYOUT, US_LAYOUT
from repro.models.refinements import LognormalTypingRhythm
from repro.models.scalar_reference import (
    ScalarHumanPointing,
    ScalarHumanScrolling,
    ScalarLognormalTypingRhythm,
    ScalarScrollCadence,
    ScalarTypingRhythm,
    scalar_hlisa_path,
    scalar_naive_bezier_path,
)
from repro.models.scroll_cadence import ScrollCadence
from repro.models.typing_rhythm import TypingRhythm
from test_event_stream_golden import stream_digest

REPO_ROOT = Path(__file__).resolve().parents[1]

SEEDS = (0, 1, 7, 23, 1234)

#: Chord endpoints spanning short flicks to cross-viewport reaches.
TARGETS = (
    Point(7.0, 3.0),
    Point(63.0, 41.0),
    Point(411.0, 233.0),
    Point(1280.0, 15.0),
    Point(-340.0, 702.5),
)

PROFILES = (
    HumanProfile(),
    HumanProfile(jitter_px=0.4, correction_prob=1.0),
    HumanProfile(jitter_px=3.5, curve_amplitude_frac=0.12, correction_prob=0.0),
)

TEXTS = (
    "hello",
    "Hello, world! How are YOU today?",
    "Ends mid-sentence. Then: symbols @#/? and CAPS",
)


class TestPathEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("target", TARGETS, ids=str)
    @pytest.mark.parametrize("profile", PROFILES, ids=("default", "hooky", "smooth"))
    def test_human_pointing_matches_scalar_reference(self, seed, target, profile):
        start = Point(3.0, 7.0)
        fast = HumanPointing(profile, np.random.default_rng(seed)).path(start, target)
        slow = ScalarHumanPointing(profile, np.random.default_rng(seed)).path(start, target)
        assert fast == slow

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("target", TARGETS, ids=str)
    def test_hlisa_path_matches_scalar_reference(self, seed, target):
        start = Point(12.0, 660.0)
        fast = hlisa_path(start, target, np.random.default_rng(seed))
        slow = scalar_hlisa_path(start, target, np.random.default_rng(seed))
        assert fast == slow

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("target", TARGETS, ids=str)
    def test_naive_bezier_matches_scalar_reference(self, seed, target):
        start = Point(100.0, 100.0)
        fast = naive_bezier_path(start, target, np.random.default_rng(seed))
        slow = scalar_naive_bezier_path(start, target, np.random.default_rng(seed))
        assert fast == slow

    def test_explicit_duration_matches_too(self):
        fast = HumanPointing(rng=np.random.default_rng(5)).path(
            Point(0, 0), Point(300, 40), duration_ms=77.0
        )
        slow = ScalarHumanPointing(rng=np.random.default_rng(5)).path(
            Point(0, 0), Point(300, 40), duration_ms=77.0
        )
        assert fast == slow


class TestTypingEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("text", TEXTS, ids=("plain", "punct", "symbols"))
    @pytest.mark.parametrize("layout", (US_LAYOUT, DE_LAYOUT), ids=("us", "de"))
    def test_normal_rhythm_matches_scalar_reference(self, seed, text, layout):
        fast = TypingRhythm(np.random.default_rng(seed), layout=layout).plan(text)
        slow = ScalarTypingRhythm(np.random.default_rng(seed), layout=layout).plan(text)
        assert fast == slow

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("text", TEXTS, ids=("plain", "punct", "symbols"))
    def test_lognormal_rhythm_matches_scalar_reference(self, seed, text):
        fast = LognormalTypingRhythm(np.random.default_rng(seed)).plan(text)
        slow = ScalarLognormalTypingRhythm(np.random.default_rng(seed)).plan(text)
        assert fast == slow

    def test_empty_text_plans_nothing(self):
        assert TypingRhythm(np.random.default_rng(0)).plan("") == []


class TestScrollEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("distance", (57.0, 120.0, -900.0, 3000.0, 29999.5))
    def test_cadence_matches_scalar_reference(self, seed, distance):
        fast = ScrollCadence(np.random.default_rng(seed)).plan(distance)
        slow = ScalarScrollCadence(np.random.default_rng(seed)).plan(distance)
        assert fast == slow

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("distance", (57.0, -400.0, 2500.0))
    def test_human_scrolling_matches_scalar_reference(self, seed, distance):
        fast = HumanScrolling(rng=np.random.default_rng(seed)).plan(distance)
        slow = ScalarHumanScrolling(rng=np.random.default_rng(seed)).plan(distance)
        assert fast == slow

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scrollbar_drag_matches_scalar_reference(self, seed):
        fast = HumanScrolling(rng=np.random.default_rng(seed)).plan_scrollbar_drag(
            1800.0, 40.0
        )
        slow = ScalarHumanScrolling(rng=np.random.default_rng(seed)).plan_scrollbar_drag(
            1800.0, 40.0
        )
        assert fast == slow


class TestCorrectionHookRegression:
    """The corrective hook stays inside the sampled movement duration."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("duration_ms", (24.0, 50.0, 300.0))
    def test_hook_is_monotone_lands_on_end_and_bounded(self, seed, duration_ms):
        profile = HumanProfile(correction_prob=1.0)
        pointing = HumanPointing(profile, np.random.default_rng(seed))
        end = Point(400.0, 150.0)
        path = pointing.path(Point(0.0, 0.0), end, duration_ms=duration_ms)
        times = [t for t, _ in path]
        assert times == sorted(times), "timestamps must be monotone"
        assert len(times) == len(set(times)), "hook samples must advance time"
        assert path[-1][1] == end, "the hook must land exactly on the target"
        # Pre-fix, floor-clamped durations reused the pre-hook dt and the
        # landing time exceeded the sampled duration by >50%.
        assert times[-1] <= duration_ms * (1.0 + CORRECTION_MAX_FRAC) + 1e-9

    def test_short_clamped_duration_was_the_failing_case(self):
        # duration floored to 2 * sample_interval -> n = 3, dt = duration/2:
        # the unbounded hook added up to 5 * dt = 2.5x the duration.
        profile = HumanProfile(correction_prob=1.0)
        pointing = HumanPointing(profile, np.random.default_rng(3))
        duration = 2.0 * profile.sample_interval_ms
        path = pointing.path(Point(0.0, 0.0), Point(120.0, 0.0), duration_ms=duration)
        assert path[-1][0] <= duration * (1.0 + CORRECTION_MAX_FRAC) + 1e-9


class TestSmoothedNoiseRegression:
    """Kernel-sized paths are smoothed too (n == kernel boundary)."""

    def test_kernel_sized_noise_is_convolved(self):
        raw = np.random.default_rng(11).normal(0.0, 2.0, size=3)
        expected_middle = np.convolve(raw, np.ones(3) / 3.0, mode="same")[1]
        smoothed = _smoothed_noise(np.random.default_rng(11), 3, 2.0)
        assert smoothed[0] == 0.0 and smoothed[-1] == 0.0
        assert smoothed[1] == expected_middle
        assert smoothed[1] != raw[1], "3-sample paths used to carry raw tremor"

    def test_below_kernel_stays_raw_but_zeroed(self):
        smoothed = _smoothed_noise(np.random.default_rng(11), 2, 2.0)
        assert smoothed.tolist() == [0.0, 0.0]

    def test_empty_noise(self):
        assert _smoothed_noise(np.random.default_rng(0), 0, 1.0).size == 0


class TestDegenerateMoveRegression:
    """A zero-distance move takes no time anywhere in the stack."""

    def test_fitts_duration_is_zero_not_a(self):
        assert fitts_duration_ms(0.0, 30.0) == 0.0
        assert fitts_duration_ms(DEGENERATE_DISTANCE_PX / 2.0, 30.0) == 0.0
        assert fitts_duration_ms(100.0, 30.0) > 0.0

    def test_duration_ms_is_zero_and_draws_nothing(self):
        pointing = HumanPointing(rng=np.random.default_rng(9))
        before = pointing.rng.bit_generator.state["state"]["state"]
        assert pointing.duration_ms(Point(5, 5), Point(5, 5), 30.0) == 0.0
        after = pointing.rng.bit_generator.state["state"]["state"]
        assert before == after, "degenerate moves must not consume the stream"

    def test_path_is_a_single_stationary_sample(self):
        pointing = HumanPointing(rng=np.random.default_rng(9))
        assert pointing.path(Point(5, 5), Point(5, 5)) == [(0.0, Point(5, 5))]


def _make_rig():
    document = Document(1366.0, 2000.0)
    document.create_element("button", Box(100.0, 100.0, 200.0, 80.0), id="b1")
    document.create_element("a", Box(600.0, 300.0, 150.0, 40.0), id="l1")
    window = Window(document)
    pipeline = InputPipeline(window)
    recorder = EventRecorder(ALL_INTERACTION_EVENTS).attach(window)
    return window, pipeline, recorder


def _stream(recorder):
    return [
        (e.type, e.timestamp, e.client_x, e.client_y, getattr(e.target, "id", None))
        for e in recorder.events
    ]


class TestDispatchBatch:
    def _path(self):
        return HumanPointing(rng=np.random.default_rng(17)).path(
            Point(10.0, 10.0), Point(650.0, 320.0)
        )

    def test_matches_per_point_loop_with_trailing_forced_move(self):
        path = self._path()
        window_a, pipeline_a, recorder_a = _make_rig()
        previous = 0.0
        for t, point in path:
            window_a.clock.advance(max(t - previous, 0.0))
            pipeline_a.move_mouse_to(point.x, point.y)
            previous = t
        pipeline_a.move_mouse_to(path[-1][1].x, path[-1][1].y, force_event=True)

        window_b, pipeline_b, recorder_b = _make_rig()
        moves = []
        previous = 0.0
        for t, point in path:
            moves.append((max(t - previous, 0.0), point))
            previous = t
        pipeline_b.dispatch_batch(moves, repeat_final_forced=True)

        assert _stream(recorder_a) == _stream(recorder_b)
        assert window_a.clock.now() == window_b.clock.now()
        assert pipeline_a.pointer == pipeline_b.pointer

    def test_force_last_matches_forced_final_move(self):
        path = self._path()
        window_a, pipeline_a, recorder_a = _make_rig()
        for index, (t, point) in enumerate(path):
            window_a.clock.advance(4.0)
            pipeline_a.move_mouse_to(
                point.x, point.y, force_event=(index == len(path) - 1)
            )

        window_b, pipeline_b, recorder_b = _make_rig()
        pipeline_b.dispatch_batch(
            ((4.0, point) for _, point in path), force_last=True
        )

        assert _stream(recorder_a) == _stream(recorder_b)
        assert recorder_b.of_type("mousemove"), "final move must dispatch"

    def test_empty_batch_is_a_no_op(self):
        window, pipeline, recorder = _make_rig()
        assert pipeline.dispatch_batch([]) == 0
        assert recorder.events == []
        assert window.clock.now() == 0.0

    def test_returns_dispatched_mousemove_count(self):
        path = self._path()
        _, pipeline, recorder = _make_rig()
        count = pipeline.dispatch_batch(
            [(max(t, 0.0), p) for t, p in path], force_last=True
        )
        assert count == len(recorder.of_type("mousemove"))


def _via(*stops, seed=29):
    """A human path through ``stops``: ``(advance_ms, point)`` moves."""
    pointing = HumanPointing(rng=np.random.default_rng(seed))
    moves = []
    for start, end in zip(stops, stops[1:]):
        previous = 0.0
        for t, point in pointing.path(start, end):
            moves.append((max(t - previous, 0.0), point))
            previous = t
    return moves


def _scroll_on_mousemove(window, pipeline):
    window.add_event_listener("mousemove", lambda event: window.scroll_by(0.0, 3.5))


def _move_pointer_on_pointermove(window, pipeline):
    """Every third pointermove moves the cursor again; every sixth
    forces that move's own twin through the rate limiter."""
    seen = [0]

    def nudge(event):
        seen[0] += 1
        if seen[0] % 3 == 0:
            pipeline.move_mouse_to(
                event.client_x + 2.6, event.client_y - 1.3, force_event=seen[0] % 6 == 0
            )

    window.add_event_listener("pointermove", nudge)


def _remove_hovered_element(window, pipeline):
    """The button removes itself from its first mousemove's walk: the
    event stops bubbling there, and the next sample leaves it."""
    button = window.document.get_element_by_id("b1")
    button.add_event_listener("mousemove", lambda event: button.remove())


def _drag_a_draggable(window, pipeline):
    """Press on entering the card, release on entering the bin: the drag
    starts, runs and drops inside the walk."""
    document = window.document
    card = document.create_element(
        "div", Box(400.0, 500.0, 90.0, 90.0), id="card", attributes={"draggable": "true"}
    )
    bin_ = document.create_element("div", Box(900.0, 420.0, 160.0, 120.0), id="bin")
    card.add_event_listener("mouseover", lambda event: pipeline.mouse_down())
    bin_.add_event_listener("mouseover", lambda event: pipeline.mouse_up())


def _load_a_page(window, pipeline):
    """Entering the button navigates: the rest of the walk hit-tests the
    new page under the same cursor."""
    page = Document(1366.0, 2000.0)
    page.create_element("a", Box(150.0, 60.0, 300.0, 200.0), id="next")

    def navigate(event):
        if window.document is not page:
            window.document = page
            page.window = window

    window.document.get_element_by_id("b1").add_event_listener("mouseover", navigate)


#: (listener set-up, the stops its walk passes through)
LISTENER_CASES = {
    "load-page": (_load_a_page, (Point(10, 10), Point(200, 140), Point(675, 320))),
    "scroll-on-mousemove": (_scroll_on_mousemove, (Point(10, 10), Point(200, 140), Point(675, 320))),
    "pointer-on-pointermove": (
        _move_pointer_on_pointermove,
        (Point(10, 10), Point(200, 140), Point(675, 320)),
    ),
    "remove-hovered": (_remove_hovered_element, (Point(10, 10), Point(200, 140), Point(675, 320))),
    "drag": (_drag_a_draggable, (Point(10, 10), Point(445, 545), Point(980, 480))),
}


def _captured(monkeypatch, run):
    """Every event passed to ``EventTarget.dispatch_event`` while ``run``
    runs, in dispatch order."""
    events = []
    original = EventTarget.dispatch_event

    def dispatch_event(target, event):
        events.append(event)
        return original(target, event)

    with monkeypatch.context() as patch:
        patch.setattr(EventTarget, "dispatch_event", dispatch_event)
        run()
    return events


class TestDispatchBatchUnderListeners:
    """Listeners that change pipeline or page state between samples, or
    between a twin's two events: the batch still equals the per-point
    loop on every field of every event."""

    @pytest.mark.parametrize("mode", ["repeat_final_forced", "force_last"])
    @pytest.mark.parametrize("case", sorted(LISTENER_CASES))
    def test_batch_equals_per_point_loop(self, case, mode, monkeypatch):
        setup, stops = LISTENER_CASES[case]
        moves = _via(*stops)
        final = moves[-1][1]

        window_a, pipeline_a, _ = _make_rig()
        setup(window_a, pipeline_a)

        def per_point():
            for index, (advance_ms, point) in enumerate(moves):
                window_a.clock.advance(advance_ms)
                forced = mode == "force_last" and index == len(moves) - 1
                pipeline_a.move_mouse_to(point.x, point.y, force_event=forced)
            if mode == "repeat_final_forced":
                pipeline_a.move_mouse_to(final.x, final.y, force_event=True)

        window_b, pipeline_b, _ = _make_rig()
        setup(window_b, pipeline_b)

        def batched():
            pipeline_b.dispatch_batch(moves, **{mode: True})

        events_a = _captured(monkeypatch, per_point)
        events_b = _captured(monkeypatch, batched)
        assert len(events_a) == len(events_b)
        assert stream_digest(events_a) == stream_digest(events_b)
        assert window_a.clock.now() == window_b.clock.now()
        assert (window_a.scroll_x, window_a.scroll_y) == (window_b.scroll_x, window_b.scroll_y)
        assert pipeline_a.pointer == pipeline_b.pointer
        assert pipeline_a.events_dispatched == pipeline_b.events_dispatched
        assert pipeline_a.hovered_element.id == pipeline_b.hovered_element.id

    def test_cases_change_what_they_claim(self, monkeypatch):
        def stream(setup, stops):
            window, pipeline, _ = _make_rig()
            setup(window, pipeline)
            moves = _via(*stops)
            events = _captured(monkeypatch, lambda: pipeline.dispatch_batch(moves))
            return window, [event.type for event in events]

        _, plain = stream(lambda window, pipeline: None, LISTENER_CASES["drag"][1])
        window, _ = stream(*LISTENER_CASES["scroll-on-mousemove"])
        assert window.scroll_y > 0.0
        window, _ = stream(*LISTENER_CASES["remove-hovered"])
        assert window.document.get_element_by_id("b1") is None
        window, _ = stream(*LISTENER_CASES["load-page"])
        assert window.document.get_element_by_id("next") is not None
        _, nudged = stream(*LISTENER_CASES["pointer-on-pointermove"])
        _, unnudged = stream(lambda window, pipeline: None, LISTENER_CASES["pointer-on-pointermove"][1])
        assert nudged.count("mousemove") > unnudged.count("mousemove")
        _, dragged = stream(*LISTENER_CASES["drag"])
        assert {"dragstart", "drag", "dragover", "drop", "dragend"} <= set(dragged)
        assert "dragstart" not in plain

    def test_move_mouse_to_returns_its_mousemove_or_none_when_coalesced(self, monkeypatch):
        window, pipeline, _ = _make_rig()
        results = []

        def moves():
            results.append(pipeline.move_mouse_to(150.0, 120.0))
            window.clock.advance(2.0)
            results.append(pipeline.move_mouse_to(160.0, 125.0))

        events = _captured(monkeypatch, moves)
        dispatched, coalesced = results
        assert dispatched is not None and dispatched.type == "mousemove"
        assert [e.type for e in events[-2:]] == ["pointermove", "mousemove"]
        assert events[-1] is dispatched
        assert coalesced is None
        assert pipeline.pointer == Point(160.0, 125.0)


class TestMotorModulesStayLintClean:
    """The numpy kernels must not regress the whole-program invariants."""

    def test_no_perf_or_determinism_findings(self):
        targets = [
            REPO_ROOT / "src" / "repro" / "humans" / "pointing.py",
            REPO_ROOT / "src" / "repro" / "humans" / "scrolling.py",
            REPO_ROOT / "src" / "repro" / "models" / "bezier.py",
            REPO_ROOT / "src" / "repro" / "models" / "typing_rhythm.py",
            REPO_ROOT / "src" / "repro" / "models" / "refinements.py",
            REPO_ROOT / "src" / "repro" / "models" / "scroll_cadence.py",
            REPO_ROOT / "src" / "repro" / "models" / "scalar_reference.py",
            REPO_ROOT / "src" / "repro" / "browser" / "input_pipeline.py",
        ]
        report = run_lint(targets, root=REPO_ROOT)
        flagged = [
            finding
            for finding in report.new_findings
            if finding.rule.startswith(("PERF", "DET"))
        ]
        assert flagged == [], render_text(report)
