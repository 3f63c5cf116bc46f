"""Performance: analysing each recording once for the whole battery.

The consistency-level battery runs 20 detectors over one recording.
Before the shared :class:`~repro.detection.features.RecordingFeatures`,
every detector re-split the mouse path, re-ran the trajectory metrics
of each movement, and re-paired the clicks and keystrokes it read.  This
benchmark times both ways in one process, alternating them, on the same
recordings:

- **shared**: ``DetectorBattery.evaluate`` -- one analysis, 20 verdicts;
- **per-detector**: ``detector.observe(recorder)`` for each detector --
  every detector analyses the recording on its own.

The gate is the ratio of the two medians (CPU time), which does not
depend on the host's speed.

    PYTHONPATH=src python -m pytest benchmarks/test_battery_features.py -q -s
"""

import statistics
import time

from conftest import print_table

from repro.detection import DetectionLevel, DetectorBattery
from repro.experiment import BrowsingScenario, HLISAAgent, HumanAgent, NaiveAgent, SeleniumAgent
from repro.humans import HumanProfile

ROUNDS = 7
#: Least shared-over-per-detector speedup accepted.
MIN_SPEEDUP = 2.5


def _recordings():
    agents = (
        lambda seed: HLISAAgent(seed=seed),
        lambda seed: SeleniumAgent(),
        lambda seed: HumanAgent(HumanProfile(seed=seed)),
        lambda seed: NaiveAgent(seed=seed),
    )
    return [
        BrowsingScenario(seed=seed).run(make(seed)).recorder
        for seed in range(2)
        for make in agents
    ]


def _cpu_s(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def test_shared_features_speed_up_the_battery():
    recordings = _recordings()
    battery = DetectorBattery(DetectionLevel.CONSISTENCY)

    def shared():
        return [battery.evaluate(recorder).verdicts for recorder in recordings]

    def per_detector():
        return [
            [detector.observe(recorder) for detector in battery.detectors]
            for recorder in recordings
        ]

    assert [[(v.detector, v.is_bot, v.score, v.reasons) for v in vs] for vs in shared()] == [
        [(v.detector, v.is_bot, v.score, v.reasons) for v in vs] for vs in per_detector()
    ]

    times = {"shared": [], "per-detector": []}
    for _ in range(ROUNDS):
        times["shared"].append(_cpu_s(shared))
        times["per-detector"].append(_cpu_s(per_detector))
    medians = {name: statistics.median(values) for name, values in times.items()}
    speedup = medians["per-detector"] / medians["shared"]

    per_recording = len(recordings)
    print_table(
        "Detector battery: one analysis per recording",
        [
            f"{name:13s} {1000.0 * median / per_recording:7.2f} ms/recording"
            for name, median in medians.items()
        ]
        + [f"speedup       {speedup:7.2f}x  (gate >= {MIN_SPEEDUP}x)"],
    )
    assert speedup >= MIN_SPEEDUP
