"""Performance: what does humanisation cost?

HLISA trades speed for stealth -- the paper's implicit bargain.  These
benchmarks measure both sides on the same operation:

- wall-clock *planning* overhead (real CPU time to compute humanised
  trajectories, typing plans, scroll cadences) -- HLISA's true runtime
  cost, since simulated-world delays are free;
- simulated *interaction time* (how much longer a human-like session
  takes in browser time) -- the crawl-throughput cost a measurement
  study pays.
"""

import gc
import statistics
import time

import numpy as np
from conftest import print_table

from repro.core.hlisa_action_chains import HLISA_ActionChains
from repro.crawl import (
    CrawlSupervisor,
    OpenWPMCrawler,
    PopulationConfig,
    generate_population,
)
from repro.faults import FaultPlan
from repro.geometry import Point
from repro.models.bezier import hlisa_path
from repro.models.scroll_cadence import ScrollCadence
from repro.models.typing_rhythm import TypingRhythm
from repro.obs.probes import ProbeLedger
from repro.obs.tracer import NULL_TRACER
from repro.spoofing import SpoofingExtension
from repro.webdriver.action_chains import ActionChains
from repro.webdriver.driver import make_browser_driver


def test_perf_trajectory_planning(benchmark):
    rng = np.random.default_rng(1)
    result = benchmark(
        lambda: hlisa_path(Point(10, 10), Point(1200, 650), rng)
    )
    assert len(result) > 5


def test_perf_typing_plan(benchmark):
    rng = np.random.default_rng(2)
    rhythm = TypingRhythm(rng)
    text = "The quick brown fox jumps over the lazy dog." * 2
    plan = benchmark(lambda: rhythm.plan(text))
    assert len(plan) >= 2 * len(text)


def test_perf_scroll_plan(benchmark):
    rng = np.random.default_rng(3)
    cadence = ScrollCadence(rng)
    plan = benchmark(lambda: cadence.plan(5000.0))
    assert len(plan) > 50


def test_perf_full_click_selenium(benchmark):
    def selenium_click():
        driver = make_browser_driver()
        ActionChains(driver).click(driver.find_element_by_id("submit")).perform()
        return driver

    driver = benchmark(selenium_click)
    assert driver.window.clock.now() > 0


def test_perf_full_click_hlisa(benchmark):
    def hlisa_click():
        driver = make_browser_driver()
        chain = HLISA_ActionChains(driver, seed=1)
        chain.click(driver.find_element_by_id("submit"))
        chain.perform()
        return driver

    driver = benchmark(hlisa_click)
    assert driver.window.clock.now() > 0


def test_simulated_time_cost(benchmark):
    """Browser-time cost of humanisation (the crawl-throughput price)."""

    def measure():
        costs = {}
        driver = make_browser_driver()
        start = driver.window.clock.now()
        ActionChains(driver).click(driver.find_element_by_id("submit")).perform()
        costs["selenium_click_ms"] = driver.window.clock.now() - start

        driver = make_browser_driver()
        chain = HLISA_ActionChains(driver, seed=1)
        start = driver.window.clock.now()
        chain.click(driver.find_element_by_id("submit"))
        chain.perform()
        costs["hlisa_click_ms"] = driver.window.clock.now() - start

        driver = make_browser_driver()
        area = driver.find_element_by_id("text_area")
        start = driver.window.clock.now()
        area.send_keys("measurement text, one line.")
        costs["selenium_typing_ms"] = driver.window.clock.now() - start

        driver = make_browser_driver()
        area = driver.find_element_by_id("text_area")
        chain = HLISA_ActionChains(driver, seed=1)
        start = driver.window.clock.now()
        chain.send_keys_to_element(area, "measurement text, one line.")
        chain.perform()
        costs["hlisa_typing_ms"] = driver.window.clock.now() - start
        return costs

    costs = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{name:22s} {value:9.0f} ms (simulated)" for name, value in costs.items()]
    lines.append("")
    lines.append(
        f"humanisation slows a click ~{costs['hlisa_click_ms'] / max(costs['selenium_click_ms'], 1):.0f}x "
        f"and typing ~{costs['hlisa_typing_ms'] / max(costs['selenium_typing_ms'], 1):.0f}x in browser time"
    )
    print_table("Simulated-time cost of human-likeness", lines)
    assert costs["hlisa_click_ms"] > costs["selenium_click_ms"]
    assert costs["hlisa_typing_ms"] > 10 * costs["selenium_typing_ms"]


#: Pairs in each overhead benchmark: odd, so the median is one pair's
#: ratio.  Both benchmarks together take about 10 s on a 2-vCPU x86_64
#: host.
TRACING_PAIRS = 41


def interleaved_pairs(crawl):
    """Time ``crawl(True)`` and ``crawl(False)`` back to back in each of
    :data:`TRACING_PAIRS` pairs, alternating which runs first, with GC
    paused inside each pair.  Returns both sides' times and the last
    ``crawl(True)`` result.  One crawl is short, so a single pair is
    noisy, but load that drifts between pairs cannot bias the median
    per-pair ratio."""
    crawl(True), crawl(False)  # warm-up: caches, allocator, imports
    on_s, off_s = [], []
    for pair in range(TRACING_PAIRS):
        gc.collect()
        gc.disable()
        try:
            for on in (True, False) if pair % 2 == 0 else (False, True):
                start = time.perf_counter()
                result = crawl(on)
                elapsed = time.perf_counter() - start
                if on:
                    on_s.append(elapsed)
                    on_result = result
                else:
                    off_s.append(elapsed)
        finally:
            gc.enable()
    return on_s, off_s, on_result


def pair_overhead(on_s, off_s):
    """Quartiles (low, median, high) of the per-pair ratios, less one."""
    ratios = [on / off for on, off in zip(on_s, off_s)]
    return tuple(q - 1.0 for q in statistics.quantiles(ratios, n=4))


def test_perf_tracing_overhead(benchmark):
    """Observability must stay cheap: a fully traced supervised crawl may
    cost at most 10% more wall clock than the same crawl with tracing off
    (``NULL_TRACER``), as the median per-pair ratio of
    :func:`interleaved_pairs`."""

    population = generate_population(
        PopulationConfig(
            n_sites=30,
            seed=3,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=2,
            n_captcha_detectors=1,
            n_freeze_video_detectors=0,
            n_other_signal_ad_detectors=0,
            n_side_effect_blockers=0,
            n_http_only_detectors=3,
        )
    )

    def crawl(traced: bool):
        crawler = OpenWPMCrawler("overhead", instances=2, seed=7)
        plan = FaultPlan.generate(population, 2, rate=0.2, seed=5)
        supervisor = CrawlSupervisor(
            crawler, plan=plan, tracer=None if traced else NULL_TRACER
        )
        supervisor.crawl(population)
        return supervisor

    traced_s, untraced_s, supervisor = benchmark.pedantic(
        lambda: interleaved_pairs(crawl), rounds=1, iterations=1
    )
    low, overhead, high = pair_overhead(traced_s, untraced_s)
    print_table(
        "Tracing overhead on a supervised crawl",
        [
            f"{'tracing off (NULL_TRACER)':28s} "
            f"{statistics.median(untraced_s) * 1e3:8.1f} ms (median)",
            f"{'tracing on':28s} {statistics.median(traced_s) * 1e3:8.1f} ms "
            f"(median, {len(supervisor.tracer.spans)} spans)",
            f"{'overhead':28s} {overhead:+8.1%}  (median of {len(traced_s)} pairs, "
            f"IQR {low:+.1%} to {high:+.1%}; budget +10.0%)",
        ],
    )
    assert overhead <= 0.10


def test_perf_probe_ledger_overhead(benchmark):
    """The probe ledger is opt-in and must stay cheap when on: a
    ledger-recording supervised crawl may cost at most 10% more wall
    clock than the same crawl with the ledger off (its default), as the
    median per-pair ratio of :func:`interleaved_pairs`."""

    population = generate_population(
        PopulationConfig(
            n_sites=600,
            seed=3,
            n_no_ads_detectors=2,
            n_less_ads_detectors=1,
            n_block_detectors=4,
            n_captcha_detectors=2,
            n_freeze_video_detectors=1,
            n_other_signal_ad_detectors=1,
            n_side_effect_blockers=8,
            n_http_only_detectors=12,
        )
    )

    def crawl(with_ledger: bool):
        crawler = OpenWPMCrawler(
            "ledger-overhead",
            extension=SpoofingExtension(),
            instances=4,
            seed=7,
        )
        supervisor = CrawlSupervisor(
            crawler,
            tracer=NULL_TRACER,
            probe_ledger=ProbeLedger() if with_ledger else None,
        )
        supervisor.crawl(population)
        return supervisor

    on_s, off_s, supervisor = benchmark.pedantic(
        lambda: interleaved_pairs(crawl), rounds=1, iterations=1
    )
    low, overhead, high = pair_overhead(on_s, off_s)
    print_table(
        "Probe-ledger overhead on a supervised crawl",
        [
            f"{'ledger off (default)':28s} "
            f"{statistics.median(off_s) * 1e3:8.1f} ms (median)",
            f"{'ledger on':28s} {statistics.median(on_s) * 1e3:8.1f} ms "
            f"(median, {len(supervisor.ledger)} entries)",
            f"{'overhead':28s} {overhead:+8.1%}  (median of {len(on_s)} pairs, "
            f"IQR {low:+.1%} to {high:+.1%}; budget +10.0%)",
        ],
    )
    assert overhead <= 0.10
