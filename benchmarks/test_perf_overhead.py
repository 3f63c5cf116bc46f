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


#: Traced/untraced pairs in the tracing-overhead benchmark: odd, so the
#: median is one pair's ratio; about 2 s in all.
TRACING_PAIRS = 41


def test_perf_tracing_overhead(benchmark):
    """Observability must stay cheap: a fully traced supervised crawl may
    cost at most 10% more wall clock than the same crawl with tracing off
    (``NULL_TRACER``).  Each of many pairs times both crawls back to
    back, alternating which runs first, with GC paused; the budget
    applies to the median per-pair ratio.  One crawl is short, so a
    single pair is noisy, but load that drifts between pairs cannot
    bias the median."""

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

    def measure():
        crawl(True), crawl(False)  # warm-up: caches, allocator, imports
        traced_s, untraced_s = [], []
        for pair in range(TRACING_PAIRS):
            gc.collect()
            gc.disable()
            try:
                for traced in (True, False) if pair % 2 == 0 else (False, True):
                    start = time.perf_counter()
                    supervisor = crawl(traced)
                    elapsed = time.perf_counter() - start
                    if traced:
                        traced_s.append(elapsed)
                        n_spans = len(supervisor.tracer.spans)
                    else:
                        untraced_s.append(elapsed)
            finally:
                gc.enable()
        return traced_s, untraced_s, n_spans

    traced_s, untraced_s, n_spans = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    ratios = [traced / untraced for traced, untraced in zip(traced_s, untraced_s)]
    low, overhead, high = (q - 1.0 for q in statistics.quantiles(ratios, n=4))
    print_table(
        "Tracing overhead on a supervised crawl",
        [
            f"{'tracing off (NULL_TRACER)':28s} "
            f"{statistics.median(untraced_s) * 1e3:8.1f} ms (median)",
            f"{'tracing on':28s} {statistics.median(traced_s) * 1e3:8.1f} ms "
            f"(median, {n_spans} spans)",
            f"{'overhead':28s} {overhead:+8.1%}  (median of {len(ratios)} pairs, "
            f"IQR {low:+.1%} to {high:+.1%}; budget +10.0%)",
        ],
    )
    assert overhead <= 0.10


def test_perf_probe_ledger_overhead(benchmark):
    """The probe ledger is opt-in and must stay cheap when on: a
    ledger-recording supervised crawl may cost at most 10% more wall
    clock than the same crawl with the ledger off (its default).
    Minimum-of-rounds with alternating run order and GC paused, on a
    crawl long enough (hundreds of ms) that bursty machine load averages
    out inside each run instead of deciding the comparison."""

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

    def measure():
        crawl(True), crawl(False)  # warm-up: caches, allocator, imports
        on_s, off_s = [], []
        gc.disable()
        try:
            for round_index in range(10):
                # alternate which side runs first so drifting machine
                # load cannot systematically tax one of them
                order = (
                    (True, False) if round_index % 2 == 0 else (False, True)
                )
                for with_ledger in order:
                    start = time.perf_counter()
                    supervisor = crawl(with_ledger)
                    elapsed = time.perf_counter() - start
                    if with_ledger:
                        on_s.append(elapsed)
                        n_entries = len(supervisor.ledger)
                    else:
                        off_s.append(elapsed)
        finally:
            gc.enable()
        return min(on_s), min(off_s), n_entries

    ledger_on, ledger_off, n_entries = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    overhead = ledger_on / ledger_off - 1.0
    print_table(
        "Probe-ledger overhead on a supervised crawl",
        [
            f"{'ledger off (default)':28s} {ledger_off * 1e3:8.1f} ms",
            f"{'ledger on':28s} {ledger_on * 1e3:8.1f} ms  ({n_entries} entries)",
            f"{'overhead':28s} {overhead:+8.1%}  (budget +10.0%)",
        ],
    )
    assert overhead <= 0.10
