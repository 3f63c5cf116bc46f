"""Fault taxonomy, plans, injector hooks, and recovery primitives."""

import numpy as np
import pytest

from repro.crawl import PopulationConfig, generate_population
from repro.faults import (
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
    DriverCrashFault,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultType,
    ScheduledFault,
    StaleElementFault,
    make_fault,
)
from repro.webdriver import (
    InvalidSessionIdException,
    StaleElementReferenceException,
    TimeoutException,
    WebDriverException,
    make_browser_driver,
)


def small_population(n=60, seed=3):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=seed,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=1,
            n_other_signal_ad_detectors=1,
            n_side_effect_blockers=1,
            n_http_only_detectors=3,
        )
    )


class TestFaultTypes:
    def test_every_type_has_a_hook_and_exception(self):
        for fault_type in FaultType:
            assert fault_type.hook in {"visit", "get", "find_element", "execute_script"}
            error = make_fault(fault_type, "a.example", 0, 0)
            assert isinstance(error, FaultError)
            assert error.fault_type is fault_type

    def test_exceptions_are_also_webdriver_errors(self):
        assert issubclass(DriverCrashFault, InvalidSessionIdException)
        assert issubclass(StaleElementFault, StaleElementReferenceException)
        timeout = make_fault(FaultType.PAGE_LOAD_TIMEOUT, "a.example", 1, 2)
        assert isinstance(timeout, TimeoutException)
        assert isinstance(timeout, WebDriverException)

    def test_fatal_and_budget_classification(self):
        fatal = {t for t in FaultType if t.browser_fatal}
        assert fatal == {FaultType.DRIVER_CRASH, FaultType.OOM_RESTART}
        budget = {t for t in FaultType if t.exhausts_budget}
        assert budget == {FaultType.PAGE_LOAD_TIMEOUT, FaultType.DRIVER_HANG}

    def test_fault_carries_context(self):
        error = make_fault(FaultType.NETWORK_RESET, "b.example", 3, 1)
        assert error.domain == "b.example"
        assert error.visit_index == 3
        assert error.attempt == 1
        assert "network-reset" in str(error)


class TestFaultPlan:
    def test_deterministic_for_seed(self):
        population = small_population()
        a = FaultPlan.generate(population, 4, rate=0.1, seed=42)
        b = FaultPlan.generate(population, 4, rate=0.1, seed=42)
        assert a.schedule == b.schedule
        assert len(a) > 0

    def test_different_seed_different_plan(self):
        population = small_population()
        a = FaultPlan.generate(population, 4, rate=0.1, seed=42)
        b = FaultPlan.generate(population, 4, rate=0.1, seed=43)
        assert a.schedule != b.schedule

    def test_rate_zero_schedules_nothing(self):
        plan = FaultPlan.generate(small_population(), 4, rate=0.0, seed=1)
        assert len(plan) == 0

    def test_rate_one_faults_everything(self):
        population = small_population(n=24)
        plan = FaultPlan.generate(population, 2, rate=1.0, seed=1)
        assert len(plan) == 24 * 2

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(small_population(n=5), 1, rate=1.5, seed=1)

    def test_fault_for_respects_attempts_affected(self):
        plan = FaultPlan(seed=0, rate=1.0)
        plan.schedule[("a.example", 0)] = ScheduledFault(
            "a.example", 0, FaultType.DRIVER_CRASH, attempts_affected=2
        )
        assert plan.fault_for("a.example", 0, 0) is not None
        assert plan.fault_for("a.example", 0, 1) is not None
        assert plan.fault_for("a.example", 0, 2) is None
        assert plan.fault_for("other.example", 0, 0) is None

    def test_fault_counts_by_taxonomy(self):
        plan = FaultPlan.generate(small_population(), 8, rate=0.5, seed=7)
        counts = plan.fault_counts()
        assert sum(counts.values()) == len(plan)
        assert set(counts) <= {t.value for t in FaultType}


class TestFaultInjectorHooks:
    def _injector(self, fault_type, attempts=1):
        plan = FaultPlan(seed=0, rate=1.0)
        plan.schedule[("hook.example", 0)] = ScheduledFault(
            "hook.example", 0, fault_type, attempts_affected=attempts
        )
        return FaultInjector(plan)

    def test_disarmed_injector_is_inert(self):
        injector = self._injector(FaultType.PAGE_LOAD_TIMEOUT)
        driver = make_browser_driver()
        driver.fault_injector = injector
        driver.get("https://hook.example/")  # no arm -> no fault
        assert driver.current_url == "https://hook.example/"

    def test_get_hook_raises_page_load_timeout(self):
        injector = self._injector(FaultType.PAGE_LOAD_TIMEOUT)
        driver = make_browser_driver()
        driver.fault_injector = injector
        injector.arm("hook.example", 0, 0)
        with pytest.raises(TimeoutException) as excinfo:
            driver.get("https://hook.example/")
        assert excinfo.value.hook == "get"

    def test_find_element_hook_raises_stale_element(self):
        injector = self._injector(FaultType.STALE_ELEMENT)
        driver = make_browser_driver()
        driver.fault_injector = injector
        injector.arm("hook.example", 0, 0)
        with pytest.raises(StaleElementReferenceException):
            driver.find_element("id", "submit")
        with pytest.raises(StaleElementReferenceException):
            driver.find_elements("tag name", "button")

    def test_execute_script_hook_raises_hang(self):
        injector = self._injector(FaultType.DRIVER_HANG)
        driver = make_browser_driver()
        driver.fault_injector = injector
        injector.arm("hook.example", 0, 0)
        with pytest.raises(TimeoutException):
            driver.execute_script("window.scrollTo(0, 0)")

    def test_wrong_hook_does_not_fire(self):
        injector = self._injector(FaultType.DRIVER_HANG)
        driver = make_browser_driver()
        driver.fault_injector = injector
        injector.arm("hook.example", 0, 0)
        driver.get("https://hook.example/")  # hang is an execute_script fault
        assert driver.current_url == "https://hook.example/"

    def test_attempts_affected_exhausts(self):
        injector = self._injector(FaultType.NETWORK_RESET, attempts=1)
        driver = make_browser_driver()
        driver.fault_injector = injector
        injector.arm("hook.example", 0, 1)  # attempt 1: fault already spent
        driver.get("https://hook.example/")
        assert driver.current_url == "https://hook.example/"


class TestBackoffPolicy:
    def test_exponential_growth_capped(self):
        policy = BackoffPolicy(base_delay_ms=100, factor=2, max_delay_ms=450, jitter=0)
        assert policy.delay_ms(0) == 100
        assert policy.delay_ms(1) == 200
        assert policy.delay_ms(2) == 400
        assert policy.delay_ms(3) == 450  # capped

    def test_jitter_is_bounded_and_deterministic(self):
        policy = BackoffPolicy(base_delay_ms=1000, factor=1, jitter=0.2)
        delays_a = [policy.delay_ms(0, np.random.default_rng(5)) for _ in range(3)]
        delays_b = [policy.delay_ms(0, np.random.default_rng(5)) for _ in range(3)]
        assert delays_a == delays_b
        assert all(800 <= d <= 1200 for d in delays_a)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_delay_ms=-1)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            BackoffPolicy().delay_ms(-1)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_ms=1000)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(500.0)

    def test_half_open_trial_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=1000)
        breaker.record_failure(0.0)
        assert not breaker.allow(999.0)
        assert breaker.allow(1000.0)  # half-open trial
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(1000.0)  # only one trial slot
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(1000.0)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=1000)
        breaker.record_failure(0.0)
        assert breaker.allow(1500.0)
        breaker.record_failure(1500.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(2000.0)
        assert breaker.allow(2500.0)  # cooldown counted from re-open

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=1000)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
