"""Watchdogs x circuit breaker: recycle parity, single-count, ablation.

The recovery policy moved from inline supervisor branches to pluggable
bus subscribers (docs/EVENT_BUS.md).  These tests pin the contract at
the seam: watchdog interventions must reproduce the old recycle
semantics exactly, and the per-domain :class:`CircuitBreaker` must see
exactly one recorded failure per failed attempt -- a watchdog recycle
or stall abort is an *intervention*, never an extra transient failure.
"""

import pytest

from repro.bus import BrowserRecycled
from repro.crawl import (
    CrawlSupervisor,
    FailureReason,
    HostileArchetype,
    OpenWPMCrawler,
    SiteConfig,
    SupervisorConfig,
)
from repro.crawl.watchdogs import (
    CrashWatchdog,
    ModalOverlayWatchdog,
    RecycleWatchdog,
    StallWatchdog,
    default_watchdogs,
)
from repro.faults import FaultPlan, FaultType
from repro.faults.plan import ScheduledFault


def one_site(hostile=None, intensity=0.4):
    return [
        SiteConfig(
            rank=0,
            domain="site-0.example",
            hostile=hostile,
            hostile_intensity=intensity,
        )
    ]


def planned_faults(domain, fault_type, attempts_affected, visit_index=0):
    """A hand-built plan: exactly one scheduled fault, nothing random."""
    plan = FaultPlan(seed=0, rate=0.0)
    plan.schedule[(domain, visit_index)] = ScheduledFault(
        domain, visit_index, fault_type, attempts_affected
    )
    return plan


def supervised(plan=None, *, instances=1, watchdogs=None, **config):
    crawler = OpenWPMCrawler("watchdogs", instances=instances, seed=7)
    defaults = dict(per_visit_failure=0.0)
    defaults.update(config)
    return CrawlSupervisor(
        crawler,
        config=SupervisorConfig(**defaults),
        plan=plan,
        watchdogs=watchdogs,
    )


def counters(supervisor):
    return supervisor.metrics_state()["counters"]


class TestCrashRecycleParity:
    def test_fatal_fault_recycles_immediately(self):
        population = one_site()
        plan = planned_faults(
            population[0].domain, FaultType.DRIVER_CRASH, attempts_affected=2
        )
        sup = supervised(plan)
        result = sup.crawl(population)
        # Two crashed attempts -> two immediate recycles, then success.
        assert sup.stats.recycles == 2
        assert counters(sup)["watchdog.crash.recycle_requested"] == 2
        assert counters(sup)["recycles"] == 2
        record = result.records[0]
        assert record.reached and record.recovered
        assert record.attempts == 3
        # The recycle reset the per-browser fault count.
        assert sup._instances[0].fault_count == 0

    def test_fault_budget_recycles_proactively(self):
        population = one_site()
        plan = planned_faults(
            population[0].domain, FaultType.NETWORK_RESET, attempts_affected=2
        )
        sup = supervised(plan, recycle_after_faults=2)
        result = sup.crawl(population)
        # Two non-fatal faults accumulate to the budget: one proactive
        # recycle by the RecycleWatchdog, none by the CrashWatchdog.
        assert sup.stats.recycles == 1
        assert counters(sup)["watchdog.recycle.recycle_requested"] == 1
        assert "watchdog.crash.recycle_requested" not in counters(sup)
        assert result.records[0].reached

    def test_recycle_publishes_confirmation_event(self):
        population = one_site()
        plan = planned_faults(
            population[0].domain, FaultType.DRIVER_CRASH, attempts_affected=1
        )
        sup = supervised(plan)
        recycled = []
        sup.bus.subscribe(
            BrowserRecycled, lambda e: recycled.append((e.reason, e.browser))
        )
        sup.crawl(population)
        assert recycled == [("fatal-fault", 0)]

    def test_watchdogs_off_never_recycles(self):
        population = one_site()
        plan = planned_faults(
            population[0].domain, FaultType.DRIVER_CRASH, attempts_affected=2
        )
        sup = supervised(plan, watchdogs=())
        result = sup.crawl(population)
        # The ablation baseline retries into the dead browser: no
        # recycling, but the simulated backend still lets it limp on.
        assert sup.stats.recycles == 0
        assert sup._instances[0].fault_count == 0  # nobody counted health
        assert result.records[0].attempts == 3


class TestBreakerSingleCount:
    def test_breaker_opens_exactly_at_threshold_despite_recycles(self):
        population = one_site()
        plan = planned_faults(
            population[0].domain, FaultType.DRIVER_CRASH, attempts_affected=4
        )
        sup = supervised(plan, breaker_failure_threshold=4)
        result = sup.crawl(population)
        # Four crashed attempts -> four breaker failures -> the breaker
        # opens once, on the fourth.  Four watchdog recycles happened in
        # between and none of them added an extra failure record.
        assert sup.stats.recycles == 4
        assert counters(sup)["breaker.open"] == 1
        record = result.records[0]
        assert not record.reached
        assert record.failure_reason == FailureReason.exhausted(
            FaultType.DRIVER_CRASH.value
        )

    def test_breaker_stays_closed_below_threshold(self):
        population = one_site()
        plan = planned_faults(
            population[0].domain, FaultType.DRIVER_CRASH, attempts_affected=2
        )
        sup = supervised(plan, breaker_failure_threshold=4)
        result = sup.crawl(population)
        assert sup.stats.recycles == 2
        assert "breaker.open" not in counters(sup)
        assert result.records[0].reached

    def test_stall_aborts_count_one_failure_each(self):
        population = one_site(HostileArchetype.STALLING, intensity=1.0)
        sup = supervised(breaker_failure_threshold=4)
        result = sup.crawl(population)
        # Every attempt stalls; the StallWatchdog bounds each at the
        # step budget (retryable "stalled").  Four aborted attempts are
        # exactly four breaker failures: the breaker opens once.
        assert counters(sup)["watchdog.stall.aborted"] == 4
        assert counters(sup)["breaker.open"] == 1
        record = result.records[0]
        assert record.attempts == 4
        assert record.failure_reason == FailureReason.exhausted(
            FailureReason.STALLED
        )

    def test_successful_intervention_records_no_failure(self):
        population = one_site(HostileArchetype.MODAL_OVERLAY)
        sup = supervised()
        result = sup.crawl(population)
        # The overlay dismissal recovers the visit: a success, not a
        # breaker failure of any kind.
        assert counters(sup)["watchdog.modal.overlay_dismissed"] == 1
        assert not any(name.startswith("breaker.") for name in counters(sup))
        assert result.records[0].reached

    def test_breaker_skip_after_watchdog_bounded_failures(self):
        # Two visits to the same stalling domain: visit 0 exhausts its
        # four bounded attempts and opens the breaker; visit 1 is
        # short-circuited as CIRCUIT_OPEN (skipped, zero attempts), not
        # hammered.
        population = one_site(HostileArchetype.STALLING, intensity=1.0)
        sup = supervised(
            instances=2,
            breaker_failure_threshold=4,
            breaker_cooldown_ms=10_000_000.0,
        )
        result = sup.crawl(population)
        first, second = result.records
        assert first.failure_reason == FailureReason.exhausted(
            FailureReason.STALLED
        )
        assert second.failure_reason == FailureReason.CIRCUIT_OPEN
        assert second.attempts == 0
        assert sup.stats.breaker_skips == 1


class TestGracefulDegradation:
    def test_unwatched_stall_is_permanent_and_unbounded(self):
        population = one_site(HostileArchetype.STALLING, intensity=1.0)
        sup = supervised(watchdogs=())
        result = sup.crawl(population)
        record = result.records[0]
        assert record.failure_reason == FailureReason.STALLED_UNBOUNDED
        assert record.attempts == 1  # permanent: never retried

    def test_unbounded_stall_costs_the_external_kill_timeout(self):
        population = one_site(HostileArchetype.STALLING, intensity=1.0)
        bounded = supervised(breaker_failure_threshold=99)
        bounded.crawl(population)
        unbounded = supervised(watchdogs=())
        unbounded.crawl(population)
        # One unbounded stall costs more simulated time than four
        # watchdog-bounded attempts plus their backoff.
        assert unbounded.clock.now() > bounded.clock.now()

    def test_unwatched_overlay_fails_the_visit_permanently(self):
        population = one_site(HostileArchetype.MODAL_OVERLAY)
        sup = supervised(watchdogs=())
        result = sup.crawl(population)
        record = result.records[0]
        assert record.failure_reason == FailureReason.MODAL_OVERLAY
        assert record.attempts == 1

    def test_stall_only_watchdog_set_is_composable(self):
        # A custom watchdog set: stall bounding without modal recovery.
        population = one_site(HostileArchetype.MODAL_OVERLAY)
        sup = supervised(watchdogs=(StallWatchdog(),))
        result = sup.crawl(population)
        assert result.records[0].failure_reason == FailureReason.MODAL_OVERLAY
        assert "watchdog.modal.overlay_dismissed" not in counters(sup)
