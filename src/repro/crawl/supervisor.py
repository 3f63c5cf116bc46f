"""The resilient crawl supervisor: retries, recycling, checkpointing.

:class:`CrawlSupervisor` is the one crawl engine.  It runs an
:class:`~repro.crawl.crawler.OpenWPMCrawler` configuration with the
recovery behaviour a real field study needs; the paper's Table 2 /
Fig. 4 crawl (:meth:`OpenWPMCrawler.crawl`) is this engine with no
fault plan, no watchdogs and no tracing.  What it adds:

- **retry with exponential backoff** -- failed visits are retried up to
  a budget, with deterministic seeded jitter advancing the simulated
  clock (never the wall clock);
- **step budgets** -- hangs and page-load timeouts cost exactly the
  per-visit budget on the simulated timeline (the watchdog semantics);
- **browser recycling** -- a browser instance that accumulated too many
  faults (or died outright) is torn down and re-spawned: fresh
  :class:`~repro.browser.window.Window`, fresh driver, re-injected
  :class:`~repro.spoofing.extension.SpoofingExtension` -- matching
  OpenWPM's browser-restart semantics;
- **per-domain circuit breaker** -- a host that keeps failing is
  skipped instead of hammered;
- **checkpoint/resume** -- completed records are flushed to JSON at
  site boundaries, so an interrupted crawl resumes without re-visiting
  completed (site, visit_index) pairs, and the resumed result is
  byte-identical to an uninterrupted run;
- **observability** -- every crawl builds a :mod:`repro.obs` span tree
  (crawl -> visit -> attempt) with each WebDriver command as its
  attempt's ``bus.<command>`` event and fault, backoff, recycle and
  breaker decisions as span events.  The trace is carried through
  checkpoints, so a resumed crawl's exported trace is byte-identical to
  an uninterrupted one's; the metrics export is folded from the trace
  and the probe ledger (:meth:`CrawlSupervisor.metrics_state`), never
  stored.

Determinism is the design constraint throughout: every visit attempt
draws from its own rng stream derived from ``(seed, rank, visit_index,
attempt)``, so outcomes are independent of execution order and survive
resumption.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.browser.session import BrowserSession
from repro.bus import (
    BrowserRecycled,
    BrowserRecycleRequested,
    EventBus,
    FaultObserved,
)
from repro.clock import VirtualClock
from repro.crawl.checkpoint import (
    CheckpointTexts,
    checkpoint_payload,
    read_checkpoint,
    write_checkpoint,
)
from repro.crawl.crawler import CrawlResult, OpenWPMCrawler
from repro.crawl.population import SiteConfig
from repro.crawl.streams import JITTER_STREAM, VISIT_STREAM, AttemptStreams
from repro.crawl.visit import FailureReason, VisitRecord, simulate_visit
from repro.crawl.watchdogs import default_watchdogs
from repro.detection.fingerprint import _reference_navigator
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.recovery import BackoffPolicy, BreakerState, CircuitBreaker
from repro.faults.types import FaultError
from repro.obs import CrawlReport, Tracer, build_report, crawl_metrics, write_trace
from repro.obs.probes import ProbeLedger, write_ledger

@dataclass
class SupervisorConfig:
    """Recovery policy knobs (defaults sized for the paper's crawl)."""

    #: Attempts per visit, including the first.
    max_attempts: int = 4
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Simulated per-visit step budget: what a hang or page-load timeout
    #: costs before the watchdog fires.
    visit_budget_ms: float = 60_000.0
    #: Simulated cost of a completed (or site-side-failed) visit.
    visit_cost_ms: float = 8_000.0
    #: Simulated cost of a fault detected immediately (crash, reset...).
    fault_detect_ms: float = 2_000.0
    #: Recycle a browser instance after this many faults.
    recycle_after_faults: int = 3
    #: Per-attempt probability of a transient web-dynamics failure
    #: (forwarded to :func:`repro.crawl.visit.simulate_visit`).
    per_visit_failure: float = 0.002
    #: Consecutive per-domain failures before the breaker opens.
    breaker_failure_threshold: int = 4
    #: Simulated cooldown before an open breaker half-opens.
    breaker_cooldown_ms: float = 300_000.0
    #: Default checkpoint file (``crawl(checkpoint_path=...)`` overrides).
    checkpoint_path: Optional[str] = None
    #: Flush a checkpoint every N freshly-crawled sites.  Checkpoints
    #: land on site boundaries only, so resumed breaker state is always
    #: exact (all visits of a domain live on one side of the cut).
    checkpoint_every_sites: int = 25
    #: Simulated cost of dismissing a modal/cookie overlay.
    overlay_dismiss_ms: float = 1_500.0
    #: Simulated wait for a challenge interstitial to clear.
    challenge_wait_ms: float = 5_000.0
    #: Simulated cost of the scripted direct fill on an obstructed input.
    direct_fill_ms: float = 800.0
    #: What an *unbounded* stall (no stall watchdog) costs: the page
    #: hangs until an external kill, far beyond the step budget.
    stall_unbounded_cost_ms: float = 300_000.0


@dataclass
class SupervisorStats:
    """Counters describing one supervised crawl.

    ``visits`` / ``reached`` / ``failed`` / ``resumed`` describe the
    *result* of the most recent :meth:`CrawlSupervisor.crawl` call: they
    are reconciled at crawl end from the records actually emitted, so a
    resumed crawl over a shrunk population never inherits counts for
    checkpointed visits it dropped.  The remaining counters (attempts,
    retries, faults_seen, ...) describe the *work done* across the
    crawl's whole history, including the interrupted portion restored
    from a checkpoint.
    """

    visits: int = 0
    reached: int = 0
    failed: int = 0
    attempts: int = 0
    retries: int = 0
    recovered: int = 0
    faults_seen: int = 0
    recycles: int = 0
    breaker_skips: int = 0
    resumed: int = 0


class CrawlSupervisor:
    """The crawl engine for an :class:`OpenWPMCrawler` configuration.

    Parameters
    ----------
    crawler:
        Supplies name, extension, instance count and the seed all rng
        streams derive from.
    config:
        Recovery policy; defaults are reasonable for the seed study.
    plan:
        Optional :class:`~repro.faults.plan.FaultPlan`; without one the
        supervisor runs fault-free (pure web dynamics).
    tracer:
        Observability sink.  Defaults to a fresh :class:`repro.obs.
        Tracer` over the supervisor's clock; pass
        :data:`repro.obs.NULL_TRACER` to disable tracing.  A
        caller-built tracer is re-wired onto the supervisor's clock --
        spans must be stamped from the one clock checkpoint resume
        advances in place.
    probe_ledger:
        Optional :class:`repro.obs.probes.ProbeLedger` (off by default).
        When given it is re-wired onto the supervisor's clock, attached
        to every browser window, carried through checkpoints, folded into
        :meth:`metrics_state`, and exportable via
        ``crawl(ledger_path=...)``.
    watchdogs:
        The pluggable recovery subscribers (see :mod:`repro.crawl.
        watchdogs`).  ``None`` (the default) attaches
        :func:`~repro.crawl.watchdogs.default_watchdogs`; pass ``()``
        for the unprotected ablation baseline -- no recycling, no stall
        bounding, no overlay recovery.
    """

    def __init__(
        self,
        crawler: OpenWPMCrawler,
        config: Optional[SupervisorConfig] = None,
        plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        probe_ledger: Optional[ProbeLedger] = None,
        watchdogs=None,
    ) -> None:
        self.crawler = crawler
        self.config = config or SupervisorConfig()
        self.injector = FaultInjector(plan) if plan is not None else None
        self.clock = VirtualClock()
        if tracer is None:
            tracer = Tracer(self.clock)
        elif tracer.enabled and tracer.clock is not self.clock:
            tracer.clock = self.clock
        self.tracer = tracer
        # Opt-in probe ledger (off by default): re-wired onto the one
        # shared clock, so ledger timestamps live on the checkpointed
        # timeline.
        self.ledger = probe_ledger
        if probe_ledger is not None:
            probe_ledger.clock = self.clock
        self.stats = SupervisorStats()
        self._instances: Optional[List[BrowserSession]] = None
        self._restored_browsers: Optional[List[Dict[str, int]]] = None
        self._checkpoint_texts: Optional[CheckpointTexts] = None
        # Every attempt's visit and jitter generators, seeded a block of
        # ranks at a time (see :mod:`repro.crawl.streams`).
        self._streams = AttemptStreams(
            crawler.seed, crawler.instances, self.config.max_attempts
        )
        # The deterministic event bus every crawl collaborator talks
        # over: sessions execute command events, watchdogs subscribe to
        # fault/hostile events, and the supervisor itself only executes
        # recycle requests.
        self.bus = EventBus(self.clock, self.tracer)
        self.watchdogs = tuple(
            default_watchdogs() if watchdogs is None else watchdogs
        )
        for watchdog in self.watchdogs:
            watchdog.attach(self)
        self.bus.subscribe(
            BrowserRecycleRequested,
            self._on_recycle_requested,
            name="supervisor.recycle",
        )

    # -- main loop -------------------------------------------------------

    def crawl(
        self,
        population: Sequence[SiteConfig],
        *,
        checkpoint_path: Optional[Union[str, Path]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        ledger_path: Optional[Union[str, Path]] = None,
    ) -> CrawlResult:
        """Visit every site ``crawler.instances`` times, resiliently.

        ``trace_path`` additionally exports the crawl's span tree as
        canonical JSONL (see :mod:`repro.obs.export`) when the crawl
        completes; ``ledger_path`` does the same for the probe ledger
        (requires a supervisor constructed with ``probe_ledger=``).
        """
        if ledger_path is not None and self.ledger is None:
            raise ValueError(
                "ledger_path given but this supervisor has no probe ledger; "
                "construct it with CrawlSupervisor(..., probe_ledger=...)"
            )
        config = self.config
        path = checkpoint_path or config.checkpoint_path
        path = Path(path) if path is not None else None
        completed = self._load_checkpoint(path)
        root = self.tracer.resume_or_start(
            "crawl",
            crawler=self.crawler.name,
            seed=self.crawler.seed,
            instances=self.crawler.instances,
        )
        # Kept for this call only, and started after resume has reloaded
        # the records and re-opened the root span, so restored items are
        # encoded like new ones.
        self._checkpoint_texts = CheckpointTexts()

        instances = [
            BrowserSession(i, self.crawler.extension, ledger=self.ledger)
            for i in range(self.crawler.instances)
        ]
        if self._restored_browsers is not None:
            for instance, state in zip(instances, self._restored_browsers):
                instance.load_state(state)
            self._restored_browsers = None
        self._attach_sessions(instances)
        reference = _reference_navigator()
        records: List[VisitRecord] = []
        fresh_sites = 0
        reused = 0
        for site in population:
            breaker = CircuitBreaker(
                config.breaker_failure_threshold,
                config.breaker_cooldown_ms,
                listener=self._breaker_listener(site.domain),
            )
            site_was_fresh = False
            for visit_index in range(self.crawler.instances):
                key = (site.domain, visit_index)
                if key in completed:
                    records.append(completed[key])
                    reused += 1
                    continue
                site_was_fresh = True
                record = self._visit_with_retry(
                    site, visit_index, instances[visit_index], breaker, reference
                )
                records.append(record)
                completed[key] = record
                self.stats.visits += 1
                if record.reached:
                    self.stats.reached += 1
                else:
                    self.stats.failed += 1
            if site_was_fresh and path is not None:
                fresh_sites += 1
                if fresh_sites >= config.checkpoint_every_sites:
                    self._write_checkpoint(path, records)
                    fresh_sites = 0
        # Reconcile the result-facing counters from the records actually
        # emitted: a resumed crawl over a shrunk or reordered population
        # restores checkpointed stats wholesale, which may count visits
        # whose records this population no longer produces.
        self.stats.visits = len(records)
        self.stats.reached = sum(1 for record in records if record.reached)
        self.stats.failed = self.stats.visits - self.stats.reached
        self.stats.resumed = reused
        self.tracer.end(root)
        if path is not None:
            self._write_checkpoint(path, records)
        self._checkpoint_texts = None
        if trace_path is not None:
            write_trace(trace_path, self.tracer.spans)
        if ledger_path is not None:
            write_ledger(ledger_path, self.ledger)
        return CrawlResult(crawler_name=self.crawler.name, records=records)

    def _attach_sessions(self, sessions: List[BrowserSession]) -> None:
        """Subscribe this crawl's browser sessions to the bus.

        A repeated ``crawl()`` call builds fresh sessions; the previous
        crawl's sessions are detached first so command events never
        reach stale browsers (and dispatch order stays deterministic).
        """
        for session in self._instances or []:
            session.detach(self.bus)
        self._instances = sessions
        for session in sessions:
            session.attach(self.bus)

    def _on_recycle_requested(self, event: BrowserRecycleRequested) -> None:
        """Execute a watchdog's recycle request (the supervisor is the
        only subscriber that may tear browsers down)."""
        instance = event.instance
        if instance is None:
            return
        self._recycle(instance, event.reason)
        self.bus.publish(
            BrowserRecycled(reason=event.reason, browser=instance.index)
        )

    # -- observability ---------------------------------------------------

    def _breaker_listener(self, domain: str):
        tracer = self.tracer

        def on_transition(old_state: BreakerState, new_state: BreakerState) -> None:
            tracer.event(
                "breaker." + new_state.value,
                domain=domain,
                previous=old_state.value,
            )

        return on_transition

    def export_trace(self, path: Union[str, Path]) -> Path:
        """Write the crawl's span tree as canonical JSONL."""
        return write_trace(path, self.tracer.spans)

    def metrics_state(self) -> Optional[Dict[str, Any]]:
        """The crawl's counters and histograms, folded from its trace and
        probe ledger by :func:`~repro.obs.metrics.crawl_metrics`
        (``None`` when tracing is off)."""
        if not self.tracer.enabled:
            return None
        return crawl_metrics(
            self.tracer.spans,
            None if self.ledger is None else self.ledger.state_dict(),
        )

    def report(self) -> CrawlReport:
        """Aggregate the crawl's trace and metrics into a report."""
        return build_report(self.tracer.spans, metrics=self.metrics_state())

    # -- one visit, with recovery ---------------------------------------

    def _visit_with_retry(
        self,
        site: SiteConfig,
        visit_index: int,
        instance: BrowserSession,
        breaker: CircuitBreaker,
        reference,
    ) -> VisitRecord:
        tracer = self.tracer
        span = tracer.start(
            "visit", domain=site.domain, rank=site.rank, visit_index=visit_index
        )
        try:
            record = self._run_attempts(
                site, visit_index, instance, breaker, reference
            )
            span["attrs"]["attempts"] = record.attempts
            if not record.reached:
                span["status"] = "failed:" + (record.failure_reason or "unknown")
            return record
        finally:
            tracer.end(span)

    def _run_attempts(
        self,
        site: SiteConfig,
        visit_index: int,
        instance: BrowserSession,
        breaker: CircuitBreaker,
        reference,
    ) -> VisitRecord:
        config = self.config
        tracer = self.tracer
        last_reason = FailureReason.TRANSIENT
        attempts_made = 0
        for attempt in range(config.max_attempts):
            if not breaker.allow(self.clock.now()):
                self.stats.breaker_skips += 1
                tracer.event("breaker.skip", domain=site.domain, attempt=attempt)
                return VisitRecord(
                    domain=site.domain,
                    rank=site.rank,
                    visit_index=visit_index,
                    reached=False,
                    failure_reason=FailureReason.CIRCUIT_OPEN,
                    attempts=attempts_made,
                )
            attempts_made += 1
            self.stats.attempts += 1
            rng = self._streams.rng(VISIT_STREAM, site.rank, visit_index, attempt)
            if self.injector is not None:
                self.injector.arm(site.domain, visit_index, attempt)
            span = tracer.start("attempt", attempt=attempt)
            try:
                try:
                    record = simulate_visit(
                        site,
                        extension=self.crawler.extension,
                        visit_index=visit_index,
                        rng=rng,
                        reference=reference,
                        per_visit_failure=config.per_visit_failure,
                        driver=instance.driver,
                        injector=self.injector,
                        bus=self.bus,
                        browser=instance.index,
                        attempt=attempt,
                    )
                except FaultError as fault:
                    self.stats.faults_seen += 1
                    last_reason = fault.fault_type.value
                    span["status"] = "fault:" + last_reason
                    tracer.event("fault", fault_type=last_reason, hook=fault.hook)
                    cost = (
                        config.visit_budget_ms
                        if fault.fault_type.exhausts_budget
                        else config.fault_detect_ms
                    )
                    self.clock.advance(min(cost, config.visit_budget_ms))
                    breaker.record_failure(self.clock.now())
                    # Recovery policy is no longer inline: watchdog
                    # subscribers decide whether this fault warrants a
                    # recycle (crash -> immediate, budget -> proactive).
                    self.bus.publish(
                        FaultObserved(
                            fault_type=last_reason,
                            hook=fault.hook,
                            domain=site.domain,
                            visit_index=visit_index,
                            attempt=attempt,
                            browser_fatal=fault.fault_type.browser_fatal,
                            instance=instance,
                        )
                    )
                    self._backoff(site, visit_index, attempt)
                    continue
                finally:
                    if self.injector is not None:
                        self.injector.disarm()

                record.attempts = attempts_made
                if record.reached:
                    record.recovered = attempts_made > 1
                    self.clock.advance(config.visit_cost_ms)
                    breaker.record_success()
                    if record.recovered:
                        self.stats.recovered += 1
                    return record

                # Site-side failure: permanent conditions are not retried.
                # A watchdog-aborted stall is charged exactly the step
                # budget; an unbounded stall (no watchdog) costs the
                # external-kill timeout.  Either way the breaker records
                # ONE failure -- watchdog intervention never double-counts.
                if record.failure_reason == FailureReason.STALLED:
                    self.clock.advance(config.visit_budget_ms)
                elif record.failure_reason == FailureReason.STALLED_UNBOUNDED:
                    self.clock.advance(config.stall_unbounded_cost_ms)
                else:
                    self.clock.advance(config.visit_cost_ms)
                breaker.record_failure(self.clock.now())
                if FailureReason.is_permanent(record.failure_reason):
                    span["status"] = "failed:" + record.failure_reason
                    return record
                last_reason = record.failure_reason or last_reason
                span["status"] = "failed:" + last_reason
                self._backoff(site, visit_index, attempt)
            finally:
                tracer.end(span)

        return VisitRecord(
            domain=site.domain,
            rank=site.rank,
            visit_index=visit_index,
            reached=False,
            failure_reason=FailureReason.exhausted(last_reason),
            attempts=attempts_made,
        )

    def _recycle(self, instance: BrowserSession, reason: str) -> None:
        instance.recycle()
        self.stats.recycles += 1
        self.tracer.event("browser.recycle", browser=instance.index, reason=reason)

    def _backoff(self, site: SiteConfig, visit_index: int, attempt: int) -> None:
        """Advance the simulated clock by the jittered retry delay."""
        rng = self._streams.rng(JITTER_STREAM, site.rank, visit_index, attempt)
        delay_ms = self.config.backoff.delay_ms(attempt, rng)
        self.tracer.event("backoff", delay_ms=delay_ms, attempt=attempt)
        self.clock.advance(delay_ms)
        self.stats.retries += 1

    # -- checkpointing ---------------------------------------------------

    def _load_checkpoint(
        self, path: Optional[Path]
    ) -> Dict[Tuple[str, int], VisitRecord]:
        completed: Dict[Tuple[str, int], VisitRecord] = {}
        if path is None or not path.exists():
            return completed
        data, records_text = read_checkpoint(path)
        if (
            data.get("crawler_name") != self.crawler.name
            or data.get("seed") != self.crawler.seed
            or data.get("instances") != self.crawler.instances
        ):
            raise ValueError(
                f"checkpoint {path} belongs to a different crawl configuration"
            )
        for record_data in json.loads(records_text):
            record = VisitRecord.from_dict(record_data)
            completed[(record.domain, record.visit_index)] = record
        # Advance the one shared clock in place.  The tracer, breakers
        # and any collaborator wired before resume hold *references* to
        # this clock; rebinding a fresh VirtualClock here would leave
        # them all ticking a stale timeline.
        behind = float(data.get("clock_ms", 0.0)) - self.clock.now()
        if behind < 0:
            raise ValueError(
                f"checkpoint {path} is older than this supervisor's clock; "
                "resume with a fresh supervisor"
            )
        self.clock.advance(behind)
        self._restored_browsers = data.get("browsers")
        stats = data.get("stats")
        if stats is not None:
            self.stats = SupervisorStats(**stats)
        self.stats.resumed = len(completed)
        trace_state = data.get("trace")
        if trace_state is not None:
            self.tracer.load_state(trace_state)
        ledger_state = data.get("ledger")
        if ledger_state is not None and self.ledger is not None:
            self.ledger.load_state(ledger_state)
        return completed

    def _write_checkpoint(self, path: Path, records: List[VisitRecord]) -> None:
        """Write the checkpoint, encoding only what changed since the
        last write of this crawl (see :mod:`repro.crawl.checkpoint`)."""
        texts = self._checkpoint_texts
        tracer = self.tracer
        ledger = self.ledger
        record_array = texts.records.array(records)
        payload = checkpoint_payload(
            crawler_name=self.crawler.name,
            seed=self.crawler.seed,
            instances=self.crawler.instances,
            clock_ms=self.clock.now(),
            stats=asdict(self.stats),
            browsers=[instance.state_dict() for instance in self._instances or []],
            trace=tracer.state_dict(spans=texts.spans.array(tracer.spans)),
            records=record_array,
            records_sha256=texts.records.sha256(),
            ledger=None
            if ledger is None
            else ledger.state_dict(entries=texts.entries.array(ledger.entries)),
        )
        write_checkpoint(path, payload)


def visit_coverage(
    result: CrawlResult, population: Sequence[SiteConfig], instances: int
) -> float:
    """Reached visits over the visits a perfect crawler could make
    (unreachable sites are excluded from the denominator)."""
    reachable = sum(1 for site in population if not site.unreachable)
    expected = reachable * instances
    if expected == 0:
        return 1.0
    return len(result.successful_visits) / expected
