"""The per-shard unit of work: one supervisor, one clock, one bus.

A :class:`ShardTask` is a plain picklable description of one shard run;
:func:`run_shard` is the process-pool entry point that executes it.
Every shard builds its *own* :class:`~repro.crawl.supervisor.
CrawlSupervisor` -- and with it its own :class:`~repro.clock.
VirtualClock`, :class:`~repro.bus.EventBus`, :class:`~repro.obs.Tracer`
and (optionally) probe ledger -- so shards share no mutable state
whatsoever: bus isolation is by construction, not by locking.

The supervisor's own site-boundary checkpointing gives mid-shard
interrupt/resume for free: ``run_shard`` passes a per-shard checkpoint
path, and a re-run of the same task resumes from it byte-identically.
That checkpoint is the only file a shard writes, and the merge layer's
only per-shard input -- it already carries the records, trace, stats,
browser states and ledger of the completed shard, from which the merge
also reads the fault log and folds the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.crawl.crawler import OpenWPMCrawler
from repro.crawl.population import SiteConfig
from repro.crawl.supervisor import CrawlSupervisor, SupervisorConfig
from repro.faults.plan import FaultPlan
from repro.obs.probes import ProbeLedger
from repro.spoofing.extension import SpoofingExtension

#: The two watchdog configurations the sharded executor supports: the
#: production set or the unprotected ablation.  Arbitrary watchdog sets
#: would need their own fold in :mod:`repro.shard.state`.
WATCHDOGS_DEFAULT = "default"
WATCHDOGS_NONE = "none"


@dataclass(frozen=True)
class ShardRunSpec:
    """Everything a worker needs to rebuild the supervisor in-process.

    Live objects (extension, ledger, watchdogs) are rebuilt from flags
    rather than pickled: the spoofing extension and watchdogs hold
    window/bus wiring that must be constructed fresh per process.
    """

    crawler_name: str
    seed: int
    instances: int
    with_extension: bool = False
    config: SupervisorConfig = field(default_factory=SupervisorConfig)
    fault_plan: Optional[FaultPlan] = None
    ledger: bool = False
    watchdogs: str = WATCHDOGS_DEFAULT

    def __post_init__(self) -> None:
        if self.watchdogs not in (WATCHDOGS_DEFAULT, WATCHDOGS_NONE):
            raise ValueError(
                f"watchdogs must be {WATCHDOGS_DEFAULT!r} or "
                f"{WATCHDOGS_NONE!r}, got {self.watchdogs!r}"
            )

    @property
    def recycling(self) -> bool:
        """Whether the recycle/crash watchdogs are active."""
        return self.watchdogs == WATCHDOGS_DEFAULT


@dataclass(frozen=True)
class ShardTask:
    """One shard run, picklable for the process pool.  Every shard starts
    from fresh browser states (see :mod:`repro.shard.merge`)."""

    spec: ShardRunSpec
    index: int
    sites: Tuple[SiteConfig, ...]
    out_dir: str


def shard_checkpoint(out_dir: Any, index: int) -> Path:
    """The shard's checkpoint file, zero-padded (sorted order == plan
    order)."""
    return Path(out_dir) / f"shard-{index:04d}.ckpt.json"


def build_supervisor(spec: ShardRunSpec) -> CrawlSupervisor:
    """Construct the shard's supervisor stack from its picklable spec."""
    extension = SpoofingExtension() if spec.with_extension else None
    crawler = OpenWPMCrawler(
        spec.crawler_name,
        extension=extension,
        instances=spec.instances,
        seed=spec.seed,
    )
    return CrawlSupervisor(
        crawler,
        config=spec.config,
        plan=spec.fault_plan,
        probe_ledger=ProbeLedger() if spec.ledger else None,
        watchdogs=None if spec.recycling else (),
    )


def run_shard(task: ShardTask) -> int:
    """Execute one shard; returns its index once the shard is complete.

    Everything the merge needs (records, trace, stats, ledger) stays in
    the checkpoint at :func:`shard_checkpoint`.
    """
    supervisor = build_supervisor(task.spec)
    supervisor.crawl(
        list(task.sites),
        checkpoint_path=shard_checkpoint(task.out_dir, task.index),
    )
    return task.index
