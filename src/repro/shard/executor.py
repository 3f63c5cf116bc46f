"""The process-pool shard executor.

Every shard the manifest does not record yet runs exactly once, from
fresh browser states; a recorded shard never re-runs.  Where the fault
budget fires depends on the fault counts a serial crawl's browsers
carry into each shard, so :func:`~repro.shard.merge.merge_shards` moves
those recycles at merge time (:mod:`repro.shard.state`).

Workers are plain ``multiprocessing.Pool`` processes; every task is
picklable and writes only its own ``shard-NNNN.ckpt.json``, so the
pool needs no shared state and ``--jobs N`` changes nothing but
wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.crawl.crawler import CrawlResult
from repro.crawl.population import SiteConfig
from repro.crawl.supervisor import SupervisorConfig, SupervisorStats
from repro.faults.plan import FaultPlan
from repro.shard.manifest import ShardManifest
from repro.shard.merge import MergedArtifacts, MergedCrawl, merge_shards
from repro.shard.plan import ShardPlan, plan_shards
from repro.shard.worker import (
    WATCHDOGS_DEFAULT,
    ShardRunSpec,
    ShardTask,
    run_shard,
)


@dataclass(frozen=True)
class ShardedCrawlOutcome:
    """What one executor invocation produced.

    ``merged`` is None when ``max_shards`` stopped the run early (the
    interrupt case); the manifest then holds enough to resume, and
    ``result``/``stats``/``clock_ms``/``artifacts`` are None.
    """

    out_dir: Path
    plan: ShardPlan
    #: Shards executed by *this* invocation: the ones the manifest did
    #: not record yet, each run once (``len(plan)`` for an uninterrupted
    #: run, only the missing shards for a resumed one).
    shards_run: int
    merged: Optional[MergedCrawl]

    @property
    def complete(self) -> bool:
        return self.merged is not None

    @property
    def result(self) -> Optional[CrawlResult]:
        """The merged result, built on its first read."""
        return None if self.merged is None else self.merged.result

    @property
    def stats(self) -> Optional[SupervisorStats]:
        return None if self.merged is None else self.merged.stats

    @property
    def clock_ms(self) -> Optional[float]:
        return None if self.merged is None else self.merged.clock_ms

    @property
    def artifacts(self) -> Optional[MergedArtifacts]:
        return None if self.merged is None else self.merged.artifacts


def _run_tasks(tasks: Sequence[ShardTask], jobs: int) -> List[int]:
    if not tasks:
        return []
    if jobs <= 1:
        return [run_shard(task) for task in tasks]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(run_shard, tasks)


def run_sharded_crawl(
    population: Sequence[SiteConfig],
    *,
    out_dir: Union[str, Path],
    crawler_name: str = "OpenWPM",
    seed: int = 1,
    instances: int = 8,
    with_extension: bool = False,
    config: Optional[SupervisorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    ledger: bool = False,
    watchdogs: str = WATCHDOGS_DEFAULT,
    shard_size: int = 50,
    jobs: int = 1,
    max_shards: Optional[int] = None,
) -> ShardedCrawlOutcome:
    """Crawl ``population`` in shards and merge serial-identical output.

    Resumable: re-invoking with the same population, seed and output
    directory skips shards the manifest records and picks up mid-shard
    supervisor checkpoints for the rest.  ``max_shards`` bounds how many
    missing shards this invocation executes (interrupt injection for
    tests; None means all).
    """
    spec = ShardRunSpec(
        crawler_name=crawler_name,
        seed=seed,
        instances=instances,
        with_extension=with_extension,
        config=config if config is not None else SupervisorConfig(),
        fault_plan=fault_plan,
        ledger=ledger,
        watchdogs=watchdogs,
    )
    plan = plan_shards(population, shard_size, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = ShardManifest.load_or_create(out_dir, plan, spec)

    missing = [
        shard for shard in plan.shards if not manifest.is_complete(shard.index)
    ]
    if max_shards is not None:
        missing = missing[:max_shards]
    tasks = [
        ShardTask(
            spec=spec,
            index=shard.index,
            sites=shard.sites,
            out_dir=str(out_dir),
        )
        for shard in missing
    ]
    for index in _run_tasks(tasks, jobs):
        manifest.record_shard(index)
    manifest.save()

    merged = None
    if manifest.completed() == len(plan):
        merged = merge_shards(out_dir, plan, spec)
    return ShardedCrawlOutcome(
        out_dir=out_dir, plan=plan, shards_run=len(tasks), merged=merged
    )
