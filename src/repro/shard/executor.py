"""The process-pool shard executor.

Every shard the manifest does not record yet runs exactly once, from
fresh browser states; a recorded shard never re-runs.  Each shard is
recorded in the manifest, and the manifest saved, as soon as it lands,
so an executor stopped by an exception or an interrupt re-runs only the
shards that had not landed.

When this invocation will complete the plan, the executor folds each
shard into a :class:`~repro.shard.merge.ShardMerge` as soon as that
shard and every shard before it are on disk -- recorded shards when
their turn comes, the others as the pool hands them back in plan order
-- and finishes the merge after the last.  Where the fault budget fires
depends on the fault counts a serial crawl's browsers carry into each
shard, so the merge moves those recycles (:mod:`repro.shard.state`).

Workers are plain ``multiprocessing.Pool`` processes; every task is
picklable and writes only its own ``shard-NNNN.ckpt.json``, so the
pool needs no shared state and ``--jobs N`` changes nothing but
wall-clock.  The pool has at most ``N`` workers, and no more than the
CPUs the process may use.  With ``jobs <= 1`` the shards run in this
process, each folded before the next runs.

On any exception -- a shard's, the merge's, or an interrupt -- the pool
is terminated, so its workers stop mid-shard, perhaps in the middle of
a checkpoint write.  The executor then removes the checkpoint tmp files
of this invocation's shards; each shard keeps its last complete
checkpoint, which the resume picks up.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.crawl.checkpoint import tmp_sibling
from repro.crawl.crawler import CrawlResult
from repro.crawl.population import SiteConfig
from repro.crawl.supervisor import SupervisorConfig, SupervisorStats
from repro.faults.plan import FaultPlan
from repro.shard.manifest import ShardManifest
from repro.shard.merge import MergedArtifacts, MergedCrawl, ShardMerge
from repro.shard.plan import ShardPlan, plan_shards
from repro.shard.worker import (
    WATCHDOGS_DEFAULT,
    ShardRunSpec,
    ShardTask,
    run_shard,
    shard_checkpoint,
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


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _landed_shards(tasks: Sequence[ShardTask], jobs: int) -> Iterator[Iterator[int]]:
    """The tasks' shard indices, each yielded once its shard is complete,
    in task order.  With ``jobs <= 1`` a task runs only when its index
    is asked for; otherwise a pool runs them all, and is terminated when
    the block exits.  The pool starts at most one worker per task and
    per usable CPU: more would only share the cores with the parent,
    which folds the shards as they land.  If the block exits by an
    exception, the tasks' checkpoint tmp files, which a write cut short
    leaves, are removed."""
    try:
        if jobs <= 1 or not tasks:
            yield (run_shard(task) for task in tasks)
        else:
            workers = min(jobs, len(tasks), _usable_cpus())
            with Pool(processes=workers) as pool:
                yield pool.imap(run_shard, tasks)
    except BaseException:
        for task in tasks:
            tmp_sibling(shard_checkpoint(task.out_dir, task.index)).unlink(
                missing_ok=True
            )
        raise


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
    tests; None means all); a run it stops merges nothing.  A negative
    ``max_shards`` raises :class:`ValueError` before anything is written.
    """
    if max_shards is not None and max_shards < 0:
        raise ValueError(f"max_shards must be at least 0, got {max_shards}")
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
    # Before any shard writes a file, so every directory that holds one
    # names the plan and spec it belongs to.
    manifest.save()

    missing = [
        shard for shard in plan.shards if not manifest.is_complete(shard.index)
    ]
    # Only an invocation that completes the plan merges.
    merge = None
    if max_shards is None or max_shards >= len(missing):
        merge = ShardMerge(out_dir, plan, spec)
    tasks = [
        ShardTask(
            spec=spec,
            index=shard.index,
            sites=shard.sites,
            out_dir=str(out_dir),
        )
        for shard in missing[:max_shards]
    ]
    with _landed_shards(tasks, jobs) as landed:
        for shard in plan.shards:
            if not manifest.is_complete(shard.index):
                index = next(landed, None)
                if index is None:
                    break
                manifest.record_shard(index)
                manifest.save()
            if merge is not None:
                merge.fold_shard(shard.index)
    return ShardedCrawlOutcome(
        out_dir=out_dir,
        plan=plan,
        shards_run=len(tasks),
        merged=None if merge is None else merge.finish(),
    )
