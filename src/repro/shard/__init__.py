"""``repro.shard``: sharded parallel crawl execution, deterministically.

The :class:`~repro.crawl.supervisor.CrawlSupervisor` executes one visit
at a time on a single simulated clock.  This package scales it across a
process pool without giving up the byte-identity contract every prior
layer protects:

- :mod:`repro.shard.plan` -- a deterministic planner partitioning the
  population into contiguous shards with stable, seed-derived identities
  (independent of worker count);
- :mod:`repro.shard.worker` -- the per-shard unit of work: one
  supervisor + event bus + tracer + virtual clock per shard, runnable in
  a pool worker;
- :mod:`repro.shard.state` -- the cross-shard browser-health algebra:
  fault logs folded into the per-browser fault/recycle counters a serial
  crawl would carry into each shard, and recycle placement;
- :mod:`repro.shard.executor` -- the pool driver: runs every shard not
  yet recorded exactly once, from fresh browser states, records each in
  the manifest as it lands and feeds it to the merge in plan order;
- :mod:`repro.shard.merge` -- folds the shard checkpoints in plan
  order, one at a time: moves each shard's fault-budget recycles to
  where the fold of the fault logs (read off the checkpointed traces)
  puts them, and splices its records, trace and probe ledger into
  ``crawl.*`` artifacts byte-identical to a serial run's, the metrics
  counted from the merged trace and ledger;
- :mod:`repro.shard.manifest` -- the resume manifest: a partially
  completed sharded crawl picks up where it stopped (mid-shard via the
  per-shard supervisor checkpoints, cross-shard via the completed
  shards it records);
- :mod:`repro.shard.cli` -- ``python -m repro.shard`` with ``--jobs N``.

See ``docs/SHARDING.md`` for the planner/executor/merge contract and
the determinism invariants (dyadic clock grid, contiguous shards,
merge-time recycle placement).
"""

from repro.shard.executor import ShardedCrawlOutcome, run_sharded_crawl
from repro.shard.manifest import ManifestError, ShardManifest
from repro.shard.merge import MergedArtifacts, ShardMerge, write_canonical_json
from repro.shard.plan import Shard, ShardPlan, plan_shards, population_digest
from repro.shard.state import (
    FaultLogEntry,
    fault_log_from_spans,
    fold_fault_log,
    fresh_browser_states,
    observed_triggers,
)
from repro.shard.worker import (
    ShardRunSpec,
    ShardTask,
    build_supervisor,
    run_shard,
    shard_checkpoint,
)

__all__ = [
    "Shard",
    "ShardPlan",
    "plan_shards",
    "population_digest",
    "FaultLogEntry",
    "fresh_browser_states",
    "fault_log_from_spans",
    "fold_fault_log",
    "observed_triggers",
    "ShardRunSpec",
    "ShardTask",
    "build_supervisor",
    "run_shard",
    "shard_checkpoint",
    "ShardManifest",
    "ManifestError",
    "MergedArtifacts",
    "ShardMerge",
    "write_canonical_json",
    "ShardedCrawlOutcome",
    "run_sharded_crawl",
]
