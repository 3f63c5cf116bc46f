"""The sharded-crawl resume manifest.

``manifest.json`` in the output directory records what the executor
knows: the plan it is executing (digest, shard ids, population digest),
the run spec fingerprint, and which shards have completed.  Everything
else about a shard lives in its checkpoint.

Resume contract (see ``docs/SHARDING.md``):

- a shard **absent** from the manifest has not completed; re-running it
  picks up any mid-shard supervisor checkpoint on disk;
- a shard **present** is complete and never re-runs; the merge reads
  its fault log off its checkpointed trace to place its recycles where
  a serial crawl's fire (:mod:`repro.shard.state`);
- a manifest whose plan digest or spec fingerprint does not match the
  requested run is an error, never silently reused.

Writes are atomic (tmp + replace), matching the supervisor's checkpoint
discipline.  The executor saves the manifest as each shard lands, so an
exception or an interrupt loses no shard that completed before it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Union

from repro.crawl.checkpoint import write_atomically
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardRunSpec

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


class ManifestError(ValueError):
    """Raised when a manifest cannot serve the requested run."""


def spec_fingerprint(spec: ShardRunSpec) -> Dict[str, Any]:
    """The JSON-safe identity of a run spec.

    The fault plan is summarised (seed, rate, size): the schedule is
    seed-derived, so the summary pins it without serialising every
    entry.
    """
    plan = spec.fault_plan
    return {
        "crawler_name": spec.crawler_name,
        "seed": spec.seed,
        "instances": spec.instances,
        "with_extension": spec.with_extension,
        "config": asdict(spec.config),
        "fault_plan": (
            None
            if plan is None
            else {"seed": plan.seed, "rate": plan.rate, "size": len(plan)}
        ),
        "ledger": spec.ledger,
        "watchdogs": spec.watchdogs,
    }


@dataclass
class ShardManifest:
    """The executor's durable view of one sharded crawl."""

    path: Path
    data: Dict[str, Any]

    @classmethod
    def load_or_create(
        cls,
        out_dir: Union[str, Path],
        plan: ShardPlan,
        spec: ShardRunSpec,
    ) -> "ShardManifest":
        """Open the output directory's manifest, verifying it belongs to
        this plan and spec; create a fresh one if none exists."""
        path = Path(out_dir) / MANIFEST_NAME
        fingerprint = spec_fingerprint(spec)
        plan_record = {
            "digest": plan.digest,
            "seed": plan.seed,
            "shard_size": plan.shard_size,
            "shard_count": len(plan),
            "population_digest": plan.population_digest,
            "shard_ids": [shard.shard_id for shard in plan.shards],
        }
        if path.exists():
            data = json.loads(path.read_text())
            if data.get("version") != MANIFEST_VERSION:
                raise ManifestError(
                    f"unsupported manifest version in {path}"
                )
            if data.get("plan", {}).get("digest") != plan.digest:
                raise ManifestError(
                    f"{path} records a different shard plan; refusing to "
                    "mix outputs (use a fresh output directory)"
                )
            if data.get("spec") != fingerprint:
                raise ManifestError(
                    f"{path} records a different run spec; refusing to "
                    "mix outputs (use a fresh output directory)"
                )
            return cls(path=path, data=data)
        data = {
            "version": MANIFEST_VERSION,
            "plan": plan_record,
            "spec": fingerprint,
            "shards": {},
        }
        return cls(path=path, data=data)

    # -- per-shard records ----------------------------------------------

    def is_complete(self, index: int) -> bool:
        """Whether shard ``index`` is recorded as complete."""
        return str(index) in self.data["shards"]

    def record_shard(self, index: int) -> None:
        """Record shard ``index`` as complete (``run_shard``'s result)."""
        self.data["shards"][str(index)] = {"shard": index}

    def save(self) -> None:
        """Atomically persist the manifest."""
        write_atomically(
            [(self.path, [json.dumps(self.data, sort_keys=True, indent=1)])]
        )
