"""``python -m repro.shard``: run a sharded crawl from the shell.

Examples::

    # 1000-site crawl, 4 workers, merged artifacts under out/
    python -m repro.shard --sites 1000 --jobs 4 --out out/

    # Prove the merge: re-run serially in-process and byte-compare
    python -m repro.shard --sites 200 --jobs 2 --out out/ --verify

``--verify`` is the oracle from ``docs/SHARDING.md`` in executable
form: it runs the identical crawl on one serial supervisor and diffs
every artifact (checkpoint, trace, metrics, records, ledger) byte for
byte, exiting non-zero on the first divergence.

An output directory that belongs to another run, or a shard checkpoint
the merge cannot read, prints ``error: <message>`` and exits 1.  An
out-of-range argument (``--instances`` or ``--shard-size`` below 1,
``--max-shards`` below 0, ``--fault-rate`` outside [0, 1]) or a
population too small for its roles is a usage error: it exits 2 and
writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.crawl.population import (
    PopulationConfig,
    SiteConfig,
    generate_population,
    hostile_population,
)
from repro.faults.plan import FaultPlan
from repro.obs.merge import MergeError
from repro.shard.executor import run_sharded_crawl
from repro.shard.manifest import ManifestError
from repro.shard.merge import write_canonical_json
from repro.shard.worker import (
    WATCHDOGS_DEFAULT,
    WATCHDOGS_NONE,
    ShardRunSpec,
    build_supervisor,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shard",
        description="Sharded parallel crawl with deterministic merge.",
    )
    parser.add_argument(
        "--out", required=True, help="output directory (manifest + artifacts)"
    )
    parser.add_argument(
        "--sites", type=int, default=200, help="population size (default 200)"
    )
    parser.add_argument(
        "--population-seed",
        type=int,
        default=2021,
        help="population generator seed (default 2021)",
    )
    parser.add_argument(
        "--hostile-fraction",
        type=float,
        default=0.0,
        help="fraction of hostile sites (default 0: paper population)",
    )
    parser.add_argument(
        "--name", default="OpenWPM", help="crawler name (default OpenWPM)"
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="crawl seed (default 1)"
    )
    parser.add_argument(
        "--instances",
        type=int,
        default=8,
        help="browser instances / visits per site (default 8)",
    )
    parser.add_argument(
        "--extension",
        action="store_true",
        help="crawl with the spoofing extension",
    )
    parser.add_argument(
        "--ledger",
        action="store_true",
        help="record the probe ledger per shard and merge it",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-visit fault probability (default 0: no fault plan)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=7,
        help="fault plan seed (default 7)",
    )
    parser.add_argument(
        "--no-watchdogs",
        action="store_true",
        help="run the unprotected ablation (no recycle/crash watchdogs)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=50,
        help="sites per shard (default 50)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, at most one per usable CPU (default 1: "
        "in-process, still sharded)",
    )
    parser.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="stop after N missing shards (interrupt injection; resume by "
        "re-running with the same --out)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-run serially in-process and byte-compare every artifact",
    )
    return parser


def _population(args: argparse.Namespace) -> List[SiteConfig]:
    if args.hostile_fraction > 0.0:
        return hostile_population(
            n_sites=args.sites,
            seed=args.population_seed,
            hostile_fraction=args.hostile_fraction,
        )
    return generate_population(
        PopulationConfig(n_sites=args.sites, seed=args.population_seed)
    )


def _verify(
    out_dir: Path,
    spec: ShardRunSpec,
    population: List[SiteConfig],
) -> int:
    """Serial oracle: same crawl on one supervisor, byte-diff everything."""
    supervisor = build_supervisor(spec)
    result = supervisor.crawl(
        population,
        checkpoint_path=out_dir / "serial.ckpt.json",
        trace_path=out_dir / "serial.trace.jsonl",
        ledger_path=out_dir / "serial.ledger.jsonl" if spec.ledger else None,
    )
    write_canonical_json(
        out_dir / "serial.metrics.json", supervisor.metrics_state()
    )
    write_canonical_json(
        out_dir / "serial.records.json",
        [record.to_dict() for record in result.records],
    )

    pairs: List[Tuple[str, str]] = [
        ("crawl.ckpt.json", "serial.ckpt.json"),
        ("crawl.trace.jsonl", "serial.trace.jsonl"),
        ("crawl.metrics.json", "serial.metrics.json"),
        ("crawl.records.json", "serial.records.json"),
    ]
    if spec.ledger:
        pairs.append(("crawl.ledger.jsonl", "serial.ledger.jsonl"))
    failures = 0
    for merged_name, serial_name in pairs:
        merged_bytes = (out_dir / merged_name).read_bytes()
        serial_bytes = (out_dir / serial_name).read_bytes()
        verdict = "ok" if merged_bytes == serial_bytes else "MISMATCH"
        if verdict != "ok":
            failures += 1
        print(f"verify {merged_name} vs {serial_name}: {verdict}")
    if failures:
        print(f"verify FAILED: {failures} artifact(s) diverge from serial")
        return 1
    print("verify ok: merged output is byte-identical to the serial run")
    return 0


def _check_ranges(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse an out-of-range argument as a usage error (exit 2), before
    anything is written."""
    if args.instances < 1:
        parser.error(f"--instances must be at least 1, got {args.instances}")
    if args.shard_size < 1:
        parser.error(f"--shard-size must be at least 1, got {args.shard_size}")
    if args.max_shards is not None and args.max_shards < 0:
        parser.error(f"--max-shards must be at least 0, got {args.max_shards}")
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be in [0, 1], got {args.fault_rate}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_ranges(parser, args)
    try:
        population = _population(args)
    except ValueError as error:
        parser.error(str(error))
    fault_plan = None
    if args.fault_rate > 0.0:
        fault_plan = FaultPlan.generate(
            population,
            args.instances,
            rate=args.fault_rate,
            seed=args.fault_seed,
        )
    watchdogs = WATCHDOGS_NONE if args.no_watchdogs else WATCHDOGS_DEFAULT
    try:
        outcome = run_sharded_crawl(
            population,
            out_dir=args.out,
            crawler_name=args.name,
            seed=args.seed,
            instances=args.instances,
            with_extension=args.extension,
            fault_plan=fault_plan,
            ledger=args.ledger,
            watchdogs=watchdogs,
            shard_size=args.shard_size,
            jobs=args.jobs,
            max_shards=args.max_shards,
        )
    except (ManifestError, MergeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not outcome.complete:
        print(
            json.dumps(
                {
                    "status": "interrupted",
                    "plan_digest": outcome.plan.digest,
                    "shards_total": len(outcome.plan),
                    "shards_run": outcome.shards_run,
                    "resume": f"re-run with the same --out ({args.out})",
                },
                indent=1,
            )
        )
        return 0
    stats = outcome.stats
    print(
        json.dumps(
            {
                "status": "complete",
                "plan_digest": outcome.plan.digest,
                "shards_total": len(outcome.plan),
                "shards_run": outcome.shards_run,
                "jobs": args.jobs,
                "visits": stats.visits,
                "reached": stats.reached,
                "failed": stats.failed,
                "recycles": stats.recycles,
                "clock_ms": outcome.clock_ms,
                "artifacts": {
                    "checkpoint": str(outcome.artifacts.checkpoint),
                    "trace": str(outcome.artifacts.trace),
                    "metrics": str(outcome.artifacts.metrics),
                    "records": str(outcome.artifacts.records),
                    "ledger": (
                        None
                        if outcome.artifacts.ledger is None
                        else str(outcome.artifacts.ledger)
                    ),
                },
            },
            indent=1,
        )
    )
    if args.verify:
        spec = ShardRunSpec(
            crawler_name=args.name,
            seed=args.seed,
            instances=args.instances,
            with_extension=args.extension,
            fault_plan=fault_plan,
            ledger=args.ledger,
            watchdogs=watchdogs,
        )
        return _verify(Path(args.out), spec, population)
    return 0
