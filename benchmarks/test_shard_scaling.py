"""Sharded crawl scaling: serial vs 2- and 4-worker wall-clock.

Runs the same synthetic crawl three ways -- one serial supervisor, then
the shard executor with ``jobs=2`` and ``jobs=4`` -- and records
wall-clock milliseconds per 1k visits for each under the
``shard_scaling`` key of ``BENCH_crawl.json`` (read-merge-write, so the
hostile-ablation keys coexist; CI uploads the file), next to the number
of shards each sharded run executed.

Byte-identity is asserted **strictly**: every merged artifact must equal
the serial run's, at every worker count.  So is the run-once contract:
every shard executes exactly once.  Scaling itself is recorded,
not asserted -- wall-clock speedup depends on the runner's core count
(this repo's CI containers range from 1 to 4 cores), while the bytes do
not.
"""

import json
import time
from pathlib import Path

from conftest import print_table

from repro.crawl import PopulationConfig, generate_population
from repro.faults import FaultPlan
from repro.obs import append_history
from repro.shard import ShardRunSpec, build_supervisor, run_sharded_crawl

BENCH_PATH = Path("BENCH_crawl.json")

SITES = 1_000
INSTANCES = 8
SHARD_SIZE = 125  # 8 shards: enough to keep 4 workers busy
SEED = 1
FAULT_RATE = 0.05
ARTIFACTS = (
    "crawl.ckpt.json",
    "crawl.trace.jsonl",
    "crawl.metrics.json",
    "crawl.records.json",
)


def _merge_bench(update):
    data = {}
    if BENCH_PATH.exists():
        data = json.loads(BENCH_PATH.read_text())
    data.update(update)
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    append_history(Path("BENCH_HISTORY.jsonl"), [BENCH_PATH], label='shard-scaling')


def test_shard_scaling_is_byte_identical_and_recorded(tmp_path):
    population = generate_population(
        PopulationConfig(n_sites=SITES, seed=2021)
    )
    fault_plan = FaultPlan.generate(
        population, INSTANCES, rate=FAULT_RATE, seed=11
    )
    spec = ShardRunSpec(
        crawler_name="OpenWPM",
        seed=SEED,
        instances=INSTANCES,
        fault_plan=fault_plan,
    )

    # Serial oracle: one supervisor, canonical exports.
    serial_dir = tmp_path / "serial"
    serial_dir.mkdir()
    started = time.perf_counter()
    supervisor = build_supervisor(spec)
    result = supervisor.crawl(
        population,
        checkpoint_path=serial_dir / "crawl.ckpt.json",
        trace_path=serial_dir / "crawl.trace.jsonl",
    )
    serial_s = time.perf_counter() - started
    canonical = dict(sort_keys=True, separators=(",", ":"))
    (serial_dir / "crawl.metrics.json").write_text(
        json.dumps(supervisor.metrics_state(), **canonical) + "\n"
    )
    (serial_dir / "crawl.records.json").write_text(
        json.dumps([r.to_dict() for r in result.records], **canonical) + "\n"
    )
    visits = len(result.records)
    assert visits == SITES * INSTANCES

    timings = {"serial": serial_s}
    shards_run = {}
    for jobs in (2, 4):
        out_dir = tmp_path / f"jobs{jobs}"
        started = time.perf_counter()
        outcome = run_sharded_crawl(
            population,
            out_dir=out_dir,
            crawler_name=spec.crawler_name,
            seed=spec.seed,
            instances=spec.instances,
            fault_plan=spec.fault_plan,
            shard_size=SHARD_SIZE,
            jobs=jobs,
        )
        timings[f"jobs{jobs}"] = time.perf_counter() - started
        assert outcome.complete
        assert outcome.shards_run == len(outcome.plan) == SITES // SHARD_SIZE
        shards_run[f"jobs{jobs}"] = outcome.shards_run
        for name in ARTIFACTS:
            assert (out_dir / name).read_bytes() == (
                serial_dir / name
            ).read_bytes(), f"jobs={jobs}: {name} diverges from serial"

    per_1k = {
        label: round(seconds * 1000.0 / (visits / 1000.0), 2)
        for label, seconds in timings.items()
    }
    _merge_bench(
        {
            "shard_scaling": {
                "sites": SITES,
                "instances": INSTANCES,
                "visits": visits,
                "shard_size": SHARD_SIZE,
                "fault_rate": FAULT_RATE,
                "byte_identical": True,
                "shards_run": shards_run,
                "wall_ms_per_1k_visits": per_1k,
                "speedup_jobs2": round(serial_s / timings["jobs2"], 3),
                "speedup_jobs4": round(serial_s / timings["jobs4"], 3),
            }
        }
    )
    print_table(
        "Sharded crawl scaling (byte-identical at every worker count)",
        [
            f"{label:>8}: {seconds:6.2f}s wall "
            f"({per_1k[label]:8.2f} ms / 1k visits)"
            for label, seconds in timings.items()
        ]
        + [f"wrote {BENCH_PATH}"],
    )
