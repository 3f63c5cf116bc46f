"""Recombining per-shard checkpoints into serial-identical output.

The merge is a pure function of the per-shard supervisor checkpoints
(which carry each shard's records, trace, stats, and optional ledger)
and the manifest's fault logs; it reads every ``shard-*`` file
and writes only ``crawl.*`` files.  Each shard checkpoint is parsed
once, by :func:`~repro.crawl.checkpoint.split_checkpoint`, and each
output file is encoded once.  The observability splice lives in
:mod:`repro.obs.merge`.  This module adds the crawl-level assembly:

- **recycles**: shards run from fresh browser states, so the merge folds
  the fault logs in plan order and, in every shard whose recorded budget
  triggers differ from the fold's, moves the recycle trace events and
  ``stats.recycles`` in memory, before the splice.  Merging twice gives
  the same bytes;
- **records**: shards are contiguous population blocks, so plain
  concatenation in shard order *is* the serial visit order.  Records
  carry no id or time the merge rebases, so the merged checkpoint
  splices the shards' record-array texts verbatim;
- **spans**: spliced as the parsed JSON the shard checkpoints hold,
  then encoded once into the checkpoint and once into the trace;
- **stats**: work counters sum; result counters are reconciled from the
  merged records exactly as the serial supervisor reconciles its own;
- **ledger**: entries are renumbered and shifted; probe-scope sizes
  concatenate in shard order;
- **metrics**: :func:`~repro.obs.metrics.crawl_metrics` of the merged
  trace and ledger -- the fold the serial supervisor's
  :meth:`~repro.crawl.supervisor.CrawlSupervisor.metrics_state` runs;
- **checkpoint**: a version-3 supervisor checkpoint is assembled from
  the merged parts -- loadable by a serial
  :class:`~repro.crawl.supervisor.CrawlSupervisor` to extend the crawl,
  and byte-identical to the final checkpoint the serial run writes;
- **canonical files**: ``crawl.trace.jsonl`` / ``crawl.ledger.jsonl`` /
  ``crawl.metrics.json`` / ``crawl.records.json`` next to the
  checkpoint, each in the byte-stable form the oracle tests diff
  against a serial run;
- **result**: the merged :class:`~repro.crawl.crawler.CrawlResult` is
  built from the record dicts on first read, since the CLI and a
  sharded pass that only writes files never read it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.crawl.checkpoint import (
    CHECKPOINT_VERSION,
    EncodedArray,
    checkpoint_payload,
    split_checkpoint,
    write_checkpoint,
)
from repro.crawl.crawler import CrawlResult
from repro.crawl.supervisor import SupervisorStats
from repro.crawl.visit import VisitRecord
from repro.obs.export import span_dicts_to_jsonl
from repro.obs.merge import (
    MergeError,
    merge_ledger_entries,
    merge_spans,
    shard_durations,
)
from repro.obs.metrics import crawl_metrics
from repro.obs.probes import LedgerEntry, ledger_to_jsonl
from repro.shard.manifest import ShardManifest
from repro.shard.plan import ShardPlan
from repro.shard.state import (
    fold_fault_log,
    fresh_browser_states,
    observed_triggers,
    place_recycles,
)
from repro.shard.worker import ShardRunSpec, shard_checkpoint

_SEPARATORS = (",", ":")

#: Work counters summed across shards verbatim (result counters --
#: visits/reached/failed/resumed -- are reconciled from records).
_SUMMED_STATS = (
    "attempts",
    "retries",
    "recovered",
    "faults_seen",
    "recycles",
    "breaker_skips",
)


@dataclass(frozen=True)
class MergedArtifacts:
    """The merged crawl's on-disk artifacts."""

    checkpoint: Path
    trace: Path
    metrics: Path
    records: Path
    ledger: Optional[Path]


def write_canonical_json(path: Union[str, Path], payload: Any) -> Path:
    """Byte-stable JSON: sorted keys, minimal separators, one newline."""
    path = Path(path)
    path.write_text(
        json.dumps(payload, sort_keys=True, separators=_SEPARATORS) + "\n"
    )
    return path


def _exact_sum(values: Sequence[float]) -> float:
    # A left fold, exactly like the serial clock's advance sequence; the
    # dyadic grid makes it exact, so the order spelled out here is
    # documentation more than necessity.
    total = 0.0
    for value in values:
        total += value
    return total


def _read_shard(index: int, path: Path) -> Tuple[Dict[str, Any], str]:
    """One shard checkpoint's payload, and its record array's text
    between the brackets."""
    if not path.exists():
        raise MergeError(
            f"shard {index}: no checkpoint at {path}; "
            "merge requires a fully-executed plan"
        )
    try:
        text = path.read_text()
        payload, offsets = split_checkpoint(text)
    except ValueError as error:
        raise MergeError(f"shard {index}: cannot read {path}: {error}") from None
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise MergeError(
            f"shard {index}: checkpoint version {version!r} in {path}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    start, end = offsets["records"]
    return payload, text[start + 1 : end - 1]


def merge_shards(
    out_dir: Union[str, Path],
    plan: ShardPlan,
    spec: ShardRunSpec,
    manifest: ShardManifest,
) -> "MergedCrawl":
    """Merge every shard's checkpoint into serial-identical artifacts.

    The fold of the ``manifest``'s fault logs places each shard's
    fault-budget recycles; its exit states are what the serial
    supervisor's browsers would hold at crawl end.
    """
    out_dir = Path(out_dir)
    payloads = []
    record_texts: List[str] = []
    for shard in plan.shards:
        payload, records_text = _read_shard(
            shard.index, shard_checkpoint(out_dir, shard.index)
        )
        payloads.append(payload)
        if records_text:
            if record_texts:
                record_texts.append(", ")
            record_texts.append(records_text)

    shard_spans = [payload["trace"]["spans"] for payload in payloads]
    budget = spec.config.recycle_after_faults
    browser_states = fresh_browser_states(spec.instances)
    for shard, payload, spans in zip(plan.shards, payloads, shard_spans):
        log = manifest.fault_log(shard.index)
        browser_states, triggers = fold_fault_log(
            browser_states, log, budget, spec.recycling
        )
        recorded = observed_triggers(log)
        if triggers != recorded:
            place_recycles(spans, triggers, budget)
            payload["stats"]["recycles"] += len(triggers) - len(recorded)
    durations = shard_durations(shard_spans)
    merged_spans = merge_spans(shard_spans)
    clock_ms = _exact_sum(durations)
    record_dicts: List[Dict[str, Any]] = []
    for payload in payloads:
        record_dicts.extend(payload["records"])

    stats = SupervisorStats()
    for payload in payloads:
        for name in _SUMMED_STATS:
            setattr(
                stats, name, getattr(stats, name) + int(payload["stats"][name])
            )
    stats.visits = len(record_dicts)
    stats.reached = sum(1 for record in record_dicts if record["reached"])
    stats.failed = stats.visits - stats.reached
    stats.resumed = 0

    merged_ledger: Optional[List[LedgerEntry]] = None
    if spec.ledger:
        merged_ledger = merge_ledger_entries(
            [
                [
                    LedgerEntry.from_dict(data)
                    for data in payload["ledger"]["entries"]
                ]
                for payload in payloads
            ],
            durations,
        )

    ledger_state: Optional[Dict[str, Any]] = None
    if merged_ledger is not None:
        ledger_state = {
            "next_id": len(merged_ledger) + 1,
            "scopes": [],
            "probe_sizes": [
                size
                for payload in payloads
                for size in payload["ledger"]["probe_sizes"]
            ],
            "entries": [entry.to_dict() for entry in merged_ledger],
        }
    checkpoint_path = out_dir / "crawl.ckpt.json"
    # The serial supervisor's layout and encoding, so the two checkpoint
    # files are byte-comparable.
    write_checkpoint(
        checkpoint_path,
        checkpoint_payload(
            crawler_name=spec.crawler_name,
            seed=spec.seed,
            instances=spec.instances,
            clock_ms=clock_ms,
            stats=asdict(stats),
            browsers=[dict(state) for state in browser_states],
            trace={
                "next_id": len(merged_spans) + 1,
                "open": [],
                "spans": merged_spans,
            },
            records=EncodedArray(record_texts),
            ledger=ledger_state,
        ),
    )

    trace_path = out_dir / "crawl.trace.jsonl"
    trace_path.write_text(span_dicts_to_jsonl(merged_spans))
    metrics_path = write_canonical_json(
        out_dir / "crawl.metrics.json", crawl_metrics(merged_spans, ledger_state)
    )
    records_path = write_canonical_json(
        out_dir / "crawl.records.json", record_dicts
    )
    ledger_path: Optional[Path] = None
    if merged_ledger is not None:
        ledger_path = out_dir / "crawl.ledger.jsonl"
        ledger_path.write_text(ledger_to_jsonl(merged_ledger))

    return MergedCrawl(
        stats=stats,
        clock_ms=clock_ms,
        artifacts=MergedArtifacts(
            checkpoint=checkpoint_path,
            trace=trace_path,
            metrics=metrics_path,
            records=records_path,
            ledger=ledger_path,
        ),
        crawler_name=spec.crawler_name,
        record_dicts=record_dicts,
    )


@dataclass
class MergedCrawl:
    """The merged crawl: stats, artifact locations, and the result."""

    stats: SupervisorStats
    clock_ms: float
    artifacts: MergedArtifacts
    crawler_name: str
    #: The merged records in their JSON form, as the shards wrote them.
    record_dicts: List[Dict[str, Any]] = field(repr=False)

    @cached_property
    def result(self) -> CrawlResult:
        """The merged :class:`CrawlResult`, built on first read."""
        return CrawlResult(
            crawler_name=self.crawler_name,
            records=[VisitRecord.from_dict(data) for data in self.record_dicts],
        )
