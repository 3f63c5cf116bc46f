"""Recombining per-shard checkpoints into serial-identical output.

The merge is a pure function of the per-shard supervisor checkpoints,
which carry each shard's records, trace, stats, and optional ledger; it
reads every ``shard-*`` file and writes only ``crawl.*`` files.  Each
shard checkpoint is read once, by
:func:`~repro.crawl.checkpoint.read_checkpoint`, which decodes all of it
but the record array.  A version-4 checkpoint holds every record,
span and ledger entry as the text its export file uses, so no record is
parsed and no item is encoded twice.  The observability splice lives
in :mod:`repro.obs.merge`.  This module adds the crawl-level assembly:

- **recycles**: shards run from fresh browser states, so the merge reads
  each shard's fault log off its checkpointed trace, folds the logs in
  plan order and, in every shard whose recorded budget triggers differ
  from the fold's, moves the recycle trace events and
  ``stats.recycles`` in memory, before the splice.  Merging twice gives
  the same bytes;
- **records**: shards are contiguous population blocks, so plain
  concatenation in shard order *is* the serial visit order.  Records
  carry no id or time the merge rebases, so the shards' record texts,
  joined by ``,``, are the merged checkpoint's record array and, in
  brackets, ``crawl.records.json``.  Each shard's record array is
  located and checked against its ``records_sha256``, never decoded;
- **spans**: spliced as the parsed JSON the shard checkpoints hold,
  then each encoded once; the texts are joined by newlines for the
  trace and by ``,`` for the checkpoint;
- **stats**: counters sum; ``visits`` and ``reached`` too, because each
  shard reconciles them from its own records at crawl end;
- **ledger**: entries are spliced as the parsed JSON the shard
  checkpoints hold, renumbered and shifted, then each encoded once for
  both the checkpoint and ``crawl.ledger.jsonl``; probe-scope sizes
  concatenate in shard order;
- **metrics**: :func:`~repro.obs.metrics.crawl_metrics` of the merged
  trace and ledger -- the fold the serial supervisor's
  :meth:`~repro.crawl.supervisor.CrawlSupervisor.metrics_state` runs;
- **checkpoint**: a version-4 supervisor checkpoint is assembled from
  the merged parts -- loadable by a serial
  :class:`~repro.crawl.supervisor.CrawlSupervisor` to extend the crawl,
  and byte-identical to the final checkpoint the serial run writes;
- **canonical files**: ``crawl.trace.jsonl`` / ``crawl.ledger.jsonl`` /
  ``crawl.metrics.json`` / ``crawl.records.json`` next to the
  checkpoint, each in the byte-stable form the oracle tests diff
  against a serial run;
- **result**: the merged :class:`~repro.crawl.crawler.CrawlResult` is
  parsed from the record text on first read, since the CLI and a
  sharded pass that only writes files never read it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.crawl.checkpoint import (
    EncodedArray,
    checkpoint_payload,
    read_checkpoint,
    write_checkpoint,
)
from repro.crawl.crawler import CrawlResult
from repro.crawl.supervisor import SupervisorStats
from repro.crawl.visit import VisitRecord
from repro.obs.export import canonical_json, lines_to_jsonl, span_to_json
from repro.obs.merge import (
    MergeError,
    merge_ledger_entries,
    merge_spans,
    shard_durations,
)
from repro.obs.metrics import crawl_metrics
from repro.shard.plan import ShardPlan
from repro.shard.state import (
    fault_log_from_spans,
    fold_fault_log,
    fresh_browser_states,
    observed_triggers,
    place_recycles,
)
from repro.shard.worker import ShardRunSpec, shard_checkpoint

#: Counters summed across shards.  Each shard reconciles ``visits`` and
#: ``reached`` from its own records at crawl end, so their sums count the
#: merged records; ``failed`` and ``resumed`` follow from them.
_SUMMED_STATS = (
    "visits",
    "reached",
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
    path.write_text(canonical_json(payload) + "\n")
    return path


def _exact_sum(values: Sequence[float]) -> float:
    # A left fold, exactly like the serial clock's advance sequence; the
    # dyadic grid makes it exact, so the order spelled out here is
    # documentation more than necessity.
    total = 0.0
    for value in values:
        total += value
    return total


def _read_shards(
    out_dir: Path, plan: ShardPlan
) -> Tuple[List[Dict[str, Any]], str]:
    """Every shard checkpoint's values but its records, and the shards'
    record texts joined: the merged record array between its brackets."""
    heads = []
    record_texts = []
    for shard in plan.shards:
        path = shard_checkpoint(out_dir, shard.index)
        if not path.exists():
            raise MergeError(
                f"shard {shard.index}: no checkpoint at {path}; "
                "merge requires a fully-executed plan"
            )
        try:
            head, records_text = read_checkpoint(path)
        except ValueError as error:
            raise MergeError(f"shard {shard.index}: {error}") from None
        heads.append(head)
        if records_text != "[]":
            record_texts.append(records_text[1:-1])
    return heads, ",".join(record_texts)


def merge_shards(
    out_dir: Union[str, Path],
    plan: ShardPlan,
    spec: ShardRunSpec,
) -> "MergedCrawl":
    """Merge every shard's checkpoint into serial-identical artifacts.

    The fold of the shards' fault logs, read off their checkpointed
    traces, places each shard's fault-budget recycles; its exit states
    are what the serial supervisor's browsers would hold at crawl end.
    """
    out_dir = Path(out_dir)
    heads, records_text = _read_shards(out_dir, plan)

    shard_spans = [head["trace"]["spans"] for head in heads]
    budget = spec.config.recycle_after_faults
    browser_states = fresh_browser_states(spec.instances)
    for head, spans in zip(heads, shard_spans):
        log = fault_log_from_spans(spans)
        browser_states, triggers = fold_fault_log(
            browser_states, log, budget, spec.recycling
        )
        recorded = observed_triggers(log)
        if triggers != recorded:
            place_recycles(spans, triggers, budget)
            head["stats"]["recycles"] += len(triggers) - len(recorded)
    durations = shard_durations(shard_spans)
    merged_spans = merge_spans(shard_spans)
    span_texts = [span_to_json(span) for span in merged_spans]
    clock_ms = _exact_sum(durations)

    stats = SupervisorStats()
    for head in heads:
        for name in _SUMMED_STATS:
            setattr(stats, name, getattr(stats, name) + int(head["stats"][name]))
    stats.failed = stats.visits - stats.reached
    stats.resumed = 0

    ledger_state: Optional[Dict[str, Any]] = None
    entry_texts: List[str] = []
    if spec.ledger:
        entries = merge_ledger_entries(
            [head["ledger"]["entries"] for head in heads], durations
        )
        entry_texts = [canonical_json(entry) for entry in entries]
        ledger_state = {
            "next_id": len(entries) + 1,
            "scopes": [],
            "probe_sizes": [
                size for head in heads for size in head["ledger"]["probe_sizes"]
            ],
            "entries": entries,
        }
    records = EncodedArray([records_text])
    checkpoint_path = out_dir / "crawl.ckpt.json"
    # The serial supervisor's layout and encoding, so the two checkpoint
    # files are byte-comparable.  Every item is spliced as the text the
    # exports below write.
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
                "spans": EncodedArray([",".join(span_texts)]),
            },
            ledger=None
            if ledger_state is None
            else dict(ledger_state, entries=EncodedArray([",".join(entry_texts)])),
            records=records,
            records_sha256=records.sha256(),
        ),
    )

    trace_path = out_dir / "crawl.trace.jsonl"
    trace_path.write_text(lines_to_jsonl(span_texts))
    metrics_path = write_canonical_json(
        out_dir / "crawl.metrics.json", crawl_metrics(merged_spans, ledger_state)
    )
    records_path = out_dir / "crawl.records.json"
    records_path.write_text(f"[{records_text}]\n")
    ledger_path: Optional[Path] = None
    if ledger_state is not None:
        ledger_path = out_dir / "crawl.ledger.jsonl"
        ledger_path.write_text(lines_to_jsonl(entry_texts))

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
        records_text=records_text,
    )


@dataclass
class MergedCrawl:
    """The merged crawl: stats, artifact locations, and the result."""

    stats: SupervisorStats
    clock_ms: float
    artifacts: MergedArtifacts
    crawler_name: str
    #: The merged record array's text between its brackets: the shards'
    #: record texts, joined.
    records_text: str = field(repr=False)

    @cached_property
    def result(self) -> CrawlResult:
        """The merged :class:`CrawlResult`, parsed on first read."""
        return CrawlResult(
            crawler_name=self.crawler_name,
            records=[
                VisitRecord.from_dict(data)
                for data in json.loads(f"[{self.records_text}]")
            ],
        )
