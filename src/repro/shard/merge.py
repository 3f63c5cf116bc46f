"""Folding per-shard checkpoints into serial-identical output.

The merge is a fold over the shards in plan order and a pure function
of the per-shard supervisor checkpoints, which carry each shard's
records, trace, stats, and optional ledger.  The executor
(:mod:`repro.shard.executor`) hands each shard to
:meth:`ShardMerge.fold_shard` as soon as that shard and every shard
before it are on disk, and calls :meth:`ShardMerge.finish` after the
last.  The merge reads only ``shard-*`` files and writes only
``crawl.*`` files.  Between two shards it carries little: the browser
states of the fault-log fold, the splice's id bases and clock offset
(:class:`~repro.obs.merge.Splice`), summed stats and event counts, and
the texts the output files are made of.  A shard's decoded values are
dropped once it is folded.

For each shard, :meth:`~ShardMerge.fold_shard`:

- reads the checkpoint once, by
  :func:`~repro.crawl.checkpoint.read_checkpoint`, which decodes all of
  it but the record array.  A version-4 checkpoint holds every record,
  span and ledger entry as the text its export file uses, so no record
  is parsed and no item is encoded twice;
- **recycles**: shards run from fresh browser states, so the fold reads
  the shard's fault log off its checkpointed trace, folds it onto the
  browser states the preceding shards left and, where the shard's
  recorded budget triggers differ from the fold's, moves the recycle
  trace events and ``stats.recycles`` in memory, before the splice.
  Merging twice gives the same bytes;
- **spans**: rebased by the splice, then each encoded once, as its
  ``crawl.trace.jsonl`` line; the lines are joined by newlines for the
  trace and by ``,`` for the checkpoint;
- **ledger**: entries rebased by the splice, then each encoded once for
  both the checkpoint and ``crawl.ledger.jsonl``; probe-scope sizes
  concatenate in shard order;
- **metrics**: the rebased spans' events and entries are counted by
  :class:`~repro.obs.metrics.CrawlCounts`, the rule of
  :func:`~repro.obs.metrics.crawl_metrics`, which the serial
  supervisor's
  :meth:`~repro.crawl.supervisor.CrawlSupervisor.metrics_state` runs;
- **stats**: counters sum; ``visits`` and ``reached`` too, because each
  shard reconciles them from its own records at crawl end;
- **records**: shards are contiguous population blocks, so plain
  concatenation in shard order *is* the serial visit order.  Records
  carry no id or time the merge rebases, so the shards' record texts,
  joined by ``,``, are the merged checkpoint's record array and, in
  brackets, ``crawl.records.json``.  Each shard's record array is
  located and checked against its ``records_sha256``, never decoded.

:meth:`~ShardMerge.finish` encodes the root span, ended at the total
duration, and writes ``crawl.trace.jsonl``, ``crawl.metrics.json``,
``crawl.records.json``, ``crawl.ledger.jsonl`` and ``crawl.ckpt.json``,
each in the byte-stable form the oracle tests diff against a serial
run.  The checkpoint is a version-4 supervisor checkpoint: loadable by
a serial :class:`~repro.crawl.supervisor.CrawlSupervisor` to extend the
crawl, and byte-identical to the final checkpoint the serial run
writes.  The files go through
:func:`~repro.crawl.checkpoint.write_atomically`: each is written to a
``.tmp`` sibling, a part at a time, and all are moved into place once
all are written; on any exception the tmp files are removed.

The merged :class:`~repro.crawl.crawler.CrawlResult` is parsed from the
record texts on first read, since the CLI and a sharded pass that only
writes files never read it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.crawl.checkpoint import (
    EncodedArray,
    checkpoint_payload,
    dump_parts,
    read_checkpoint,
    write_atomically,
)
from repro.crawl.crawler import CrawlResult
from repro.crawl.supervisor import SupervisorStats
from repro.crawl.visit import VisitRecord
from repro.obs.export import canonical_json, jsonl_parts, span_to_json
from repro.obs.merge import MergeError, Splice, merged_root, shard_duration
from repro.obs.metrics import CrawlCounts
from repro.obs.span import SpanDict
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
#: merged records; ``failed`` follows from them, and ``resumed`` stays 0,
#: as in an uninterrupted serial crawl.
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


def _separated(texts: Sequence[str], separator: str) -> List[str]:
    """``texts`` with ``separator`` between each two: the parts of
    ``separator.join(texts)``, which is never built."""
    parts = [separator] * (2 * len(texts) - 1)
    parts[::2] = texts
    return parts


class ShardMerge:
    """The merge of one plan's shards, folded one shard at a time.

    :meth:`fold_shard` takes the shards in plan order; :meth:`finish`
    writes the merged files once every shard is folded.
    """

    def __init__(
        self, out_dir: Union[str, Path], plan: ShardPlan, spec: ShardRunSpec
    ) -> None:
        self.out_dir = Path(out_dir)
        self.plan = plan
        self.spec = spec
        self._folded = 0
        self._browsers = fresh_browser_states(spec.instances)
        self._splice = Splice()
        self._counts = CrawlCounts()
        self._stats = SupervisorStats()
        self._root: Optional[SpanDict] = None
        self._span_texts: List[str] = []
        self._entry_texts: List[str] = []
        self._probe_sizes: List[int] = []
        #: Each shard's record array text between its brackets.
        self._record_texts: List[str] = []

    def fold_shard(self, index: int) -> None:
        """Fold shard ``index``, the next in plan order, from its
        checkpoint.

        The fold of the shards' fault logs places the shard's
        fault-budget recycles; its exit states are what the serial
        supervisor's browsers would hold after the shard.
        """
        if index != self._folded:
            raise MergeError(
                f"shard {index}: folded out of plan order "
                f"(shard {self._folded} is next)"
            )
        path = shard_checkpoint(self.out_dir, index)
        if not path.exists():
            raise MergeError(
                f"shard {index}: no checkpoint at {path}; "
                "merge requires a fully-executed plan"
            )
        try:
            head, records_text = read_checkpoint(path)
        except ValueError as error:
            raise MergeError(f"shard {index}: {error}") from None
        spans = head["trace"]["spans"]
        duration = shard_duration(index, spans)
        stats = head["stats"]
        budget = self.spec.config.recycle_after_faults
        log = fault_log_from_spans(spans)
        self._browsers, triggers = fold_fault_log(
            self._browsers, log, budget, self.spec.recycling
        )
        recorded = observed_triggers(log)
        if triggers != recorded:
            place_recycles(spans, triggers, budget)
            stats["recycles"] += len(triggers) - len(recorded)
        for name in _SUMMED_STATS:
            setattr(self._stats, name, getattr(self._stats, name) + int(stats[name]))

        if index == 0:
            self._root = spans[0]
        rebased = self._splice.spans(spans)
        self._counts.count_spans(rebased)
        self._span_texts += [span_to_json(span) for span in rebased]
        if self.spec.ledger:
            ledger = head["ledger"]
            entries = self._splice.entries(ledger["entries"])
            self._counts.count_entries(entries)
            self._entry_texts += [canonical_json(entry) for entry in entries]
            self._probe_sizes += ledger["probe_sizes"]
        self._splice.advance(duration)

        if records_text != "[]":
            self._record_texts.append(records_text[1:-1])
        self._folded += 1

    def finish(self) -> "MergedCrawl":
        """Write the merged ``crawl.*`` files from the folded shards."""
        if self._root is None or self._folded != len(self.plan):
            raise MergeError(
                f"{self._folded} of {len(self.plan)} shards folded; "
                "merge requires a fully-executed plan"
            )
        spec = self.spec
        clock_ms = self._splice.offset_ms
        root = merged_root(self._root, clock_ms)
        self._counts.count_spans([root])
        span_texts = [span_to_json(root), *self._span_texts]
        stats = self._stats
        stats.failed = stats.visits - stats.reached

        ledger: Optional[Dict[str, Any]] = None
        if spec.ledger:
            ledger = {
                "next_id": len(self._entry_texts) + 1,
                "scopes": [],
                "probe_sizes": self._probe_sizes,
                "entries": EncodedArray(_separated(self._entry_texts, ",")),
            }
        records = EncodedArray(_separated(self._record_texts, ","))
        # The serial supervisor's layout and encoding, so the two
        # checkpoint files are byte-comparable.  Every item is spliced as
        # the text the other files hold.
        payload = checkpoint_payload(
            crawler_name=spec.crawler_name,
            seed=spec.seed,
            instances=spec.instances,
            clock_ms=clock_ms,
            stats=asdict(stats),
            browsers=[dict(state) for state in self._browsers],
            trace={
                "next_id": len(span_texts) + 1,
                "open": [],
                "spans": EncodedArray(_separated(span_texts, ",")),
            },
            ledger=ledger,
            records=records,
            records_sha256=records.sha256(),
        )
        metrics = self._counts.metrics(self._probe_sizes if spec.ledger else None)

        out_dir = self.out_dir
        artifacts = MergedArtifacts(
            checkpoint=out_dir / "crawl.ckpt.json",
            trace=out_dir / "crawl.trace.jsonl",
            metrics=out_dir / "crawl.metrics.json",
            records=out_dir / "crawl.records.json",
            ledger=out_dir / "crawl.ledger.jsonl" if spec.ledger else None,
        )
        files: List[Tuple[Path, Iterable[str]]] = [
            (artifacts.trace, jsonl_parts(span_texts)),
            (artifacts.metrics, [canonical_json(metrics), "\n"]),
            (artifacts.records, ["[", *records.texts, "]\n"]),
        ]
        if artifacts.ledger is not None:
            files.append((artifacts.ledger, jsonl_parts(self._entry_texts)))
        files.append((artifacts.checkpoint, dump_parts(payload)))
        write_atomically(files)

        return MergedCrawl(
            stats=stats,
            clock_ms=clock_ms,
            artifacts=artifacts,
            crawler_name=spec.crawler_name,
            record_texts=self._record_texts,
        )


@dataclass
class MergedCrawl:
    """The merged crawl: stats, artifact locations, and the result."""

    stats: SupervisorStats
    clock_ms: float
    artifacts: MergedArtifacts
    crawler_name: str
    #: Each shard's record array text between its brackets, in plan
    #: order: joined by ``,``, the merged record array's.
    record_texts: List[str] = field(repr=False)

    @cached_property
    def result(self) -> CrawlResult:
        """The merged :class:`CrawlResult`, parsed on first read."""
        return CrawlResult(
            crawler_name=self.crawler_name,
            records=[
                VisitRecord.from_dict(data)
                for text in self.record_texts
                for data in json.loads(f"[{text}]")
            ],
        )
