"""repro.shard: deterministic planner, run-once executor, byte-exact merge.

The oracle tests here are the subsystem's acceptance criteria: a sharded
crawl's merged artifacts -- checkpoint, trace, metrics, records, probe
ledger -- must be byte-identical to a serial same-seed run, for multiple
worker counts and shard sizes, and under interrupt-then-resume at every
shard boundary.
"""

import hashlib
import json
import os
import shutil
from dataclasses import replace
from multiprocessing import Pool

import numpy as np
import pytest

from repro.crawl import (
    PopulationConfig,
    SupervisorConfig,
    generate_population,
)
from repro.crawl.checkpoint import dump_parts, read_checkpoint, tmp_sibling
from repro.crawl.visit import VisitRecord
from repro.faults import DELAY_GRID_MS, BackoffPolicy, FaultPlan
from repro.obs.merge import MergeError, merge_spans
from repro.shard import (
    FaultLogEntry,
    ManifestError,
    ShardRunSpec,
    ShardTask,
    build_supervisor,
    fault_log_from_spans,
    fold_fault_log,
    fresh_browser_states,
    observed_triggers,
    plan_shards,
    population_digest,
    run_shard,
    run_sharded_crawl,
    shard_checkpoint,
)
from repro.shard.cli import main as shard_main
from repro.shard.executor import _usable_cpus
from repro.shard.worker import WATCHDOGS_NONE


def small_population(n=32, seed=3):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=seed,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=1,
            n_other_signal_ad_detectors=1,
            n_side_effect_blockers=1,
            n_http_only_detectors=3,
        )
    )


def make_config():
    # A tight recycle budget so faults recycle browsers *across* shard
    # boundaries: the hard case merge-time recycle placement exists for.
    return SupervisorConfig(recycle_after_faults=2, checkpoint_every_sites=3)


def make_spec(watchdogs="default"):
    return ShardRunSpec(
        crawler_name="supervised",
        seed=7,
        instances=3,
        with_extension=True,
        config=make_config(),
        fault_plan=FaultPlan.generate(POPULATION, 3, rate=0.3, seed=11),
        ledger=True,
        watchdogs=watchdogs,
    )


POPULATION = small_population()


def run_serial(spec, out_dir):
    """The serial oracle: one supervisor, same crawl, canonical exports."""
    out_dir.mkdir(parents=True, exist_ok=True)
    supervisor = build_supervisor(spec)
    result = supervisor.crawl(
        POPULATION,
        checkpoint_path=out_dir / "crawl.ckpt.json",
        trace_path=out_dir / "crawl.trace.jsonl",
        ledger_path=out_dir / "crawl.ledger.jsonl" if spec.ledger else None,
    )
    canonical = dict(sort_keys=True, separators=(",", ":"))
    (out_dir / "crawl.metrics.json").write_text(
        json.dumps(supervisor.metrics_state(), **canonical) + "\n"
    )
    (out_dir / "crawl.records.json").write_text(
        json.dumps([r.to_dict() for r in result.records], **canonical) + "\n"
    )
    return result


ARTIFACTS = (
    "crawl.ckpt.json",
    "crawl.trace.jsonl",
    "crawl.metrics.json",
    "crawl.records.json",
    "crawl.ledger.jsonl",
)


def assert_identical_dirs(dir_a, dir_b, artifacts=ARTIFACTS):
    for name in artifacts:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (
            f"{name} diverges between {dir_a} and {dir_b}"
        )


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    run_serial(make_spec(), out)
    return out


class TestPlanner:
    def test_contiguous_blocks_cover_population(self):
        plan = plan_shards(POPULATION, 7, seed=7)
        assert [shard.start for shard in plan.shards] == [0, 7, 14, 21, 28]
        flattened = [site for shard in plan.shards for site in shard.sites]
        assert flattened == list(POPULATION)

    def test_plan_is_independent_of_anything_but_inputs(self):
        first = plan_shards(POPULATION, 7, seed=7)
        second = plan_shards(list(POPULATION), 7, seed=7)
        assert first.digest == second.digest
        assert [s.shard_id for s in first.shards] == [
            s.shard_id for s in second.shards
        ]

    def test_seed_and_size_and_content_move_the_digest(self):
        base = plan_shards(POPULATION, 7, seed=7)
        assert plan_shards(POPULATION, 7, seed=8).digest != base.digest
        assert plan_shards(POPULATION, 8, seed=7).digest != base.digest
        assert (
            plan_shards(POPULATION[:-1], 7, seed=7).digest != base.digest
        )

    def test_population_digest_is_content_addressed(self):
        assert population_digest(POPULATION) == population_digest(
            list(POPULATION)
        )
        assert population_digest(POPULATION) != population_digest(
            POPULATION[::-1]
        )

    def test_rejects_nonpositive_shard_size(self):
        with pytest.raises(ValueError):
            plan_shards(POPULATION, 0, seed=7)


class TestBackoffGrid:
    def test_jittered_delays_land_on_the_dyadic_grid(self):
        policy = BackoffPolicy()
        for attempt in range(4):
            for draw in range(20):
                rng = np.random.default_rng([7, 0x52, attempt, draw])
                delay = policy.delay_ms(attempt, rng=rng)
                # Exactly representable: an integer number of grid steps.
                steps = delay / DELAY_GRID_MS
                assert steps == int(steps)

    def test_quantisation_stays_inside_the_jitter_envelope(self):
        policy = BackoffPolicy()
        for attempt in range(4):
            base = policy.delay_ms(attempt)  # un-jittered, exact
            rng = np.random.default_rng([7, 0x52, attempt])
            delay = policy.delay_ms(attempt, rng=rng)
            slack = policy.jitter * base + DELAY_GRID_MS
            assert base - slack <= delay <= base + slack


class TestFaultLogFold:
    def test_fatal_faults_recycle_immediately(self):
        log = [FaultLogEntry(0, True, False), FaultLogEntry(0, True, False)]
        exits, triggers = fold_fault_log(
            fresh_browser_states(2), log, recycle_after_faults=2
        )
        assert exits[0] == {"fault_count": 0, "recycles": 2}
        assert triggers == []

    def test_budget_triggers_at_threshold_and_resets(self):
        log = [FaultLogEntry(1, False, False)] * 5
        exits, triggers = fold_fault_log(
            fresh_browser_states(2), log, recycle_after_faults=2
        )
        assert triggers == [1, 3]
        assert exits[1] == {"fault_count": 1, "recycles": 2}

    def test_entry_state_moves_the_trigger_positions(self):
        log = [FaultLogEntry(0, False, False)] * 3
        _, cold = fold_fault_log(
            fresh_browser_states(1), log, recycle_after_faults=2
        )
        _, warm = fold_fault_log(
            [{"fault_count": 1, "recycles": 0}], log, recycle_after_faults=2
        )
        assert cold == [1]
        assert warm == [0, 2]

    def test_recycling_off_is_inert(self):
        log = [FaultLogEntry(0, False, True), FaultLogEntry(0, True, False)]
        entry = [{"fault_count": 1, "recycles": 4}]
        exits, triggers = fold_fault_log(
            entry, log, recycle_after_faults=2, recycling=False
        )
        assert exits == entry and exits is not entry
        assert triggers == []

    def test_observed_triggers_reads_the_flags(self):
        log = [
            FaultLogEntry(0, False, False),
            FaultLogEntry(0, False, True),
            FaultLogEntry(1, False, True),
        ]
        assert observed_triggers(log) == [1, 2]


#: What one fault-budget recycle leaves in the trace, in emission order,
#: right after its fault's ``bus.fault_observed`` event.
RECYCLE_GROUP = (
    "watchdog.recycle.recycle_requested",
    "bus.browser_recycle_requested",
    "browser.recycle",
    "bus.browser_recycled",
)
RECYCLE_COUNTERS = frozenset(
    {
        "watchdog.recycle.recycle_requested",
        "bus.events.browser_recycle_requested",
        "recycles",
        "bus.events.browser_recycled",
    }
)


def strip_recycle_groups(spans, budget):
    """The trace as dicts without its fault-budget recycle groups, each
    shape-checked on the way out, plus how many groups were stripped."""
    stripped, groups = [], 0
    for span in spans:
        data = dict(span)
        events, kept, index = data["events"], [], 0
        while index < len(events):
            group = events[index:index + len(RECYCLE_GROUP)]
            if group[0]["name"] != RECYCLE_GROUP[0]:
                kept.append(events[index])
                index += 1
                continue
            anchor = kept[-1]
            browser = group[0]["attrs"]["browser"]
            assert anchor["name"] == "bus.fault_observed"
            assert [event["name"] for event in group] == list(RECYCLE_GROUP)
            assert all(event["ts_ms"] == anchor["ts_ms"] for event in group)
            assert [event["attrs"] for event in group] == [
                {"browser": browser, "fault_count": budget},
                {},
                {"browser": browser, "reason": "fault-budget"},
                {},
            ]
            groups += 1
            index += len(RECYCLE_GROUP)
        data["events"] = kept
        stripped.append(data)
    return stripped, groups


def crawl_with_budget(budget, out_dir):
    """A serial crawl of the oracle spec at one recycle budget: everything
    recycle placement must not move, plus how many budget recycles fired."""
    spec = make_spec()
    spec = replace(
        spec, config=replace(spec.config, recycle_after_faults=budget)
    )
    supervisor = build_supervisor(spec)
    result = supervisor.crawl(POPULATION, ledger_path=out_dir / "ledger.jsonl")
    metrics = supervisor.metrics_state()
    trace, groups = strip_recycle_groups(supervisor.tracer.spans, budget)
    observed = {
        "records": [record.to_dict() for record in result.records],
        "clock_ms": supervisor.clock.now(),
        "ledger": (out_dir / "ledger.jsonl").read_bytes(),
        "histograms": metrics["histograms"],
        "counters": {
            name: value
            for name, value in metrics["counters"].items()
            if name not in RECYCLE_COUNTERS
        },
        "trace": trace,
    }
    return observed, groups


class TestRecyclePlacement:
    """Where the fault budget fires is bookkeeping only.

    Moving recycles -- here by changing the budget -- changes the four
    recycle trace events, the recycle counters and the browser states,
    never the records, the clock, the ledger or the histograms.  That is
    what lets the shard merge move recycles instead of re-running shards.
    """

    @pytest.fixture(scope="class")
    def never_recycled(self, tmp_path_factory):
        observed, groups = crawl_with_budget(
            10**6, tmp_path_factory.mktemp("never")
        )
        assert groups == 0
        return observed

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_only_recycle_bookkeeping_moves(
        self, tmp_path, never_recycled, budget
    ):
        observed, groups = crawl_with_budget(budget, tmp_path)
        assert groups > 0
        assert observed == never_recycled


def _span(span_id, parent, name, start, end):
    """A closed span, as the merge reads it."""
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start_ms": float(start),
        "end_ms": None if end is None else float(end),
        "status": "ok",
        "attrs": {},
        "events": [],
    }


class TestSpanMerge:
    def test_renumbers_and_rebases_across_shards(self):
        shard0 = [
            _span(1, 0, "crawl", 0, 100),
            _span(2, 1, "visit", 10, 40),
        ]
        shard1 = [
            _span(1, 0, "crawl", 0, 50),
            _span(2, 1, "visit", 5, 30),
            _span(3, 2, "attempt", 6, 20),
        ]
        merged = merge_spans([shard0, shard1])
        assert [(s["span_id"], s["parent_id"], s["name"]) for s in merged] == [
            (1, 0, "crawl"),
            (2, 1, "visit"),
            (3, 1, "visit"),
            (4, 3, "attempt"),
        ]
        assert merged[0]["end_ms"] == 150.0
        assert merged[2]["start_ms"] == 105.0
        assert merged[3]["start_ms"] == 106.0

    def test_inputs_are_not_mutated(self):
        shard0 = [_span(1, 0, "crawl", 0, 100), _span(2, 1, "visit", 1, 2)]
        shard1 = [_span(1, 0, "crawl", 0, 50), _span(2, 1, "visit", 3, 4)]
        merge_spans([shard0, shard1])
        assert shard1[1]["span_id"] == 2 and shard1[1]["start_ms"] == 3.0

    def test_rejects_open_or_missing_roots(self):
        open_root = _span(1, 0, "crawl", 0, None)
        with pytest.raises(MergeError):
            merge_spans([[open_root]])
        with pytest.raises(MergeError):
            merge_spans([[]])
        with pytest.raises(MergeError):
            merge_spans(
                [[_span(1, 0, "crawl", 0, 9), _span(2, 0, "crawl", 1, 2)]]
            )
        with pytest.raises(MergeError):
            merge_spans([[_span(1, 0, "crawl", 5, 9)]])


def run_sharded(out_dir, *, shard_size=7, jobs=1, watchdogs="default",
                max_shards=None, ledger=True):
    spec = make_spec(watchdogs)
    return run_sharded_crawl(
        POPULATION,
        out_dir=out_dir,
        crawler_name=spec.crawler_name,
        seed=spec.seed,
        instances=spec.instances,
        with_extension=spec.with_extension,
        config=spec.config,
        fault_plan=spec.fault_plan,
        ledger=ledger,
        watchdogs=watchdogs,
        shard_size=shard_size,
        jobs=jobs,
        max_shards=max_shards,
    )


def corrected_shards(out_dir, plan, spec):
    """Shards whose recorded fault-budget triggers differ from the serial
    fold: the ones the merge moves recycles in."""
    entry, corrected = fresh_browser_states(spec.instances), []
    for shard in plan.shards:
        head, _ = read_checkpoint(shard_checkpoint(out_dir, shard.index))
        log = fault_log_from_spans(head["trace"]["spans"])
        entry, triggers = fold_fault_log(
            entry, log, spec.config.recycle_after_faults
        )
        if triggers != observed_triggers(log):
            corrected.append(shard.index)
    return corrected


class TestShardedOracle:
    """Merged sharded output is byte-identical to the serial run."""

    def test_single_job_matches_serial(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        assert outcome.complete
        assert outcome.shards_run == len(outcome.plan)
        # The merge actually moved recycles: cross-shard recycle pressure
        # leaves at least one shard's recorded triggers off the fold.
        assert corrected_shards(tmp_path / "sharded", outcome.plan, make_spec())
        assert_identical_dirs(tmp_path / "sharded", serial_dir)

    def test_two_jobs_match_serial(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", jobs=2)
        assert outcome.complete
        assert outcome.shards_run == len(outcome.plan)
        assert_identical_dirs(tmp_path / "sharded", serial_dir)

    def test_shard_size_does_not_change_the_bytes(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", shard_size=5, jobs=2)
        assert outcome.complete
        assert outcome.shards_run == len(outcome.plan)
        assert_identical_dirs(tmp_path / "sharded", serial_dir)

    def test_watchdogs_none_ablation_matches_its_serial(self, tmp_path):
        serial = tmp_path / "serial"
        run_serial(make_spec(WATCHDOGS_NONE), serial)
        outcome = run_sharded(
            tmp_path / "sharded", jobs=2, watchdogs=WATCHDOGS_NONE
        )
        assert outcome.complete
        assert outcome.shards_run == len(outcome.plan)
        assert outcome.stats.recycles == 0
        assert_identical_dirs(tmp_path / "sharded", serial)

    def test_merged_stats_match_the_records(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        stats = outcome.stats
        assert stats.visits == len(outcome.result.records)
        assert stats.reached == len(outcome.result.successful_visits)
        assert stats.failed == len(outcome.result.failed_visits)
        assert stats.resumed == 0

    def test_merged_checkpoint_resumes_a_serial_supervisor(
        self, tmp_path, serial_dir
    ):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        supervisor = build_supervisor(make_spec())
        resumed = supervisor.crawl(
            POPULATION, checkpoint_path=outcome.artifacts.checkpoint
        )
        assert supervisor.stats.resumed == len(POPULATION) * 3
        assert json.dumps([r.to_dict() for r in resumed.records]) == (
            json.dumps([r.to_dict() for r in outcome.result.records])
        )

    def test_no_ledger_matches_its_serial(self, tmp_path):
        # The layout the benchmark and the default CLI run write.
        serial = tmp_path / "serial"
        run_serial(replace(make_spec(), ledger=False), serial)
        out = tmp_path / "sharded"
        outcome = run_sharded(out, jobs=2, ledger=False)
        assert outcome.complete
        assert outcome.artifacts.ledger is None
        assert list(json.loads((out / "crawl.ckpt.json").read_text()))[-1] == (
            "records"
        )
        assert_identical_dirs(out, serial, ARTIFACTS[:4])


class TestLazyResult:
    """The merge builds the merged ``CrawlResult`` only when it is read,
    and never decodes a record array."""

    def test_merge_builds_no_visit_record(self, tmp_path, monkeypatch):
        built = []
        from_dict = VisitRecord.from_dict.__func__

        def counting(cls, data):
            built.append(data)
            return from_dict(cls, data)

        decoded = []
        raw_decode = json.JSONDecoder.raw_decode

        def decoding(self, text, *args, **kwargs):
            value, end = raw_decode(self, text, *args, **kwargs)
            decoded.append(value)
            return value, end

        def is_record_array(value):
            return (
                isinstance(value, list)
                and bool(value)
                and isinstance(value[0], dict)
                and "visit_index" in value[0]
            )

        monkeypatch.setattr(VisitRecord, "from_dict", classmethod(counting))
        # Every decoder the checkpoint reader and json.loads use.
        monkeypatch.setattr(json.JSONDecoder, "raw_decode", decoding)
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        assert outcome.complete
        assert built == []
        # The shard checkpoints' other values went through the decoder.
        assert any(isinstance(value, dict) and "spans" in value for value in decoded)
        assert not any(is_record_array(value) for value in decoded)
        assert len(outcome.result.records) == len(POPULATION) * 3
        assert len(built) == len(POPULATION) * 3
        assert is_record_array(decoded[-1])

    def test_result_outlives_the_output_directory(self, tmp_path, serial_dir):
        out = tmp_path / "sharded"
        outcome = run_sharded(out, jobs=1)
        shutil.rmtree(out)
        records = [record.to_dict() for record in outcome.result.records]
        canonical = dict(sort_keys=True, separators=(",", ":"))
        assert json.dumps(records, **canonical) + "\n" == (
            serial_dir / "crawl.records.json"
        ).read_text()
        assert outcome.result is outcome.result


def _truncate(text):
    return text[: len(text) // 2]


def _compact(text):
    return json.dumps(json.loads(text), separators=(",", ":"))


def _version_3(text):
    assert text.startswith('{"version": 4, ')
    return text.replace('{"version": 4, ', '{"version": 3, ', 1)


def _split_records(text):
    start = text.rindex('"records": [') + len('"records": [')
    return text[:start], text[start:]


def _invalid_record_byte(text):
    head, records = _split_records(text)
    assert records.startswith("{")
    return head + "(" + records[1:]


def _edited_record(text):
    head, records = _split_records(text)
    edited = records.replace('"reached":true', '"reached":false', 1)
    assert edited != records
    return head + edited


class TestUnreadableShard:
    """A shard checkpoint the merge cannot read, or whose records do not
    match their digest, is a ``MergeError`` that names the shard and its
    file."""

    @pytest.mark.parametrize(
        "rewrite",
        [_truncate, _compact, _version_3, _invalid_record_byte, _edited_record],
    )
    def test_merge_names_the_shard(self, tmp_path, rewrite):
        out = tmp_path / "sharded"
        assert run_sharded(out).complete
        path = shard_checkpoint(out, 1)
        path.write_text(rewrite(path.read_text()))
        with pytest.raises(MergeError) as raised:
            run_sharded(out)
        assert str(raised.value).startswith("shard 1: ")
        assert str(path) in str(raised.value)


def crawl_files(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("crawl.*"))}


class TestFailedMerge:
    """A merge that fails -- on an unreadable shard, or while writing --
    leaves no tmp file, and every ``crawl.*`` file as it was."""

    @pytest.mark.parametrize("rewrite", [_truncate, _edited_record])
    def test_unreadable_shard_changes_no_crawl_file(self, tmp_path, rewrite):
        out = tmp_path / "sharded"
        assert run_sharded(out).complete
        before = crawl_files(out)
        assert sorted(before) == sorted(ARTIFACTS)
        path = shard_checkpoint(out, 1)
        path.write_text(rewrite(path.read_text()))
        with pytest.raises(MergeError):
            run_sharded(out)
        assert list(out.glob("*.tmp")) == []
        assert crawl_files(out) == before

    def test_failed_write_replaces_no_file(self, tmp_path, monkeypatch):
        out = tmp_path / "sharded"
        assert run_sharded(out).complete
        # A stale trace shows whether the merge replaced it: merging the
        # same shards again would write the same bytes.
        (out / "crawl.trace.jsonl").write_text("stale\n")
        before = crawl_files(out)

        def failing_parts(payload):
            # The checkpoint is written last: the other files' tmp
            # siblings are complete, and its own is half written.
            yield from dump_parts(payload)[:3]
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.shard.merge.dump_parts", failing_parts)
        with pytest.raises(OSError, match="no space left"):
            run_sharded(out)
        assert list(out.glob("*.tmp")) == []
        assert crawl_files(out) == before


@pytest.fixture
def shard_calls(monkeypatch):
    """The executor's in-process shard runs and the merge's checkpoint
    reads, as ``("run" | "read", shard index)`` in call order."""
    calls = []

    def running(task):
        calls.append(("run", task.index))
        return run_shard(task)

    def reading(path):
        calls.append(("read", int(path.name[len("shard-"):].split(".")[0])))
        return read_checkpoint(path)

    monkeypatch.setattr("repro.shard.executor.run_shard", running)
    monkeypatch.setattr("repro.shard.merge.read_checkpoint", reading)
    return calls


class TestStreamingMerge:
    """The merge folds each shard as soon as it and every shard before it
    are on disk, reading each shard checkpoint once."""

    def test_single_job_alternates_run_and_read(self, tmp_path, shard_calls):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        assert outcome.complete
        assert shard_calls == [
            (kind, index)
            for index in range(len(outcome.plan))
            for kind in ("run", "read")
        ]

    def test_pool_run_reads_each_shard_once_in_plan_order(
        self, tmp_path, monkeypatch, serial_dir
    ):
        reads = []

        def reading(path):
            reads.append(path.name)
            return read_checkpoint(path)

        monkeypatch.setattr("repro.shard.merge.read_checkpoint", reading)
        out = tmp_path / "sharded"
        outcome = run_sharded(out, jobs=2)
        assert outcome.complete
        assert reads == [
            shard_checkpoint(out, shard.index).name for shard in outcome.plan.shards
        ]
        assert_identical_dirs(out, serial_dir)

    def test_resume_folds_recorded_shards_before_running_the_rest(
        self, tmp_path, shard_calls, serial_dir
    ):
        out = tmp_path / "sharded"
        assert not run_sharded(out, max_shards=2).complete
        # A run stopped by max_shards merges nothing.
        assert shard_calls == [("run", 0), ("run", 1)]
        shard_calls.clear()
        resumed = run_sharded(out)
        assert resumed.shards_run == len(resumed.plan) - 2
        assert shard_calls == [("read", 0), ("read", 1)] + [
            (kind, index)
            for index in range(2, len(resumed.plan))
            for kind in ("run", "read")
        ]
        assert_identical_dirs(out, serial_dir)


def _run_shard_failing_on_3(task):
    """``run_shard``, except that shard 3 fails part-way through its
    checkpoint write and leaves the write's tmp file.  Module-level, so
    a pool can pickle it."""
    if task.index == 3:
        tmp_sibling(shard_checkpoint(task.out_dir, task.index)).write_text(
            '{"version": '
        )
        raise OSError("no space left on device")
    return run_shard(task)


class TestInterruptResume:
    def test_resume_at_every_shard_boundary_is_byte_identical(
        self, tmp_path, serial_dir
    ):
        plan_len = len(plan_shards(POPULATION, 7, seed=7))
        assert plan_len == 5
        for cut in range(1, plan_len):
            out = tmp_path / f"cut{cut}"
            interrupted = run_sharded(out, max_shards=cut)
            assert not interrupted.complete
            assert interrupted.shards_run == cut
            assert interrupted.artifacts is None
            resumed = run_sharded(out)
            assert resumed.complete
            assert resumed.shards_run == plan_len - cut
            assert_identical_dirs(out, serial_dir)

    def test_resume_reuses_recorded_shards(self, tmp_path):
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["shards"]) == ["0", "1"]
        resumed = run_sharded(out)
        assert resumed.complete

    def test_negative_max_shards_is_refused_before_any_write(self, tmp_path):
        out = tmp_path / "sharded"
        with pytest.raises(ValueError, match="max_shards must be at least 0"):
            run_sharded(out, max_shards=-1)
        assert not out.exists()

    def test_rerun_of_a_complete_directory_runs_nothing(self, tmp_path):
        out = tmp_path / "sharded"
        assert run_sharded(out).complete

        def snapshot():
            files = sorted([*out.glob("crawl.*"), *out.glob("shard-*")])
            return {path.name: path.read_bytes() for path in files}

        before = snapshot()
        again = run_sharded(out)
        assert again.complete
        assert again.shards_run == 0
        assert snapshot() == before

    def test_manifest_rejects_a_different_spec(self, tmp_path):
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=1)
        spec = make_spec()
        with pytest.raises(ManifestError):
            run_sharded_crawl(
                POPULATION,
                out_dir=out,
                crawler_name=spec.crawler_name,
                seed=spec.seed + 1,
                instances=spec.instances,
                config=spec.config,
                shard_size=7,
            )

    def test_manifest_rejects_a_different_plan(self, tmp_path):
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=1)
        with pytest.raises(ManifestError):
            run_sharded(out, shard_size=5)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_shard_keeps_the_shards_that_landed(
        self, tmp_path, serial_dir, monkeypatch, jobs
    ):
        out = tmp_path / "sharded"
        # A pool's workers get the function by reference, so they run
        # the replacement too.
        monkeypatch.setattr(
            "repro.shard.executor.run_shard", _run_shard_failing_on_3
        )
        with pytest.raises(OSError, match="no space left"):
            run_sharded(out, jobs=jobs)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["shards"]) == ["0", "1", "2"]
        assert list(out.glob("*.tmp")) == []
        monkeypatch.undo()
        resumed = run_sharded(out, jobs=jobs)
        assert resumed.complete
        assert resumed.shards_run == len(resumed.plan) - 3
        assert_identical_dirs(out, serial_dir)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts the executor asks ``Pool`` for, in call order;
    each pool is a real one of that size."""
    sizes = []

    def recording(processes):
        sizes.append(processes)
        return Pool(processes=processes)

    monkeypatch.setattr("repro.shard.executor.Pool", recording)
    return sizes


class TestPoolSize:
    """The pool starts at most one worker per usable CPU, and ``jobs > 1``
    runs the shards in a pool however few CPUs there are."""

    @pytest.mark.parametrize("jobs, usable, workers", [(4, 2, 2), (2, 1, 1), (2, 8, 2)])
    def test_workers_are_capped_at_the_usable_cpus(
        self, tmp_path, serial_dir, monkeypatch, pool_sizes, jobs, usable, workers
    ):
        monkeypatch.setattr("repro.shard.executor._usable_cpus", lambda: usable)
        out = tmp_path / "sharded"
        outcome = run_sharded(out, jobs=jobs)
        assert outcome.complete
        assert pool_sizes == [workers]
        assert_identical_dirs(out, serial_dir)

    def test_a_one_worker_pool_keeps_its_failure_cleanup(
        self, tmp_path, serial_dir, monkeypatch, pool_sizes
    ):
        monkeypatch.setattr("repro.shard.executor._usable_cpus", lambda: 1)
        monkeypatch.setattr(
            "repro.shard.executor.run_shard", _run_shard_failing_on_3
        )
        out = tmp_path / "sharded"
        with pytest.raises(OSError, match="no space left"):
            run_sharded(out, jobs=2)
        assert pool_sizes == [1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["shards"]) == ["0", "1", "2"]
        assert list(out.glob("*.tmp")) == []
        monkeypatch.undo()
        assert run_sharded(out, jobs=2).complete
        assert_identical_dirs(out, serial_dir)

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert _usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _usable_cpus() == 3


class TestObsDirectorySupport:
    @pytest.fixture(scope="class")
    def sharded_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sharded-obs")
        assert run_sharded(out, jobs=1).complete
        return out

    def test_report_accepts_a_shard_directory(self, sharded_dir, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["report", str(sharded_dir)]) == 0
        from_dir = capsys.readouterr().out
        assert obs_main(["report", str(sharded_dir / "crawl.trace.jsonl")]) == 0
        from_file = capsys.readouterr().out
        assert from_dir == from_file

    def test_diff_shard_dir_against_serial_trace(
        self, sharded_dir, serial_dir, capsys
    ):
        from repro.obs.cli import main as obs_main

        serial_trace = str(serial_dir / "crawl.trace.jsonl")
        code = obs_main(
            ["diff", str(sharded_dir / "crawl.trace.jsonl"), serial_trace]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "identical: yes" in out
        # diff compares files: a directory is an error naming the file.
        assert obs_main(["diff", str(sharded_dir), serial_trace]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(sharded_dir / "crawl.trace.jsonl") in err

    def test_diff_ledger_kind(self, sharded_dir, serial_dir, capsys):
        from repro.obs.cli import main as obs_main

        code = obs_main(
            [
                "diff",
                str(sharded_dir / "crawl.ledger.jsonl"),
                str(serial_dir / "crawl.ledger.jsonl"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "kind: ledger" in out
        assert "identical: yes" in out

    def test_report_rejects_an_empty_directory(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["report", str(tmp_path)]) == 1


class TestShardCli:
    def test_too_few_sites_is_a_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            shard_main(["--out", str(out_dir), "--sites", "40"])
        assert exit_info.value.code == 2
        assert "n_sites=40 is too small for 44 special roles" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-shards", "-1", "--max-shards must be at least 0, got -1"),
            ("--instances", "0", "--instances must be at least 1, got 0"),
            ("--shard-size", "-5", "--shard-size must be at least 1, got -5"),
            ("--fault-rate", "1.5", "--fault-rate must be in [0, 1], got 1.5"),
            ("--fault-rate", "-0.1", "--fault-rate must be in [0, 1], got -0.1"),
        ],
    )
    def test_out_of_range_arguments_are_usage_errors(
        self, tmp_path, capsys, flag, value, message
    ):
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            shard_main(["--out", str(out_dir), "--sites", "60", flag, value])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_verify_exits_zero(self, tmp_path, capsys):
        code = shard_main(
            [
                "--out",
                str(tmp_path / "out"),
                "--sites",
                "60",
                "--instances",
                "2",
                "--shard-size",
                "17",
                "--jobs",
                "2",
                "--fault-rate",
                "0.2",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert '"status": "complete"' in out
        assert "verify ok" in out
        # The directory reads the merged trace, not the serial.trace.jsonl
        # --verify left next to it.
        from repro.obs.cli import main as obs_main

        out_dir = tmp_path / "out"
        assert (out_dir / "serial.trace.jsonl").exists()
        assert obs_main(["report", str(out_dir)]) == 0
        from_dir = capsys.readouterr().out
        assert obs_main(["report", str(out_dir / "crawl.trace.jsonl")]) == 0
        assert from_dir == capsys.readouterr().out

    def test_interrupted_run_reports_resume_hint(self, tmp_path, capsys):
        args = [
            "--out",
            str(tmp_path / "out"),
            "--sites",
            "60",
            "--instances",
            "2",
            "--shard-size",
            "17",
        ]
        assert shard_main(args + ["--max-shards", "1"]) == 0
        out = capsys.readouterr().out
        assert '"status": "interrupted"' in out
        assert (tmp_path / "out" / "manifest.json").exists()
        from repro.obs.cli import main as obs_main

        assert obs_main(["report", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "sharded run incomplete" in err
        assert "re-run python -m repro.shard with the same --out" in err
        assert shard_main(args) == 0
        assert '"status": "complete"' in capsys.readouterr().out


    def test_user_errors_print_without_a_traceback(self, tmp_path, capsys):
        args = [
            "--out",
            str(tmp_path / "out"),
            "--sites",
            "60",
            "--shard-size",
            "17",
            "--max-shards",
            "1",
        ]
        assert shard_main(args + ["--instances", "2"]) == 0
        capsys.readouterr()
        assert shard_main(args + ["--instances", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "different run spec" in captured.err
        assert "Traceback" not in captured.err

    def test_edited_shard_records_fail_the_merge(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["--out", str(out), "--sites", "60", "--instances", "2",
                "--shard-size", "17"]
        assert shard_main(args) == 0
        capsys.readouterr()
        path = shard_checkpoint(out, 1)
        path.write_text(_edited_record(path.read_text()))
        assert shard_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: shard 1: ")
        assert str(path) in captured.err
        assert "Traceback" not in captured.err


class TestShardArtifactLayout:
    def test_per_shard_files_are_zero_padded_plan_order(self, tmp_path):
        # pool workers (jobs=2) write one checkpoint per shard and nothing
        # else under the shard-* prefix
        out = tmp_path / "sharded"
        outcome = run_sharded(out, jobs=2)
        for shard in outcome.plan.shards:
            assert shard_checkpoint(out, shard.index).exists()
        names = sorted(path.name for path in out.glob("shard-*"))
        assert names == [
            f"shard-{i:04d}.ckpt.json" for i in range(len(outcome.plan))
        ]

    def test_worker_writes_only_its_checkpoint(self, tmp_path):
        spec = make_spec()
        shard = plan_shards(POPULATION, 7, seed=spec.seed).shards[1]
        task = ShardTask(
            spec=spec, index=shard.index, sites=shard.sites,
            out_dir=str(tmp_path),
        )
        assert run_shard(task) == 1
        assert [path.name for path in tmp_path.iterdir()] == [
            "shard-0001.ckpt.json"
        ]
        first = json.loads(shard_checkpoint(tmp_path, 1).read_text())
        # A re-run of the same task resumes from that checkpoint: the same
        # crawl state, where only stats.resumed counts the visits it
        # restored, and still the only file.
        assert run_shard(task) == 1
        again = json.loads(shard_checkpoint(tmp_path, 1).read_text())
        assert first["stats"].pop("resumed") == 0
        assert again["stats"].pop("resumed") == len(first["records"])
        assert again == first
        assert [path.name for path in tmp_path.iterdir()] == [
            "shard-0001.ckpt.json"
        ]

    def test_merge_writes_no_shard_file(self, tmp_path):
        out = tmp_path / "sharded"
        spec = make_spec()
        plan = plan_shards(POPULATION, 7, seed=spec.seed)
        assert not run_sharded(out, max_shards=len(plan) - 1).complete
        before = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("shard-*"))
        }
        assert run_sharded(out).complete
        after = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in before
        }
        assert after == before
        checkpoints = [
            shard_checkpoint(out, shard.index).name for shard in plan.shards
        ]
        assert checkpoints == [
            f"shard-{index:04d}.ckpt.json" for index in range(len(plan))
        ]
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ["manifest.json", *checkpoints, *ARTIFACTS]
        )
        # The merge moved recycles in a shard that was already on disk, so
        # a merge that rewrote shard files would have changed a hash.
        hashed = {
            shard.index
            for shard in plan.shards
            if shard_checkpoint(out, shard.index).name in before
        }
        assert hashed & set(corrected_shards(out, plan, spec))
