"""repro.obs bench: benchmark history and the perf regression gate.

The acceptance criterion lives here: ``bench check`` passes on the
committed BENCH values against the committed baseline history, and
exits 1 when a 2x slowdown is injected.
"""

import json
import os
import platform
from pathlib import Path

import pytest

from repro.obs import (
    BenchError,
    append_history,
    baseline_values,
    check_bench_files,
    check_metrics,
    flatten_bench,
    load_bench_values,
    metric_direction,
    read_history,
)
from repro.obs.bench import bench_prefix
from repro.obs.cli import main as obs_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_bench(path, data):
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return path


SAMPLE = {
    "kernel": {
        "speedup": 12.0,
        "scalar_events_per_s": 640_000,
        "target_speedup": 5.0,
        "byte_identical": True,
    },
    "full_lint_s": 2.0,
    "files": 159,
}


class TestFlatten:
    def test_nested_dotted_paths_numbers_only(self):
        flat = flatten_bench(SAMPLE, "hlisa")
        assert flat == {
            "hlisa.kernel.speedup": 12.0,
            "hlisa.kernel.scalar_events_per_s": 640_000.0,
            "hlisa.kernel.target_speedup": 5.0,
            "hlisa.full_lint_s": 2.0,
            "hlisa.files": 159.0,
        }

    def test_bench_prefix(self):
        assert bench_prefix("BENCH_crawl.json") == "crawl"
        assert bench_prefix(Path("/x/BENCH_hlisa.json")) == "hlisa"
        assert bench_prefix("custom.json") == "custom"

    def test_load_bench_values(self, tmp_path):
        path = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        values = load_bench_values([path])
        assert values["hlisa.kernel.speedup"] == 12.0

    def test_load_missing_or_corrupt_file(self, tmp_path):
        with pytest.raises(BenchError):
            load_bench_values([tmp_path / "BENCH_none.json"])
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{nope")
        with pytest.raises(BenchError):
            load_bench_values([bad])


class TestDirections:
    @pytest.mark.parametrize(
        ("metric", "direction"),
        [
            ("hlisa.hlisa_motor.kernel.speedup", "higher"),
            ("hlisa.hlisa_motor.kernel.vectorized_events_per_s", "higher"),
            ("crawl.shard_scaling.wall_ms_per_1k_visits.jobs2", "lower"),
            ("lint.full_lint_s", "lower"),
            ("lint.whole_program_pass_s", "lower"),
            ("hlisa.hlisa_motor.kernel.target_speedup", None),
            ("crawl.shard_scaling.sites", None),
            ("crawl.shard_scaling.shards_run.jobs2", None),
            ("lint.files", None),
            ("lint.budget_ratio", None),
        ],
    )
    def test_name_based_rules(self, metric, direction):
        assert metric_direction(metric) == direction

    def test_every_committed_metric_classifies_without_error(self):
        # The tracked history's baseline rows name every committed metric;
        # most BENCH_*.json files are regenerated, not tracked.
        values = baseline_values(
            read_history(REPO_ROOT / "BENCH_HISTORY.jsonl")
        )
        assert len(values) > 20
        gated = [m for m in values if metric_direction(m) is not None]
        assert gated  # the gate must actually guard something


class TestHistory:
    def test_append_assigns_one_seq_per_batch(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        history = tmp_path / "BENCH_HISTORY.jsonl"
        first = append_history(history, [bench], kind="baseline")
        second = append_history(history, [bench], label="rerun")
        assert {r["seq"] for r in first} == {1}
        assert {r["seq"] for r in second} == {2}
        records = read_history(history)
        assert len(records) == len(first) + len(second)
        assert records[0]["kind"] == "baseline"
        assert records[-1]["label"] == "rerun"
        assert records[0]["source"] == "BENCH_hlisa.json"

    def test_records_carry_host_context(self, tmp_path):
        """Each appended record says which host measured it; records
        appended before the stamp existed still load and still gate."""
        history = tmp_path / "BENCH_HISTORY.jsonl"
        legacy = {
            "kind": "baseline",
            "label": "",
            "metric": "hlisa.full_lint_s",
            "seq": 1,
            "source": "BENCH_hlisa.json",
            "value": 1.5,
        }
        history.write_text(json.dumps(legacy) + "\n")
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        appended = append_history(history, [bench], label="rerun")
        records = read_history(history)
        assert records[0] == legacy
        host = {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        }
        assert [r["host"] for r in records[1:]] == [host] * len(appended)
        assert baseline_values(records) == {"hlisa.full_lint_s": 1.5}

    def test_append_rejects_unknown_kind(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        with pytest.raises(BenchError):
            append_history(tmp_path / "h.jsonl", [bench], kind="golden")

    def test_history_lines_are_canonical_json(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        history = tmp_path / "h.jsonl"
        append_history(history, [bench], kind="baseline")
        for line in history.read_text().splitlines():
            data = json.loads(line)
            assert line == json.dumps(
                data, sort_keys=True, separators=(",", ":")
            )

    def test_missing_history_reads_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_corrupt_history_raises(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"kind": "baseline"}\nnot json\n')
        with pytest.raises(BenchError):
            read_history(path)

    def test_last_baseline_wins(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", dict(SAMPLE))
        history = tmp_path / "h.jsonl"
        append_history(history, [bench], kind="baseline")
        rebased = dict(SAMPLE, full_lint_s=1.5)
        write_bench(bench, rebased)
        append_history(history, [bench], kind="baseline")
        baselines = baseline_values(read_history(history))
        assert baselines["hlisa.full_lint_s"] == 1.5
        # samples never move the baseline
        write_bench(bench, dict(SAMPLE, full_lint_s=9.9))
        append_history(history, [bench], kind="sample")
        baselines = baseline_values(read_history(history))
        assert baselines["hlisa.full_lint_s"] == 1.5


class TestGate:
    def test_within_tolerance_passes(self):
        result = check_metrics(
            {"a.speedup": 9.0}, {"a.speedup": 10.0}, tolerance=0.15
        )
        assert result.passed
        assert result.checked[0].regression == pytest.approx(0.1)

    def test_beyond_tolerance_fails(self):
        result = check_metrics(
            {"a.speedup": 5.0}, {"a.speedup": 10.0}, tolerance=0.15
        )
        assert not result.passed
        assert result.failures[0].metric == "a.speedup"
        assert result.failures[0].regression == pytest.approx(0.5)

    def test_lower_is_better_direction(self):
        result = check_metrics(
            {"a.full_lint_s": 4.0}, {"a.full_lint_s": 2.0}, tolerance=0.15
        )
        assert not result.passed
        assert result.failures[0].regression == pytest.approx(1.0)

    def test_improvement_clamps_to_zero(self):
        result = check_metrics(
            {"a.speedup": 20.0, "b.full_lint_s": 1.0},
            {"a.speedup": 10.0, "b.full_lint_s": 2.0},
        )
        assert result.passed
        assert all(c.regression == 0.0 for c in result.checked)

    def test_zero_baseline_gates_on_sign(self):
        result = check_metrics(
            {"a.speedup": -1.0}, {"a.speedup": 0.0}, tolerance=0.5
        )
        assert not result.passed
        assert result.failures[0].regression == 1.0

    def test_ungated_unbaselined_and_missing(self):
        result = check_metrics(
            {"a.sites": 10.0, "b.speedup": 3.0},
            {"c.events_per_s": 100.0},
        )
        assert result.passed
        assert result.checked == []
        assert result.unbaselined == ["b.speedup"]
        assert result.missing == ["c.events_per_s"]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(BenchError):
            check_metrics({}, {}, tolerance=-0.1)

    def test_committed_bench_values_pass_the_committed_gate(self):
        # BENCH_hlisa.json is the one bench file under version control.
        result = check_bench_files(
            [REPO_ROOT / "BENCH_hlisa.json"],
            history_path=REPO_ROOT / "BENCH_HISTORY.jsonl",
        )
        assert result.passed, result.render_text()
        assert result.checked and not result.unbaselined

    def test_missing_history_is_an_error(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        with pytest.raises(BenchError):
            check_bench_files([bench], history_path=tmp_path / "none.jsonl")


class TestBenchCli:
    def record_baseline(self, tmp_path):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        history = tmp_path / "BENCH_HISTORY.jsonl"
        assert (
            obs_main(
                ["bench", "record", str(bench), "--history", str(history),
                 "--baseline"]
            )
            == 0
        )
        return bench, history

    def test_record_then_check_round_trip(self, tmp_path, capsys):
        bench, history = self.record_baseline(tmp_path)
        assert (
            obs_main(["bench", "check", str(bench), "--history", str(history)])
            == 0
        )
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_injected_2x_regression_fails_the_gate(self, tmp_path, capsys):
        bench, history = self.record_baseline(tmp_path)
        slowed = dict(SAMPLE, full_lint_s=SAMPLE["full_lint_s"] * 2.0)
        write_bench(bench, slowed)
        assert (
            obs_main(["bench", "check", str(bench), "--history", str(history)])
            == 1
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "full_lint_s" in out

    def test_injected_2x_regression_against_committed_history(
        self, tmp_path, capsys
    ):
        # the CI self-test in miniature: halve the committed kernel
        # speedup and the committed baseline must catch it
        data = json.loads((REPO_ROOT / "BENCH_hlisa.json").read_text())
        kernel = data["hlisa_motor"]["kernel"]
        kernel["speedup"] = kernel["speedup"] / 2.0
        kernel["vectorized_events_per_s"] = (
            kernel["vectorized_events_per_s"] / 2.0
        )
        slowed = write_bench(tmp_path / "BENCH_hlisa.json", data)
        assert (
            obs_main(
                [
                    "bench",
                    "check",
                    str(slowed),
                    "--history",
                    str(REPO_ROOT / "BENCH_HISTORY.jsonl"),
                    "--tolerance",
                    "0.15",
                ]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_json_output(self, tmp_path):
        bench, history = self.record_baseline(tmp_path)
        out = tmp_path / "check.json"
        assert (
            obs_main(
                [
                    "bench",
                    "check",
                    str(bench),
                    "--history",
                    str(history),
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["tolerance"] == 0.15

    def test_check_without_history_exits_2(self, tmp_path, capsys):
        bench = write_bench(tmp_path / "BENCH_hlisa.json", SAMPLE)
        assert (
            obs_main(
                ["bench", "check", str(bench), "--history",
                 str(tmp_path / "none.jsonl")]
            )
            == 2
        )
        assert "no benchmark history" in capsys.readouterr().err

    def test_no_bench_files_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert obs_main(["bench", "check"]) == 2
        assert "no BENCH_*.json" in capsys.readouterr().err
