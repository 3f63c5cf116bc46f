"""repro.obs profile/flame: the deterministic profiler and its exports.

The acceptance criterion lives here: the canonical profile JSON of a
same-seed serial run, an interrupted-then-resumed run (cut at *every*
site boundary) and a ``--jobs 2`` sharded run's merged trace are
byte-identical.
"""

import json

import pytest

from repro.clock import VirtualClock
from repro.crawl import (
    PopulationConfig,
    SupervisorConfig,
    generate_population,
)
from repro.faults import FaultPlan
from repro.obs import (
    Tracer,
    build_profile,
    chrome_trace_document,
    hotspots,
    nearest_rank,
    profile_delta,
    profile_to_json,
    read_trace,
    speedscope_document,
    write_speedscope,
    write_trace,
)
from repro.obs.cli import main as obs_main
from repro.obs.flame import SPEEDSCOPE_SCHEMA
from repro.obs.profile import (
    PROFILE_SCHEMA,
    render_delta_text,
    render_profile_text,
)
from repro.shard import ShardRunSpec, build_supervisor, run_sharded_crawl
from repro.shard.manifest import MANIFEST_NAME


def small_population(n=10, seed=3):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=seed,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=0,
            n_other_signal_ad_detectors=0,
            n_side_effect_blockers=1,
            n_http_only_detectors=2,
        )
    )


POPULATION = small_population()


def make_spec():
    return ShardRunSpec(
        crawler_name="supervised",
        seed=7,
        instances=3,
        with_extension=True,
        config=SupervisorConfig(
            recycle_after_faults=2, checkpoint_every_sites=3
        ),
        fault_plan=FaultPlan.generate(POPULATION, 3, rate=0.3, seed=11),
        ledger=False,
        watchdogs="default",
    )


@pytest.fixture(scope="module")
def serial_spans(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile-serial")
    trace = out / "crawl.trace.jsonl"
    build_supervisor(make_spec()).crawl(POPULATION, trace_path=trace)
    return read_trace(trace)


def hand_trace(get_scale=1.0):
    """Two visits with known durations, for exact-value assertions.

    At scale 1: crawl[0..47] > visit a[0..13] > get[2..12]; visit
    b[13..47] > get[17..47] -- crawl self 0, visit selfs 3 and 4, get
    selfs 10 and 30.  ``get_scale`` stretches only the get spans.
    """
    clock = VirtualClock()
    tracer = Tracer(clock)
    crawl = tracer.start("crawl")
    first = tracer.start("visit", domain="a.example")
    clock.advance(2.0)
    get = tracer.start("webdriver.get")
    clock.advance(10.0 * get_scale)
    tracer.end(get)
    clock.advance(1.0)
    tracer.end(first)
    second = tracer.start("visit", domain="b.example")
    clock.advance(4.0)
    get = tracer.start("webdriver.get")
    clock.advance(30.0 * get_scale)
    tracer.end(get)
    tracer.end(second)
    tracer.end(crawl)
    return tracer.spans


class TestBuildProfile:
    def test_self_total_and_counts(self):
        profile = build_profile(hand_trace())
        assert profile["schema"] == PROFILE_SCHEMA
        assert profile["total_ms"] == 47.0
        assert profile["span_count"] == 5
        assert profile["visits"] == 2
        names = profile["names"]
        assert names["crawl"]["total_ms"] == 47.0
        assert names["crawl"]["self_ms"] == 0.0
        assert names["visit"]["count"] == 2
        assert names["visit"]["total_ms"] == 47.0
        assert names["visit"]["self_ms"] == 7.0
        assert names["visit"]["max_ms"] == 34.0
        assert names["webdriver.get"]["self_ms"] == 40.0

    def test_per_visit_percentiles_are_observed_values(self):
        names = build_profile(hand_trace())["names"]
        visit = names["visit"]["per_visit"]
        assert visit["visits"] == 2
        assert visit["p50_ms"] == 13.0
        assert visit["p95_ms"] == 34.0
        get = names["webdriver.get"]["per_visit"]
        assert get["p50_ms"] == 10.0
        # crawl never appears inside a visit subtree
        assert names["crawl"]["per_visit"]["visits"] == 0

    def test_critical_path_follows_heaviest_children(self):
        critical = build_profile(hand_trace())["critical_path"]
        assert critical["domain"] == "b.example"
        assert critical["duration_ms"] == 34.0
        assert [step["name"] for step in critical["path"]] == [
            "visit",
            "webdriver.get",
        ]
        assert critical["path"][0]["self_ms"] == 4.0
        assert critical["path"][1]["total_ms"] == 30.0

    def test_empty_trace(self):
        profile = build_profile([])
        assert profile["total_ms"] == 0.0
        assert profile["names"] == {}
        assert profile["critical_path"] is None

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(values, 0.5) == 2.0
        assert nearest_rank(values, 0.51) == 3.0
        assert nearest_rank(values, 1.0) == 4.0
        assert nearest_rank([], 0.5) == 0.0
        with pytest.raises(ValueError):
            nearest_rank(values, 0.0)
        with pytest.raises(ValueError):
            nearest_rank(values, 1.5)

    def test_hotspots_rank_by_self_time(self):
        ranked = hotspots(build_profile(hand_trace()), top=2)
        assert [spot["name"] for spot in ranked] == ["webdriver.get", "visit"]
        assert hotspots(build_profile(hand_trace()), top=0) == hotspots(
            build_profile(hand_trace()), top=99
        )

    def test_profile_delta_sorted_by_movement(self):
        profile_a = build_profile(hand_trace())
        profile_b = build_profile(hand_trace(get_scale=2.0))
        deltas = profile_delta(profile_a, profile_b)
        assert deltas[0]["name"] == "webdriver.get"
        assert deltas[0]["delta_ms"] == 40.0
        assert deltas[0]["ratio"] == 2.0
        by_name = {d["name"]: d for d in deltas}
        assert by_name["visit"]["delta_ms"] == 0.0
        assert by_name["crawl"]["ratio"] is None  # zero self time on a
        assert all(delta["in_a"] for delta in deltas)
        only_b = profile_delta(build_profile([]), profile_b)
        assert not any(delta["in_a"] for delta in only_b)


class TestCanonicalSerialisation:
    def test_sorted_keys_fixed_separators_trailing_newline(self):
        text = profile_to_json(build_profile(hand_trace()))
        assert text.endswith("\n")
        data = json.loads(text)
        assert text == json.dumps(
            data, sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_text_rendering_mentions_the_load_bearing_parts(self):
        text = render_profile_text(build_profile(hand_trace()), top=5)
        assert "crawl profile" in text
        assert "hotspots by self time" in text
        assert "critical path of the slowest visit" in text
        assert "b.example" in text

    def test_delta_rendering(self):
        deltas = profile_delta(
            build_profile(hand_trace()),
            build_profile(hand_trace(get_scale=2.0)),
        )
        text = render_delta_text(deltas, top=3)
        assert "hotspot deltas" in text and "webdriver.get" in text
        assert "(no spans on either side)" in render_delta_text([], top=3)


class TestFlameExports:
    def test_speedscope_required_keys(self):
        doc = speedscope_document(hand_trace())
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        assert doc["activeProfileIndex"] == 0
        assert [f["name"] for f in doc["shared"]["frames"]] == sorted(
            {"crawl", "visit", "webdriver.get"}
        )
        (profile,) = doc["profiles"]
        assert profile["type"] == "evented"
        assert profile["unit"] == "milliseconds"
        assert profile["startValue"] == 0.0
        assert profile["endValue"] == 47.0
        assert profile["events"]

    def test_speedscope_events_are_well_nested(self):
        (profile,) = speedscope_document(hand_trace())["profiles"]
        stack = []
        last_at = 0.0
        for event in profile["events"]:
            assert event["at"] >= last_at
            last_at = event["at"]
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert stack and stack.pop() == event["frame"]
        assert stack == []

    def test_chrome_trace_microseconds(self):
        doc = chrome_trace_document(hand_trace())
        assert doc["displayTimeUnit"] == "ms"
        by_name = {}
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            by_name.setdefault(event["name"], event)
        assert by_name["crawl"]["ts"] == 0.0
        assert by_name["crawl"]["dur"] == 47_000.0


class TestByteIdentity:
    """The tentpole contract: one profile, however the crawl ran."""

    def test_resumed_profiles_byte_identical(self, tmp_path, serial_spans):
        expected = profile_to_json(build_profile(serial_spans))
        for cut in range(1, len(POPULATION)):
            checkpoint = tmp_path / f"ck-{cut}.json"
            build_supervisor(make_spec()).crawl(
                POPULATION[:cut], checkpoint_path=checkpoint
            )
            trace = tmp_path / f"resumed-{cut}.trace.jsonl"
            build_supervisor(make_spec()).crawl(
                POPULATION, checkpoint_path=checkpoint, trace_path=trace
            )
            resumed = profile_to_json(build_profile(read_trace(trace)))
            assert resumed == expected, f"profile diverges at cut {cut}"

    def test_sharded_profile_byte_identical(self, tmp_path, serial_spans):
        spec = make_spec()
        out = tmp_path / "sharded"
        run_sharded_crawl(
            POPULATION,
            out_dir=out,
            crawler_name=spec.crawler_name,
            seed=spec.seed,
            instances=spec.instances,
            with_extension=spec.with_extension,
            config=spec.config,
            fault_plan=spec.fault_plan,
            ledger=spec.ledger,
            watchdogs=spec.watchdogs,
            shard_size=4,
            jobs=2,
        )
        merged = read_trace(out / "crawl.trace.jsonl")
        assert profile_to_json(build_profile(merged)) == profile_to_json(
            build_profile(serial_spans)
        )
        # the human-facing flame export inherits the same identity
        serial_scope = write_speedscope(tmp_path / "serial.speedscope.json",
                                        serial_spans)
        merged_scope = write_speedscope(tmp_path / "merged.speedscope.json",
                                        merged)
        assert serial_scope.read_bytes() == merged_scope.read_bytes()


class TestProfileCli:
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, hand_trace())
        return path

    def test_text_profile_to_stdout(self, tmp_path, capsys):
        path = self.trace_file(tmp_path)
        assert obs_main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "crawl profile" in out and "critical path" in out

    def test_json_profile_is_canonical(self, tmp_path):
        path = self.trace_file(tmp_path)
        out = tmp_path / "profile.json"
        assert (
            obs_main(
                ["profile", str(path), "--format", "json", "--out", str(out)]
            )
            == 0
        )
        assert out.read_text() == profile_to_json(build_profile(hand_trace()))

    def test_side_exports(self, tmp_path, capsys):
        path = self.trace_file(tmp_path)
        scope = tmp_path / "out.speedscope.json"
        chrome = tmp_path / "out.chrome.json"
        assert (
            obs_main(
                [
                    "profile",
                    str(path),
                    "--speedscope",
                    str(scope),
                    "--chrome",
                    str(chrome),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert json.loads(scope.read_text())["$schema"] == SPEEDSCOPE_SCHEMA
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_profile_of_plain_trace_directory(self, tmp_path):
        # the README one-liner: a field_study output dir (no shard-*
        # files) splices its *.trace.jsonl traces end to end
        write_trace(tmp_path / "OpenWPM-extension.trace.jsonl", hand_trace())
        write_trace(tmp_path / "OpenWPM.trace.jsonl", hand_trace())
        json_out = tmp_path / "profile.json"
        assert (
            obs_main(
                ["profile", str(tmp_path), "--format", "json", "--out",
                 str(json_out)]
            )
            == 0
        )
        data = json.loads(json_out.read_text())
        assert data["visits"] == 4  # two traces x two visits, spliced
        assert data["total_ms"] == 94.0

    def test_profile_of_shard_directory(self, tmp_path, capsys):
        # a repro.shard output dir (it holds the manifest) is read through
        # its merged trace alone: the serial.trace.jsonl that --verify
        # leaves beside it is not spliced in
        (tmp_path / MANIFEST_NAME).write_text("{}\n")
        write_trace(tmp_path / "crawl.trace.jsonl", hand_trace())
        write_trace(tmp_path / "serial.trace.jsonl", hand_trace())
        json_out = tmp_path / "profile.json"
        assert (
            obs_main(
                ["profile", str(tmp_path), "--format", "json", "--out",
                 str(json_out)]
            )
            == 0
        )
        assert json_out.read_text() == profile_to_json(
            build_profile(hand_trace())
        )
        assert obs_main(["profile", str(tmp_path)]) == 0
        assert "crawl profile" in capsys.readouterr().out

    def test_profile_of_incomplete_shard_directory_errors(
        self, tmp_path, capsys
    ):
        # no merged trace yet: the manifest rule wins over the splice
        (tmp_path / MANIFEST_NAME).write_text("{}\n")
        write_trace(tmp_path / "serial.trace.jsonl", hand_trace())
        assert obs_main(["profile", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sharded run incomplete" in err
        assert "re-run python -m repro.shard with the same --out" in err

    def test_empty_directory_errors(self, tmp_path, capsys):
        assert obs_main(["profile", str(tmp_path)]) == 1
        assert "no *.trace.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [("diff", "--kind"), ("profile", "--wall"), ("report", "--profile")],
        ids=["diff-kind", "profile-wall", "report-profile"],
    )
    def test_help_lists_no_deleted_option(
        self, tmp_path, capsys, command, option
    ):
        with pytest.raises(SystemExit) as exit_info:
            obs_main([command, "--help"])
        assert exit_info.value.code == 0
        assert option not in capsys.readouterr().out
        path = str(self.trace_file(tmp_path))
        args = [path, path] if command == "diff" else [path]
        with pytest.raises(SystemExit) as exit_info:
            obs_main([command, *args, option])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err

    def test_missing_trace_errors(self, tmp_path, capsys):
        assert obs_main(["profile", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace" in capsys.readouterr().err

    def test_one_trace_one_answer(self, tmp_path, capsys, serial_spans):
        # report, profile and diff --profile read one trace the same way
        for name, spans in (("hand", hand_trace()), ("serial", serial_spans)):
            trace = tmp_path / f"{name}.trace.jsonl"
            write_trace(trace, spans)
            outputs = {}
            for command, args in (
                ("report", ["report", str(trace)]),
                ("profile", ["profile", str(trace)]),
                ("diff", ["diff", str(trace), str(trace), "--profile"]),
            ):
                out = tmp_path / f"{name}.{command}.json"
                assert obs_main(
                    [*args, "--format", "json", "--out", str(out)]
                ) == 0
                outputs[command] = json.loads(out.read_text())
            profile = outputs["profile"]
            assert outputs["report"]["profile"] == profile
            assert {
                delta["name"]: delta["self_ms_a"]
                for delta in outputs["diff"]["profile_delta"]
            } == {
                span_name: entry["self_ms"]
                for span_name, entry in profile["names"].items()
            }
            assert obs_main(["report", str(trace)]) == 0
            text = capsys.readouterr().out
            visit = profile["names"]["visit"]["per_visit"]
            row_end = f"{visit['p50_ms']:12.1f} {visit['p95_ms']:12.1f}"
            assert any(
                line.startswith("  visit ") and line.endswith(row_end)
                for line in text.splitlines()
            )

    def test_report_top_ranks_hotspots(self, tmp_path, capsys, serial_spans):
        path = self.trace_file(tmp_path)
        assert obs_main(["report", str(path), "--top", "2"]) == 0
        assert "hotspots by self time (top 2)" in capsys.readouterr().out
        # One hotspot table: the report's is the profiler's.
        for name, spans in (("hand", hand_trace()), ("serial", serial_spans)):
            trace = tmp_path / f"{name}.trace.jsonl"
            write_trace(trace, spans)
            out = tmp_path / f"{name}.report.json"
            assert obs_main(
                ["report", str(trace), "--top", "2", "--format", "json",
                 "--out", str(out)]
            ) == 0
            assert json.loads(out.read_text())["hotspots"] == hotspots(
                build_profile(spans), top=2
            )

    def test_diff_profile_shows_hotspot_deltas(self, tmp_path, capsys):
        path_a = self.trace_file(tmp_path)
        path_b = tmp_path / "b.jsonl"
        write_trace(path_b, hand_trace())
        assert obs_main(["diff", str(path_a), str(path_b), "--profile"]) == 0
        assert "hotspot deltas" in capsys.readouterr().out

    def test_diff_profile_marks_only_names_missing_from_a_as_new(
        self, tmp_path, capsys
    ):
        # crawl has no self time: it has no ratio, but it is not new.
        path_a = self.trace_file(tmp_path)
        assert obs_main(["diff", str(path_a), str(path_a), "--profile"]) == 0
        rows = capsys.readouterr().out.split("hotspot deltas")[1].splitlines()[1:]
        assert len(rows) == 3 and not any("new" in row for row in rows)
        assert next(row for row in rows if row.split()[0] == "crawl").endswith("-)")

        clock = VirtualClock()
        tracer = Tracer(clock)
        root = tracer.start("crawl")
        extra = tracer.start("extra")
        clock.advance(2.0)
        tracer.end(extra)
        tracer.end(root)
        path_b = tmp_path / "b.jsonl"
        write_trace(path_b, tracer.spans)
        assert obs_main(["diff", str(path_a), str(path_b), "--profile"]) == 1
        rows = capsys.readouterr().out.split("hotspot deltas")[1].splitlines()[1:]
        assert [row.split()[0] for row in rows if "new" in row] == ["extra"]

    def test_diff_profile_json_embeds_deltas(self, tmp_path, capsys):
        path_a = self.trace_file(tmp_path)
        out = tmp_path / "diff.json"
        assert (
            obs_main(
                [
                    "diff",
                    str(path_a),
                    str(path_a),
                    "--profile",
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        data = json.loads(out.read_text())
        assert all(d["delta_ms"] == 0.0 for d in data["profile_delta"])

    def test_diff_profile_rejects_ledgers(self, tmp_path, capsys):
        from repro.obs import ledger_to_jsonl

        ledger = tmp_path / "x.ledger.jsonl"
        ledger.write_text(
            ledger_to_jsonl(
                [
                    {
                        "entry_id": 1,
                        "ts_ms": 0.0,
                        "scope": "",
                        "obj": "navigator.__proto__",
                        "op": "get",
                        "key": None,
                        "via": None,
                        "detail": None,
                    }
                ]
            )
        )
        assert (
            obs_main(
                ["diff", str(ledger), str(ledger), "--profile"]
            )
            == 2
        )
        assert "only applies to trace diffs" in capsys.readouterr().err
