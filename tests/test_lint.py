"""The invariant linter: rules, suppressions, baseline, drivers, CLI."""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.lint import (
    Baseline,
    Finding,
    PARSE_ERROR_RULE,
    all_rules,
    fingerprint_findings,
    lint_file,
    parse_source,
    path_scopes,
    render_json,
    render_text,
    run_lint,
)
from repro.lint.baseline import fingerprint
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(source: str, path: str = "snippet.py"):
    """Rule findings for an in-memory snippet (suppressions applied)."""
    ctx = parse_source(dedent(source), path)
    findings = []
    for rule in all_rules():
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def rule_ids(source: str, path: str = "snippet.py"):
    return [f.rule for f in lint_source(source, path)]


# -- DET: determinism ------------------------------------------------------


class TestWallClock:
    def test_time_time_flagged(self):
        ids = rule_ids(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert ids == ["DET001"]

    def test_perf_counter_and_alias_flagged(self):
        ids = rule_ids(
            """
            import time as t

            def tick():
                return t.perf_counter()
            """
        )
        assert ids == ["DET001"]

    def test_virtual_clock_is_clean(self):
        assert rule_ids(
            """
            def stamp(clock):
                return clock.event_timestamp()
            """
        ) == []


class TestDatetimeNow:
    def test_from_import_now(self):
        ids = rule_ids(
            """
            from datetime import datetime

            def today():
                return datetime.now()
            """
        )
        assert ids == ["DET002"]

    def test_constructing_a_datetime_is_clean(self):
        assert rule_ids(
            """
            from datetime import datetime

            EPOCH = datetime(2021, 11, 2)
            """
        ) == []


class TestGlobalRandom:
    def test_module_level_functions(self):
        ids = rule_ids(
            """
            import random

            def roll():
                return random.randint(1, 6)
            """
        )
        assert ids == ["DET003"]

    def test_from_import_function(self):
        ids = rule_ids(
            """
            from random import choice

            def pick(xs):
                return choice(xs)
            """
        )
        assert ids == ["DET003"]

    def test_argless_random_flagged_seeded_clean(self):
        source = """
            import random

            UNSEEDED = random.Random()
            SEEDED = random.Random(42)
            """
        assert rule_ids(source) == ["DET003"]

    def test_methods_on_seeded_instance_are_clean(self):
        assert rule_ids(
            """
            def draw(rng):
                return rng.random() + rng.uniform(0, 1)
            """
        ) == []


class TestNumpyGlobalRandom:
    def test_np_random_seed(self):
        ids = rule_ids(
            """
            import numpy as np

            np.random.seed(0)
            X = np.random.rand(3)
            """
        )
        assert ids == ["DET004", "DET004"]

    def test_default_rng_is_clean(self):
        assert rule_ids(
            """
            import numpy as np

            RNG = np.random.default_rng(7)
            """
        ) == []


class TestUnsortedSetIteration:
    def test_for_loop_over_set(self):
        ids = rule_ids(
            """
            def names(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """
        )
        assert ids == ["DET005"]

    def test_list_comprehension_over_set(self):
        assert rule_ids("xs = [x for x in set(range(3))]") == ["DET005"]

    def test_dict_comprehension_over_set_is_flagged(self):
        # dicts preserve insertion order straight into JSON output.
        assert rule_ids("d = {k: 1 for k in {'a', 'b'}}") == ["DET005"]

    def test_list_of_set_flagged(self):
        assert rule_ids("xs = list(set(ys))") == ["DET005"]

    def test_sorted_wrapping_is_clean(self):
        assert rule_ids("xs = sorted(set(ys))") == []
        assert rule_ids("xs = [x for x in sorted(set(ys))]") == []

    def test_order_erasing_sinks_are_clean(self):
        assert rule_ids("s = {x for x in set(ys)}") == []
        assert rule_ids("s = frozenset(x for x in set(ys))") == []
        assert rule_ids("n = sum(x for x in {1, 2})") == []

    def test_set_union_iteration_flagged(self):
        assert rule_ids("xs = [s for s in set(a) | set(b)]") == ["DET005"]

    def test_membership_tests_are_clean(self):
        assert rule_ids(
            """
            def keep(xs, allowed):
                allowed_set = set(allowed)
                return [x for x in xs if x in allowed_set]
            """
        ) == []


class TestFilesystemOrder:
    def test_listdir_flagged(self):
        ids = rule_ids(
            """
            import os

            def entries(d):
                return os.listdir(d)
            """
        )
        assert ids == ["DET006"]

    def test_rglob_flagged_unless_sorted(self):
        assert rule_ids("files = [p for p in base.rglob('*.py')]") == ["DET006"]
        assert rule_ids("files = sorted(base.rglob('*.py'))") == []


# -- FLT: fault discipline -------------------------------------------------


FAULT_PATH = "webdriver/mod.py"


class TestBroadExcept:
    def test_except_exception_in_scope(self):
        source = """
            def fetch(driver, url):
                try:
                    driver.get(url)
                except Exception:
                    pass
            """
        assert rule_ids(source, FAULT_PATH) == ["FLT001"]

    def test_bare_except_in_scope(self):
        source = """
            def fetch(driver, url):
                try:
                    driver.get(url)
                except:
                    pass
            """
        assert rule_ids(source, FAULT_PATH) == ["FLT001"]

    def test_typed_except_is_clean(self):
        source = """
            from repro.faults.types import FaultError

            def fetch(driver, url):
                try:
                    driver.get(url)
                except FaultError:
                    pass
            """
        assert rule_ids(source, FAULT_PATH) == []

    def test_out_of_scope_path_not_checked(self):
        source = """
            def fetch(driver, url):
                try:
                    driver.get(url)
                except Exception:
                    pass
            """
        assert rule_ids(source, "analysis/mod.py") == []


class TestUntypedHookRaise:
    def test_runtime_error_at_hook_point(self):
        source = """
            def get(self, url):
                raise RuntimeError("boom")
            """
        assert rule_ids(source, FAULT_PATH) == ["FLT002"]

    def test_taxonomy_and_webdriver_errors_allowed(self):
        source = """
            from repro.faults.types import make_fault
            from repro.webdriver.errors import NoSuchElementException

            def find_element(self, by, value):
                raise NoSuchElementException(value)

            def execute_script(self, script):
                raise NotImplementedError(script)
            """
        assert rule_ids(source, FAULT_PATH) == []

    def test_non_hook_function_not_checked(self):
        source = """
            def helper():
                raise RuntimeError("fine here")
            """
        assert rule_ids(source, FAULT_PATH) == []

    def test_bare_raise_in_broad_handler(self):
        source = """
            def get(self, url):
                try:
                    self._navigate(url)
                except Exception:
                    raise
            """
        assert rule_ids(source, FAULT_PATH) == ["FLT001", "FLT002"]


class TestRetryWithoutBackoff:
    def test_retry_continue_without_backoff(self):
        source = """
            def crawl(self, sites):
                for attempt in range(4):
                    try:
                        return self._visit()
                    except OSError:
                        continue
            """
        assert rule_ids(source, "crawl/mod.py") == ["FLT003"]

    def test_backoff_call_makes_it_clean(self):
        source = """
            def crawl(self, sites):
                for attempt in range(4):
                    try:
                        return self._visit()
                    except OSError:
                        self._backoff(attempt)
                        continue
            """
        assert rule_ids(source, "crawl/mod.py") == []


class TestHandlerDiscipline:
    def test_swallowing_handler_flagged(self):
        source = """
            def on_page_stalled(self, event):
                try:
                    event.resolve("stall", "aborted")
                except Exception:
                    pass
            """
        assert rule_ids(source, "bus/mod.py") == ["FLT004"]

    def test_bare_except_swallow_flagged(self):
        source = """
            def on_fault_observed(self, event):
                try:
                    event.instance.note_fault()
                except:
                    return
            """
        assert rule_ids(source, "bus/mod.py") == ["FLT004"]

    def test_untyped_raise_from_handler_flagged(self):
        source = """
            def on_overlay_detected(self, event):
                raise RuntimeError("boom")
            """
        assert rule_ids(source, "bus/mod.py") == ["FLT004"]

    def test_reraise_and_typed_errors_are_clean(self):
        source = """
            from repro.faults.types import BrowserCrashError

            def on_overlay_detected(self, event):
                try:
                    event.dismiss()
                except Exception:
                    self.note("dismiss_failed")
                    raise

            def on_fault_observed(self, event):
                if event.instance is None:
                    raise ValueError("detached event")
                raise BrowserCrashError(event.domain)
            """
        assert rule_ids(source, "bus/mod.py") == []

    def test_non_handler_function_not_checked(self):
        source = """
            def replay(self, event):
                try:
                    event.dismiss()
                except Exception:
                    pass
            """
        assert rule_ids(source, "bus/mod.py") == []

    def test_out_of_scope_path_not_checked(self):
        source = """
            def on_page_stalled(self, event):
                raise RuntimeError("boom")
            """
        assert rule_ids(source, "analysis/mod.py") == []

    def test_watchdogs_dir_gets_fault_and_bus_scopes(self):
        # crawl/watchdogs/ is in both the faults scope (crawl/) and the
        # bus scope (watchdogs/): a swallowing handler trips FLT001 AND
        # FLT004 there.
        source = """
            def on_page_stalled(self, event):
                try:
                    event.resolve("stall", "aborted")
                except Exception:
                    pass
            """
        assert rule_ids(source, "crawl/watchdogs/mod.py") == [
            "FLT001",
            "FLT004",
        ]


# -- EVT: event protocol ---------------------------------------------------


EVENT_PATH = "tools/mod.py"


class TestDirectDispatch:
    def test_dispatch_event_in_scope(self):
        source = """
            def click(element, event):
                element.dispatch_event(event)
            """
        assert rule_ids(source, EVENT_PATH) == ["EVT001"]

    def test_pipeline_calls_are_clean(self):
        source = """
            def click(session):
                session.pipeline.move_mouse_to(10, 20)
                session.pipeline.mouse_down()
                session.pipeline.mouse_up()
            """
        assert rule_ids(source, EVENT_PATH) == []

    def test_out_of_scope_dispatch_allowed(self):
        # The pipeline layer itself legitimately dispatches DOM events.
        source = """
            def emit(element, event):
                element.dispatch_event(event)
            """
        assert rule_ids(source, "browser/mod.py") == []


class TestPressWithoutMove:
    def test_mouse_down_without_move(self):
        source = """
            def click(session):
                session.pipeline.mouse_down()
                session.pipeline.mouse_up()
            """
        assert rule_ids(source, EVENT_PATH) == ["EVT002"]

    def test_move_before_press_is_clean(self):
        source = """
            def click(self, session, element):
                self.move_to_element(session, element)
                session.pipeline.mouse_down()
                session.pipeline.mouse_up()
            """
        assert rule_ids(source, EVENT_PATH) == []

    def test_literal_mousedown_without_mousemove(self):
        source = """
            def click(emit):
                emit("mousedown")
            """
        assert rule_ids(source, EVENT_PATH) == ["EVT002"]

    def test_literal_protocol_order_is_clean(self):
        source = """
            def click(emit):
                emit("mousemove")
                emit("mousedown")
                emit("mouseup")
            """
        assert rule_ids(source, EVENT_PATH) == []


class TestHardcodedTimestamp:
    def test_timestamp_keyword_literal(self):
        source = """
            def make(Event):
                return Event("click", timestamp=123.0)
            """
        assert rule_ids(source) == ["EVT003"]

    def test_timestamp_attribute_assignment(self):
        source = """
            def stamp(event):
                event.timestamp = 5
            """
        assert rule_ids(source) == ["EVT003"]

    def test_clock_sourced_timestamp_is_clean(self):
        source = """
            def make(Event, clock):
                return Event("click", timestamp=clock.event_timestamp())
            """
        assert rule_ids(source) == []


# -- PERF ------------------------------------------------------------------


class TestContainerInComprehensionCondition:
    def test_set_in_condition_flagged(self):
        source = "xs = [i for i in items if i not in set(chosen)]"
        assert rule_ids(source) == ["PERF001"]

    def test_dict_literal_in_condition_flagged(self):
        source = "xs = [i for i in items if i in {1: 'a', 2: 'b'}]"
        assert rule_ids(source) == ["PERF001"]

    def test_hoisted_set_is_clean(self):
        source = """
            chosen_set = set(chosen)
            xs = [i for i in items if i not in chosen_set]
            """
        assert rule_ids(source) == []


class TestDetectorReanalysis:
    def test_analysis_call_in_detector_flagged(self):
        source = """
            from repro.analysis.trajectory import per_movement_metrics
            from repro.detection.base import Detector

            class FastDetector(Detector):
                def judge(self, features):
                    return per_movement_metrics(features.mouse_path)
            """
        assert rule_ids(source) == ["PERF002"]

    def test_recorder_scan_and_observe_override_flagged(self):
        source = """
            from repro.detection.base import Detector

            class ClickDetector(Detector):
                def observe(self, recorder):
                    return recorder.clicks()
            """
        assert rule_ids(source) == ["PERF002", "PERF002"]

    def test_shared_features_are_clean(self):
        source = """
            from repro.detection.base import Detector

            class FastDetector(Detector):
                def judge(self, features):
                    return [m for m in features.movement_metrics if m.chord_length > 100]
            """
        assert rule_ids(source) == []

    def test_non_detector_class_may_analyse(self):
        source = """
            from repro.analysis.trajectory import per_movement_metrics

            class Report:
                def rows(self, recorder):
                    return per_movement_metrics(recorder.mouse_path())
            """
        assert rule_ids(source) == []

    def test_suppressed(self):
        source = """
            from repro.analysis.typing_metrics import typing_metrics
            from repro.detection.base import Detector

            class TypingDetector(Detector):
                def judge(self, features):
                    return typing_metrics(features.key_strokes)  # repro-lint: disable=PERF002
            """
        assert rule_ids(source) == []


# -- OBS: observability exports --------------------------------------------


class TestCanonicalJsonExport:
    OBS_PATH = "src/repro/obs/snippet.py"

    def test_dumps_without_sort_keys_flagged(self):
        source = """
            import json

            def render(data):
                return json.dumps(data)
            """
        assert rule_ids(source, path=self.OBS_PATH) == ["OBS001"]

    def test_dump_without_sort_keys_flagged(self):
        source = """
            import json

            def write(data, fh):
                json.dump(data, fh, indent=2)
            """
        assert rule_ids(source, path=self.OBS_PATH) == ["OBS001"]

    def test_sort_keys_false_flagged(self):
        source = """
            import json

            def render(data):
                return json.dumps(data, sort_keys=False)
            """
        assert rule_ids(source, path=self.OBS_PATH) == ["OBS001"]

    def test_canonical_dumps_clean(self):
        source = """
            import json

            def render(data):
                return json.dumps(data, sort_keys=True, separators=(",", ":"))
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_kwargs_passthrough_not_flagged(self):
        source = """
            import json

            def render(data, **kwargs):
                return json.dumps(data, **kwargs)
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_rule_is_scoped_to_obs(self):
        source = """
            import json

            def render(data):
                return json.dumps(data)
            """
        assert rule_ids(source, path="src/repro/stats/snippet.py") == []

    def test_obs_layer_is_clean(self):
        obs_pkg = REPO_ROOT / "src" / "repro" / "obs"
        report = run_lint([obs_pkg], root=REPO_ROOT)
        assert report.new_findings == [], render_text(report)


class TestSpanEndDiscipline:
    OBS_PATH = "src/repro/obs/snippet.py"

    def test_assigned_span_without_finally_flagged(self):
        source = """
            def visit(tracer):
                span = tracer.start("visit")
                do_work()
                tracer.end(span)
            """
        assert rule_ids(source, path=self.OBS_PATH) == ["OBS002"]

    def test_discarded_span_flagged(self):
        source = """
            def visit(tracer):
                tracer.start("visit")
                do_work()
            """
        assert rule_ids(source, path=self.OBS_PATH) == ["OBS002"]

    def test_finally_end_clean(self):
        source = """
            def visit(tracer):
                span = tracer.start("visit")
                try:
                    do_work()
                finally:
                    tracer.end(span)
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_guarded_conditional_span_clean(self):
        # the webdriver idiom: span only when tracing is on, end guarded
        source = """
            def get(self, tracer, url):
                span = tracer.start("get", url=url) if tracer.enabled else None
                try:
                    do_work()
                finally:
                    if span is not None:
                        tracer.end(span)
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_context_manager_clean(self):
        source = """
            def visit(tracer):
                with tracer.span("visit"):
                    do_work()
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_non_tracer_start_not_flagged(self):
        source = """
            def go(thread):
                thread.start()
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_self_tracer_attribute_chain_recognised(self):
        source = """
            class Supervisor:
                def run(self):
                    root = self.tracer.start("crawl")
                    try:
                        do_work()
                    finally:
                        self.tracer.end(root)
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_inline_suppression(self):
        source = """
            def visit(tracer):
                tracer.start("visit")  # repro-lint: disable=OBS002
            """
        assert rule_ids(source, path=self.OBS_PATH) == []

    def test_rule_is_scoped_to_obs(self):
        source = """
            def visit(tracer):
                tracer.start("visit")
            """
        assert rule_ids(source, path="src/repro/stats/snippet.py") == []


# -- suppressions ----------------------------------------------------------


class TestSuppressions:
    def test_inline_disable(self):
        source = """
            import time

            NOW = time.time()  # repro-lint: disable=DET001
            """
        assert rule_ids(source) == []

    def test_disable_all(self):
        source = """
            import time

            NOW = time.time()  # repro-lint: disable=all
            """
        assert rule_ids(source) == []

    def test_disable_other_rule_does_not_suppress(self):
        source = """
            import time

            NOW = time.time()  # repro-lint: disable=DET005
            """
        assert rule_ids(source) == ["DET001"]


# -- baseline --------------------------------------------------------------


def _write_violation(tree: Path, name: str = "mod.py") -> Path:
    target = tree / name
    target.write_text("import time\nNOW = time.time()\n")
    return target


class TestBaseline:
    def test_baselined_finding_does_not_fail(self, tmp_path):
        _write_violation(tmp_path)
        first = run_lint([tmp_path], root=tmp_path)
        assert first.exit_code == 1
        baseline_path = tmp_path / "lint-baseline.json"
        Baseline.write(baseline_path, first.all_findings)
        second = run_lint(
            [tmp_path], root=tmp_path, baseline=Baseline.load(baseline_path)
        )
        assert second.exit_code == 0
        assert len(second.baselined) == 1
        assert second.new_findings == []

    def test_fingerprint_survives_line_drift(self, tmp_path):
        target = _write_violation(tmp_path)
        first = run_lint([tmp_path], root=tmp_path)
        Baseline.write(tmp_path / "b.json", first.all_findings)
        # Unrelated lines above shift the finding's line number.
        target.write_text("import time\n\n\nX = 1\nNOW = time.time()\n")
        drifted = run_lint(
            [tmp_path],
            root=tmp_path,
            baseline=Baseline.load(tmp_path / "b.json"),
        )
        assert drifted.new_findings == []
        assert len(drifted.baselined) == 1

    def test_editing_the_line_invalidates_the_entry(self, tmp_path):
        target = _write_violation(tmp_path)
        first = run_lint([tmp_path], root=tmp_path)
        Baseline.write(tmp_path / "b.json", first.all_findings)
        target.write_text("import time\nLATER = time.time()\n")
        edited = run_lint(
            [tmp_path],
            root=tmp_path,
            baseline=Baseline.load(tmp_path / "b.json"),
        )
        assert [f.rule for f in edited.new_findings] == ["DET001"]

    def test_duplicate_lines_get_distinct_fingerprints(self):
        findings = fingerprint_findings(
            [
                Finding("DET001", "m.py", 2, 1, "msg", snippet="t = time.time()"),
                Finding("DET001", "m.py", 5, 1, "msg", snippet="t = time.time()"),
            ]
        )
        assert findings[0].fingerprint != findings[1].fingerprint
        assert findings[0].fingerprint == fingerprint(
            "DET001", "m.py", "t = time.time()", 0
        )


# -- drivers ---------------------------------------------------------------


class TestDrivers:
    def _make_tree(self, tmp_path: Path) -> Path:
        (tmp_path / "webdriver").mkdir()
        (tmp_path / "clean.py").write_text("X = 1\n")
        _write_violation(tmp_path, "det.py")
        (tmp_path / "webdriver" / "hooks.py").write_text(
            "def get(self, url):\n    raise RuntimeError('boom')\n"
        )
        return tmp_path

    def test_parallel_output_byte_identical_to_serial(self, tmp_path):
        tree = self._make_tree(tmp_path)
        serial = run_lint([tree], root=tree, jobs=1)
        parallel = run_lint([tree], root=tree, jobs=4)
        assert render_json(serial) == render_json(parallel)
        assert render_text(serial) == render_text(parallel)
        assert serial.exit_code == parallel.exit_code == 1

    def test_findings_are_sorted_and_relative(self, tmp_path):
        tree = self._make_tree(tmp_path)
        report = run_lint([tree], root=tree)
        keys = [f.sort_key() for f in report.new_findings]
        assert keys == sorted(keys)
        assert all(not Path(f.path).is_absolute() for f in report.new_findings)

    def test_parse_error_reported_as_finding(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        report = run_lint([tmp_path], root=tmp_path)
        assert [f.rule for f in report.new_findings] == [PARSE_ERROR_RULE]
        assert report.exit_code == 1

    def test_lint_file_counts_suppressions(self, tmp_path):
        target = tmp_path / "sup.py"
        target.write_text(
            "import time\nNOW = time.time()  # repro-lint: disable=DET001\n"
        )
        result = lint_file(target, "sup.py")
        assert result.findings == []
        assert result.suppressed == 1


# -- CLI -------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n")
        code = main([str(tmp_path), "--root", str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_finding_and_json_format(self, tmp_path, capsys):
        _write_violation(tmp_path)
        code = main(
            [str(tmp_path), "--root", str(tmp_path), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "DET001"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        _write_violation(tmp_path)
        assert main([str(tmp_path), "--root", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").exists()
        # Default baseline discovery picks the file up on the next run.
        assert main([str(tmp_path), "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_list_rules_covers_every_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope"), "--root", str(tmp_path)])
        assert excinfo.value.code == 2


# -- scopes and registry ---------------------------------------------------


class TestScopesAndRegistry:
    def test_path_scopes(self):
        assert path_scopes("src/repro/webdriver/driver.py") == {"faults"}
        assert path_scopes("src/repro/tools/pyhm.py") == {"events"}
        assert path_scopes("src/repro/stats/wilcoxon.py") == set()

    def test_rule_ids_unique_and_sorted(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert all(rule.rationale for rule in rules)


# -- self-hosting: the repo itself -----------------------------------------


class TestRepoInvariants:
    def test_linter_is_clean_on_itself(self):
        lint_pkg = REPO_ROOT / "src" / "repro" / "lint"
        report = run_lint([lint_pkg], root=REPO_ROOT)
        assert report.new_findings == [], render_text(report)

    def test_source_tree_has_no_non_baselined_findings(self):
        """Tier-1 ratchet: any new DET/FLT/EVT/PERF violation fails CI."""
        baseline_path = REPO_ROOT / "lint-baseline.json"
        baseline = (
            Baseline.load(baseline_path)
            if baseline_path.exists()
            else Baseline.empty()
        )
        report = run_lint(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT, baseline=baseline
        )
        assert report.new_findings == [], render_text(report)
        # No stale entries: every baselined fingerprint is still found.
        found = {finding.fingerprint for finding in report.baselined}
        assert set(baseline.entries) <= found, sorted(set(baseline.entries) - found)
