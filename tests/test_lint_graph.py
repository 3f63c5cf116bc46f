"""Whole-program analysis: call graph, taint, SHD/BUS rules, reporters.

Fixture tests build small in-memory or on-disk trees; the self-hosting
meta-tests at the bottom run the engine over the real ``src/repro``
tree and pin the acceptance criteria (every Resolvable has a resolving
handler, every default watchdog handler is registered, the
visit-reachable shard inventory is empty, baselined whole-program
entries carry justifications).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.lint import (
    Baseline,
    ModuleContext,
    all_project_rules,
    build_project,
    collect_files,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)
from repro.lint.cli import main
from repro.lint.graph import (
    ProjectContext,
    module_name_for,
    witness_chain,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def project_from(files: dict) -> ProjectContext:
    """Build a ProjectContext from {display_path: source} fixtures."""
    contexts = {}
    for display, source in files.items():
        source = dedent(source)
        ctx = ModuleContext(display, source, ast.parse(source))
        contexts[module_name_for(display)] = ctx
    return ProjectContext(contexts)


def project_rule_ids(files: dict) -> list:
    """Sorted whole-program rule ids firing on the fixture tree."""
    project = project_from(files)
    out = []
    for rule in all_project_rules():
        for finding in rule.check_project(project):
            ctx = project.context_for(finding.path)
            if ctx is not None and ctx.is_suppressed(
                finding.rule, finding.line
            ):
                continue
            out.append(finding)
    return sorted(f.rule for f in out)


def write_tree(tmp_path: Path, files: dict) -> Path:
    for display, source in files.items():
        target = tmp_path / display
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(dedent(source), encoding="utf-8")
    return tmp_path


def edge_pairs(project: ProjectContext) -> set:
    return {(s.caller, s.callee) for s in project.call_graph.edges}


# -- module naming ---------------------------------------------------------


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/crawl/visit.py") == (
            "repro.crawl.visit"
        )

    def test_init_maps_to_package(self):
        assert module_name_for("pkg/sub/__init__.py") == "pkg.sub"

    def test_bare_file(self):
        assert module_name_for("mod.py") == "mod"


# -- symbol table ----------------------------------------------------------


class TestSymbolTable:
    def test_import_alias_resolution(self):
        project = project_from(
            {
                "app/helpers.py": """
                def stamp():
                    return 0
                """,
                "app/use.py": """
                import app.helpers as h

                def caller():
                    return h.stamp()
                """,
            }
        )
        assert ("app.use.caller", "app.helpers.stamp") in edge_pairs(project)

    def test_reexport_chain_through_init(self):
        project = project_from(
            {
                "pkg/__init__.py": """
                from pkg.mod import helper
                """,
                "pkg/mod.py": """
                def helper():
                    return 1
                """,
                "use.py": """
                from pkg import helper

                def caller():
                    return helper()
                """,
            }
        )
        assert ("use.caller", "pkg.mod.helper") in edge_pairs(project)

    def test_relative_import_resolution(self):
        project = project_from(
            {
                "pkg/__init__.py": "",
                "pkg/base.py": """
                def helper():
                    return 1
                """,
                "pkg/use.py": """
                from .base import helper

                def caller():
                    return helper()
                """,
            }
        )
        assert ("pkg.use.caller", "pkg.base.helper") in edge_pairs(project)

    def test_method_lookup_through_bases(self):
        project = project_from(
            {
                "app/base.py": """
                class Base:
                    def step(self):
                        return 0
                """,
                "app/impl.py": """
                from app.base import Base

                class Impl(Base):
                    pass
                """,
            }
        )
        found = project.symbols.method_in_hierarchy("app.impl.Impl", "step")
        assert found is not None
        assert found.qualname == "app.base.Base.step"

    def test_subclasses_transitive(self):
        project = project_from(
            {
                "app/h.py": """
                class A:
                    pass

                class B(A):
                    pass

                class C(B):
                    pass
                """,
            }
        )
        assert project.symbols.subclasses("app.h.A") == [
            "app.h.B",
            "app.h.C",
        ]


# -- call graph ------------------------------------------------------------


class TestCallGraph:
    def test_self_call_reaches_subclass_override(self):
        project = project_from(
            {
                "app/base.py": """
                class Base:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 0
                """,
                "app/impl.py": """
                from app.base import Base

                class Impl(Base):
                    def step(self):
                        return 1
                """,
            }
        )
        pairs = edge_pairs(project)
        assert ("app.base.Base.run", "app.base.Base.step") in pairs
        assert ("app.base.Base.run", "app.impl.Impl.step") in pairs

    def test_class_instantiation_resolves_init(self):
        project = project_from(
            {
                "app/c.py": """
                class Thing:
                    def __init__(self):
                        self.x = 1
                """,
                "app/d.py": """
                from app.c import Thing

                def make():
                    return Thing()
                """,
            }
        )
        assert ("app.d.make", "app.c.Thing.__init__") in edge_pairs(project)

    def test_unique_method_name_resolves(self):
        project = project_from(
            {
                "app/a.py": """
                class Driver:
                    def navigate(self, url):
                        return url
                """,
                "app/b.py": """
                def go(d):
                    return d.navigate("x")
                """,
            }
        )
        assert ("app.b.go", "app.a.Driver.navigate") in edge_pairs(project)

    def test_builtin_container_names_never_unique_resolve(self):
        project = project_from(
            {
                "app/a.py": """
                class Store:
                    def get(self, key):
                        return key
                """,
                "app/b.py": """
                def fetch(d):
                    return d.get("x")
                """,
            }
        )
        assert ("app.b.fetch", "app.a.Store.get") not in edge_pairs(project)

    def test_module_level_code_owned_by_module_node(self):
        project = project_from(
            {
                "app/m.py": """
                def setup():
                    return 1

                VALUE = setup()
                """,
            }
        )
        assert ("app.m.<module>", "app.m.setup") in edge_pairs(project)

    def test_edges_deterministically_sorted(self):
        files = {
            "app/a.py": """
            def one():
                return two() + three()

            def two():
                return 1

            def three():
                return 2
            """,
        }
        first = project_from(files).call_graph.edges
        second = project_from(files).call_graph.edges
        assert first == second
        assert first == sorted(first, key=lambda s: s.sort_key)


# -- taint -----------------------------------------------------------------


class TestTaint:
    def test_wall_clock_propagates_two_hops(self):
        project = project_from(
            {
                "app/clock.py": """
                import time

                def now():
                    return time.time()
                """,
                "app/mid.py": """
                from app.clock import now

                def stamp():
                    return now()
                """,
            }
        )
        tainted = project.taint("wall-clock")
        assert tainted["app.clock.now"].next_hop is None
        assert tainted["app.mid.stamp"].next_hop == "app.clock.now"
        assert witness_chain(tainted, "app.mid.stamp") == (
            "stamp -> now -> time.time()"
        )

    def test_sorted_fs_enumeration_is_not_tainted(self):
        project = project_from(
            {
                "app/fsio.py": """
                import os

                def listing(path):
                    return sorted(os.listdir(path))
                """,
            }
        )
        assert project.taint("fs-order") == {}

    def test_global_rng_taint(self):
        project = project_from(
            {
                "app/rand.py": """
                import random

                def draw():
                    return random.random()
                """,
            }
        )
        assert "app.rand.draw" in project.taint("global-rng")


# -- XDET rules ------------------------------------------------------------


class TestXdetRules:
    def test_xdet101_visit_reaches_wall_clock(self):
        ids = project_rule_ids(
            {
                "app/helpers.py": """
                import time

                def stamp():
                    return time.time()
                """,
                "app/visit.py": """
                from app.helpers import stamp

                def simulate_visit():
                    return stamp()
                """,
            }
        )
        assert "XDET101" in ids

    def test_xdet101_negative_when_unreachable(self):
        ids = project_rule_ids(
            {
                "app/helpers.py": """
                import time

                def stamp():
                    return time.time()
                """,
                "app/other.py": """
                from app.helpers import stamp

                def offline_report():
                    return stamp()
                """,
            }
        )
        assert "XDET101" not in ids

    def test_xdet102_visit_reaches_global_rng(self):
        ids = project_rule_ids(
            {
                "app/rand.py": """
                import random

                def draw():
                    return random.random()
                """,
                "app/visit.py": """
                from app.rand import draw

                def simulate_visit():
                    return draw()
                """,
            }
        )
        assert "XDET102" in ids

    def test_xdet103_checkpoint_reaches_fs_order(self):
        ids = project_rule_ids(
            {
                "app/fsio.py": """
                import os

                def snapshot(path):
                    return os.listdir(path)
                """,
                "app/ckpt.py": """
                from app.fsio import snapshot

                def _write_checkpoint(path):
                    return snapshot(path)
                """,
            }
        )
        assert "XDET103" in ids

    def test_xdet103_negative_when_sorted(self):
        ids = project_rule_ids(
            {
                "app/fsio.py": """
                import os

                def snapshot(path):
                    return sorted(os.listdir(path))
                """,
                "app/ckpt.py": """
                from app.fsio import snapshot

                def _write_checkpoint(path):
                    return snapshot(path)
                """,
            }
        )
        assert "XDET103" not in ids

    def test_supervisor_crawl_is_a_visit_root(self):
        ids = project_rule_ids(
            {
                "app/clockio.py": """
                import time

                def now():
                    return time.time()
                """,
                "app/sup.py": """
                from app.clockio import now

                class CrawlSupervisor:
                    def crawl(self):
                        return now()
                """,
            }
        )
        assert "XDET101" in ids


# -- SHD rules -------------------------------------------------------------


class TestShardRules:
    def test_shd001_visit_path_mutation(self):
        ids = project_rule_ids(
            {
                "app/state.py": """
                CACHE = {}

                def remember(key, value):
                    CACHE[key] = value
                """,
                "app/visit.py": """
                from app.state import remember

                def simulate_visit():
                    remember("a", 1)
                """,
            }
        )
        assert "SHD001" in ids
        assert "SHD003" not in ids  # hot sites are not inventory entries

    def test_shd001_mutator_method_call(self):
        ids = project_rule_ids(
            {
                "app/state.py": """
                SEEN = []

                def simulate_visit(url):
                    SEEN.append(url)
                """,
            }
        )
        assert "SHD001" in ids

    def test_local_shadowing_is_clean(self):
        ids = project_rule_ids(
            {
                "app/state.py": """
                CACHE = {}

                def simulate_visit():
                    CACHE = {}
                    CACHE["a"] = 1
                    return CACHE
                """,
            }
        )
        assert ids == []

    def test_shd002_global_rebind(self):
        ids = project_rule_ids(
            {
                "app/state.py": """
                LIMIT = None

                def simulate_visit():
                    global LIMIT
                    LIMIT = 10
                """,
            }
        )
        assert "SHD002" in ids

    def test_shd003_inventory_off_visit_path(self):
        ids = project_rule_ids(
            {
                "app/registry.py": """
                REGISTRY = {}

                def register(name):
                    REGISTRY[name] = True
                """,
            }
        )
        assert ids == ["SHD003"]

    def test_shd003_suppressed_inline(self):
        ids = project_rule_ids(
            {
                "app/registry.py": """
                REGISTRY = {}  # repro-lint: disable=SHD003

                def register(name):
                    REGISTRY[name] = True
                """,
            }
        )
        assert ids == []

    def test_import_time_mutation_is_exempt(self):
        ids = project_rule_ids(
            {
                "app/registry.py": """
                REGISTRY = {}
                REGISTRY["boot"] = True
                """,
            }
        )
        assert ids == []


# -- BUS rules -------------------------------------------------------------

_BUSLIB = """
class BusEvent:
    pass


class Resolvable(BusEvent):
    pass
"""


class TestBusRules:
    def test_bus001_unsubscribed_event(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import BusEvent

                class Ping(BusEvent):
                    pass
                """,
            }
        )
        assert ids == ["BUS001"]

    def test_bus001_negative_with_subscriber(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import BusEvent

                class Ping(BusEvent):
                    pass
                """,
                "app/wire.py": """
                from app.events import Ping

                def on_ping(event):
                    return None

                def attach(bus):
                    bus.subscribe(Ping, on_ping)
                """,
            }
        )
        assert ids == []

    def test_bus001_base_subscription_covers_subclass(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import BusEvent

                class Fault(BusEvent):
                    pass

                class CrashFault(Fault):
                    pass
                """,
                "app/wire.py": """
                from app.events import Fault

                def on_fault(event):
                    return None

                def attach(bus):
                    bus.subscribe(Fault, on_fault)
                """,
            }
        )
        assert ids == []

    def test_bus002_published_resolvable_without_resolver(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import Resolvable

                class OverlaySeen(Resolvable):
                    pass
                """,
                "app/wire.py": """
                from app.events import OverlaySeen

                def confront(bus):
                    bus.publish(OverlaySeen())
                """,
            }
        )
        assert "BUS002" in ids

    def test_bus002_negative_when_handler_resolves(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import Resolvable

                class OverlaySeen(Resolvable):
                    pass
                """,
                "app/wire.py": """
                from app.events import OverlaySeen

                def on_overlay(event):
                    event.resolve("watchdog", "dismissed")

                def attach(bus):
                    bus.subscribe(OverlaySeen, on_overlay)

                def confront(bus):
                    bus.publish(OverlaySeen())
                """,
            }
        )
        assert "BUS002" not in ids

    def test_bus003_handler_mutates_payload(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import BusEvent

                class Ping(BusEvent):
                    pass
                """,
                "app/wire.py": """
                from app.events import Ping

                def on_ping(event):
                    event.note = "seen"

                def attach(bus):
                    bus.subscribe(Ping, on_ping)
                """,
            }
        )
        assert "BUS003" in ids

    def test_bus003_sanctioned_fields_are_clean(self):
        ids = project_rule_ids(
            {
                "app/buslib.py": _BUSLIB,
                "app/events.py": """
                from app.buslib import BusEvent

                class RunCmd(BusEvent):
                    pass
                """,
                "app/wire.py": """
                from app.events import RunCmd

                def on_cmd(event):
                    event.handled = True
                    event.result = 3

                def attach(bus):
                    bus.subscribe(RunCmd, on_cmd)
                """,
            }
        )
        assert "BUS003" not in ids


# -- driver integration ----------------------------------------------------

_MIXED_TREE = {
    "app/helpers.py": """
    import time

    def stamp():
        return time.time()
    """,
    "app/visit.py": """
    from app.helpers import stamp
    from app.state import remember

    def simulate_visit():
        remember("t", stamp())
    """,
    "app/state.py": """
    CACHE = {}

    def remember(key, value):
        CACHE[key] = value
    """,
    "app/buslib.py": _BUSLIB,
    "app/events.py": """
    from app.buslib import BusEvent

    class Ping(BusEvent):
        pass
    """,
}


class TestDriverIntegration:
    def test_whole_program_findings_flow_through_report(self, tmp_path):
        root = write_tree(tmp_path, _MIXED_TREE)
        report = run_lint([root], root=root)
        ids = {f.rule for f in report.new_findings}
        assert {"DET001", "XDET101", "SHD001", "BUS001"} <= ids

    def test_no_whole_program_flag_drops_graph_findings(self, tmp_path):
        root = write_tree(tmp_path, _MIXED_TREE)
        report = run_lint([root], root=root, whole_program=False)
        ids = {f.rule for f in report.new_findings}
        assert "DET001" in ids
        assert not ids & {"XDET101", "SHD001", "BUS001"}

    def test_serial_parallel_byte_identity_with_graph_findings(
        self, tmp_path
    ):
        root = write_tree(tmp_path, _MIXED_TREE)
        serial = run_lint([root], root=root, jobs=1)
        parallel = run_lint([root], root=root, jobs=4)
        assert render_json(serial) == render_json(parallel)
        assert render_text(serial) == render_text(parallel)
        assert render_sarif(serial) == render_sarif(parallel)

    def test_whole_program_findings_are_baselinable(self, tmp_path):
        root = write_tree(tmp_path, _MIXED_TREE)
        baseline_path = root / "lint-baseline.json"
        first = run_lint([root], root=root)
        Baseline.write(baseline_path, first.all_findings)
        second = run_lint(
            [root], root=root, baseline=Baseline.load(baseline_path)
        )
        assert second.new_findings == []
        assert len(second.baselined) == len(first.new_findings)
        assert second.exit_code == 0

    def test_baseline_rewrite_preserves_justifications(self, tmp_path):
        root = write_tree(tmp_path, _MIXED_TREE)
        baseline_path = root / "lint-baseline.json"
        report = run_lint([root], root=root)
        Baseline.write(baseline_path, report.all_findings)
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        fp = sorted(data["findings"])[0]
        data["findings"][fp]["justification"] = "intentional, see docs"
        baseline_path.write_text(json.dumps(data), encoding="utf-8")
        previous = Baseline.load(baseline_path)
        Baseline.write(baseline_path, report.all_findings, previous=previous)
        rewritten = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert rewritten["findings"][fp]["justification"] == (
            "intentional, see docs"
        )


# -- reporters -------------------------------------------------------------


class TestSarif:
    def test_sarif_round_trips_the_json_report(self, tmp_path):
        root = write_tree(tmp_path, _MIXED_TREE)
        report = run_lint([root], root=root)
        json_payload = json.loads(render_json(report))
        sarif = json.loads(render_sarif(report))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        sarif_keys = {
            (
                r["ruleId"],
                r["locations"][0]["physicalLocation"]["artifactLocation"][
                    "uri"
                ],
                r["locations"][0]["physicalLocation"]["region"]["startLine"],
                r["message"]["text"],
            )
            for r in run["results"]
        }
        json_keys = {
            (f["rule"], f["path"], f["line"], f["message"])
            for f in json_payload["findings"] + json_payload["baselined"]
        }
        assert sarif_keys == json_keys
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"XDET101", "SHD001", "BUS001", "DET001"} <= rule_ids

    def test_sarif_marks_baselined_as_suppressed(self, tmp_path):
        root = write_tree(tmp_path, _MIXED_TREE)
        baseline_path = root / "lint-baseline.json"
        first = run_lint([root], root=root)
        Baseline.write(baseline_path, first.all_findings)
        second = run_lint(
            [root], root=root, baseline=Baseline.load(baseline_path)
        )
        sarif = json.loads(render_sarif(second))
        results = sarif["runs"][0]["results"]
        assert results
        assert all(
            r.get("suppressions") == [{"kind": "external"}] for r in results
        )

    def test_cli_sarif_format(self, tmp_path, capsys):
        root = write_tree(tmp_path, _MIXED_TREE)
        code = main(
            [
                str(root),
                "--root",
                str(root),
                "--no-baseline",
                "--format",
                "sarif",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


class TestListRules:
    def test_rules_grouped_by_family_with_scopes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in (
            "bus-contract:",
            "determinism:",
            "shard:",
            "xdet:",
        ):
            assert family in out
        assert "  XDET101  [whole-program]" in out
        assert "  SHD001  [whole-program]" in out
        # Scoped per-module rules show the path components they bind to.
        assert "paths (" in out

    def test_family_sections_contain_their_rules(self, capsys):
        main(["--list-rules"])
        out = capsys.readouterr().out
        xdet_section = out.split("xdet:")[1]
        assert "XDET101" in xdet_section
        assert "XDET102" in xdet_section
        assert "XDET103" in xdet_section


# -- self-hosting meta-tests (acceptance criteria) -------------------------


@pytest.fixture(scope="module")
def repo_project() -> ProjectContext:
    files = collect_files([REPO_ROOT / "src" / "repro"], REPO_ROOT)
    return build_project(files)


class TestSelfHosting:
    def test_every_resolvable_has_a_resolving_handler(self, repo_project):
        bus = repo_project.bus
        resolvables = [
            qualname
            for qualname in bus.concrete_events()
            if bus.events[qualname].resolvable
        ]
        assert resolvables, "expected Resolvable events in repro.bus.events"
        for qualname in resolvables:
            subs = bus.subscriptions_for(qualname)
            assert subs, f"{qualname} has no subscriber"
            assert any(
                bus.handler_resolves(sub) for sub in subs
            ), f"{qualname} is never resolved by any handler"

    def test_every_default_watchdog_handler_is_registered(self, repo_project):
        registered = {
            sub.handler.qualname
            for sub in repo_project.bus.subscriptions
            if sub.handler is not None
        }
        expected = {
            "repro.crawl.watchdogs.crash.CrashWatchdog.on_fault_observed",
            "repro.crawl.watchdogs.modal.ModalOverlayWatchdog."
            "on_overlay_detected",
            "repro.crawl.watchdogs.modal.ModalOverlayWatchdog."
            "on_challenge_detected",
            "repro.crawl.watchdogs.modal.ModalOverlayWatchdog."
            "on_input_obstructed",
            "repro.crawl.watchdogs.recycle.RecycleWatchdog.on_fault_observed",
            "repro.crawl.watchdogs.stall.StallWatchdog.on_page_stalled",
            "repro.crawl.supervisor.CrawlSupervisor._on_recycle_requested",
            "repro.browser.session.BrowserSession.on_navigate",
            "repro.browser.session.BrowserSession.on_query",
            "repro.browser.session.BrowserSession.on_run_script",
        }
        missing = expected - registered
        assert not missing, f"handlers invisible to BUS rules: {missing}"

    def test_visit_reachable_shard_inventory_is_empty(self, repo_project):
        reach = repo_project.reachable(families=("visit",))
        # The sharded executor path is visit scope: its entry points
        # (run_sharded_crawl driving run_shard driving the supervisor's
        # crawl) are visit roots, so SHD001-003 police the pool workers too.
        expected_shard_scope = {
            "repro.shard.executor.run_sharded_crawl",
            "repro.shard.worker.run_shard",
            "repro.shard.worker.build_supervisor",
            "repro.shard.state.fault_log_from_spans",
            "repro.shard.merge.ShardMerge.fold_shard",
            "repro.crawl.supervisor.CrawlSupervisor.crawl",
        }
        missing = expected_shard_scope - set(reach)
        assert not missing, (
            f"repro.shard entry points missing from visit scope: {missing}"
        )
        reached_modules = {q.rsplit(".", 2)[0] for q in reach}
        assert any(m.startswith("repro.shard") for m in reached_modules)
        hot = [
            site
            for site in repo_project.mutation_sites
            if site.owner in reach
        ]
        assert hot == [], (
            "module-level mutable state reachable from visit paths: "
            f"{[(s.target, s.owner) for s in hot]}"
        )

    def test_baselined_whole_program_entries_are_justified(self):
        baseline_path = REPO_ROOT / "lint-baseline.json"
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        for fp, entry in data["findings"].items():
            family = entry["rule"][:3]
            if family in ("SHD", "BUS", "XDE"):
                assert entry.get("justification"), (
                    f"baselined whole-program finding {fp} ({entry['rule']} "
                    f"in {entry['path']}) has no justification"
                )

    def test_whole_program_pass_is_deterministic(self, repo_project):
        files = collect_files([REPO_ROOT / "src" / "repro"], REPO_ROOT)
        from repro.lint.graph import lint_project

        first, first_suppressed = lint_project(files)
        second, second_suppressed = lint_project(files)
        assert first == second
        assert first_suppressed == second_suppressed
