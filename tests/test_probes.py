"""The probe ledger: recording, instrumentation, attribution, diffing."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.browser.navigator import NavigatorProfile, make_navigator
from repro.browser.window import Window
from repro.clock import VirtualClock
from repro.crawl import (
    CrawlSupervisor,
    OpenWPMCrawler,
    PopulationConfig,
    generate_population,
)
from repro.detection.fingerprint import (
    PROBE_WEBDRIVER_FLAG,
    SideEffect,
    run_all_probes,
)
from repro.jsobject import (
    JSObject,
    JSProxy,
    JSTypeError,
    NativeFunction,
    PropertyDescriptor,
)
from repro.obs.attribute import (
    VANILLA_GROUP,
    build_attribution,
    record_table1_ledger,
)
from repro.obs.cli import main as obs_main
from repro.obs.diff import ExportKindError, diff_exports
from repro.obs.metrics import crawl_metrics
from repro.obs.probes import (
    PROBE_SCOPE_PREFIX,
    ENTRY_KEYS,
    SPOOF_SCOPE_PREFIX,
    ProbeLedger,
    instrument,
    instrument_window,
    ledger_to_jsonl,
    parse_ledger,
    read_ledger,
    write_ledger,
)
from repro.spoofing import SpoofingExtension
from repro.spoofing.methods import SpoofingMethod, apply_spoofing


def automated_window() -> Window:
    return Window(profile=NavigatorProfile(webdriver=True))


def ops(ledger: ProbeLedger):
    return [entry["op"] for entry in ledger.entries]


# -- the ledger itself -----------------------------------------------------


class TestProbeLedger:
    def test_sequential_ids_and_virtual_clock(self):
        clock = VirtualClock()
        ledger = ProbeLedger(clock=clock)
        ledger.record("get", "navigator", key="webdriver")
        clock.advance(25.0)
        ledger.record("ownKeys", "navigator")
        assert [e["entry_id"] for e in ledger.entries] == [1, 2]
        assert [e["ts_ms"] for e in ledger.entries] == [0.0, 25.0]

    def test_scopes_nest_and_pop(self):
        ledger = ProbeLedger()
        ledger.record("get", "navigator")
        with ledger.scope("outer"):
            ledger.record("get", "navigator")
            with ledger.scope("inner"):
                ledger.record("get", "navigator")
            ledger.record("get", "navigator")
        ledger.record("get", "navigator")
        assert [e["scope"] for e in ledger.entries] == [
            "",
            "outer",
            "outer/inner",
            "outer",
            "",
        ]

    def test_scope_pops_on_exception(self):
        ledger = ProbeLedger()
        with pytest.raises(RuntimeError):
            with ledger.scope("doomed"):
                raise RuntimeError("boom")
        ledger.record("get", "navigator")
        assert ledger.entries[-1]["scope"] == ""

    def test_metrics_folding(self):
        ledger = ProbeLedger()
        with ledger.scope(PROBE_SCOPE_PREFIX + "NEW_OBJECT_KEYS"):
            ledger.record("ownKeys", "navigator")
            ledger.record("get", "navigator", key="webdriver")
        with ledger.scope("not-a-probe"):
            ledger.record("get", "navigator")
        with ledger.scope(PROBE_SCOPE_PREFIX + "READS_NOTHING"):
            pass
        # Only detector.probe scopes have a size; an empty one counts 0.
        assert ledger.probe_sizes == [2, 0]
        metrics = crawl_metrics([], ledger.state_dict())
        assert metrics["counters"] == {"probe.ops.get": 2, "probe.ops.ownKeys": 1}
        histogram = metrics["histograms"]["probe_accesses_per_probe"]
        assert histogram["count"] == 2
        assert histogram["total"] == 2.0
        assert histogram["buckets"][0] == 1  # the empty probe

    def test_state_roundtrip(self):
        ledger = ProbeLedger()
        with ledger.scope("a"):
            ledger.record("get", "navigator", key="x", detail={"n": 1})
        with ledger.scope(PROBE_SCOPE_PREFIX + "P"):
            ledger.record("get", "navigator", key="y")
        other = ProbeLedger()
        other.load_state(json.loads(json.dumps(ledger.state_dict())))
        assert other.entries == ledger.entries
        assert other.probe_sizes == ledger.probe_sizes == [1]
        other.record("set", "navigator")
        assert other.entries[-1]["entry_id"] == 3

    def test_jsonl_roundtrip_is_canonical(self):
        ledger = ProbeLedger()
        ledger.record("ownKeys", "navigator", detail={"keys": ["b", "a"]})
        text = ledger_to_jsonl(ledger.entries)
        line = text.splitlines()[0]
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert parse_ledger(text) == ledger.entries

    def test_write_and_read_ledger(self, tmp_path):
        ledger = ProbeLedger()
        ledger.record("get", "navigator", key="webdriver")
        path = write_ledger(tmp_path / "ledger.jsonl", ledger)
        assert read_ledger(path) == ledger.entries

    @pytest.mark.parametrize("key", [*sorted(ENTRY_KEYS), "extra"])
    def test_parse_refuses_a_line_without_exactly_the_entry_keys(self, key):
        ledger = ProbeLedger()
        ledger.record("get", "navigator", key="webdriver")
        ledger.record("get", "navigator", key="plugins")
        # Line 2 lacks one of the eight keys, or holds one more.
        broken = ledger.entries[1]
        if key in broken:
            del broken[key]
        else:
            broken[key] = None
        with pytest.raises(ValueError, match="ledger line 2"):
            parse_ledger(ledger_to_jsonl(ledger.entries))


# -- jsobject hook points --------------------------------------------------


class TestJSObjectHooks:
    def instrumented(self):
        ledger = ProbeLedger()
        obj = JSObject()
        obj.define_property(
            "answer", PropertyDescriptor.data(42, enumerable=True)
        )
        instrument(obj, ledger, "thing")
        return obj, ledger

    def test_uninstrumented_objects_record_nothing(self):
        obj = JSObject()
        obj.define_property("a", PropertyDescriptor.data(1, enumerable=True))
        obj.get("a"), obj.has("a"), obj.own_property_names()
        assert JSObject._probe_ledger is None

    def test_get_set_has_delete(self):
        obj, ledger = self.instrumented()
        obj.get("answer")
        obj.set("answer", 43)
        obj.has("answer")
        obj.has_own("missing")
        obj.delete("answer")
        recorded = [(e["op"], e["key"]) for e in ledger.entries]
        assert recorded == [
            ("get", "answer"),
            ("set", "answer"),
            ("has", "answer"),
            ("hasOwn", "missing"),
            ("delete", "answer"),
        ]
        assert ledger.entries[2]["detail"] == {"result": True}
        assert ledger.entries[3]["detail"] == {"result": False}
        assert ledger.entries[4]["detail"] == {"result": True}

    def test_define_property_and_enumeration(self):
        obj, ledger = self.instrumented()
        obj.define_property(
            "extra", PropertyDescriptor.data(1, enumerable=True)
        )
        names = obj.own_property_names()
        enumerable = obj.own_enumerable_names()
        entries = ledger.entries
        assert entries[0]["op"] == "defineProperty"
        assert entries[0]["detail"]["kind"] == "data"
        assert entries[1]["op"] == "ownKeys"
        assert entries[1]["detail"] == {"keys": names}
        assert entries[2]["op"] == "enumerate"
        assert entries[2]["detail"] == {"keys": enumerable}

    def test_prototype_operations(self):
        ledger = ProbeLedger()
        proto = JSObject()
        obj = JSObject(proto=proto)
        instrument(obj, ledger, "thing")
        assert obj.proto is proto
        obj.set_prototype_of(JSObject())
        assert ops(ledger) == ["getPrototypeOf", "setPrototypeOf"]

    def test_getter_invocation_recorded_on_holder(self):
        ledger = ProbeLedger()
        proto = JSObject()
        proto.define_property(
            "computed",
            PropertyDescriptor.accessor(get=lambda this: 7, enumerable=True),
        )
        obj = JSObject(proto=proto)
        instrument(obj, ledger, "thing")
        assert obj.get("computed") == 7
        recorded = [(e["op"], e["obj"]) for e in ledger.entries]
        assert recorded == [
            ("get", "thing"),
            ("getter", "thing.__proto__"),
        ]
        assert ledger.entries[1]["detail"] == {"native": False}


class TestFunctionHooks:
    def test_native_tostring_recorded(self):
        ledger = ProbeLedger()
        fn = NativeFunction(lambda this: None, name="sendBeacon")
        fn._probe_ledger = ledger
        fn._probe_label = "navigator.sendBeacon"
        fn.to_string()
        entry = ledger.entries[0]
        assert entry["op"] == "toString"
        assert entry["detail"] == {"name": "sendBeacon", "native": True}

    def test_brand_check_throw_recorded(self):
        ledger = ProbeLedger()
        navigator = make_navigator(NavigatorProfile(webdriver=True))
        instrument(navigator, ledger, "navigator")
        proto = navigator.proto
        with pytest.raises(JSTypeError):
            proto.get("webdriver", receiver=proto)
        brand_checks = [e for e in ledger.entries if e["op"] == "brandCheck"]
        assert len(brand_checks) == 1
        assert brand_checks[0]["detail"]["result"] == "throw"
        assert brand_checks[0]["key"] == "webdriver"

    def test_bound_anonymous_wrapper_inherits_ledger(self):
        ledger = ProbeLedger()
        navigator = make_navigator(NavigatorProfile(webdriver=True))
        instrument(navigator, ledger, "navigator")
        to_string = navigator.get("toString")
        wrapper = to_string.bound_anonymous(navigator)
        start = len(ledger)
        wrapper.to_string()
        entry = ledger.slice_from(start)[-1]
        assert entry["op"] == "toString"
        assert entry["detail"] == {"name": "", "native": True}


# -- proxy trap vs forward -------------------------------------------------


class TestProxyForwarding:
    def handlerless_pair(self):
        """Two identical targets: one behind an instrumented handler-less
        proxy, one bare and uninstrumented."""

        def build():
            target = JSObject()
            target.define_property(
                "a", PropertyDescriptor.data(1, enumerable=True)
            )
            target.define_property(
                "b", PropertyDescriptor.data(2, enumerable=True)
            )
            return target

        ledger = ProbeLedger()
        proxy = JSProxy(build(), handler={})
        instrument(proxy, ledger, "navigator")
        return proxy, build(), ledger

    def test_forward_entries_and_state_parity(self):
        proxy, bare, ledger = self.handlerless_pair()
        for obj in (proxy, bare):
            obj.set("a", 10)
            obj.set("c", 3)
            assert obj.has("a") is True
            assert obj.delete("b") is True
            assert obj.has("b") is False
        # the instrumented proxy forwarded every operation...
        forwarded = [
            (e["op"], e["key"]) for e in ledger.entries if e["via"] == "forward"
        ]
        assert ("set", "a") in forwarded
        assert ("set", "c") in forwarded
        assert ("has", "a") in forwarded
        assert ("deleteProperty", "b") in forwarded
        assert ("has", "b") in forwarded
        # ...and left the target exactly where the uninstrumented bare
        # object ended up.
        assert proxy.target.own_property_names() == bare.own_property_names()
        for name in bare.own_property_names():
            assert proxy.target.get(name) == bare.get(name)

    def test_trap_vs_forward_distinction(self):
        ledger = ProbeLedger()
        target = JSObject()
        target.define_property(
            "x", PropertyDescriptor.data(1, enumerable=True)
        )
        proxy = JSProxy(target, handler={"get": lambda t, k, r: 99})
        instrument(proxy, ledger, "navigator")
        assert proxy.get("x") == 99
        assert proxy.has("x") is True
        vias = [
            (e["op"], e["via"]) for e in ledger.entries if e["obj"] == "navigator"
        ]
        assert ("get", "trap") in vias
        assert ("has", "forward") in vias

    def test_own_keys_and_descriptor_record(self):
        proxy, _, ledger = self.handlerless_pair()
        proxy.own_property_names()
        proxy.get_own_property("a")
        recorded = [(e["op"], e["via"]) for e in ledger.entries]
        assert ("ownKeys", "forward") in recorded
        assert ("getOwnPropertyDescriptor", "forward") in recorded


# -- instrumentation -------------------------------------------------------


class TestInstrument:
    def test_attachment_records_nothing_and_is_idempotent(self):
        ledger = ProbeLedger()
        navigator = make_navigator(NavigatorProfile(webdriver=True))
        instrument(navigator, ledger, "navigator")
        instrument(navigator, ledger, "navigator")
        assert len(ledger) == 0
        assert navigator._probe_ledger is ledger
        assert navigator.proto._probe_label == "navigator.__proto__"
        assert len(ledger) == 1  # .proto above is an observable read

    def test_make_navigator_accepts_ledger(self):
        ledger = ProbeLedger()
        navigator = make_navigator(
            NavigatorProfile(webdriver=True), ledger=ledger
        )
        assert navigator._probe_ledger is ledger
        assert len(ledger) == 0

    def test_instrument_window_attaches_to_window(self):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        assert window.probe_ledger is ledger
        assert window.navigator._probe_ledger is ledger


# -- spoofing scopes -------------------------------------------------------


class TestSpoofScopes:
    @pytest.mark.parametrize("method", list(SpoofingMethod))
    def test_install_scope_labels(self, method):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        apply_spoofing(window, method)
        scope = SPOOF_SCOPE_PREFIX + method.name.lower()
        install_entries = [e for e in ledger.entries if e["scope"] == scope]
        # methods 1-3 manipulate the instrumented graph during install;
        # method 4 only wraps it in a fresh proxy (nothing to record).
        if method is SpoofingMethod.PROXY:
            assert install_entries == []
        else:
            assert install_entries
            assert all(e["scope"].startswith(scope) for e in install_entries)

    def test_proxy_reinstrumented_after_install(self):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        apply_spoofing(window, SpoofingMethod.PROXY)
        assert isinstance(window.navigator, JSProxy)
        assert window.navigator._probe_ledger is ledger

    def test_extension_inject_scope(self):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        SpoofingExtension(SpoofingMethod.DEFINE_PROPERTY).inject(window)
        scopes = {e["scope"] for e in ledger.entries}
        assert (
            "extension.inject:define_property/"
            + SPOOF_SCOPE_PREFIX
            + "define_property"
        ) in scopes

    def test_uninstrumented_spoofing_unchanged(self):
        window = automated_window()
        apply_spoofing(window, SpoofingMethod.PROXY)
        result = run_all_probes(window)
        assert result.side_effects == {SideEffect.UNNAMED_FUNCTIONS}


# -- detection wiring ------------------------------------------------------

#: Table 1 ground truth (side effects per method, from the paper).
TABLE1 = {
    SpoofingMethod.DEFINE_PROPERTY: {
        SideEffect.INCORRECT_PROPERTY_ORDER,
        SideEffect.MODIFIED_LENGTH,
        SideEffect.NEW_OBJECT_KEYS,
    },
    SpoofingMethod.DEFINE_GETTER: {
        SideEffect.INCORRECT_PROPERTY_ORDER,
        SideEffect.MODIFIED_LENGTH,
        SideEffect.NEW_OBJECT_KEYS,
    },
    SpoofingMethod.SET_PROTOTYPE_OF: {SideEffect.PROTO_WEBDRIVER_DEFINED},
    SpoofingMethod.PROXY: {SideEffect.UNNAMED_FUNCTIONS},
}


class TestDetectionWiring:
    @pytest.mark.parametrize("method", list(SpoofingMethod))
    def test_instrumented_probes_match_uninstrumented(self, method):
        plain = automated_window()
        apply_spoofing(plain, method)
        expected = run_all_probes(plain).side_effects

        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        apply_spoofing(window, method)
        result = run_all_probes(window)
        assert result.side_effects == expected == TABLE1[method]

    @pytest.mark.parametrize("method", list(SpoofingMethod))
    def test_each_side_effect_carries_its_ledger_slice(self, method):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        apply_spoofing(window, method)
        result = run_all_probes(window)
        assert set(result.ledger_slices) == result.side_effects
        for effect, slice_entries in result.ledger_slices.items():
            assert slice_entries, f"empty slice for {effect}"
            scope = PROBE_SCOPE_PREFIX + effect.name
            assert all(scope in e["scope"] for e in slice_entries)
            # the slice ends with the probe's own verdict
            assert slice_entries[-1]["op"] == "probe.result"
            assert slice_entries[-1]["detail"] == {"fired": True}

    def test_probe_slices_cover_every_probe(self):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        result = run_all_probes(window)
        assert PROBE_WEBDRIVER_FLAG in result.probe_slices
        for effect in SideEffect:
            assert effect.name in result.probe_slices

    def test_vanilla_instrumented_window_fires_nothing(self):
        ledger = ProbeLedger()
        window = automated_window()
        instrument_window(window, ledger)
        result = run_all_probes(window)
        assert result.side_effects == set()
        assert result.ledger_slices == {}


# -- attribution -----------------------------------------------------------


class TestAttribution:
    @pytest.fixture(scope="class")
    def report(self):
        ledger = record_table1_ledger()
        # the acceptance bar: attribution works from the serialised
        # ledger alone, with no in-memory objects.
        entries = parse_ledger(ledger_to_jsonl(ledger.entries))
        return build_attribution(entries)

    def test_reconstructs_table1_exactly(self, report):
        assert report.baseline == VANILLA_GROUP
        for method, expected in TABLE1.items():
            label = f"method:{method.value}:{method.name.lower()}"
            group = report.group(label)
            assert group is not None, label
            assert set(group.side_effects) == {e.name for e in expected}

    def test_vanilla_group_reports_only_webdriver_flag(self, report):
        group = report.group(VANILLA_GROUP)
        assert group.side_effects == [PROBE_WEBDRIVER_FLAG]

    def test_every_side_effect_has_concrete_culprits(self, report):
        for method, expected in TABLE1.items():
            label = f"method:{method.value}:{method.name.lower()}"
            group = report.group(label)
            for probe in group.probes:
                if not probe.fired:
                    continue
                assert probe.culprits, f"{label}/{probe.probe} has no culprits"
                anchored = [
                    c for c in probe.culprits if c.entry_ids
                ]
                assert anchored, f"{label}/{probe.probe} culprits lack entries"
                for culprit in anchored:
                    assert culprit.op
                    # the property key is on the culprit or in its payload
                    assert (
                        culprit.key is not None
                        or culprit.detail_observed
                        or culprit.kind == "added"
                    )

    def test_known_culprits(self, report):
        keys_probe = next(
            p
            for p in report.group("method:1:define_property").probes
            if p.probe == SideEffect.NEW_OBJECT_KEYS.name
        )
        enumerate_culprit = next(
            c for c in keys_probe.culprits if c.op == "enumerate"
        )
        assert enumerate_culprit.detail_observed == {"keys": ["webdriver"]}

        unnamed_probe = next(
            p
            for p in report.group("method:4:proxy").probes
            if p.probe == SideEffect.UNNAMED_FUNCTIONS.name
        )
        tostring_culprit = next(
            c
            for c in unnamed_probe.culprits
            if c.op == "toString" and c.kind == "changed"
        )
        assert tostring_culprit.detail_observed["name"] == ""

    def test_external_baseline_used_without_vanilla_group(self):
        spoofed = ProbeLedger()
        window = automated_window()
        instrument_window(window, spoofed)
        apply_spoofing(window, SpoofingMethod.DEFINE_PROPERTY)
        run_all_probes(window)

        vanilla = ProbeLedger()
        window = automated_window()
        instrument_window(window, vanilla)
        run_all_probes(window)

        report = build_attribution(spoofed.entries, vanilla.entries)
        assert report.baseline == "(external baseline)"
        group = report.group("crawl")
        fired = {p.probe for p in group.probes if p.fired}
        assert fired == {e.name for e in TABLE1[SpoofingMethod.DEFINE_PROPERTY]}
        for probe in group.probes:
            if probe.fired:
                assert probe.culprits

    def test_no_baseline_still_reports_fired(self):
        spoofed = ProbeLedger()
        window = automated_window()
        instrument_window(window, spoofed)
        apply_spoofing(window, SpoofingMethod.PROXY)
        run_all_probes(window)
        report = build_attribution(spoofed.entries)
        assert report.baseline is None
        group = report.group("crawl")
        assert SideEffect.UNNAMED_FUNCTIONS.name in group.side_effects
        assert all(not p.culprits for p in group.probes)

    def test_renderings(self, report):
        text = report.render_text()
        assert "method:4:proxy" in text
        assert "UNNAMED_FUNCTIONS" in text
        data = json.loads(report.render_json())
        assert len(data["groups"]) == 5

    def test_ledger_is_deterministic(self):
        a = ledger_to_jsonl(record_table1_ledger().entries)
        b = ledger_to_jsonl(record_table1_ledger().entries)
        assert a == b


# -- diffing ---------------------------------------------------------------


class TestDiff:
    def sample_ledger(self):
        ledger = ProbeLedger()
        with ledger.scope("a"):
            ledger.record("get", "navigator", key="webdriver")
            ledger.record("ownKeys", "navigator", detail={"keys": []})
        return ledger

    def test_identical(self, tmp_path):
        ledger = self.sample_ledger()
        a = write_ledger(tmp_path / "a.jsonl", ledger)
        b = write_ledger(tmp_path / "b.jsonl", ledger)
        result = diff_exports(a, b)
        assert result.identical
        assert result.kind == "ledger"
        assert "identical: yes" in result.render_text()

    def test_added_removed_changed(self, tmp_path):
        base = self.sample_ledger()
        a = write_ledger(tmp_path / "a.jsonl", base)
        modified = [dict(e) for e in base.entries]
        modified[1]["key"] = "changed-key"
        extra = {
            "entry_id": 3,
            "ts_ms": 0.0,
            "scope": "a",
            "obj": "navigator",
            "op": "has",
            "key": None,
            "via": None,
            "detail": None,
        }
        b = write_ledger(tmp_path / "b.jsonl", modified + [extra])
        result = diff_exports(a, b)
        assert not result.identical
        assert result.added == [3]
        assert result.removed == []
        assert len(result.changed) == 1
        change = result.changed[0]
        assert change.record_id == 2
        assert [c.field for c in change.changes] == ["key"]
        text = result.render_text()
        assert "+ entry_id=3" in text and "entry_id=2 key" in text

    def test_kind_mismatch_raises(self, tmp_path):
        ledger_path = write_ledger(tmp_path / "a.jsonl", self.sample_ledger())
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text(
            '{"span_id":1,"parent_id":0,"name":"crawl","start_ms":0.0,'
            '"end_ms":1.0,"status":"ok","attrs":{},"events":[]}\n'
        )
        with pytest.raises(ExportKindError):
            diff_exports(ledger_path, trace_path)

    def test_traces_diff_too(self, tmp_path):
        trace_line = (
            '{"span_id":1,"parent_id":0,"name":"crawl","start_ms":0.0,'
            '"end_ms":1.0,"status":"ok","attrs":{},"events":[]}\n'
        )
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(trace_line)
        b.write_text(trace_line.replace('"ok"', '"failed:transient"'))
        result = diff_exports(a, b)
        assert result.kind == "trace"
        assert [c.changes[0].field for c in result.changed] == ["status"]

    def test_empty_files_diff_clean(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text("")
        b.write_text("")
        assert diff_exports(a, b).identical


# -- CLI -------------------------------------------------------------------


class TestCli:
    def test_diff_exit_codes(self, tmp_path, capsys):
        ledger = ProbeLedger()
        ledger.record("get", "navigator")
        a = write_ledger(tmp_path / "a.jsonl", ledger)
        b = write_ledger(tmp_path / "b.jsonl", ledger)
        assert obs_main(["diff", str(a), str(b)]) == 0
        assert "identical: yes" in capsys.readouterr().out
        ledger.record("set", "navigator")
        write_ledger(b, ledger)
        assert obs_main(["diff", str(a), str(b)]) == 1
        assert obs_main(["diff", str(a), str(tmp_path / "missing.jsonl")]) == 2

    def test_diff_json_output(self, tmp_path, capsys):
        ledger = ProbeLedger()
        ledger.record("get", "navigator")
        a = write_ledger(tmp_path / "a.jsonl", ledger)
        assert obs_main(["diff", str(a), str(a), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["identical"] is True

    def test_attribute_text_and_json(self, tmp_path, capsys):
        path = write_ledger(
            tmp_path / "table1.jsonl", record_table1_ledger()
        )
        assert obs_main(["attribute", str(path)]) == 0
        out = capsys.readouterr().out
        assert "method:4:proxy" in out and "UNNAMED_FUNCTIONS" in out
        out_path = tmp_path / "attribution.json"
        assert (
            obs_main(
                [
                    "attribute",
                    str(path),
                    "--format",
                    "json",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        data = json.loads(out_path.read_text())
        assert data["baseline"] == VANILLA_GROUP

    def test_attribute_missing_file(self, tmp_path, capsys):
        assert obs_main(["attribute", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such ledger" in capsys.readouterr().err

    @pytest.mark.parametrize("as_baseline", [False, True])
    @pytest.mark.parametrize(
        "line", ['{"entry_id":1,"op":"get"}', "[1, 2]", "not json"]
    )
    def test_attribute_malformed_ledger_is_an_error(
        self, tmp_path, capsys, line, as_baseline
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        good = write_ledger(tmp_path / "table1.jsonl", record_table1_ledger())
        paths = [good, bad] if as_baseline else [bad]
        assert obs_main(["attribute", *map(str, paths)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")


# -- supervised crawls -----------------------------------------------------


def ledger_population(n=24):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=3,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=1,
            n_other_signal_ad_detectors=1,
            n_side_effect_blockers=1,
            n_http_only_detectors=2,
        )
    )


def ledger_supervisor(name="ledgered", extension=True, ledger=None):
    crawler = OpenWPMCrawler(
        name,
        extension=SpoofingExtension() if extension else None,
        instances=2,
        seed=7,
    )
    return CrawlSupervisor(crawler, probe_ledger=ledger)


class TestSupervisedLedger:
    def test_off_by_default(self):
        sup = ledger_supervisor()
        sup.crawl(ledger_population())
        assert sup.ledger is None

    def test_ledger_path_requires_ledger(self, tmp_path):
        sup = ledger_supervisor()
        with pytest.raises(ValueError, match="no probe ledger"):
            sup.crawl(
                ledger_population(), ledger_path=tmp_path / "ledger.jsonl"
            )

    def test_same_seed_ledgers_byte_identical(self, tmp_path):
        population = ledger_population()
        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.jsonl"
            ledger_supervisor(name, ledger=ProbeLedger()).crawl(
                population, ledger_path=path
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes()  # the crawl actually recorded

    def test_resume_ledger_byte_identical(self, tmp_path):
        population = ledger_population()
        full_path = tmp_path / "full.jsonl"
        ledger_supervisor("crawl", ledger=ProbeLedger()).crawl(
            population, ledger_path=full_path
        )

        ckpt = tmp_path / "ckpt.json"
        first = ledger_supervisor("crawl", ledger=ProbeLedger())
        first.config.checkpoint_every_sites = 1
        first.crawl(population[: len(population) // 2], checkpoint_path=ckpt)

        resumed_path = tmp_path / "resumed.jsonl"
        resumed = ledger_supervisor("crawl", ledger=ProbeLedger())
        resumed.crawl(
            population, checkpoint_path=ckpt, ledger_path=resumed_path
        )
        assert resumed.stats.resumed > 0
        assert full_path.read_bytes() == resumed_path.read_bytes()

    def test_checkpoint_omits_ledger_when_off(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        sup = ledger_supervisor()
        sup.crawl(ledger_population(), checkpoint_path=ckpt)
        assert "ledger" not in json.loads(ckpt.read_text())

    def test_entries_keep_one_form_in_ledger_export_and_checkpoint(self, tmp_path):
        ledger = ProbeLedger()
        checkpoint = tmp_path / "ckpt.json"
        ledger_path = tmp_path / "ledger.jsonl"
        ledger_supervisor(ledger=ledger).crawl(
            ledger_population(), checkpoint_path=checkpoint, ledger_path=ledger_path
        )
        lines = [json.loads(line) for line in ledger_path.read_text().splitlines()]
        state = json.loads(checkpoint.read_text())["ledger"]
        assert ledger.entries  # the crawl actually recorded
        assert ledger.entries == lines == state["entries"]
        restored = ProbeLedger()
        restored.load_state(state)
        assert len(restored.entries) == len(state["entries"])
        assert all(
            mine is theirs for mine, theirs in zip(restored.entries, state["entries"])
        )

    def test_checkpoint_carries_ledger_when_on(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        ledger = ProbeLedger()
        sup = ledger_supervisor(ledger=ledger)
        sup.crawl(ledger_population(), checkpoint_path=ckpt)
        payload = json.loads(ckpt.read_text())
        assert payload["ledger"] == ledger.state_dict()

    @pytest.mark.parametrize(
        "crawls", [1, 2], ids=["one-crawl", "two-crawls"]
    )
    def test_ledger_metrics_folded_from_the_ledger(self, tmp_path, crawls):
        # The second crawl() reloads the ledger from the checkpoint; the
        # fold must count its restored entries and probe sizes too.
        population = ledger_population()
        ledger = ProbeLedger()
        sup = ledger_supervisor(ledger=ledger)
        if crawls == 2:
            checkpoint = tmp_path / "ckpt.json"
            sup.crawl(
                population[: len(population) // 2], checkpoint_path=checkpoint
            )
            sup.crawl(population, checkpoint_path=checkpoint)
        else:
            sup.crawl(population)
        assert len(ledger) > 0
        state = sup.metrics_state()
        op_counters = {
            name[len("probe.ops."):]: value
            for name, value in state["counters"].items()
            if name.startswith("probe.ops.")
        }
        assert op_counters == dict(Counter(e["op"] for e in ledger.entries))
        histogram = state["histograms"]["probe_accesses_per_probe"]
        assert histogram["count"] == len(ledger.probe_sizes) > 0

    def test_crawl_ledger_scopes_are_probe_scopes(self):
        ledger = ProbeLedger()
        sup = ledger_supervisor(ledger=ledger)
        sup.crawl(ledger_population())
        assert all(
            e["scope"].startswith(PROBE_SCOPE_PREFIX) for e in ledger.entries
        )

    def test_probe_ledger_span_event_emitted(self):
        ledger = ProbeLedger()
        sup = ledger_supervisor(ledger=ledger)
        sup.crawl(ledger_population())
        events = [
            event
            for span in sup.tracer.spans
            for event in span["events"]
            if event["name"] == "probe.ledger"
        ]
        assert events
        assert sum(e["attrs"]["entries"] for e in events) == len(ledger)
