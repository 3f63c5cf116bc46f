"""repro.obs: deterministic spans, metrics, trace export, crawl report."""

import json

import pytest

from repro.clock import VirtualClock
from repro.crawl import (
    CrawlSupervisor,
    OpenWPMCrawler,
    PopulationConfig,
    SupervisorConfig,
    generate_population,
)
from repro.faults import FaultPlan
from repro.faults.plan import ScheduledFault
from repro.faults.types import FaultType
from repro.obs import (
    NULL_TRACER,
    Histogram,
    ProbeLedger,
    Tracer,
    build_report,
    crawl_metrics,
    parse_trace,
    read_trace,
    trace_to_jsonl,
    write_trace,
)
from repro.obs.cli import main as obs_main
from repro.obs.span import duration_ms


def tiny_population(n=10, seed=3):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=seed,
            n_no_ads_detectors=0,
            n_less_ads_detectors=0,
            n_block_detectors=1,
            n_captcha_detectors=0,
            n_freeze_video_detectors=0,
            n_other_signal_ad_detectors=0,
            n_side_effect_blockers=0,
            n_http_only_detectors=1,
        )
    )


def make_supervisor(population, fault_rate=0.2, seed=7, instances=2, **config):
    crawler = OpenWPMCrawler("obs", instances=instances, seed=seed)
    plan = FaultPlan.generate(population, instances, rate=fault_rate, seed=5)
    return CrawlSupervisor(crawler, config=SupervisorConfig(**config), plan=plan)


class TestSpans:
    def test_nesting_parent_ids_and_start_order(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        a = tracer.start("crawl")
        b = tracer.start("visit")
        clock.advance(5.0)
        c = tracer.start("attempt")
        tracer.end(c)
        tracer.end(b)
        d = tracer.start("visit")
        tracer.end(d)
        tracer.end(a)
        assert [s["span_id"] for s in tracer.spans] == [1, 2, 3, 4]
        assert a["parent_id"] == 0
        assert b["parent_id"] == a["span_id"]
        assert c["parent_id"] == b["span_id"]
        assert d["parent_id"] == a["span_id"]
        assert c["start_ms"] == 5.0 and duration_ms(b) == 5.0

    def test_end_enforces_lifo_discipline(self):
        tracer = Tracer(VirtualClock())
        outer = tracer.start("outer")
        tracer.start("inner")
        with pytest.raises(ValueError):
            tracer.end(outer)

    def test_events_attach_to_innermost_open_span(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        clock.advance(3.0)
        tracer.event("fault", fault_type="driver-crash")
        tracer.end(inner)
        tracer.event("backoff", delay_ms=500.0)
        tracer.end(outer)
        assert inner["events"] == [
            {"ts_ms": 3.0, "name": "fault", "attrs": {"fault_type": "driver-crash"}}
        ]
        assert [e["name"] for e in outer["events"]] == ["backoff"]

    def test_context_manager_marks_error_status(self):
        tracer = Tracer(VirtualClock())
        with pytest.raises(RuntimeError):
            with tracer.span("risky"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span["status"] == "error:RuntimeError"
        assert span["end_ms"] is not None

    def test_state_roundtrip_preserves_open_stack(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        tracer.start("crawl")
        tracer.start("visit")
        clock.advance(7.0)
        state = json.loads(json.dumps(tracer.state_dict()))
        other = Tracer(VirtualClock(clock.now()))
        other.load_state(state)
        assert other.spans == tracer.spans
        assert [s["span_id"] for s in other.open_spans] == [1, 2]
        other.end(other.open_spans[-1])
        assert other.spans[1]["end_ms"] == 7.0

    def test_resume_or_start_reopens_closed_root(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        root = tracer.start("crawl")
        clock.advance(10.0)
        tracer.end(root)
        again = tracer.resume_or_start("crawl")
        assert again is root and root["end_ms"] is None
        clock.advance(5.0)
        tracer.end(root)
        assert root["end_ms"] == 15.0
        assert len(tracer.spans) == 1  # no second root forked

    def test_null_tracer_records_nothing(self):
        NULL_TRACER.start("x")
        NULL_TRACER.event("y")
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.state_dict() is None
        assert not NULL_TRACER.enabled


def span_with_events(*events):
    return {"events": [{"ts_ms": 0.0, "name": n, "attrs": a} for n, a in events]}


class TestMetrics:
    def test_histogram_accumulates(self):
        hist = Histogram("latency", bounds=(10.0, 100.0))
        for value in (5.0, 10.0, 11.0, 250.0):
            hist.observe(value)
        # Inclusive upper bounds plus one overflow bucket.
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.mean == pytest.approx((5 + 10 + 11 + 250) / 4.0)

    def test_fold_is_sorted_and_event_order_independent(self):
        a = crawl_metrics([span_with_events(("watchdog.z.x", {}), ("bus.a", {}))])
        b = crawl_metrics([span_with_events(("bus.a", {}), ("watchdog.z.x", {}))])
        assert json.dumps(a) == json.dumps(b)
        assert list(a["counters"]) == ["bus.events.a", "watchdog.z.x"]

    def test_fold_maps_each_event_kind_to_its_counter(self):
        spans = [
            span_with_events(
                ("bus.fault_observed", {}),
                ("fault", {"fault_type": "driver-crash", "hook": "get"}),
                ("breaker.open", {"domain": "a", "previous": "closed"}),
                ("breaker.skip", {"domain": "a", "attempt": 0}),
                ("browser.recycle", {"browser": 0, "reason": "crash"}),
                ("watchdog.crash.recycle_requested", {"browser": 0}),
                ("backoff", {"delay_ms": 500.0, "attempt": 0}),
                ("probe.ledger", {"entries": 3}),
            ),
            {"events": None},
        ]
        ledger = {"entries": [{"op": "get"}, {"op": "get"}], "probe_sizes": []}
        assert crawl_metrics(spans, ledger) == {
            "counters": {
                "breaker.open": 1,
                "breaker.skips": 1,
                "bus.events.fault_observed": 1,
                "faults.driver-crash": 1,
                "probe.ops.get": 2,
                "recycles": 1,
                "watchdog.crash.recycle_requested": 1,
            },
            "histograms": {},
        }

    def test_histogram_state_roundtrip(self):
        hist = Histogram("ms", bounds=(10.0, 100.0))
        hist.observe(42.0)
        restored = Histogram.from_dict("ms", json.loads(json.dumps(hist.to_dict())))
        assert restored.to_dict() == hist.to_dict()
        restored.observe(42.0)
        assert restored.count == 2


class TestExport:
    def test_jsonl_roundtrip_and_byte_identity(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.span("crawl", seed=7):
            with tracer.span("visit", domain="a.example"):
                clock.advance(12.5)
                tracer.event("fault", fault_type="driver-crash")
        text = trace_to_jsonl(tracer.spans)
        assert text.endswith("\n") and len(text.splitlines()) == 2
        spans = parse_trace(text)
        assert spans == tracer.spans
        assert trace_to_jsonl(spans) == text  # canonical: fixed point

    def test_write_and_read_trace_files(self, tmp_path):
        tracer = Tracer(VirtualClock())
        span = tracer.start("crawl")
        tracer.end(span)
        path = write_trace(tmp_path / "trace.jsonl", tracer.spans)
        assert read_trace(path) == tracer.spans

    def test_empty_trace_serialises_to_empty_string(self):
        assert trace_to_jsonl([]) == ""
        assert parse_trace("") == []


class TestReport:
    def trace(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        root = tracer.start("crawl")
        visit = tracer.start("visit", domain="a.example", attempts=2)
        bad = tracer.start("attempt", attempt=0)
        clock.advance(2_000.0)
        tracer.event("fault", fault_type="driver-crash", hook="get")
        tracer.event("browser.recycle", browser=0, reason="fatal-fault")
        tracer.event("backoff", delay_ms=500.0, attempt=0)
        clock.advance(500.0)
        bad["status"] = "fault:driver-crash"
        tracer.end(bad)
        good = tracer.start("attempt", attempt=1)
        clock.advance(8_000.0)
        tracer.end(good)
        tracer.end(visit)
        tracer.end(root)
        return tracer.spans

    def test_build_report_aggregates(self):
        report = build_report(self.trace())
        assert report.visits == 1 and report.reached == 1 and report.failed == 0
        assert report.attempts == 2 and report.retries == 1
        assert report.faults == {"driver-crash": 1}
        assert report.recycles == 1
        assert report.backoff_ms == 500.0
        assert report.attempt_failed_ms == 2_500.0
        assert report.attempt_ok_ms == 8_000.0
        assert report.attempts_per_visit == [(2, 1)]
        assert report.profile["names"]["attempt"]["count"] == 2

    def test_render_text_and_json(self):
        report = build_report(self.trace())
        text = report.render_text()
        assert "crawl report" in text and "driver-crash" in text
        data = json.loads(report.render_json())
        assert data["visits"] == 1 and data["faults"] == {"driver-crash": 1}

    def test_report_matches_supervisor_stats(self):
        population = tiny_population()
        sup = make_supervisor(population)
        sup.crawl(population)
        report = sup.report()
        assert report.visits == sup.stats.visits
        assert report.reached == sup.stats.reached
        assert report.failed == sup.stats.failed
        assert report.attempts == sup.stats.attempts
        assert report.retries == sup.stats.retries
        assert report.recycles == sup.stats.recycles
        assert sum(report.faults.values()) == sup.stats.faults_seen
        assert report.metrics == sup.metrics_state()

    def test_report_surfaces_bus_and_watchdog_events(self):
        population = tiny_population()
        sup = make_supervisor(population)
        sup.crawl(population)
        report = sup.report()
        # Every bus publish lands in the trace, and the report and the
        # metrics export count it alike.
        counters = sup.metrics_state()["counters"]
        assert sum(report.bus_events.values()) == sup.bus.events_published
        for name, count in report.bus_events.items():
            assert counters["bus.events." + name] == count
        # The crash watchdog drove every recycle this crawl performed.
        watchdog_recycles = sum(
            count
            for name, count in report.watchdog_events.items()
            if name.endswith(".recycle_requested")
        )
        assert watchdog_recycles == sup.stats.recycles
        for name, count in report.watchdog_events.items():
            assert counters["watchdog." + name] == count
        text = report.render_text()
        assert "event bus dispatches" in text
        assert "watchdog interventions" in text
        data = json.loads(report.render_json())
        assert data["bus_events"] == report.bus_events
        assert data["watchdog_events"] == report.watchdog_events


class TestCli:
    def trace_file(self, tmp_path):
        population = tiny_population()
        sup = make_supervisor(population)
        path = tmp_path / "trace.jsonl"
        sup.crawl(population, trace_path=path)
        return path, sup

    def test_report_text_to_stdout(self, tmp_path, capsys):
        path, _ = self.trace_file(tmp_path)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "crawl report" in out and "visits" in out

    def test_report_json_to_file(self, tmp_path):
        path, sup = self.trace_file(tmp_path)
        out = tmp_path / "report.json"
        assert (
            obs_main(["report", str(path), "--format", "json", "--out", str(out)])
            == 0
        )
        data = json.loads(out.read_text())
        assert data["visits"] == sup.stats.visits

    def test_missing_trace_errors(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace" in capsys.readouterr().err


#: The ``bus.<command>`` events a reached attempt publishes, in order.
COMMAND_EVENTS = ("bus.navigate_to_url", "bus.query_elements", "bus.run_script")


class TestInstrumentation:
    """Each WebDriver command is recorded once: as its attempt's
    ``bus.<command>`` event, never as a span of its own."""

    def test_each_command_is_an_event_of_its_attempt(self):
        population = tiny_population()
        sup = make_supervisor(population)
        sup.crawl(population)
        spans = sup.tracer.spans
        assert not any(s["name"].startswith("webdriver.") for s in spans)
        reached = [s for s in spans if s["name"] == "attempt" and s["status"] == "ok"]
        assert reached
        for span in reached:
            commands = [
                e["name"] for e in span["events"] if e["name"] in COMMAND_EVENTS
            ]
            assert commands == list(COMMAND_EVENTS)

    def test_fault_at_get_marks_its_attempt(self):
        population = tiny_population()
        site = next(s for s in population if not s.unreachable)
        plan = FaultPlan(seed=0, rate=0.0)
        plan.schedule[(site.domain, 0)] = ScheduledFault(
            site.domain, 0, FaultType.NETWORK_RESET
        )
        sup = CrawlSupervisor(
            OpenWPMCrawler("obs", instances=1, seed=7), plan=plan, watchdogs=()
        )
        sup.crawl([site])
        spans = sup.tracer.spans
        assert [s["name"] for s in spans] == ["crawl", "visit", "attempt", "attempt"]
        faulted, retried = spans[2:]
        assert faulted["status"] == "fault:network-reset"
        (fault,) = [e for e in faulted["events"] if e["name"] == "fault"]
        assert fault["attrs"] == {"fault_type": "network-reset", "hook": "get"}
        names = [e["name"] for e in faulted["events"]]
        assert names.index("bus.navigate_to_url") < names.index("fault")
        assert "bus.query_elements" not in names
        assert retried["status"] == "ok"


class TestCrawlTraceDeterminism:
    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        population = tiny_population()
        make_supervisor(population).crawl(
            population, trace_path=tmp_path / "a.jsonl"
        )
        make_supervisor(population).crawl(
            population, trace_path=tmp_path / "b.jsonl"
        )
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert len(a) > 0

    def test_resumed_trace_equals_uninterrupted(self, tmp_path):
        population = tiny_population()
        make_supervisor(population).crawl(
            population, trace_path=tmp_path / "full.jsonl"
        )
        checkpoint = tmp_path / "ck.json"
        make_supervisor(population).crawl(
            population[:4], checkpoint_path=checkpoint
        )
        resumed = make_supervisor(population)
        resumed.crawl(
            population, checkpoint_path=checkpoint, trace_path=tmp_path / "r.jsonl"
        )
        assert (
            (tmp_path / "r.jsonl").read_bytes()
            == (tmp_path / "full.jsonl").read_bytes()
        )

    def test_resumed_metrics_equal_uninterrupted(self, tmp_path):
        population = tiny_population()
        full = make_supervisor(population)
        full.crawl(population)
        checkpoint = tmp_path / "ck.json"
        make_supervisor(population).crawl(
            population[:7], checkpoint_path=checkpoint
        )
        resumed = make_supervisor(population)
        resumed.crawl(population, checkpoint_path=checkpoint)
        assert resumed.metrics_state() == full.metrics_state()

    def test_span_tree_covers_the_stack(self):
        population = tiny_population()
        sup = make_supervisor(population)
        sup.crawl(population)
        spans = sup.tracer.spans
        by_id = {s["span_id"]: s for s in spans}
        names = {s["name"] for s in spans}
        assert names == {"crawl", "visit", "attempt"}
        roots = [s for s in spans if s["parent_id"] == 0]
        assert [s["name"] for s in roots] == ["crawl"]
        for span in spans:
            assert span["parent_id"] == 0 or span["parent_id"] in by_id
            assert span["end_ms"] is not None
        for span in spans:
            parent = by_id.get(span["parent_id"], {}).get("name")
            if span["name"] == "visit":
                assert parent == "crawl"
            elif span["name"] == "attempt":
                assert parent == "visit"
        # Attempts are leaves: their commands are events, not spans.
        parents = {s["parent_id"] for s in spans}
        assert not any(
            s["span_id"] in parents for s in spans if s["name"] == "attempt"
        )

    def test_null_tracer_crawl_produces_identical_records(self):
        population = tiny_population()
        traced = make_supervisor(population)
        res_traced = traced.crawl(population)
        untraced_sup = CrawlSupervisor(
            OpenWPMCrawler("obs", instances=2, seed=7),
            config=SupervisorConfig(),
            plan=FaultPlan.generate(population, 2, rate=0.2, seed=5),
            tracer=NULL_TRACER,
        )
        res_untraced = untraced_sup.crawl(population)
        assert json.dumps(res_traced.to_dict()) == json.dumps(
            res_untraced.to_dict()
        )
        assert untraced_sup.tracer.spans == []

    def test_null_tracer_spans_hold_no_state(self):
        population = tiny_population(n=12)
        CrawlSupervisor(
            OpenWPMCrawler("obs", instances=1, seed=7), tracer=NULL_TRACER
        ).crawl(population)
        span = NULL_TRACER.start("x")
        assert span["attrs"] == {} and span["status"] == "ok"
        assert NULL_TRACER.start("x") is not span


#: The bucket bounds the histogram percentile tests observe into.
LATENCY_BOUNDS = (
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1_000.0,
    2_000.0,
    5_000.0,
    10_000.0,
    30_000.0,
    60_000.0,
    120_000.0,
)


class TestPercentiles:
    """Bucketed metrics interpolate; the report's span quantiles are the
    profile's exact ones."""

    def test_histogram_percentile(self):
        histogram = Histogram("latency", LATENCY_BOUNDS)
        for value in [8.0] * 9 + [450.0]:
            histogram.observe(value)
        # interpolated within the (5, 10] bucket: rank 5 of the 9
        # observations there -> 5 + 5 * (5 / 9)
        assert histogram.percentile(0.50) == 5.0 + 5.0 * (5.0 / 9.0)
        # rank 9.5 lands half-way into the single-count (100, 500] bucket
        assert histogram.percentile(0.95) == 300.0
        assert histogram.percentile(1.0) == 500.0

    def test_histogram_percentile_interpolates_within_bucket(self):
        # 4 observations in the (10, 50] bucket: quartile ranks split the
        # bucket span linearly instead of all reporting the upper bound.
        histogram = Histogram("latency", LATENCY_BOUNDS)
        for value in [20.0, 30.0, 40.0, 50.0]:
            histogram.observe(value)
        assert histogram.percentile(0.25) == 20.0
        assert histogram.percentile(0.50) == 30.0
        assert histogram.percentile(0.75) == 40.0
        assert histogram.percentile(1.00) == 50.0

    def test_histogram_percentile_overflow_reports_last_bound(self):
        histogram = Histogram("latency", LATENCY_BOUNDS)
        histogram.observe(999_999.0)
        assert histogram.percentile(0.5) == 120_000.0

    def test_histogram_percentile_empty_and_invalid_q(self):
        histogram = Histogram("latency", LATENCY_BOUNDS)
        assert histogram.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(0.0)

    def visits_report(self, durations):
        clock = VirtualClock()
        tracer = Tracer(clock)
        root = tracer.start("crawl")
        for index, duration in enumerate(durations):
            visit = tracer.start("visit", domain=f"s{index}.example")
            clock.advance(duration)
            tracer.end(visit)
        tracer.end(root)
        return build_report(tracer.spans)

    def test_report_span_percentiles_are_observed_values(self):
        # 9 fast visits and 1 slow one: the old bucket rule printed the
        # 10ms bound for p50; the report now prints durations that
        # actually occurred.
        visit = self.visits_report([8.0] * 9 + [450.0]).profile["names"][
            "visit"
        ]
        assert visit["count"] == 10 and visit["max_ms"] == 450.0
        assert visit["per_visit"] == {
            "visits": 10,
            "p50_ms": 8.0,
            "p95_ms": 450.0,
        }

    def test_report_span_percentiles_beyond_last_bucket(self):
        # past the histogram's last bound (120s) the quantile is still
        # the exact duration, not the bound
        visit = self.visits_report([500_000.0]).profile["names"]["visit"]
        assert visit["per_visit"]["p50_ms"] == 500_000.0
        assert visit["per_visit"]["p95_ms"] == 500_000.0

    def test_report_single_visit_percentile_is_its_duration(self):
        # one 3ms visit: its bucket bound would be 5ms
        visit = self.visits_report([3.0]).profile["names"]["visit"]
        assert visit["per_visit"]["p50_ms"] == 3.0
        assert visit["max_ms"] == 3.0

    def test_report_json_span_entry_keys(self):
        data = json.loads(self.visits_report([8.0, 450.0]).render_json())
        visit = data["profile"]["names"]["visit"]
        assert set(visit) == {
            "count",
            "total_ms",
            "self_ms",
            "max_ms",
            "per_visit",
        }
        assert set(visit["per_visit"]) == {"visits", "p50_ms", "p95_ms"}
        empty = json.loads(self.visits_report([]).render_json())
        assert empty["profile"]["visits"] == 0
        assert set(empty["profile"]["names"]) == {"crawl"}

    def test_report_text_shows_percentiles(self):
        population = tiny_population()
        sup = make_supervisor(population)
        sup.crawl(population)
        report = sup.report()
        text = report.render_text()
        assert "p50" in text and "p95" in text
        data = json.loads(report.render_json())
        visit = data["profile"]["names"]["visit"]["per_visit"]
        assert visit["p50_ms"] > 0.0
        assert visit["p95_ms"] >= visit["p50_ms"]

    def test_report_histogram_summaries(self):
        # Latencies live only in the trace; the one histogram left is
        # the probe ledger's, which exists only as buckets.
        population = tiny_population()
        for ledger, expected in (
            (None, set()),
            (ProbeLedger(), {"probe_accesses_per_probe"}),
        ):
            sup = CrawlSupervisor(
                OpenWPMCrawler("obs", instances=2, seed=7),
                plan=FaultPlan.generate(population, 2, rate=0.2, seed=5),
                probe_ledger=ledger,
            )
            sup.crawl(population)
            report = sup.report()
            summaries = report.histogram_summaries()
            assert set(summaries) == expected
            for summary in summaries.values():
                assert summary["count"] > 0
                assert set(summary) == {"count", "mean", "p50", "p95"}
            assert ("metric histograms" in report.render_text()) == bool(
                expected
            )
            assert (
                json.loads(report.render_json())["histogram_summaries"]
                == summaries
            )


class TestTopN:
    """Satellite: ``report --top N`` slowest sites / failure reasons."""

    def crawled(self, fault_rate=0.6):
        population = tiny_population(n=12)
        sup = make_supervisor(population, fault_rate=fault_rate, max_attempts=1)
        sup.crawl(population)
        return sup

    def test_build_report_top_sites(self):
        sup = self.crawled()
        report = build_report(sup.tracer.spans, top=3)
        assert 0 < len(report.top_sites) <= 3
        for _, site in report.top_sites:
            assert set(site) == {"count", "total_ms", "max_ms"}
        totals = [site["total_ms"] for _, site in report.top_sites]
        assert totals == sorted(totals, reverse=True)
        # the slowest site genuinely is the max over all visit spans
        slowest_domain, slowest = report.top_sites[0]
        visit_totals = {}
        for span in sup.tracer.spans:
            if span["name"] == "visit":
                domain = span["attrs"]["domain"]
                visit_totals[domain] = (
                    visit_totals.get(domain, 0.0) + duration_ms(span)
                )
        assert slowest["total_ms"] == max(visit_totals.values())
        assert visit_totals[slowest_domain] == slowest["total_ms"]

    def test_build_report_top_failure_reasons(self):
        sup = self.crawled()
        report = build_report(sup.tracer.spans, top=100)
        assert sup.stats.failed > 0
        assert report.top_failure_reasons
        counts = [count for _, count in report.top_failure_reasons]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == sup.stats.failed
        truncated = build_report(sup.tracer.spans, top=2)
        assert truncated.top_failure_reasons == report.top_failure_reasons[:2]

    def test_top_zero_disables_ranking(self):
        sup = self.crawled()
        report = build_report(sup.tracer.spans)
        assert report.top_sites == []
        assert report.top_failure_reasons == []
        text = report.render_text()
        assert "slowest sites" not in text

    def test_top_renders_in_text_and_json(self):
        sup = self.crawled()
        report = build_report(sup.tracer.spans, top=3)
        text = report.render_text()
        assert "slowest sites (top 3)" in text
        data = json.loads(report.render_json())
        assert len(data["top_sites"]) == len(report.top_sites)
        assert data["top_failure_reasons"] == [
            list(p) for p in report.top_failure_reasons
        ]

    def test_cli_top_flag(self, tmp_path, capsys):
        population = tiny_population(n=12)
        sup = make_supervisor(population, fault_rate=0.6, max_attempts=1)
        path = tmp_path / "trace.jsonl"
        sup.crawl(population, trace_path=path)
        assert obs_main(["report", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "slowest sites (top 3)" in out
        assert "failure reasons" in out
