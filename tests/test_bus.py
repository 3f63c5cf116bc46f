"""repro.bus: typed events, ordered synchronous dispatch, determinism.

The property tests pin the tentpole's contract (docs/EVENT_BUS.md):
dispatch order is a pure function of registration order, two same-seed
runs publish byte-identical streams, and a supervised crawl with every
watchdog attached stays byte-identical across interrupt/resume.
"""

from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser.session import BrowserSession
from repro.bus import (
    BusEvent,
    EventBus,
    FaultObserved,
    NavigateToUrl,
    OverlayDetected,
    PageStalled,
    Resolvable,
    event_name,
)
from repro.clock import VirtualClock
from repro.crawl import (
    CrawlSupervisor,
    OpenWPMCrawler,
    PopulationConfig,
    SupervisorConfig,
    generate_population,
)
from repro.detection.fingerprint import probe_webdriver_flag
from repro.faults import FaultPlan
from repro.obs import Tracer, crawl_metrics
from repro.obs.probes import ProbeLedger
from repro.spoofing import SpoofingExtension


def make_bus(tracer=None):
    return EventBus(VirtualClock(), tracer)


@dataclass
class SiteVisited(BusEvent):
    """A plain notification no production code publishes."""

    domain: str
    browser: int = 0


@dataclass
class SiteLeft(BusEvent):
    """A second plain notification, for nested publishes."""

    domain: str
    browser: int = 0


#: (class, constructor) pairs the property tests draw from.  Distinct
#: MRO shapes on purpose: plain notifications, Resolvable subclasses, a
#: browser command.  The constructor takes the event's ``browser``;
#: classes without a ``browser`` field ignore it.
EVENT_MAKERS = [
    (SiteVisited, lambda browser: SiteVisited("a.example", browser)),
    (SiteLeft, lambda browser: SiteLeft("a.example", browser)),
    (
        FaultObserved,
        lambda browser: FaultObserved("crash", "get", "a.example", 0, 0, True),
    ),
    (OverlayDetected, lambda browser: OverlayDetected("a.example", "modal")),
    (PageStalled, lambda browser: PageStalled("a.example", 0, 0)),
    (NavigateToUrl, lambda browser: NavigateToUrl("https://a.example/", browser)),
]


class TestEventNames:
    def test_camel_to_snake(self):
        assert event_name(SiteVisited) == "site_visited"
        assert event_name(OverlayDetected) == "overlay_detected"
        assert event_name(BusEvent) == "bus_event"

    def test_name_property_matches(self):
        event = PageStalled("a.example", 3, 1)
        assert event.name == "page_stalled"


class TestDispatch:
    def test_publish_stamps_clock_time_and_sequence(self):
        bus = make_bus()
        bus.clock.advance(250.0)
        first = bus.publish(SiteVisited("a.example"))
        bus.clock.advance(10.0)
        second = bus.publish(SiteLeft("a.example"))
        assert (first.ts_ms, first.seq) == (250.0, 1)
        assert (second.ts_ms, second.seq) == (260.0, 2)
        assert bus.events_published == 2

    def test_handlers_fire_in_registration_order(self):
        bus = make_bus()
        log = []
        bus.subscribe(SiteVisited, lambda e: log.append("first"))
        bus.subscribe(SiteVisited, lambda e: log.append("second"))
        bus.subscribe(SiteVisited, lambda e: log.append("third"))
        bus.publish(SiteVisited("a.example"))
        assert log == ["first", "second", "third"]

    def test_base_class_subscription_sees_subclasses(self):
        bus = make_bus()
        log = []
        bus.subscribe(Resolvable, lambda e: log.append(("resolvable", e.name)))
        bus.subscribe(BusEvent, lambda e: log.append(("any", e.name)))
        bus.subscribe(OverlayDetected, lambda e: log.append(("exact", e.name)))
        bus.publish(OverlayDetected("a.example", "modal"))
        bus.publish(SiteVisited("a.example"))
        assert log == [
            ("resolvable", "overlay_detected"),
            ("any", "overlay_detected"),
            ("exact", "overlay_detected"),
            ("any", "site_visited"),
        ]

    def test_mro_match_keeps_global_registration_order(self):
        # A base-class handler registered *after* an exact-class handler
        # still runs after it: order is global, not per-MRO-level.
        bus = make_bus()
        log = []
        bus.subscribe(OverlayDetected, lambda e: log.append("exact"))
        bus.subscribe(BusEvent, lambda e: log.append("base"))
        bus.subscribe(OverlayDetected, lambda e: log.append("exact-late"))
        bus.publish(OverlayDetected("a.example", "modal"))
        assert log == ["exact", "base", "exact-late"]

    def test_nested_publish_dispatches_depth_first(self):
        bus = make_bus()
        log = []

        def chain(event):
            log.append("outer-start")
            bus.publish(SiteLeft("a.example"))
            log.append("outer-end")

        bus.subscribe(SiteVisited, chain)
        bus.subscribe(SiteLeft, lambda e: log.append("inner"))
        bus.publish(SiteVisited("a.example"))
        assert log == ["outer-start", "inner", "outer-end"]

    def test_unsubscribe_stops_delivery_and_is_idempotent(self):
        bus = make_bus()
        log = []
        token = bus.subscribe(SiteVisited, lambda e: log.append("gone"))
        bus.subscribe(SiteVisited, lambda e: log.append("kept"))
        bus.unsubscribe(token)
        bus.unsubscribe(token)  # no-op
        bus.publish(SiteVisited("a.example"))
        assert log == ["kept"]

    def test_subscribe_and_unsubscribe_reroute_the_next_publish(self):
        # Routes are cached per (class, browser): each registry change
        # between two publishes of one class must show in the second.
        bus = make_bus()
        log = []
        early = bus.subscribe(
            NavigateToUrl, lambda e: log.append(("early", e.seq)), browser=1
        )
        bus.publish(NavigateToUrl("https://a.example/", browser=1))
        bus.subscribe(NavigateToUrl, lambda e: log.append(("late", e.seq)), browser=1)
        bus.publish(NavigateToUrl("https://a.example/", browser=1))
        bus.unsubscribe(early)
        bus.publish(NavigateToUrl("https://a.example/", browser=1))
        assert log == [("early", 1), ("early", 2), ("late", 2), ("late", 3)]

    def test_subscribe_rejects_non_event_types(self):
        bus = make_bus()
        with pytest.raises(TypeError):
            bus.subscribe(dict, lambda e: None)

    def test_handler_exceptions_propagate_untouched(self):
        bus = make_bus()

        class WatchdogBug(ValueError):
            pass

        def bad_handler(event):
            raise WatchdogBug("handler exploded")

        reached = []
        bus.subscribe(SiteVisited, bad_handler)
        bus.subscribe(SiteVisited, lambda e: reached.append(True))
        with pytest.raises(WatchdogBug):
            bus.publish(SiteVisited("a.example"))
        # The publish aborted: later handlers never ran.
        assert reached == []

    def test_bus_counts_events_through_the_tracer(self):
        tracer = Tracer(VirtualClock())
        bus = EventBus(tracer.clock, tracer)
        span = tracer.start("crawl")
        bus.publish(SiteVisited("a.example"))
        bus.publish(SiteVisited("b.example"))
        bus.publish(OverlayDetected("a.example", "modal"))
        tracer.end(span)
        counters = crawl_metrics([span])["counters"]
        assert counters["bus.events.site_visited"] == 2
        assert counters["bus.events.overlay_detected"] == 1
        assert [e["name"] for e in span["events"]] == [
            "bus.site_visited",
            "bus.site_visited",
            "bus.overlay_detected",
        ]


class TestResolvable:
    def test_first_resolver_wins(self):
        event = PageStalled("a.example", 0, 0)
        event.resolve("stall", "aborted")
        event.resolve("other", "ignored")
        assert event.resolved
        assert (event.resolved_by, event.resolution) == ("stall", "aborted")

    def test_unresolved_by_default(self):
        event = OverlayDetected("a.example", "modal")
        assert not event.resolved
        assert event.resolved_by is None

    def test_publish_hands_back_the_resolved_event(self):
        bus = make_bus()
        bus.subscribe(PageStalled, lambda e: e.resolve("stall", "aborted"))
        event = bus.publish(PageStalled("a", 0, 0))
        assert event is not None and event.resolved


# -- property tests: determinism ------------------------------------------


#: An optional browser index: ``None`` for an unaddressed subscription
#: or an event without one.
browsers = st.none() | st.integers(min_value=0, max_value=2)

#: A registration plan: which event class each of up to 8 handlers
#: subscribes to (index into EVENT_MAKERS, -1 = the BusEvent base), and
#: the browser it is addressed to.
registration_plans = st.lists(
    st.tuples(st.integers(min_value=-1, max_value=len(EVENT_MAKERS) - 1), browsers),
    min_size=1,
    max_size=8,
)

#: A publish plan: which events get published, in order, and for which
#: browser.
publish_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(EVENT_MAKERS) - 1), browsers),
    min_size=1,
    max_size=12,
)


def run_plan(registrations, publishes):
    """Wire a bus from the plans; return (snapshot, dispatch_log)."""
    bus = make_bus()
    log = []
    for handler_index, (type_index, browser) in enumerate(registrations):
        event_type = (
            BusEvent if type_index < 0 else EVENT_MAKERS[type_index][0]
        )

        def handler(event, _index=handler_index):
            log.append((_index, event.name, event.seq))

        bus.subscribe(
            event_type, handler, name=f"handler-{handler_index}", browser=browser
        )
    for type_index, browser in publishes:
        bus.publish(EVENT_MAKERS[type_index][1](browser))
    return bus.registry_snapshot(), log


class TestBusProperties:
    @settings(max_examples=60, deadline=None)
    @given(registration_plans)
    def test_registry_snapshot_preserves_registration_order(self, plan):
        snapshot, _ = run_plan(plan, [])
        assert [name for _, name in snapshot] == [
            f"handler-{i}" for i in range(len(plan))
        ]

    @settings(max_examples=60, deadline=None)
    @given(registration_plans, publish_plans)
    def test_same_plan_dispatches_identically(self, registrations, publishes):
        """Same registrations + same publishes -> identical dispatch log,
        twice over (no hidden state, no hash-order dependence)."""
        first = run_plan(registrations, publishes)
        second = run_plan(registrations, publishes)
        assert first == second

    @settings(max_examples=60, deadline=None)
    @given(registration_plans, publish_plans)
    def test_within_one_event_handlers_run_in_registration_order(
        self, registrations, publishes
    ):
        _, log = run_plan(registrations, publishes)
        for seq in {entry[2] for entry in log}:
            indices = [entry[0] for entry in log if entry[2] == seq]
            assert indices == sorted(indices)

    @settings(max_examples=60, deadline=None)
    @given(registration_plans, publish_plans)
    def test_every_publish_reaches_exactly_the_matching_handlers(
        self, registrations, publishes
    ):
        """Every unaddressed handler of a matching class, plus the
        addressed ones whose browser is the event's, in global
        registration order."""
        _, log = run_plan(registrations, publishes)
        for seq, (type_index, browser) in enumerate(publishes, start=1):
            event = EVENT_MAKERS[type_index][1](browser)
            event_browser = getattr(event, "browser", None)
            expected = [
                i
                for i, (registered, wanted) in enumerate(registrations)
                if (
                    registered < 0
                    or issubclass(type(event), EVENT_MAKERS[registered][0])
                )
                and (wanted is None or wanted == event_browser)
            ]
            assert [e[0] for e in log if e[2] == seq] == expected


# -- property test: supervised-crawl resume byte-identity ------------------


def hostile_tiny(n=12, seed=11):
    """A small population with every hostile archetype represented."""
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
            n_modal_overlay_sites=1,
            n_challenge_sites=1,
            n_hidden_input_sites=1,
            n_stalling_sites=2,
        )
    )


def supervised(population, seed=7):
    crawler = OpenWPMCrawler("bus", instances=2, seed=seed)
    plan = FaultPlan.generate(population, 2, rate=0.25, seed=5)
    return CrawlSupervisor(crawler, config=SupervisorConfig(), plan=plan)


class TestSessionRouting:
    def test_each_command_runs_only_its_sessions_handler(self, monkeypatch):
        """With 8 sessions on one bus, every command event runs exactly
        one session handler: the ``on_*`` calls equal the
        ``bus.events.*`` publish counts, faulted commands included."""
        calls = Counter()
        for handler in ("on_navigate", "on_query", "on_run_script"):
            original = getattr(BrowserSession, handler)

            def counted(self, event, _handler=handler, _original=original):
                calls[_handler] += 1
                return _original(self, event)

            monkeypatch.setattr(BrowserSession, handler, counted)
        population = hostile_tiny()
        crawler = OpenWPMCrawler("routing", instances=8, seed=7)
        plan = FaultPlan.generate(population, 8, rate=0.25, seed=5)
        supervisor = CrawlSupervisor(crawler, config=SupervisorConfig(), plan=plan)
        supervisor.crawl(population)
        counters = supervisor.metrics_state()["counters"]
        assert calls["on_navigate"] == counters["bus.events.navigate_to_url"] > 0
        assert calls["on_query"] == counters["bus.events.query_elements"] > 0
        assert calls["on_run_script"] == counters["bus.events.run_script"] > 0


class TestBrowserSession:
    """One browser slot: its bus commands, its recycle and its state."""

    def attached_session(self):
        bus = make_bus()
        session = BrowserSession(0, extension=SpoofingExtension(), ledger=ProbeLedger())
        session.attach(bus)
        return bus, session

    def test_commands_reach_only_the_addressed_session(self):
        bus, session = self.attached_session()
        own = bus.publish(NavigateToUrl("https://a.example/", browser=0))
        assert own.handled
        assert session.driver.current_url == "https://a.example/"
        other = bus.publish(NavigateToUrl("https://b.example/", browser=1))
        assert not other.handled
        assert session.driver.current_url == "https://a.example/"

    def test_recycle_respawns_the_browser(self):
        bus, session = self.attached_session()
        old_window, old_driver = session.window, session.driver
        session.note_fault()
        session.note_fault()
        session.recycle()
        assert session.window is not old_window
        assert session.driver is not old_driver
        assert session.driver.window is session.window
        assert session.window.probe_ledger is session.ledger
        # A fresh automated window reports the flag until the extension
        # hides it again.
        assert probe_webdriver_flag(BrowserSession(1).window) is True
        assert probe_webdriver_flag(session.window) is False
        assert (session.fault_count, session.recycles) == (0, 1)
        # Commands published after the recycle run on the new driver.
        event = bus.publish(NavigateToUrl("https://c.example/", browser=0))
        assert event.handled
        assert session.driver.current_url == "https://c.example/"
        assert old_driver.current_url == "about:blank"

    def test_state_round_trips(self):
        _, session = self.attached_session()
        session.note_fault()
        session.recycle()
        session.note_fault()
        state = session.state_dict()
        assert state == {"fault_count": 1, "recycles": 1}
        restored = BrowserSession(0)
        restored.load_state(state)
        assert restored.state_dict() == state


class TestSupervisedResumeIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        cut=st.integers(min_value=1, max_value=11),
        seed_offset=st.integers(min_value=0, max_value=3),
    )
    def test_interrupted_resume_is_byte_identical(
        self, tmp_path_factory, cut, seed_offset
    ):
        """Any interrupt boundary, any seed: the resumed trace equals the
        uninterrupted one byte for byte, with all watchdogs attached and
        hostile archetypes in the population."""
        tmp_path = tmp_path_factory.mktemp("bus-resume")
        population = hostile_tiny(seed=11 + seed_offset)
        supervised(population, seed=7 + seed_offset).crawl(
            population, trace_path=tmp_path / "full.jsonl"
        )
        checkpoint = tmp_path / "ck.json"
        supervised(population, seed=7 + seed_offset).crawl(
            population[:cut], checkpoint_path=checkpoint
        )
        resumed = supervised(population, seed=7 + seed_offset)
        resumed.crawl(
            population,
            checkpoint_path=checkpoint,
            trace_path=tmp_path / "resumed.jsonl",
        )
        assert (
            (tmp_path / "resumed.jsonl").read_bytes()
            == (tmp_path / "full.jsonl").read_bytes()
        )

    def test_watchdog_metrics_survive_resume(self, tmp_path):
        population = hostile_tiny()
        full = supervised(population)
        full.crawl(population)
        checkpoint = tmp_path / "ck.json"
        supervised(population).crawl(population[:6], checkpoint_path=checkpoint)
        resumed = supervised(population)
        resumed.crawl(population, checkpoint_path=checkpoint)
        assert resumed.metrics_state() == full.metrics_state()
        counters = full.metrics_state()["counters"]
        assert any(k.startswith("bus.events.") for k in counters)
