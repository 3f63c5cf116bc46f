"""Window: coordinates, scrolling bounds, visibility, the lazy navigator."""

import pytest

import repro.browser.window
from repro.browser.navigator import NavigatorProfile
from repro.browser.session import BrowserSession
from repro.browser.window import Window
from repro.detection.fingerprint import run_all_probes
from repro.dom.document import Document
from repro.events.recorder import EventRecorder
from repro.geometry import Point
from repro.jsobject import for_in_names, object_keys
from repro.obs.probes import ProbeLedger
from repro.spoofing import SpoofingMethod, apply_spoofing
from repro.webdriver.driver import WebDriver


def make_window(page_height=3000.0, page_width=1366.0):
    return Window(Document(page_width, page_height))


class TestCoordinates:
    def test_client_page_round_trip(self):
        window = make_window()
        window.scroll_y = 500.0
        window.scroll_x = 20.0
        point = Point(100, 200)
        assert window.page_to_client(window.client_to_page(point)) == point

    def test_client_to_page_adds_scroll(self):
        window = make_window()
        window.scroll_y = 300.0
        assert window.client_to_page(Point(10, 10)) == Point(10, 310)

    def test_in_viewport(self):
        window = make_window()
        assert window.is_in_viewport(Point(100, 100))
        assert not window.is_in_viewport(Point(100, 1000))
        window.scroll_y = 800.0
        assert window.is_in_viewport(Point(100, 1000))


class TestScrolling:
    def test_max_scroll(self):
        window = make_window(page_height=3000)
        assert window.max_scroll_y == 3000 - window.viewport_height
        assert window.max_scroll_x == 0.0

    def test_page_smaller_than_viewport(self):
        window = make_window(page_height=400)
        assert window.max_scroll_y == 0.0
        assert not window.scroll_by(0, 100)

    def test_scroll_event_only_on_change(self):
        window = make_window()
        recorder = EventRecorder(("scroll",)).attach(window)
        assert window.scroll_by(0, 100)
        assert not window.scroll_by(0, 0)
        window.scroll_to(0, window.max_scroll_y)
        assert not window.scroll_by(0, 50)  # already at the bottom
        assert len(recorder.events) == 2

    def test_scroll_event_carries_offset(self):
        window = make_window()
        recorder = EventRecorder(("scroll",)).attach(window)
        window.scroll_by(0, 250)
        assert recorder.events[0].page_y == 250.0

    def test_negative_scroll_clamped_at_top(self):
        window = make_window()
        window.scroll_by(0, -500)
        assert window.scroll_y == 0.0


class TestVisibility:
    def test_visibility_round_trip(self):
        window = make_window()
        window.set_visibility("hidden")
        assert not window.has_focus
        window.set_visibility("visible")
        assert window.has_focus
        assert window.document.visibility_state == "visible"

    def test_navigator_attached(self):
        window = make_window()
        assert window.navigator.get("userAgent")


@pytest.fixture
def builds(monkeypatch):
    """Count the navigator chains windows build."""
    calls = []
    make_navigator = repro.browser.window.make_navigator

    def counting(profile):
        calls.append(profile)
        return make_navigator(profile)

    monkeypatch.setattr(repro.browser.window, "make_navigator", counting)
    return calls


class TestLazyNavigator:
    def test_spawn_and_recycle_build_no_chain(self, builds):
        session = BrowserSession(0)
        session.recycle()
        assert builds == []
        old = session.window.navigator
        assert session.window.navigator is old
        assert len(builds) == 1
        assert old.get("webdriver") is True
        session.recycle()
        assert len(builds) == 1
        assert session.window.navigator is not old
        assert len(builds) == 2

    def test_driver_marks_an_unbuilt_chain_automated(self, builds):
        profile = NavigatorProfile()
        window = Window(profile=profile)
        WebDriver(window)
        assert builds == []
        assert profile.webdriver is False  # the caller's profile is not mutated
        eager = Window(profile=NavigatorProfile())
        eager.navigator.get("userAgent")
        WebDriver(eager)
        navigator = window.navigator
        assert len(builds) == 2
        assert navigator.get("webdriver") is True
        assert for_in_names(navigator) == for_in_names(eager.navigator)
        assert object_keys(navigator) == object_keys(eager.navigator) == []

    def test_assignment_replaces_the_chain(self, builds):
        window = Window()
        replacement = object()
        window.navigator = replacement
        assert window.navigator is replacement
        assert builds == []

    @pytest.mark.parametrize("ledger", [False, True])
    @pytest.mark.parametrize("method", [None, *SpoofingMethod])
    def test_probes_match_an_eagerly_read_chain(self, method, ledger):
        """The spawn sequence (window, ledger, driver, spoof) probes the
        same whether or not the chain was read before the driver."""

        def probe(read_first):
            window = Window(profile=NavigatorProfile())
            if read_first:
                window.navigator.get("webdriver")
            if ledger:
                window.probe_ledger = ProbeLedger()
            WebDriver(window)
            if method is not None:
                apply_spoofing(window, method)
            return run_all_probes(window)

        assert probe(read_first=False) == probe(read_first=True)
