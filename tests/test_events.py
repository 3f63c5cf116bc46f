"""Event taxonomy, dispatch and recording."""

import dataclasses

import pytest

from repro.browser.window import Window
from repro.dom.document import Document
from repro.dom.element import Element
from repro.events import (
    ALL_INTERACTION_EVENTS,
    COVERING_SET,
    COVERING_SET_EVENTS,
    DOCUMENT_EVENTS,
    ELEMENT_EVENTS,
    Event,
    EventRecorder,
    EventTarget,
    WINDOW_EVENTS,
)
from repro.events.dispatch import NON_BUBBLING
from repro.events.recorder import flight_times
from repro.geometry import Box


class TestTaxonomy:
    def test_document_events_as_printed(self):
        assert "pointermove" in DOCUMENT_EVENTS
        assert "visibilitychange" in DOCUMENT_EVENTS
        assert len(DOCUMENT_EVENTS) == 36

    def test_element_events_as_printed(self):
        assert "dblclick" in ELEMENT_EVENTS
        assert len(ELEMENT_EVENTS) == 16

    def test_window_events(self):
        assert WINDOW_EVENTS == ("resize", "focus")

    def test_all_events_distinct(self):
        assert len(ALL_INTERACTION_EVENTS) == len(set(ALL_INTERACTION_EVENTS))

    def test_covering_set_within_taxonomy(self):
        assert set(COVERING_SET_EVENTS) <= set(ALL_INTERACTION_EVENTS)

    def test_covering_set_groups(self):
        """Appendix D's per-category grouping."""
        assert COVERING_SET["mouse_movement"] == ("mousemove",)
        assert set(COVERING_SET["mouse_clicking"]) == {"dblclick", "mousedown", "mouseup"}
        assert set(COVERING_SET["scrolling"]) == {"scroll", "wheel"}
        assert set(COVERING_SET["typing"]) == {"keydown", "keyup"}


#: :class:`Event` fields in declaration order: ``_base_event`` builds
#: events positionally in this order.
EVENT_FIELDS = [
    "type", "timestamp", "target", "client_x", "client_y", "page_x", "page_y",
    "button", "buttons", "delta_x", "delta_y", "key", "code",
    "shift_key", "ctrl_key", "alt_key", "meta_key", "detail", "is_trusted",
    "target_box", "extra",
]


class TestEventShape:
    def test_field_names_in_order(self):
        assert [f.name for f in dataclasses.fields(Event)] == EVENT_FIELDS

    def test_slotted_without_instance_dict(self):
        event = Event("mousemove", 0.0)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.foo = 1

    def test_extra_defaults_to_none(self):
        assert Event("x", 0.0).extra is None

    def test_visibility_change_records_extra(self):
        window = Window()
        recorder = EventRecorder(("visibilitychange",)).attach(window.document)
        window.set_visibility("hidden")
        (event,) = recorder.events
        assert event.extra == {"visibility_state": "hidden"}


class TestDispatch:
    def test_listener_invoked(self):
        target = EventTarget()
        seen = []
        target.add_event_listener("click", seen.append)
        target.dispatch_event(Event("click", timestamp=0.0))
        assert len(seen) == 1

    def test_remove_listener(self):
        target = EventTarget()
        seen = []
        target.add_event_listener("click", seen.append)
        target.remove_event_listener("click", seen.append)
        target.dispatch_event(Event("click", timestamp=0.0))
        assert seen == []

    def test_remove_absent_listener_is_noop(self):
        EventTarget().remove_event_listener("click", lambda e: None)

    def test_listener_count(self):
        target = EventTarget()
        target.add_event_listener("click", lambda e: None)
        target.add_event_listener("keydown", lambda e: None)
        assert target.listener_count("click") == 1
        assert target.listener_count() == 2

    def test_bubbling_to_document_and_window(self):
        document = Document()
        element = document.create_element("div", Box(0, 0, 10, 10))

        class FakeWindow(EventTarget):
            pass

        window = FakeWindow()
        document.window = window
        path = []
        element.add_event_listener("click", lambda e: path.append("element"))
        document.add_event_listener("click", lambda e: path.append("document"))
        window.add_event_listener("click", lambda e: path.append("window"))
        element.dispatch_event(Event("click", timestamp=0.0))
        assert path == ["element", "document", "window"]

    def test_mouseenter_does_not_bubble(self):
        document = Document()
        element = document.create_element("div", Box(0, 0, 10, 10))
        seen = []
        document.add_event_listener("mouseenter", lambda e: seen.append(e))
        element.dispatch_event(Event("mouseenter", timestamp=0.0))
        assert seen == []

    def test_target_set_on_dispatch(self):
        target = EventTarget()
        event = Event("click", timestamp=0.0)
        target.dispatch_event(event)
        assert event.target is target


def _tree():
    """element -> body -> document -> window."""
    document = Document()
    element = document.create_element("div", Box(0, 0, 10, 10), id="leaf")

    class FakeWindow(EventTarget):
        pass

    window = FakeWindow()
    document.window = window
    return element, document.body, document, window


class TestListenerChangesDuringDispatch:
    """What a listener that edits listeners mid-dispatch changes for the
    event being dispatched: each node's listeners are read when the
    event reaches that node, and that node's list is snapshotted then."""

    def test_listener_added_to_ancestor_fires_for_current_event(self):
        element, body, document, window = _tree()
        seen = []
        element.add_event_listener(
            "click",
            lambda e: document.add_event_listener("click", lambda e: seen.append("late")),
        )
        element.dispatch_event(Event("click", timestamp=0.0))
        assert seen == ["late"]

    def test_listener_added_to_same_node_waits_for_next_event(self):
        element, body, document, window = _tree()
        seen = []

        def add_sibling(event):
            seen.append("first")
            body.add_event_listener("click", lambda e: seen.append("added"))

        body.add_event_listener("click", add_sibling)
        element.dispatch_event(Event("click", timestamp=0.0))
        assert seen == ["first"]

    def test_removing_later_listener_does_not_stop_it_for_current_event(self):
        element, body, document, window = _tree()
        seen = []

        def later(event):
            seen.append("later")

        body.add_event_listener("click", lambda e: body.remove_event_listener("click", later))
        body.add_event_listener("click", later)
        element.dispatch_event(Event("click", timestamp=0.0))
        assert seen == ["later"]
        element.dispatch_event(Event("click", timestamp=1.0))
        assert seen == ["later"]

    @pytest.mark.parametrize("event_type", sorted(NON_BUBBLING))
    def test_non_bubbling_types_stop_at_target(self, event_type):
        element, body, document, window = _tree()
        path = []
        nodes = {"leaf": element, "body": body, "document": document, "window": window}
        for name, node in nodes.items():
            node.add_event_listener(event_type, lambda e, name=name: path.append(name))
        element.dispatch_event(Event(event_type, timestamp=0.0))
        assert path == ["leaf"]

    def test_bubbling_visits_every_ancestor_in_order(self):
        element, body, document, window = _tree()
        path = []
        # Registered out of path order: the path decides the call order.
        nodes = {"window": window, "body": body, "leaf": element, "document": document}
        for name, node in nodes.items():
            node.add_event_listener("keydown", lambda e, name=name: path.append(name))
        element.dispatch_event(Event("keydown", timestamp=0.0))
        assert path == ["leaf", "body", "document", "window"]

    def test_preset_target_is_kept(self):
        element, body, document, window = _tree()
        targets = []
        window.add_event_listener("scroll", lambda e: targets.append(e.target))
        event = Event("scroll", timestamp=0.0, target=document)
        element.dispatch_event(event)
        assert event.target is document
        assert targets == [document]


class TestRecorder:
    def _make(self):
        document = Document()
        element = document.create_element("button", Box(0, 0, 100, 40), id="b")
        recorder = EventRecorder().attach(document)
        return document, element, recorder

    def test_records_only_requested_types(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("mousedown", timestamp=1.0))
        element.dispatch_event(Event("pointerdown", timestamp=1.0))  # not in set
        assert [e.type for e in recorder.events] == ["mousedown"]

    def test_empty_selection_records_nothing(self):
        window = Window()
        recorder = EventRecorder(()).attach(window)
        window.document.dispatch_event(Event("mousedown", timestamp=1.0))
        window.set_visibility("hidden")
        assert recorder.event_types == ()
        assert len(recorder) == 0

    def test_default_selection_is_the_covering_set(self):
        window = Window()
        recorder = EventRecorder().attach(window)
        assert recorder.event_types == tuple(COVERING_SET_EVENTS)
        for event_type in COVERING_SET_EVENTS:
            window.document.dispatch_event(Event(event_type, timestamp=1.0))
        assert [e.type for e in recorder.events] == list(COVERING_SET_EVENTS)

    def test_detach_stops_recording(self):
        document, element, recorder = self._make()
        recorder.detach()
        element.dispatch_event(Event("mousedown", timestamp=1.0))
        assert len(recorder) == 0

    def test_clear(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("mousedown", timestamp=1.0))
        recorder.clear()
        assert len(recorder) == 0

    def test_mouse_path(self):
        document, element, recorder = self._make()
        for i in range(3):
            element.dispatch_event(
                Event("mousemove", timestamp=float(i), client_x=i * 10.0, client_y=5.0)
            )
        assert recorder.mouse_path() == [(0.0, 0.0, 5.0), (1.0, 10.0, 5.0), (2.0, 20.0, 5.0)]

    def test_click_pairing_and_dwell(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("mousedown", timestamp=10.0, button=0, client_x=3, client_y=4))
        element.dispatch_event(Event("mouseup", timestamp=95.0, button=0))
        clicks = recorder.clicks()
        assert len(clicks) == 1
        assert clicks[0].dwell_ms == 85.0
        assert clicks[0].position == (3, 4)

    def test_unmatched_mousedown_omitted(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("mousedown", timestamp=10.0, button=0))
        assert recorder.clicks() == []

    def test_click_pairing_per_button(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("mousedown", timestamp=0.0, button=0))
        element.dispatch_event(Event("mousedown", timestamp=5.0, button=2))
        element.dispatch_event(Event("mouseup", timestamp=50.0, button=2))
        element.dispatch_event(Event("mouseup", timestamp=80.0, button=0))
        clicks = recorder.clicks()
        assert {c.button for c in clicks} == {0, 2}

    def test_keystroke_pairing_with_rollover(self):
        """A key released after the next key was pressed still pairs."""
        document, element, recorder = self._make()
        element.dispatch_event(Event("keydown", timestamp=0.0, key="a"))
        element.dispatch_event(Event("keydown", timestamp=60.0, key="b"))  # rollover
        element.dispatch_event(Event("keyup", timestamp=80.0, key="a"))
        element.dispatch_event(Event("keyup", timestamp=150.0, key="b"))
        strokes = recorder.key_strokes()
        assert [s.key for s in strokes] == ["a", "b"]
        assert strokes[0].dwell_ms == 80.0
        assert flight_times(strokes) == [-20.0]  # negative = rollover

    def test_repeated_key_pairing_fifo(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("keydown", timestamp=0.0, key="l"))
        element.dispatch_event(Event("keyup", timestamp=50.0, key="l"))
        element.dispatch_event(Event("keydown", timestamp=100.0, key="l"))
        element.dispatch_event(Event("keyup", timestamp=160.0, key="l"))
        strokes = recorder.key_strokes()
        assert [s.dwell_ms for s in strokes] == [50.0, 60.0]

    def test_time_span(self):
        document, element, recorder = self._make()
        element.dispatch_event(Event("mousedown", timestamp=10.0))
        element.dispatch_event(Event("mouseup", timestamp=250.0))
        assert recorder.time_span() == 240.0
