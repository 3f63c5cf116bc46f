"""The recorder's type index answers exactly what a full scan would.

:meth:`EventRecorder.of_type` answers from per-type position lists that
it builds lazily and extends over newly appended events.  These tests
drive the recorder through every way its ``events`` list grows, empties
or is replaced, and compare each answer with a scan of the stream.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.dom.document import Document
from repro.events.event import Event
from repro.events.recorder import EventRecorder
from repro.geometry import Box

RECORDED = ("a", "b", "c")
#: "d" is dispatched but not recorded; "z" never occurs.
TYPES = RECORDED + ("d",)
QUERY_TYPES = TYPES + ("z",)


class Rig:
    """A recorder attached to a document, and a source of distinct events."""

    def __init__(self) -> None:
        self.document = Document()
        self.element = self.document.create_element("div", Box(0, 0, 10, 10), id="el")
        self.recorder = EventRecorder(RECORDED).attach(self.document)
        self._timestamps = itertools.count()

    def event(self, event_type: str) -> Event:
        return Event(event_type, float(next(self._timestamps)))

    def dispatch(self, types) -> None:
        for event_type in types:
            self.element.dispatch_event(self.event(event_type))

    def append(self, types) -> None:
        for event_type in types:
            self.recorder.events.append(self.event(event_type))

    def extend(self, types) -> None:
        self.recorder.events.extend(self.event(t) for t in types)

    def clear(self, types) -> None:
        self.recorder.clear()

    def replace(self, types) -> None:
        self.recorder.detach()
        self.recorder.events = [self.event(t) for t in types]
        self.recorder.attach(self.document)

    def check(self, query) -> None:
        wanted = set(query)
        expected = [e for e in self.recorder.events if e.type in wanted]
        answer = self.recorder.of_type(*query)
        assert [(e.type, e.timestamp) for e in answer] == [
            (e.type, e.timestamp) for e in expected
        ], query
        assert all(got is want for got, want in zip(answer, expected))
        # The answer is the caller's own list.
        answer.clear()


operations = st.lists(
    st.tuples(
        st.sampled_from(("dispatch", "append", "extend", "clear", "replace")),
        st.lists(st.sampled_from(TYPES), max_size=6),
        st.lists(st.lists(st.sampled_from(QUERY_TYPES), min_size=1, max_size=3), max_size=3),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_of_type_equals_a_full_scan(plan):
    rig = Rig()
    for operation, types, queries in plan:
        getattr(rig, operation)(types)
        for query in queries:
            rig.check(query)


def test_clear_resets_the_index():
    """Query, clear, refill past the old length, query: the second answer
    must not reuse positions indexed before the clear."""
    rig = Rig()
    rig.dispatch("aaa")
    assert len(rig.recorder.of_type("a")) == 3
    rig.recorder.clear()
    rig.dispatch("bbbb")
    assert rig.recorder.of_type("a") == []
    assert [e.type for e in rig.recorder.of_type("b")] == list("bbbb")


def test_replaced_or_shorter_list_rebuilds_the_index():
    rig = Rig()
    rig.dispatch("a")
    assert len(rig.recorder.of_type("a")) == 1
    # An empty replacement, refilled, is indexed from its first event.
    rig.replace("")
    assert rig.recorder.of_type("a") == []
    rig.dispatch("a")
    assert [e.timestamp for e in rig.recorder.of_type("a")] == [1.0]
    rig.dispatch("aab")
    assert len(rig.recorder.of_type("a")) == 3
    rig.recorder.events = [rig.event("b")]
    assert rig.recorder.of_type("a") == []
    rig.recorder.events = [rig.event(t) for t in "abaaab"]
    assert [e.timestamp for e in rig.recorder.of_type("a")] == [6.0, 8.0, 9.0, 10.0]
    del rig.recorder.events[2:]
    assert [e.timestamp for e in rig.recorder.of_type("a")] == [6.0]


def test_multi_type_query_keeps_arrival_order_once_each():
    rig = Rig()
    rig.dispatch("abcabca")
    answer = rig.recorder.of_type("c", "a", "c")
    assert [e.type for e in answer] == list("acaca")
    assert [e.timestamp for e in answer] == [0.0, 2.0, 3.0, 5.0, 6.0]


def test_detach_removes_exactly_what_attach_added():
    rig = Rig()
    rig.recorder.events = []
    rig.recorder.attach(rig.document)
    assert rig.document.listener_count() == 2 * len(RECORDED)
    rig.recorder.detach()
    assert rig.document.listener_count() == 0
    rig.dispatch("abc")
    assert len(rig.recorder) == 0

