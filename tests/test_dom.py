"""DOM: element tree, hit testing, selectors, focus."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser.window import Window
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.hostile import OVERLAY_ID, install_challenge, install_overlay
from repro.events.event import Event
from repro.geometry import Box, Point
from repro.webdriver.driver import WebDriver


class TestElement:
    def test_center_requires_layout(self):
        with pytest.raises(ValueError):
            Element("div").center

    def test_center(self):
        assert Element("div", Box(10, 10, 20, 20)).center == Point(20, 20)

    def test_contains_point_respects_visibility(self):
        element = Element("div", Box(0, 0, 50, 50))
        assert element.contains_point(Point(25, 25))
        element.visible = False
        assert not element.contains_point(Point(25, 25))

    def test_focusable_tags(self):
        assert Element("input", Box(0, 0, 1, 1)).focusable
        assert Element("a", Box(0, 0, 1, 1)).focusable
        assert not Element("div", Box(0, 0, 1, 1)).focusable

    def test_tabindex_makes_focusable(self):
        element = Element("div", Box(0, 0, 1, 1), attributes={"tabindex": "0"})
        assert element.focusable

    def test_matches_selectors(self):
        element = Element("button", id="go", classes=["primary"])
        assert element.matches("button")
        assert element.matches("#go")
        assert element.matches(".primary")
        assert not element.matches("#stop")

    def test_iter_subtree_depth_first(self):
        root = Element("div")
        a = Element("span")
        b = Element("em")
        inner = Element("b")
        root.append_child(a)
        a.append_child(inner)
        root.append_child(b)
        assert [e.tag for e in root.iter_subtree()] == ["div", "span", "b", "em"]


class TestDocument:
    def test_create_and_lookup_by_id(self):
        document = Document()
        element = document.create_element("button", Box(0, 0, 10, 10), id="go")
        assert document.get_element_by_id("go") is element

    def test_register_indexes_subtree(self):
        document = Document()
        parent = Element("div", Box(0, 0, 100, 100))
        child = Element("span", Box(0, 0, 10, 10), id="nested")
        parent.append_child(child)
        document.body.append_child(parent)
        assert document.get_element_by_id("nested") is child

    def test_query_selector_first_match(self):
        document = Document()
        first = document.create_element("p", Box(0, 0, 5, 5), classes=["x"])
        document.create_element("p", Box(0, 10, 5, 5), classes=["x"])
        assert document.query_selector(".x") is first

    def test_query_selector_all(self):
        document = Document()
        document.create_element("p", Box(0, 0, 5, 5))
        document.create_element("p", Box(0, 10, 5, 5))
        assert len(document.query_selector_all("p")) == 2

    def test_element_at_deepest_hit(self):
        document = Document()
        outer = document.create_element("div", Box(0, 0, 200, 200))
        inner = document.create_element("button", Box(50, 50, 50, 50), parent=outer)
        assert document.element_at(Point(60, 60)) is inner
        assert document.element_at(Point(10, 10)) is outer

    def test_element_at_last_in_document_order_wins(self):
        """The topmost painted element, not the deepest: a later sibling
        overlapping a nested element covers it."""
        document = Document()
        outer = document.create_element("div", Box(0, 0, 200, 200))
        inner = document.create_element("button", Box(50, 50, 50, 50), parent=outer)
        cover = document.create_element("div", Box(40, 40, 30, 30))
        assert document.element_at(Point(60, 60)) is cover
        assert document.element_at(Point(90, 90)) is inner

    def test_element_at_falls_back_to_body(self):
        document = Document()
        assert document.element_at(Point(999999, 5)) is document.body

    def test_hidden_element_not_hit(self):
        document = Document()
        element = document.create_element("div", Box(0, 0, 50, 50))
        element.visible = False
        assert document.element_at(Point(25, 25)) is document.body

    def test_focus_transitions(self):
        document = Document()
        field = document.create_element("input", Box(0, 0, 50, 20), id="f")
        events = document.set_focus(field)
        assert [(t, e.id) for t, e in events] == [("focus", "f"), ("focusin", "f")]
        assert document.active_element is field
        assert field.focused

    def test_refocus_same_element_is_noop(self):
        document = Document()
        field = document.create_element("input", Box(0, 0, 50, 20))
        document.set_focus(field)
        assert document.set_focus(field) == []

    def test_blur_on_focus_change(self):
        document = Document()
        a = document.create_element("input", Box(0, 0, 50, 20), id="a")
        b = document.create_element("input", Box(0, 30, 50, 20), id="b")
        document.set_focus(a)
        events = document.set_focus(b)
        kinds = [t for t, _ in events]
        assert kinds == ["blur", "focusout", "focus", "focusin"]
        assert not a.focused and b.focused

    def test_scroll_height(self):
        assert Document(800, 30000).scroll_height == 30000


def reference_element_at(document, point):
    """The recursive scan: the last containing element in document order
    wins, falling back to the body."""
    hit = document.body
    for element in document.body.iter_subtree():
        if element is not document.body and element.contains_point(point):
            hit = element
    return hit


_coordinate = st.integers(min_value=-1, max_value=61).map(float)
_boxes = st.builds(
    Box,
    st.integers(0, 40).map(float),
    st.integers(0, 40).map(float),
    st.integers(0, 40).map(float),
    st.integers(0, 40).map(float),
)


@st.composite
def _documents(draw):
    """Random trees: nesting, overlapping siblings, hidden and box-less
    elements, and removed subtrees, some re-appended elsewhere."""
    document = Document(60, 60)
    detached = []
    for _ in range(draw(st.integers(4, 30))):
        attached = list(document.body.iter_subtree())
        action = draw(st.sampled_from(("create", "create", "create", "hide", "remove", "reappend")))
        if action == "create":
            nodes = attached + [node for root in detached for node in root.iter_subtree()]
            parent = draw(st.sampled_from(nodes))
            document.create_element("div", draw(st.none() | _boxes), parent=parent)
        elif len(attached) > 1 and action == "hide":
            draw(st.sampled_from(attached[1:])).visible = False
        elif len(attached) > 1 and action == "remove":
            detached.append(draw(st.sampled_from(attached[1:])).remove())
        elif detached and action == "reappend":
            root = detached.pop(draw(st.integers(0, len(detached) - 1)))
            draw(st.sampled_from(attached)).append_child(root)
    return document


class TestHitTestReference:
    @settings(max_examples=300, deadline=None)
    @given(
        document=_documents(),
        points=st.lists(st.builds(Point, _coordinate, _coordinate), min_size=1, max_size=20),
    )
    def test_element_at_matches_recursive_scan(self, document, points):
        # Probe every box's corners and centre too: edges are inclusive.
        for element in document.body.iter_subtree():
            box = element.box
            if box is not None:
                points += [Point(box.left, box.top), Point(box.right, box.bottom), box.center]
        for point in points:
            assert document.element_at(point) is reference_element_at(document, point)


def _property_parent_target(node):
    """The bubbling link as the ``parent_target`` properties computed it
    on each read: an element's parent, else its document; a document's
    window; nothing above a window."""
    if isinstance(node, Element):
        return node.parent if node.parent is not None else node.document
    if isinstance(node, Document):
        return node.window
    return None


_TREE_STEPS = (
    "create", "create", "detached", "remove", "remove", "reappend", "move",
    "overlay", "dismiss", "challenge", "load", "window", "assign",
)


class TestBubblingLinks:
    """``parent_target`` is a plain attribute that the owning classes
    keep current: it must always equal what the old per-read property
    computed, and bubbling must reach each window exactly once."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_links_follow_random_tree_changes(self, data):
        reached = Counter()

        def counting(window):
            window.add_event_listener("mousemove", lambda event: reached.update((window,)))
            return window

        driver = WebDriver(counting(Window()))
        windows = [driver.window, counting(Window())]
        documents = [window.document for window in windows] + [Document(300, 300)]
        # Every element a step creates, attached or not; bodies included.
        created = [document.body for document in documents]
        for _ in range(data.draw(st.integers(1, 25), label="steps")):
            step = data.draw(st.sampled_from(_TREE_STEPS), label="step")
            if step == "create":
                parent = data.draw(st.sampled_from(created), label="parent")
                created.append(parent.append_child(Element("div", Box(0, 0, 10, 10))))
            elif step == "detached":
                created.append(Element("span"))
            elif step == "remove":
                children = [element for element in created if element.parent is not None]
                if children:
                    data.draw(st.sampled_from(children), label="removed").remove()
            elif step == "reappend":
                bodies = {id(document.body) for document in documents}
                roots = [e for e in created if e.parent is None and id(e) not in bodies]
                if roots:
                    root = data.draw(st.sampled_from(roots), label="root")
                    inside = {id(node) for node in root.iter_subtree()}
                    hosts = [e for e in created if id(e) not in inside]
                    data.draw(st.sampled_from(hosts), label="host").append_child(root)
            elif step == "move":
                attached = [element for element in created if element.parent is not None]
                if attached:
                    moved = data.draw(st.sampled_from(attached), label="moved")
                    inside = {id(node) for node in moved.iter_subtree()}
                    hosts = [e for e in created if id(e) not in inside]
                    data.draw(st.sampled_from(hosts), label="host").append_child(moved)
            elif step in ("overlay", "challenge"):
                document = data.draw(st.sampled_from(documents), label="document")
                install = install_overlay if step == "overlay" else install_challenge
                created.extend(install(document).iter_subtree())
            elif step == "dismiss":
                overlays = [d.get_element_by_id(OVERLAY_ID) for d in documents]
                overlays = [overlay for overlay in overlays if overlay is not None]
                if overlays:
                    data.draw(st.sampled_from(overlays), label="overlay").remove()
            elif step == "load":
                if data.draw(st.booleans(), label="new page"):
                    documents.append(Document(400, 400))
                    created.append(documents[-1].body)
                driver.load_document(data.draw(st.sampled_from(documents), label="page"))
            elif step == "window":
                windows.append(counting(Window(data.draw(st.sampled_from(documents), label="document"))))
            else:
                document = data.draw(st.sampled_from(documents), label="document")
                document.window = data.draw(st.sampled_from(windows + [None]), label="window")

            for node in created + documents + windows:
                assert node.parent_target is _property_parent_target(node)
            listed = Counter(id(child) for element in created for child in element.children)
            for element in created:
                assert listed[id(element)] == (element.parent is not None)
            for document in documents:
                if document.window is None:
                    continue
                for element in document.body.iter_subtree():
                    reached.clear()
                    element.dispatch_event(Event("mousemove", 0.0))
                    assert reached == Counter({document.window: 1})

    def test_appending_an_attached_element_moves_it(self):
        document = Document(300, 300)
        a = document.create_element("div", Box(0, 0, 100, 100), id="a")
        b = document.create_element("div", Box(100, 0, 100, 100), id="b")
        x = a.append_child(Element("span", Box(10, 10, 5, 5), id="x"))
        assert b.append_child(x) is x
        assert x.parent is b and x.parent_target is b
        assert a.children == [] and b.children == [x]
        assert [e.id for e in document.body.iter_subtree()] == ["body", "a", "b", "x"]
        assert document.get_element_by_id("x") is x

    def test_a_listener_that_removes_its_target_stops_the_bubbling_there(self):
        window = Window()
        leaf = window.document.create_element("button", Box(0, 0, 10, 10), id="leaf")
        path = []

        def detach(event):
            path.append("leaf")
            leaf.remove()

        leaf.add_event_listener("mousemove", detach)
        window.document.body.add_event_listener("mousemove", lambda e: path.append("body"))
        window.add_event_listener("mousemove", lambda e: path.append("window"))
        leaf.dispatch_event(Event("mousemove", 0.0))
        assert path == ["leaf"]
        assert leaf.parent_target is None

    def test_a_body_listener_that_moves_the_target_keeps_the_walk_on_its_path(self):
        window = Window()
        document = window.document
        leaf = document.create_element("button", Box(0, 0, 10, 10), id="leaf")
        shelf = document.create_element("div", Box(0, 0, 50, 50), id="shelf")
        path = []

        def move_leaf(event):
            path.append("body")
            if leaf.parent is document.body:
                shelf.append_child(leaf.remove())

        nodes = {"leaf": leaf, "shelf": shelf, "document": document, "window": window}
        for name, node in nodes.items():
            node.add_event_listener("mousemove", lambda e, name=name: path.append(name))
        document.body.add_event_listener("mousemove", move_leaf)
        leaf.dispatch_event(Event("mousemove", 0.0))
        assert path == ["leaf", "body", "document", "window"]
        path.clear()
        leaf.dispatch_event(Event("mousemove", 1.0))
        assert path == ["leaf", "shelf", "body", "document", "window"]
