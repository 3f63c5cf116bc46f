"""The document: element registry, hit testing, focus management."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dom.element import Element
from repro.events.dispatch import EventTarget
from repro.geometry import Box


class Document(EventTarget):
    """A page's document.

    Its bubbling link (``parent_target``) is its window: ``window`` is a
    property over that link, so assigning it (``Window.__init__``,
    ``WebDriver.load_document``) moves the link.

    Parameters
    ----------
    width / height:
        Page dimensions.  ``height`` may far exceed the viewport (the
        paper's scrolling task uses a 30,000 px page).
    """

    def __init__(self, width: float = 1366.0, height: float = 768.0) -> None:
        super().__init__()
        self.width = width
        self.height = height
        self.body = Element("body", Box(0, 0, width, height), id="body")
        self.body.document = self
        self._by_id: Dict[str, Element] = {"body": self.body}
        #: Element currently holding keyboard focus (None = body).
        self.active_element: Optional[Element] = None
        #: Page visibility state ("visible" or "hidden").
        self.visibility_state: str = "visible"

    # -- registry ----------------------------------------------------------

    def register(self, element: Element) -> None:
        """Index ``element`` (and its subtree) for id lookup."""
        for node in element.iter_subtree():
            node.document = self
            if node.id is not None:
                self._by_id[node.id] = node

    def unregister(self, element: Element) -> None:
        """Drop ``element`` (and its subtree) from the id registry.

        The registry maps an id to the *latest* registered element, so
        unregistering only removes entries still pointing into this
        subtree.  Focus held inside the removed subtree is released.
        """
        for node in element.iter_subtree():
            if node.id is not None and self._by_id.get(node.id) is node:
                del self._by_id[node.id]
            if self.active_element is node:
                self.active_element = None
                node.focused = False
            node.document = None

    def create_element(
        self,
        tag: str,
        box: Optional[Box] = None,
        *,
        parent: Optional[Element] = None,
        **kwargs,
    ) -> Element:
        """Create an element and attach it (to ``parent`` or the body)."""
        element = Element(tag, box, **kwargs)
        (parent or self.body).append_child(element)
        return element

    # -- queries -------------------------------------------------------------

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        """``document.getElementById``."""
        return self._by_id.get(element_id)

    def query_selector(self, selector: str) -> Optional[Element]:
        """First element matching a minimal selector (tag/#id/.class)."""
        for element in self.body.iter_subtree():
            if element.matches(selector):
                return element
        return None

    def query_selector_all(self, selector: str) -> List[Element]:
        """All elements matching a minimal selector, in tree order."""
        return [e for e in self.body.iter_subtree() if e.matches(selector)]

    def element_at(self, point: Tuple[float, float]) -> Element:
        """Hit test: the topmost visible element containing ``point``.

        ``point`` is an ``(x, y)`` pair (a ``Point`` or a plain tuple) in
        page coordinates.  Elements paint in document order, so the *last*
        containing element in document order wins -- a later sibling
        covers an earlier sibling's descendants, however deep.  Falls back
        to the body, as browsers do.  The scan walks the tree with an
        explicit stack and applies :meth:`Element.contains_point`'s rule
        inline (visible, laid out, edges inclusive): it runs once per
        pointer sample.
        """
        x, y = point
        hit = self.body
        stack = self.body.children[::-1]
        while stack:
            element = stack.pop()
            box = element.box
            if (
                element.visible
                and box is not None
                and box.x <= x <= box.x + box.width
                and box.y <= y <= box.y + box.height
            ):
                hit = element
            if element.children:
                stack.extend(reversed(element.children))
        return hit

    # -- focus ------------------------------------------------------------------

    def set_focus(self, element: Optional[Element]) -> List:
        """Move keyboard focus, returning the focus-related events to fire.

        The caller (input pipeline) dispatches the returned events so their
        timestamps come from the shared clock.
        """
        transitions = []
        previous = self.active_element
        if previous is element:
            return transitions
        if previous is not None:
            previous.focused = False
            transitions.append(("blur", previous))
            transitions.append(("focusout", previous))
        self.active_element = element
        if element is not None:
            element.focused = True
            transitions.append(("focus", element))
            transitions.append(("focusin", element))
        return transitions

    @property
    def window(self) -> Optional[EventTarget]:
        """The owning window (``None`` until a window takes the document)."""
        return self.parent_target

    @window.setter
    def window(self, window: Optional[EventTarget]) -> None:
        self.parent_target = window

    @property
    def scroll_height(self) -> float:
        """Total scrollable height of the page."""
        return self.height

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document {self.width:.0f}x{self.height:.0f} elements={len(self._by_id)}>"
