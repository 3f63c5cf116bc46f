"""DOM elements with layout boxes."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.events.dispatch import EventTarget
from repro.geometry import Box, Point

#: Tags that can receive keyboard focus by clicking.
FOCUSABLE_TAGS = frozenset({"input", "textarea", "button", "select", "a"})


class Element(EventTarget):
    """A DOM element.

    Its bubbling link (``parent_target``) is its parent, else its
    document, else ``None``.  ``parent`` and ``document`` are properties
    whose setters keep that link current, so every writer -- the tree
    methods here, :meth:`Document.register`/``unregister`` and any
    caller -- moves the link with them.

    Parameters
    ----------
    tag:
        Lower-case tag name (``"div"``, ``"input"``, ...).
    box:
        Layout box in **page** coordinates.  Elements without layout (e.g.
        display:none) pass ``None`` and are unclickable.
    id / classes / attributes / text:
        The usual DOM surface, used by selectors and assertions.
    """

    def __init__(
        self,
        tag: str,
        box: Optional[Box] = None,
        *,
        id: Optional[str] = None,
        classes: Optional[List[str]] = None,
        attributes: Optional[Dict[str, str]] = None,
        text: str = "",
    ) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.box = box
        self.id = id
        self.classes: List[str] = list(classes or [])
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.text = text
        self.children: List[Element] = []
        self._parent: Optional[Element] = None
        self._document = None  # set when attached to a Document
        #: Value of form controls (what typing writes into).
        self.value: str = ""
        #: Whether the element currently holds keyboard focus.
        self.focused: bool = False
        #: Elements can be hidden (e.g. honeypots): hidden elements have no
        #: hit-test presence but bots that go "through the DOM" still find
        #: them -- a classic detector trick.
        self.visible: bool = True
        #: HTML5 ``draggable``: dragging such an element produces the
        #: dragstart/drag/dragover/drop/dragend family of Appendix C
        #: instead of plain mouse movement.
        self.draggable: bool = attributes is not None and attributes.get("draggable") == "true"

    # -- tree ---------------------------------------------------------------

    @property
    def parent(self) -> Optional["Element"]:
        """The parent element (``None`` for the body or a detached root)."""
        return self._parent

    @parent.setter
    def parent(self, parent: Optional["Element"]) -> None:
        self._parent = parent
        self.parent_target = parent if parent is not None else self._document

    @property
    def document(self):
        """The owning document (``None`` while detached)."""
        return self._document

    @document.setter
    def document(self, document) -> None:
        self._document = document
        if self._parent is None:
            self.parent_target = document

    def append_child(self, child: "Element") -> "Element":
        """Attach ``child`` as the last child and return it (for chaining).

        A child that already has a parent is detached first, so it moves
        rather than being listed twice, as the DOM's ``appendChild`` moves
        a node.
        """
        if child.parent is not None:
            child.remove()
        child.parent = self
        child.document = self.document
        self.children.append(child)
        if self.document is not None:
            self.document.register(child)
        return child

    def remove(self) -> "Element":
        """Detach this element (and its subtree) from the tree.

        The inverse of :meth:`append_child`: the subtree leaves its
        parent's children, the document's id registry, and hit-testing.
        Used by overlay dismissal (a robust crawler removes cookie
        banners the way a consent-manager script would).
        """
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        self.parent = None
        if self.document is not None:
            self.document.unregister(self)
        return self

    def iter_subtree(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and its descendants."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    # -- geometry --------------------------------------------------------------

    @property
    def center(self) -> Point:
        """The element's exact centre (where Selenium clicks)."""
        if self.box is None:
            raise ValueError(f"element <{self.tag}> has no layout box")
        return self.box.center

    def contains_point(self, point: Point) -> bool:
        """Hit test against this element's own box (page coordinates)."""
        return self.visible and self.box is not None and self.box.contains(point)

    # -- state -------------------------------------------------------------------

    @property
    def focusable(self) -> bool:
        """Whether clicking this element gives it keyboard focus."""
        return self.tag in FOCUSABLE_TAGS or self.attributes.get("tabindex") is not None

    def matches(self, selector: str) -> bool:
        """Minimal CSS-selector matching: ``tag``, ``#id``, ``.class``."""
        selector = selector.strip()
        if selector.startswith("#"):
            return self.id == selector[1:]
        if selector.startswith("."):
            return selector[1:] in self.classes
        return self.tag == selector.lower()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.id}" if self.id else ""
        return f"<Element {self.tag}{ident} box={self.box}>"
