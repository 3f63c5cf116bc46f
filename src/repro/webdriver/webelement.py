"""``WebElement``: the driver-side handle to a DOM element."""

from __future__ import annotations

from typing import Dict, Optional

from repro.dom.element import Element
from repro.webdriver.errors import (
    ElementNotInteractableException,
    StaleElementReferenceException,
)


class WebElement:
    """A remote-end element reference, as returned by ``find_element``.

    Interaction through ``WebElement`` (as opposed to ``ActionChains``)
    uses WebDriver's *element interaction* algorithms: the element is
    scrolled into view and the cursor teleports to its exact centre --
    there is no trajectory at all, which is even more artificial than the
    ActionChains straight line.
    """

    def __init__(self, driver, dom_element: Element) -> None:
        self._driver = driver
        self.dom_element = dom_element

    # -- inspection ---------------------------------------------------------

    def _require_interactable(self) -> None:
        if self.dom_element.document is not self._driver.window.document:
            raise StaleElementReferenceException(
                f"element <{self.dom_element.tag}> belongs to a previous page"
            )
        if not self.dom_element.visible or self.dom_element.box is None:
            raise ElementNotInteractableException(
                f"element <{self.dom_element.tag}> is not interactable"
            )

    @property
    def tag_name(self) -> str:
        return self.dom_element.tag

    @property
    def text(self) -> str:
        return self.dom_element.text

    @property
    def location(self) -> Dict[str, float]:
        """Top-left corner in page coordinates (Selenium's ``location``)."""
        box = self.dom_element.box
        if box is None:
            raise ElementNotInteractableException("element has no layout")
        return {"x": box.x, "y": box.y}

    @property
    def size(self) -> Dict[str, float]:
        box = self.dom_element.box
        if box is None:
            raise ElementNotInteractableException("element has no layout")
        return {"width": box.width, "height": box.height}

    @property
    def rect(self) -> Dict[str, float]:
        loc, size = self.location, self.size
        return {**loc, **size}

    def get_attribute(self, name: str) -> Optional[str]:
        if name == "id":
            return self.dom_element.id
        if name == "value":
            return self.dom_element.value
        if name == "class":
            return " ".join(self.dom_element.classes)
        return self.dom_element.attributes.get(name)

    @property
    def is_displayed(self) -> bool:
        return self.dom_element.visible and self.dom_element.box is not None

    # -- interaction -------------------------------------------------------------

    def click(self) -> None:
        """WebDriver element click: scroll into view, teleport, click.

        Zero-length "trajectory", exact centre, zero dwell -- maximally
        recognisable per the paper's taxonomy of Selenium artefacts.
        """
        self._require_interactable()
        self._driver.scroll_into_view(self.dom_element)
        center_client = self._driver.window.page_to_client(self.dom_element.center)
        pipeline = self._driver.pipeline
        pipeline.move_mouse_to(center_client.x, center_client.y, force_event=True)
        pipeline.mouse_down()
        pipeline.mouse_up()

    def send_keys(self, keys: str) -> None:
        """WebDriver element send-keys: focus, then type instantly.

        Typing uses Selenium's signature rhythm (13,333 cpm, zero dwell,
        capitals without Shift) via the driver's key routine.
        """
        self._require_interactable()
        self._driver.pipeline.focus(self.dom_element)
        self._driver.type_like_selenium(keys)

    def clear(self) -> None:
        """Empty a form control's value."""
        self._require_interactable()
        self.dom_element.value = ""

    def __eq__(self, other) -> bool:
        return isinstance(other, WebElement) and other.dom_element is self.dom_element

    def __hash__(self) -> int:
        return id(self.dom_element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WebElement {self.dom_element!r}>"
