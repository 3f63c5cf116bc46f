"""The WebDriver session object."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.browser.input_pipeline import (
    InputPipeline,
    SELENIUM_DOUBLE_CLICK_INTERVAL_MS,
)
from repro.browser.navigator import NavigatorProfile
from repro.browser.window import Window
from repro.dom.document import Document
from repro.dom.element import Element
from repro.geometry import Box
from repro.webdriver.action_chains import SELENIUM_INTER_KEY_MS
from repro.webdriver.errors import NoSuchElementException
from repro.webdriver.webelement import WebElement


class WebDriver:
    """A Selenium-like driver bound to one simulated browser window.

    The controlled browser's navigator reports ``webdriver == true`` (the
    W3C convention) and its environment exhibits the Selenium-specific
    double-click interval the paper measured (600 ms instead of 500 ms).
    """

    def __init__(
        self,
        window: Optional[Window] = None,
        *,
        profile: Optional[NavigatorProfile] = None,
    ) -> None:
        """Drive ``window``, or a new window with ``profile``.

        A given window is marked automated (:meth:`Window.automate`)
        without building its navigator chain, which stays lazy until a
        page script, probe or spoof first reads it.
        """
        if window is None:
            profile = (profile or NavigatorProfile()).automated()
            window = Window(profile=profile)
        else:
            window.automate()
        self.window = window
        self.pipeline = InputPipeline(
            window, double_click_interval_ms=SELENIUM_DOUBLE_CLICK_INTERVAL_MS
        )
        self.current_url: str = "about:blank"
        #: Optional page loader: maps a URL to a Document (used by the
        #: crawl simulation); ``get`` is a no-op without one.
        self.page_loader: Optional[Callable[[str], Document]] = None
        #: Optional :class:`repro.faults.FaultInjector` consulted at the
        #: hook points (get / find_element / execute_script), set for an
        #: attempt by :func:`repro.crawl.visit.simulate_visit`; ``None``
        #: (or a disarmed injector) leaves the driver fault-free.
        self.fault_injector = None

    def _fault_check(self, hook: str) -> None:
        """Give the fault injector a chance to fail this command."""
        if self.fault_injector is not None:
            self.fault_injector.on_hook(hook)

    # -- navigation ----------------------------------------------------------

    def get(self, url: str) -> None:
        """Navigate to ``url`` via the configured page loader."""
        self._fault_check("get")
        if self.page_loader is not None:
            document = self.page_loader(url)
            self.load_document(document)
        self.current_url = url

    def load_document(self, document: Document) -> None:
        """Swap in a new page, resetting scroll and hover state."""
        self.window.document = document
        document.window = self.window
        self.window.scroll_x = 0.0
        self.window.scroll_y = 0.0
        self.pipeline.page_loaded()

    # -- element lookup ---------------------------------------------------------

    def find_element(self, by: str, value: str) -> WebElement:
        """Find the first matching element.

        ``by`` is one of ``"id"``, ``"tag name"``, ``"class name"`` or
        ``"css selector"`` (minimal selectors: ``tag``/``#id``/``.class``).
        """
        self._fault_check("find_element")
        document = self.window.document
        element: Optional[Element]
        if by == "id":
            element = document.get_element_by_id(value)
        elif by == "tag name":
            element = document.query_selector(value)
        elif by == "class name":
            element = document.query_selector("." + value)
        elif by == "css selector":
            element = document.query_selector(value)
        else:
            raise NoSuchElementException(f"unknown locator strategy {by!r}")
        if element is None:
            raise NoSuchElementException(f"no element for {by}={value!r}")
        return WebElement(self, element)

    def find_elements(self, by: str, value: str) -> List[WebElement]:
        """Find all matching elements (empty list if none)."""
        self._fault_check("find_element")
        document = self.window.document
        if by == "id":
            element = document.get_element_by_id(value)
            return [WebElement(self, element)] if element else []
        if by == "tag name":
            selector = value
        elif by == "class name":
            selector = "." + value
        elif by == "css selector":
            selector = value
        else:
            return []
        return [WebElement(self, e) for e in document.query_selector_all(selector)]

    def find_element_by_id(self, element_id: str) -> WebElement:
        """Selenium-3-style convenience lookup (used in the paper's
        Listing 2)."""
        return self.find_element("id", element_id)

    # -- scripted interaction -------------------------------------------------------

    def scroll_into_view(self, element: Element) -> None:
        """Bring an element into the viewport (programmatic scroll)."""
        if element.box is None:
            return
        window = self.window
        center = element.center
        if window.is_in_viewport(center):
            return
        target_y = max(0.0, center.y - window.viewport_height / 2.0)
        target_x = max(0.0, center.x - window.viewport_width / 2.0)
        self.pipeline.scroll_programmatic(target_x, target_y)

    def execute_script(self, script: str, *args) -> object:
        """A microscopic ``execute_script``: scroll idioms only.

        Supports the two calls measurement code actually issues --
        ``window.scrollTo(x, y)`` and ``window.scrollBy(x, y)`` -- which is
        how OpenWPM-era studies scroll (and why their scrolling lacks
        wheel events).
        """
        self._fault_check("execute_script")
        text = script.strip().rstrip(";")
        for name in ("window.scrollTo", "window.scrollBy"):
            if text.startswith(name + "("):
                inner = text[len(name) + 1 : -1]
                x_str, y_str = inner.split(",")
                x, y = float(x_str), float(y_str)
                if name.endswith("To"):
                    self.pipeline.scroll_programmatic(x, y)
                else:
                    self.window.scroll_by(x, y)
                return None
        raise NotImplementedError(f"execute_script cannot interpret: {script!r}")

    def type_like_selenium(self, keys: str) -> None:
        """Selenium's element-send-keys rhythm: zero dwell, 13,333 cpm."""
        from repro.webdriver.keys import decode_keys

        clock = self.window.clock
        for key in decode_keys(keys):
            self.pipeline.key_down(key)
            self.pipeline.key_up(key)
            clock.advance(SELENIUM_INTER_KEY_MS)

    def quit(self) -> None:
        """End the session (no external resources to release here)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WebDriver url={self.current_url!r}>"


def make_browser_driver(
    *,
    viewport_width: float = 1366.0,
    viewport_height: float = 768.0,
    page_height: float = 768.0,
    with_demo_page: bool = True,
) -> WebDriver:
    """Create a driver over a fresh window, optionally with a demo page.

    The demo page contains the elements the README quickstart and the
    paper's Listing 2 exercise: a text area, two buttons and a link.
    """
    document = Document(viewport_width, max(page_height, viewport_height))
    if with_demo_page:
        document.create_element(
            "textarea", Box(480, 200, 400, 120), id="text_area"
        )
        document.create_element("button", Box(480, 360, 160, 40), id="submit", text="Submit")
        document.create_element("button", Box(680, 360, 160, 40), id="cancel", text="Cancel")
        document.create_element(
            "a", Box(100, 80, 220, 24), id="home_link", text="Home",
            attributes={"href": "/"},
        )
    window = Window(
        document,
        profile=NavigatorProfile().automated(),
        viewport_width=viewport_width,
        viewport_height=viewport_height,
    )
    return WebDriver(window)
