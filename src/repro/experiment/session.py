"""One measurement session: browser + recorder (+ driver for bots)."""

from __future__ import annotations

from typing import Optional

from repro.browser.input_pipeline import (
    DEFAULT_DOUBLE_CLICK_INTERVAL_MS,
    InputPipeline,
)
from repro.browser.navigator import NavigatorProfile
from repro.browser.window import Window
from repro.dom.document import Document
from repro.dom.element import Element
from repro.events.recorder import EventRecorder
from repro.events.taxonomy import COVERING_SET_EVENTS
from repro.webdriver.driver import WebDriver
from repro.webdriver.webelement import WebElement


class Session:
    """A fresh browser with the recording "website" attached.

    Parameters
    ----------
    automated:
        ``True`` builds a WebDriver-controlled browser (``navigator.
        webdriver`` true, Selenium's 600 ms double-click environment) and
        exposes :attr:`driver`.  ``False`` models a human's browser: no
        driver, default environment, events produced directly through the
        input pipeline.
    """

    def __init__(
        self,
        *,
        automated: bool,
        viewport_width: float = 1366.0,
        viewport_height: float = 768.0,
        page_height: float = 768.0,
    ) -> None:
        self.document = Document(viewport_width, max(page_height, viewport_height))
        profile = NavigatorProfile(webdriver=automated)
        self.window = Window(
            self.document,
            profile=profile,
            viewport_width=viewport_width,
            viewport_height=viewport_height,
        )
        self.automated = automated
        if automated:
            self.driver: Optional[WebDriver] = WebDriver(self.window)
            self.pipeline = self.driver.pipeline
        else:
            self.driver = None
            self.pipeline = InputPipeline(
                self.window,
                double_click_interval_ms=DEFAULT_DOUBLE_CLICK_INTERVAL_MS,
            )
            # A human's cursor is wherever their hand left it -- not at
            # the viewport origin where automation parks (Appendix F).
            from repro.geometry import Point

            self.pipeline.pointer = Point(
                viewport_width * 0.47, viewport_height * 0.58
            )
        # Record everything interaction-related, like the Appendix E site.
        # Attached at the window (top of the propagation path) only, so
        # each event is recorded exactly once.  The pointer-event family
        # is recorded alongside the Appendix D covering set: detectors
        # use the mouse/pointer *pairing* as a trust signal.
        self.recorder = EventRecorder(
            COVERING_SET_EVENTS + ("pointermove", "pointerdown", "pointerup")
        ).attach(self.window)

    @property
    def clock(self):
        return self.window.clock

    def web_element(self, element: Element) -> WebElement:
        """Driver-side handle for a DOM element (bot agents only)."""
        if self.driver is None:
            raise RuntimeError("this session has no WebDriver (human session)")
        return WebElement(self.driver, element)
