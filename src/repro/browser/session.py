"""The pluggable browser backend interface.

The crawl layers never touch a concrete browser directly: they talk to
a :class:`BrowserSession`, and -- following browser-use's Selenium
backend -- a session is an *event-driven adapter*: it subscribes to the
command events of :mod:`repro.bus.events` (``NavigateToUrl``,
``QueryElements``, ``RunScript``, ``ScrollTo``) addressed to its own
browser index, and executes each one it receives on its backend.  The
simulated backend (:class:`SimulatedBrowserSession`, wrapping
:class:`~repro.browser.window.Window` +
:class:`~repro.webdriver.driver.WebDriver`) is one implementation; a
real-Selenium adapter can implement the same surface without the crawl
or analysis code changing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.browser.navigator import NavigatorProfile
from repro.browser.window import Window
from repro.bus.events import NavigateToUrl, QueryElements, RunScript, ScrollTo
from repro.webdriver.driver import WebDriver


class BrowserSession(ABC):
    """One controllable browser, addressable over the event bus.

    ``index`` identifies the session on a shared bus: command events
    carry a ``browser`` field, and :meth:`attach` addresses the
    session's handlers to its ``index``, so the bus delivers each
    command to the one session it names (OpenWPM's browser-slot
    semantics).
    """

    #: Human-readable backend tag ("simulated", "selenium", ...).
    backend: str = "abstract"

    def __init__(self, index: int) -> None:
        self.index = index
        self._subscriptions: List = []

    # -- backend surface -------------------------------------------------

    @abstractmethod
    def spawn(self) -> None:
        """(Re)create the underlying browser from scratch."""

    @abstractmethod
    def navigate(self, url: str) -> None:
        """Load ``url`` in the session's browser."""

    @abstractmethod
    def query(self, by: str, value: str):
        """Find elements in the current document."""

    @abstractmethod
    def run_script(self, script: str):
        """Execute a script in the page context."""

    @abstractmethod
    def scroll_to(self, x: float, y: float) -> None:
        """Programmatic scroll through the backend's input layer."""

    def close(self) -> None:
        """Release backend resources (nothing to do for simulation)."""

    # -- event-driven adapter --------------------------------------------

    def attach(self, bus) -> None:
        """Subscribe this session's command handlers to ``bus``.

        Each handler is addressed to ``self.index``
        (``subscribe(..., browser=index)``), so it receives only the
        commands whose ``browser`` field names this session; the
        ``on_*`` handlers therefore execute every event they get.
        Handlers are registered in a fixed order, so a bus with several
        sessions attached dispatches deterministically.
        """
        tag = f"session[{self.index}]"
        index = self.index
        self._subscriptions = [
            bus.subscribe(
                NavigateToUrl, self.on_navigate, name=f"{tag}.navigate", browser=index
            ),
            bus.subscribe(
                QueryElements, self.on_query, name=f"{tag}.query", browser=index
            ),
            bus.subscribe(
                RunScript, self.on_run_script, name=f"{tag}.run_script", browser=index
            ),
            bus.subscribe(
                ScrollTo, self.on_scroll_to, name=f"{tag}.scroll_to", browser=index
            ),
        ]

    def detach(self, bus) -> None:
        """Remove this session's handlers from ``bus``."""
        for subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    def on_navigate(self, event: NavigateToUrl) -> None:
        self.navigate(event.url)
        event.handled = True

    def on_query(self, event: QueryElements) -> None:
        event.result = self.query(event.by, event.value)
        event.handled = True

    def on_run_script(self, event: RunScript) -> None:
        event.result = self.run_script(event.script)
        event.handled = True

    def on_scroll_to(self, event: ScrollTo) -> None:
        self.scroll_to(event.x, event.y)
        event.handled = True


class SimulatedBrowserSession(BrowserSession):
    """The simulated backend: a Window/WebDriver pair plus extension.

    Spawning re-runs the full sequence a real browser restart performs:
    fresh window, fresh driver, probe ledger re-attached, extension
    re-injected.
    """

    backend = "simulated"

    def __init__(self, index: int, extension=None, ledger=None) -> None:
        super().__init__(index)
        self.extension = extension
        self.ledger = ledger
        self.window: Optional[Window] = None
        self.driver: Optional[WebDriver] = None
        self.spawn()

    def spawn(self) -> None:
        self.window = Window(profile=NavigatorProfile(webdriver=True))
        # Only *attach* the ledger here -- instrumentation happens lazily
        # at probe time (see ``fingerprint._window_ledger``), so spawning,
        # recycling and resume-respawning record no entries and the ledger
        # stays byte-identical across interrupt/resume.
        self.window.probe_ledger = self.ledger
        self.driver = WebDriver(self.window)
        if self.extension is not None:
            self.extension.inject(self.window)

    def navigate(self, url: str) -> None:
        self.driver.get(url)

    def query(self, by: str, value: str):
        return self.driver.find_elements(by, value)

    def run_script(self, script: str):
        return self.driver.execute_script(script)

    def scroll_to(self, x: float, y: float) -> None:
        self.driver.pipeline.scroll_programmatic(x, y)
