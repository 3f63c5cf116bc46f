"""One browser slot of a crawl, addressable over the event bus.

A :class:`BrowserSession` is one of the long-lived browsers a crawl
visits with (OpenWPM's browser instance): a simulated
:class:`~repro.browser.window.Window` and its
:class:`~repro.webdriver.driver.WebDriver`, with the probe ledger
attached and the spoofing extension injected.  It subscribes to the
command events of :mod:`repro.bus.events` (``NavigateToUrl``,
``QueryElements``, ``RunScript``) addressed to its own browser index
and executes each one it receives on its driver.  It also holds the
fault count that triggers recycling, which re-runs the spawn sequence a
real browser restart performs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.browser.navigator import NavigatorProfile
from repro.browser.window import Window
from repro.bus.events import NavigateToUrl, QueryElements, RunScript
from repro.webdriver.driver import WebDriver


class BrowserSession:
    """One long-lived browser of the crawl (OpenWPM's browser slot).

    ``index`` identifies the session on a shared bus: command events
    carry a ``browser`` field, and :meth:`attach` addresses the
    session's handlers to its ``index``, so the bus delivers each
    command to the one session it names.  ``fault_count`` and
    ``recycles`` are the recycling state a checkpoint carries.
    """

    def __init__(self, index: int, extension=None, ledger=None) -> None:
        self.index = index
        self.extension = extension
        self.ledger = ledger
        self.fault_count = 0
        self.recycles = 0
        self._subscriptions: List = []
        self.spawn()

    def spawn(self) -> None:
        """(Re)create the browser: fresh window, fresh driver, probe
        ledger re-attached, extension re-injected.  The window's
        navigator chain is built on its first read (by the extension
        here, else by a probe), never shared with the old window's."""
        self.window = Window(profile=NavigatorProfile(webdriver=True))
        # Only *attach* the ledger here -- instrumentation happens lazily
        # at probe time (see ``fingerprint._window_ledger``), so spawning,
        # recycling and resume-respawning record no entries and the ledger
        # stays byte-identical across interrupt/resume.
        self.window.probe_ledger = self.ledger
        self.driver = WebDriver(self.window)
        if self.extension is not None:
            self.extension.inject(self.window)

    def recycle(self) -> None:
        """Tear the browser down and spawn a fresh one."""
        self.recycles += 1
        self.fault_count = 0
        self.spawn()

    def note_fault(self) -> int:
        """Record one fault; returns the running count."""
        self.fault_count += 1
        return self.fault_count

    def state_dict(self) -> Dict[str, int]:
        """The recycling state a checkpoint must carry: resumed crawls
        must reach the fault budget exactly where an uninterrupted one
        would."""
        return {"fault_count": self.fault_count, "recycles": self.recycles}

    def load_state(self, state: Dict[str, int]) -> None:
        self.fault_count = int(state.get("fault_count", 0))
        self.recycles = int(state.get("recycles", 0))

    # -- bus commands ----------------------------------------------------

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
        ]

    def detach(self, bus) -> None:
        """Remove this session's handlers from ``bus``."""
        for subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions = []

    def on_navigate(self, event: NavigateToUrl) -> None:
        self.driver.get(event.url)
        event.handled = True

    def on_query(self, event: QueryElements) -> None:
        event.result = self.driver.find_elements(event.by, event.value)
        event.handled = True

    def on_run_script(self, event: RunScript) -> None:
        event.result = self.driver.execute_script(event.script)
        event.handled = True
