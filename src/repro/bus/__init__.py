"""repro.bus -- the deterministic crawl event bus.

A trimmed-down, fully deterministic take on browser-use's bubus: typed
events, ordered synchronous dispatch stamped from the shared virtual
clock, subscriber registry, and obs integration (``bus.*`` trace
events, from which the metrics export folds ``bus.events.*``
counters).  The crawl layers --
:class:`~repro.crawl.supervisor.CrawlSupervisor`, the
:class:`~repro.browser.session.BrowserSession` of each browser slot and
the :mod:`~repro.crawl.watchdogs` -- communicate through it instead of
calling each other directly.  See docs/EVENT_BUS.md.
"""

from repro.bus.bus import EventBus, Handler, Subscription
from repro.bus.events import (
    BrowserRecycleRequested,
    BrowserRecycled,
    BusEvent,
    ChallengeDetected,
    FaultObserved,
    InputObstructed,
    NavigateToUrl,
    OverlayDetected,
    PageStalled,
    QueryElements,
    Resolvable,
    RunScript,
    event_name,
)

__all__ = [
    "EventBus",
    "Handler",
    "Subscription",
    "BusEvent",
    "Resolvable",
    "event_name",
    "FaultObserved",
    "BrowserRecycleRequested",
    "BrowserRecycled",
    "NavigateToUrl",
    "QueryElements",
    "RunScript",
    "OverlayDetected",
    "ChallengeDetected",
    "InputObstructed",
    "PageStalled",
]
