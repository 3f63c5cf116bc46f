"""The typed event taxonomy carried by :class:`repro.bus.EventBus`.

Two families of events travel the bus (docs/EVENT_BUS.md):

- **notifications** describe something that already happened
  (:class:`FaultObserved`, :class:`BrowserRecycled`).  Subscribers react
  but cannot veto.
- **requests** ask a capable subscriber to act.  Command requests
  (:class:`NavigateToUrl`, :class:`QueryElements`, :class:`RunScript`)
  are executed by the :class:`~repro.browser.session.BrowserSession`
  of the browser they name; hostile-page requests
  (:class:`OverlayDetected`, :class:`PageStalled`, ...) are
  :class:`Resolvable` -- a watchdog that handles one calls
  :meth:`Resolvable.resolve`, and the publisher inspects ``resolved``
  after dispatch to decide between recovery and graceful degradation.

Every event is a plain dataclass: no callbacks into the bus, no wall
clock, no global state.  ``ts_ms`` and ``seq`` are stamped by the bus at
publish time from the shared :class:`~repro.clock.VirtualClock`, so two
same-seed runs stamp identical streams.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


@functools.cache
def event_name(event_type: type) -> str:
    """The canonical snake-case name of an event class.

    ``NavigateToUrl`` -> ``navigate_to_url``.  Used for ``bus.*`` trace
    events (and so the ``bus.events.*`` counters folded from them), so
    the name must be a pure function of the class name -- which is also
    why it is memoised per class.
    """
    return _CAMEL_BOUNDARY.sub("_", event_type.__name__).lower()


@dataclass
class BusEvent:
    """Base class of everything published on the bus.

    ``ts_ms`` (virtual-clock time) and ``seq`` (per-bus sequence number)
    are assigned by :meth:`repro.bus.EventBus.publish`; constructing an
    event does not stamp it.
    """

    ts_ms: float = field(default=0.0, init=False)
    seq: int = field(default=0, init=False)

    @property
    def name(self) -> str:
        return event_name(type(self))


@dataclass
class Resolvable(BusEvent):
    """An event a subscriber may resolve on the publisher's behalf.

    The publisher checks :attr:`resolved` after ``publish`` returns:
    unresolved hostile-page events degrade into a typed visit failure
    instead of an exception (the graceful-degradation contract).
    """

    resolved: bool = field(default=False, init=False)
    #: Who resolved it (watchdog name), for the trace.
    resolved_by: Optional[str] = field(default=None, init=False)
    #: What the resolver decided (``"dismissed"``, ``"aborted"``, ...).
    resolution: Optional[str] = field(default=None, init=False)

    def resolve(self, by: str, resolution: str) -> None:
        """Mark this event handled (idempotent; first resolver wins)."""
        if self.resolved:
            return
        self.resolved = True
        self.resolved_by = by
        self.resolution = resolution


# -- crawl lifecycle notifications ---------------------------------------


@dataclass
class FaultObserved(BusEvent):
    """A typed crawler-side fault surfaced during an attempt.

    ``instance`` is the :class:`~repro.browser.session.BrowserSession`
    the fault struck; watchdogs use it to account per-browser health and
    to target recycle requests.
    """

    fault_type: str
    hook: str
    domain: str
    visit_index: int
    attempt: int
    browser_fatal: bool
    instance: Any = None


@dataclass
class BrowserRecycleRequested(BusEvent):
    """A watchdog asks the supervisor to tear down and respawn a browser."""

    reason: str
    instance: Any = None


@dataclass
class BrowserRecycled(BusEvent):
    """The supervisor recycled a browser (confirmation notification)."""

    reason: str
    browser: int = 0


# -- browser command requests --------------------------------------------


@dataclass
class NavigateToUrl(BusEvent):
    """Navigate the target browser to ``url``."""

    url: str
    browser: int = 0
    #: Set by the executing session adapter.
    handled: bool = field(default=False, init=False)


@dataclass
class QueryElements(BusEvent):
    """Find elements in the target browser's current document."""

    by: str
    value: str
    browser: int = 0
    handled: bool = field(default=False, init=False)
    result: Any = field(default=None, init=False)


@dataclass
class RunScript(BusEvent):
    """Execute a (scroll-idiom) script in the target browser."""

    script: str
    browser: int = 0
    handled: bool = field(default=False, init=False)
    result: Any = field(default=None, init=False)


# -- hostile-page requests (resolved by watchdogs) -----------------------


@dataclass
class OverlayDetected(Resolvable):
    """A modal/cookie overlay blocks the page.

    ``dismiss`` removes the overlay from the live document;
    ``action_chain`` holds the interrupted driver actions a resolver
    must replay after dismissal (the resume-the-chain contract).
    """

    domain: str
    kind: str  # "modal" | "cookie-banner"
    dismiss: Optional[Callable[[], None]] = None
    action_chain: List[Callable[[], None]] = field(default_factory=list)


@dataclass
class ChallengeDetected(Resolvable):
    """A challenge interstitial (CAPTCHA-wall style) gates the page.

    ``wait_out`` models waiting for the challenge to clear; resolvers
    pay the wait on the virtual clock before calling it.
    """

    domain: str
    wait_out: Optional[Callable[[], None]] = None


@dataclass
class InputObstructed(Resolvable):
    """A required input is hidden or too tiny for pointer interaction.

    ``fill_direct`` performs the scripted direct-keys fallback a robust
    automation layer uses on hidden elements.
    """

    domain: str
    element_id: str
    fill_direct: Optional[Callable[[], None]] = None


@dataclass
class PageStalled(Resolvable):
    """The page is consuming the visit's step budget without progress.

    A stall watchdog resolves with ``"aborted"``: the attempt is charged
    exactly the step budget and fails with ``failure_reason="stalled"``.
    Unresolved stalls model a crawler with no watchdog: the visit hangs
    until an external kill (``"stalled-unbounded"``, permanent).
    """

    domain: str
    visit_index: int
    attempt: int
