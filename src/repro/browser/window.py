"""The browser window: viewport, scroll position, navigator slot.

A window keeps its :class:`~repro.browser.navigator.NavigatorProfile`
and builds the navigator's JavaScript prototype chain from it the first
time ``window.navigator`` is read.  A crawl reads that chain only when a
detector probes it or an extension spoofs it, so spawning and recycling
a browser build no chain.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.clock import VirtualClock
from repro.dom.document import Document
from repro.events.dispatch import EventTarget
from repro.events.event import Event
from repro.browser.navigator import NavigatorProfile, make_navigator
from repro.geometry import Point


class Window(EventTarget):
    """A browser window/tab.

    Parameters
    ----------
    document:
        The page's document (a default empty one is created if omitted).
    profile:
        Navigator profile; pass ``NavigatorProfile(webdriver=True)`` (or
        ``profile.automated()``) for a WebDriver-controlled browser.  The
        navigator chain is built from it on the first read of
        :attr:`navigator`.
    viewport_width / viewport_height:
        Inner window size; clicks outside it require scrolling first.
    """

    def __init__(
        self,
        document: Optional[Document] = None,
        *,
        profile: Optional[NavigatorProfile] = None,
        viewport_width: float = 1366.0,
        viewport_height: float = 768.0,
        clock: Optional[VirtualClock] = None,
        smooth_scroll: bool = False,
    ) -> None:
        super().__init__()
        #: Firefox's smooth-scrolling setting: wheel scrolls animate over
        #: several frames instead of jumping a full tick (the refinement
        #: the paper's future work calls out).
        self.smooth_scroll = smooth_scroll
        self.document = document or Document(viewport_width, viewport_height)
        self.document.window = self
        #: The values :attr:`navigator` is built from (``None``: the
        #: default profile).
        self.profile = profile
        self._navigator: Any = None
        #: Opt-in :class:`repro.obs.probes.ProbeLedger`.  When set (via
        #: :func:`repro.obs.probes.instrument_window` or a supervisor),
        #: detection probes record every navigator access they make --
        #: and survive spoofing swapping the navigator object out.
        self.probe_ledger: Any = None
        self.viewport_width = viewport_width
        self.viewport_height = viewport_height
        self.scroll_x = 0.0
        self.scroll_y = 0.0
        self.clock = clock or VirtualClock()
        self.has_focus = True

    # -- navigator ---------------------------------------------------------------

    # A property over ``_navigator``, not ``functools.cached_property``:
    # that one writes the instance ``__dict__``, after which CPython 3.11
    # reads every other window attribute about 3x slower (9 -> 26 ns on
    # a 2-vCPU x86_64 host), a cost the input pipeline's per-event reads
    # would pay.
    @property
    def navigator(self) -> Any:
        """The navigator slot, built by ``make_navigator(profile)`` on
        first read.  Spoofing patches the object or assigns a wrapped
        one; page scripts read ``window.navigator``."""
        if self._navigator is None:
            self._navigator = make_navigator(self.profile)
        return self._navigator

    @navigator.setter
    def navigator(self, navigator: Any) -> None:
        self._navigator = navigator

    def automate(self) -> None:
        """Mark the browser WebDriver-controlled: ``navigator.webdriver``
        reads true.  A built chain has its ``webdriver`` slot set; an
        unbuilt one stays unbuilt, and its profile becomes
        :meth:`NavigatorProfile.automated`."""
        if self._navigator is None:
            self.profile = (self.profile or NavigatorProfile()).automated()
        else:
            self._navigator.slots["webdriver"] = True

    # -- coordinates ---------------------------------------------------------

    def client_to_page(self, point: Point) -> Point:
        """Viewport coordinates -> page coordinates."""
        return Point(point.x + self.scroll_x, point.y + self.scroll_y)

    def page_to_client(self, point: Point) -> Point:
        """Page coordinates -> viewport coordinates."""
        return Point(point.x - self.scroll_x, point.y - self.scroll_y)

    def is_in_viewport(self, page_point: Point) -> bool:
        """Whether a page point is currently visible."""
        client = self.page_to_client(page_point)
        return (
            0 <= client.x <= self.viewport_width
            and 0 <= client.y <= self.viewport_height
        )

    @property
    def max_scroll_y(self) -> float:
        """Lowest reachable scroll offset."""
        return max(0.0, self.document.scroll_height - self.viewport_height)

    @property
    def max_scroll_x(self) -> float:
        return max(0.0, self.document.width - self.viewport_width)

    # -- scrolling --------------------------------------------------------------

    def scroll_by(self, dx: float, dy: float) -> bool:
        """Scroll the viewport, clamped to the page; fires ``scroll``.

        Returns whether the scroll position actually changed.  No ``wheel``
        event is fired here -- that is the input pipeline's job; the
        asymmetry is exactly what makes Selenium's wheel-less scrolling
        recognisable (Section 4.1).
        """
        new_x = min(max(self.scroll_x + dx, 0.0), self.max_scroll_x)
        new_y = min(max(self.scroll_y + dy, 0.0), self.max_scroll_y)
        if new_x == self.scroll_x and new_y == self.scroll_y:
            return False
        self.scroll_x, self.scroll_y = new_x, new_y
        self.document.dispatch_event(
            Event(
                "scroll",
                timestamp=self.clock.event_timestamp(),
                target=self.document,
                page_x=self.scroll_x,
                page_y=self.scroll_y,
            )
        )
        return True

    def scroll_to(self, x: float, y: float) -> bool:
        """Scroll to an absolute page offset (clamped)."""
        return self.scroll_by(x - self.scroll_x, y - self.scroll_y)

    #: Animation parameters for smooth scrolling (Firefox-like).
    SMOOTH_SCROLL_DURATION_MS = 150.0
    SMOOTH_SCROLL_FRAMES = 6

    def smooth_scroll_by(self, dx: float, dy: float) -> bool:
        """Animate a scroll over several frames (smooth scrolling).

        Fires one ``scroll`` event per frame with an ease-out profile, as
        Firefox does when ``general.smoothScroll`` is enabled.  Returns
        whether the position changed at all.
        """
        frames = self.SMOOTH_SCROLL_FRAMES
        frame_ms = self.SMOOTH_SCROLL_DURATION_MS / frames
        target_x = min(max(self.scroll_x + dx, 0.0), self.max_scroll_x)
        target_y = min(max(self.scroll_y + dy, 0.0), self.max_scroll_y)
        if target_x == self.scroll_x and target_y == self.scroll_y:
            return False
        start_x, start_y = self.scroll_x, self.scroll_y
        moved = False
        for frame in range(1, frames + 1):
            tau = frame / frames
            ease = 1.0 - (1.0 - tau) ** 2  # ease-out
            self.clock.advance(frame_ms)
            moved |= self.scroll_to(
                start_x + (target_x - start_x) * ease,
                start_y + (target_y - start_y) * ease,
            )
        return moved

    # -- visibility ----------------------------------------------------------------

    def set_visibility(self, state: str) -> None:
        """Change page visibility ("visible"/"hidden"); fires events.

        Appendix D: minimising a headful browser fires visibilitychange,
        after which no further interaction should occur -- a trap for
        naive automation.
        """
        if state not in ("visible", "hidden"):
            raise ValueError(f"unknown visibility state {state!r}")
        if state == self.document.visibility_state:
            return
        self.document.visibility_state = state
        self.document.dispatch_event(
            Event(
                "visibilitychange",
                timestamp=self.clock.event_timestamp(),
                target=self.document,
                extra={"visibility_state": state},
            )
        )
        self.has_focus = state == "visible"
        self.dispatch_event(
            Event(
                "focus" if self.has_focus else "blur",
                timestamp=self.clock.event_timestamp(),
                target=self,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Window {self.viewport_width:.0f}x{self.viewport_height:.0f} "
            f"scroll=({self.scroll_x:.0f},{self.scroll_y:.0f})>"
        )
