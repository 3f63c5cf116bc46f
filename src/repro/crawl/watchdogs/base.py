"""The watchdog contract (docs/EVENT_BUS.md).

A watchdog is a pluggable bus subscriber owning one recovery concern.
The contract, enforced by convention and by lint rule FLT004:

- handlers are methods named ``on_<event>``; they never swallow
  exceptions with a broad ``except`` and never raise untyped errors --
  a watchdog that cannot recover *leaves the event unresolved* so the
  publisher degrades gracefully into a typed failure;
- every intervention is observable: :meth:`Watchdog.note` records a
  ``watchdog.<name>.<action>`` trace event, which the metrics export
  counts under the same name;
- simulated work (waiting out a challenge, dismissing an overlay) is
  paid on the shared virtual clock, so recovery cost lands on the same
  checkpointed timeline as everything else;
- per-browser state lives on the :class:`~repro.browser.session.
  BrowserSession` (which checkpoints it), never on the watchdog, so
  interrupt/resume stays byte-identical.
"""

from __future__ import annotations

from typing import List


class Watchdog:
    """Base class for pluggable crawl watchdogs.

    Subclasses override :meth:`subscriptions` to register their
    ``on_*`` handlers; :meth:`attach` wires the supervisor's bus,
    clock, tracer and config onto the instance first.
    """

    #: Short name used in ``watchdog.<name>.*`` metrics and as
    #: ``resolved_by`` on resolved events.
    name = "watchdog"

    def __init__(self) -> None:
        self.supervisor = None
        self.bus = None
        self.clock = None
        self.tracer = None
        self.config = None
        self._subscriptions: List = []

    def attach(self, supervisor) -> None:
        """Wire this watchdog into ``supervisor``'s bus."""
        self.supervisor = supervisor
        self.bus = supervisor.bus
        self.clock = supervisor.clock
        self.tracer = supervisor.tracer
        self.config = supervisor.config
        self._subscriptions = self.subscriptions()

    def detach(self) -> None:
        """Remove this watchdog's handlers from the bus."""
        for subscription in self._subscriptions:
            self.bus.unsubscribe(subscription)
        self._subscriptions = []

    def subscriptions(self) -> List:
        """Register handlers on ``self.bus``; return the tokens."""
        return []

    def note(self, action: str, **attrs) -> None:
        """Record one intervention as a trace event."""
        if self.tracer.enabled:
            self.tracer.event(f"watchdog.{self.name}.{action}", **attrs)
