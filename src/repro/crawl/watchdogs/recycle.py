"""RecycleWatchdog: health-based proactive recycling."""

from __future__ import annotations

from typing import List

from repro.bus.events import BrowserRecycleRequested, FaultObserved
from repro.crawl.watchdogs.base import Watchdog


class RecycleWatchdog(Watchdog):
    """Recycles a browser whose accumulated fault count crosses the
    configured budget (``SupervisorConfig.recycle_after_faults``).

    The running count lives on the :class:`~repro.browser.session.
    BrowserSession` -- checkpointed state, so a resumed crawl reaches
    the budget exactly where an uninterrupted one would.  Browser-fatal
    faults are the :class:`CrashWatchdog`'s concern and already reset
    the count through the recycle itself.
    """

    name = "recycle"

    def subscriptions(self) -> List:
        return [
            self.bus.subscribe(
                FaultObserved, self.on_fault_observed, name="recycle.fault"
            )
        ]

    def on_fault_observed(self, event: FaultObserved) -> None:
        if event.browser_fatal or event.instance is None:
            return
        if event.instance.note_fault() >= self.config.recycle_after_faults:
            self.note(
                "recycle_requested",
                browser=event.instance.index,
                fault_count=event.instance.fault_count,
            )
            self.bus.publish(
                BrowserRecycleRequested(
                    reason="fault-budget", instance=event.instance
                )
            )
