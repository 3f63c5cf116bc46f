"""A small deterministic event bus (the bubus-style crawl backbone).

Design constraints, in order:

1. **Determinism** -- dispatch is *synchronous and ordered*: ``publish``
   delivers the event to matching subscribers in registration order and
   returns only when every handler has run.  Events published from
   inside a handler dispatch immediately (depth-first), so the complete
   event order is a pure function of code and seed.  Timestamps come
   from the shared :class:`~repro.clock.VirtualClock`; sequence numbers
   are a per-bus counter.
2. **No swallowed errors** -- the bus never catches handler exceptions.
   A handler that raises aborts the publish and the error propagates to
   the publisher with its type intact (lint rule FLT004 holds handlers
   to the same discipline).
3. **Observability** -- when a tracer is attached, every publish
   records a ``bus.<name>`` trace event on the innermost open span, so
   bus traffic lands in checkpoints, in ``repro.obs report`` and in the
   ``bus.events.<name>`` counters the metrics export folds from the
   trace.

Subscribers match by event *class*: a handler subscribed to a base
class receives subclasses too (dispatch walks the event's MRO).  Within
one publish, handlers run in subscription order regardless of which
class in the MRO matched them.  A subscription may also be *addressed*
to one browser (``subscribe(..., browser=k)``): it then receives only
events whose ``browser`` field is ``k``.  The route -- the ordered
handlers an event class and browser reach -- is resolved on first use
and reused until the next ``subscribe`` or ``unsubscribe``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.bus.events import BusEvent, event_name
from repro.clock import VirtualClock
from repro.obs.tracer import NULL_TRACER

Handler = Callable[[BusEvent], None]


class Subscription:
    """One registered handler (the token :meth:`EventBus.unsubscribe`
    takes)."""

    __slots__ = ("event_type", "handler", "name", "order", "browser")

    def __init__(
        self,
        event_type: Type[BusEvent],
        handler: Handler,
        name: str,
        order: int,
        browser: Optional[int] = None,
    ) -> None:
        self.event_type = event_type
        self.handler = handler
        self.name = name
        self.order = order
        #: The one browser whose events this subscription receives;
        #: ``None`` receives every event.
        self.browser = browser

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Subscription {self.name!r} -> "
            f"{self.event_type.__name__} (#{self.order})>"
        )


class EventBus:
    """Typed, ordered, synchronous event dispatch on the simulated clock.

    Parameters
    ----------
    clock:
        The one shared :class:`VirtualClock` events are stamped from.
    tracer:
        Optional :class:`repro.obs.Tracer`; defaults to the inert
        :data:`~repro.obs.tracer.NULL_TRACER`.
    """

    def __init__(self, clock: VirtualClock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._subscriptions: Dict[Type[BusEvent], List[Subscription]] = {}
        #: (event class, browser) -> the subscriptions it reaches, in
        #: dispatch order.  Filled on first use; any subscribe or
        #: unsubscribe empties it.
        self._routes: Dict[
            Tuple[Type[BusEvent], Optional[int]], Tuple[Subscription, ...]
        ] = {}
        self._next_order = 0
        self._published = 0

    # -- registry --------------------------------------------------------

    def subscribe(
        self,
        event_type: Type[BusEvent],
        handler: Handler,
        *,
        name: Optional[str] = None,
        browser: Optional[int] = None,
    ) -> Subscription:
        """Register ``handler`` for ``event_type`` (and its subclasses).

        Returns the subscription token.  Handlers fire in subscription
        order; the order counter is global across event types, so a
        handler registered earlier always runs earlier no matter which
        MRO entry matched it.  With ``browser=k`` the handler receives
        only events whose ``browser`` field is ``k`` (a session's own
        commands); without it, every matching event.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, BusEvent)):
            raise TypeError(f"{event_type!r} is not a BusEvent subclass")
        subscription = Subscription(
            event_type,
            handler,
            name or getattr(handler, "__qualname__", repr(handler)),
            self._next_order,
            browser,
        )
        self._next_order += 1
        self._subscriptions.setdefault(event_type, []).append(subscription)
        self._routes.clear()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a subscription (no-op if already removed)."""
        bucket = self._subscriptions.get(subscription.event_type)
        if bucket and subscription in bucket:
            bucket.remove(subscription)
            self._routes.clear()

    def subscribers(
        self, event_type: Type[BusEvent], browser: Optional[int] = None
    ) -> Tuple[Subscription, ...]:
        """The subscriptions an event of ``event_type`` whose ``browser``
        field is ``browser`` would reach, in dispatch order.

        Resolved once per (class, browser) and cached until the next
        subscribe or unsubscribe.
        """
        key = (event_type, browser)
        route = self._routes.get(key)
        if route is None:
            matched: List[Subscription] = []
            for klass in event_type.__mro__:
                if klass is BusEvent:
                    matched.extend(self._subscriptions.get(BusEvent, []))
                    break
                if not issubclass(klass, BusEvent):
                    continue
                matched.extend(self._subscriptions.get(klass, []))
            matched.sort(key=lambda s: s.order)
            route = self._routes[key] = tuple(
                s for s in matched if s.browser is None or s.browser == browser
            )
        return route

    @property
    def events_published(self) -> int:
        """Total events published on this bus (monotonic)."""
        return self._published

    # -- dispatch --------------------------------------------------------

    def publish(self, event: BusEvent) -> BusEvent:
        """Stamp ``event`` and deliver it synchronously, in order.

        Returns the event so publishers can read back fields the
        handlers set (``result``, ``resolved``, ...).  Handler
        exceptions propagate untouched.
        """
        event.ts_ms = self.clock.now()
        self._published += 1
        event.seq = self._published
        event_type = type(event)
        tracer = self.tracer
        if tracer.enabled:
            # No ``seq`` attr on the trace event: the per-bus counter
            # restarts on checkpoint resume (completed visits are skipped,
            # not replayed), so carrying it would break the resumed
            # trace's byte-identity with an uninterrupted run.
            tracer.event("bus." + event_name(event_type))
        for subscription in self.subscribers(
            event_type, getattr(event, "browser", None)
        ):
            subscription.handler(event)
        return event

    # -- introspection ---------------------------------------------------

    def registry_snapshot(self) -> List[Tuple[str, str]]:
        """``(event_type_name, subscriber_name)`` pairs in dispatch
        order -- the property tests pin registration-order determinism
        on this."""
        rows: List[Tuple[str, str, int]] = []
        for event_type in self._subscriptions:
            for subscription in self._subscriptions[event_type]:
                rows.append(
                    (event_name(event_type), subscription.name, subscription.order)
                )
        rows.sort(key=lambda row: row[2])
        return [(event, name) for event, name, _ in rows]
