"""BUS00x: whole-program event-bus contract rules.

The PR 5 event taxonomy only works if publishers and subscribers agree
across module boundaries -- exactly what no per-module rule can see.

* BUS001 -- a concrete event class (leaf of the ``BusEvent`` hierarchy)
  with no covering ``subscribe`` call anywhere in the linted tree is
  dead protocol: published occurrences vanish silently.
* BUS002 -- a ``Resolvable`` published where no covering handler ever
  calls ``event.resolve(...)``: the degradation ladder treats the
  hazard as unhandled every time.
* BUS003 -- a subscribed handler assigning event-payload attributes
  other than the sanctioned command-result fields (``handled``,
  ``result``): notifications must stay immutable facts.

Subscription coverage uses MRO-style matching, mirroring the real
:meth:`~repro.bus.bus.EventBus.subscribers` lookup.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.graph.buses import SANCTIONED_EVENT_FIELDS
from repro.lint.registry import ProjectRule, register


@register
class UnsubscribedEventRule(ProjectRule):
    id = "BUS001"
    name = "event-without-subscriber"
    family = "bus-contract"
    rationale = (
        "A concrete event class no handler subscribes to anywhere is "
        "dead protocol -- its publishes disappear silently; wire a "
        "subscriber or baseline fire-and-forget notifications with a "
        "justification."
    )

    def check_project(self, project) -> Iterator[Finding]:
        bus = project.bus
        for qualname in bus.concrete_events():
            if bus.subscriptions_for(qualname):
                continue
            info = bus.events[qualname].info
            ctx = project.contexts.get(info.module)
            if ctx is None:
                continue
            yield self.finding(
                ctx,
                info.node,
                f"event class {info.name} has no subscriber anywhere in "
                "the linted tree -- published occurrences are dropped "
                "silently",
            )


@register
class UnresolvedResolvableRule(ProjectRule):
    id = "BUS002"
    name = "resolvable-without-resolver"
    family = "bus-contract"
    rationale = (
        "Publishing a Resolvable that no covering handler ever "
        "resolves means the hazard is permanently unhandled and the "
        "degradation ladder always falls through."
    )

    def check_project(self, project) -> Iterator[Finding]:
        bus = project.bus
        for publish in bus.publishes:
            event = bus.events.get(publish.event)
            if event is None or not event.resolvable:
                continue
            subs = bus.subscriptions_for(publish.event)
            if any(bus.handler_resolves(sub) for sub in subs):
                continue
            ctx = project.context_for(publish.path)
            if ctx is None:
                continue
            name = event.info.name
            detail = (
                "no handler subscribes to it"
                if not subs
                else "no subscribed handler calls .resolve() on it"
            )
            yield self.finding(
                ctx,
                publish.node,
                f"Resolvable {name} is published but {detail} -- the "
                "hazard can never be resolved",
            )


@register
class HandlerMutatesPayloadRule(ProjectRule):
    id = "BUS003"
    name = "handler-mutates-event"
    family = "bus-contract"
    rationale = (
        "Handlers writing event fields other than the sanctioned "
        "command-result pair (handled, result) turn immutable "
        "notifications into hidden channels between subscribers."
    )

    def check_project(self, project) -> Iterator[Finding]:
        bus = project.bus
        seen = set()
        for sub in bus.subscriptions:
            node, param = bus.handler_body(sub)
            if node is None or param is None:
                continue
            handler_key = (
                sub.handler.qualname
                if sub.handler is not None
                else (sub.path, node.lineno)
            )
            if handler_key in seen:
                continue
            seen.add(handler_key)
            handler_path = (
                project.contexts[sub.handler.module].path
                if sub.handler is not None
                else sub.path
            )
            ctx = project.context_for(handler_path)
            if ctx is None:
                continue
            event_name = sub.event.rsplit(".", 1)[-1]
            for assign in ast.walk(node):
                if not isinstance(assign, (ast.Assign, ast.AugAssign)):
                    continue
                targets = (
                    assign.targets
                    if isinstance(assign, ast.Assign)
                    else [assign.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == param
                        and target.attr not in SANCTIONED_EVENT_FIELDS
                    ):
                        yield self.finding(
                            ctx,
                            assign,
                            f"handler for {event_name} writes event field "
                            f".{target.attr} -- only "
                            f"{sorted(SANCTIONED_EVENT_FIELDS)} may be set "
                            "on a dispatched event",
                        )
