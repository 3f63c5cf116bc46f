"""Whole-program inventory of the event-bus contract.

Collects, across every linted module:

* **event classes** -- classes whose (project-resolved) base chain
  reaches a class named ``BusEvent``, with ``Resolvable`` descent
  tracked separately;
* **subscriptions** -- ``*.subscribe(EventType, handler)`` call sites,
  with the handler resolved to a project function/method (or kept as a
  lambda node);
* **publishes** -- ``*.publish(EventType(...))`` call sites.

The BUS rules read this inventory: BUS001 wants every concrete event
class covered by at least one subscription (MRO matching, like the real
:class:`~repro.bus.bus.EventBus`), BUS002 wants every published
``Resolvable`` to have a handler that actually calls ``.resolve(...)``
on its event parameter, BUS003 polices payload mutation inside handlers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lint.context import ModuleContext
from repro.lint.graph.symbols import ClassInfo, FunctionInfo, SymbolTable

#: Root class names anchoring the event hierarchy.  Matching by terminal
#: name keeps fixture trees (which often import an unresolvable
#: ``repro.bus.events.BusEvent``) classifiable.
EVENT_ROOT = "BusEvent"
RESOLVABLE_ROOT = "Resolvable"

#: Handler-side event fields a command handler legitimately writes.
SANCTIONED_EVENT_FIELDS = frozenset({"handled", "result"})


@dataclass
class EventClassInfo:
    info: ClassInfo
    resolvable: bool


@dataclass
class Subscription:
    """One ``subscribe(EventType, handler)`` call site."""

    event: str  # event class qualname
    handler: Optional[FunctionInfo]
    handler_lambda: Optional[ast.Lambda]
    path: str
    node: ast.Call


@dataclass
class Publish:
    """One publish call site constructing an event."""

    event: str
    path: str
    node: ast.Call


class BusInventory:
    def __init__(
        self, symbols: SymbolTable, contexts: Dict[str, ModuleContext]
    ) -> None:
        self.symbols = symbols
        self.events: Dict[str, EventClassInfo] = {}
        self.subscriptions: List[Subscription] = []
        self.publishes: List[Publish] = []
        self._classify_events()
        for module in sorted(contexts):
            self._scan_module(module, contexts[module])

    # -- event classification -------------------------------------------

    def _classify_events(self) -> None:
        memo: Dict[str, Tuple[bool, bool]] = {}
        for qualname in sorted(self.symbols.classes):
            is_event, resolvable = self._classify(qualname, memo)
            if is_event:
                self.events[qualname] = EventClassInfo(
                    self.symbols.classes[qualname], resolvable
                )

    def _classify(
        self, qualname: str, memo: Dict[str, Tuple[bool, bool]]
    ) -> Tuple[bool, bool]:
        """(descends from BusEvent, descends from Resolvable)."""
        if qualname in memo:
            return memo[qualname]
        memo[qualname] = (False, False)  # cycle guard
        info = self.symbols.classes[qualname]
        is_event = resolvable = False
        for dotted in info.base_names:
            last = dotted.rsplit(".", 1)[-1]
            if last == EVENT_ROOT:
                is_event = True
            if last == RESOLVABLE_ROOT:
                is_event = resolvable = True
            base = self.symbols.resolve_class(dotted, scope=info.module)
            if base is not None:
                sub_event, sub_resolvable = self._classify(base.qualname, memo)
                is_event = is_event or sub_event
                resolvable = resolvable or sub_resolvable
        memo[qualname] = (is_event, resolvable)
        return memo[qualname]

    def is_anchor(self, qualname: str) -> bool:
        """Whether this class *is* one of the hierarchy roots."""
        info = self.symbols.classes.get(qualname)
        return info is not None and info.name in (EVENT_ROOT, RESOLVABLE_ROOT)

    def concrete_events(self) -> List[str]:
        """Event classes with no project subclasses (leaves), sorted."""
        return sorted(
            qualname
            for qualname in self.events
            if not self.is_anchor(qualname)
            and not self.symbols.subclasses(qualname)
        )

    # -- site collection -------------------------------------------------

    def _scan_module(self, module: str, ctx: ModuleContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "subscribe":
                self._collect_subscription(module, ctx, node)
                continue
            if isinstance(func, ast.Attribute) and func.attr == "publish":
                self._collect_publish(module, ctx, node)

    def _event_class(
        self, module: str, ctx: ModuleContext, node: ast.AST
    ) -> Optional[str]:
        dotted = ctx.dotted_name(node)
        if dotted is None:
            return None
        info = self.symbols.resolve_class(dotted, scope=module)
        if info is not None and info.qualname in self.events:
            return info.qualname
        return None

    def _collect_subscription(
        self, module: str, ctx: ModuleContext, node: ast.Call
    ) -> None:
        if len(node.args) < 2:
            return
        event = self._event_class(module, ctx, node.args[0])
        if event is None:
            return
        handler_node = node.args[1]
        handler: Optional[FunctionInfo] = None
        handler_lambda: Optional[ast.Lambda] = None
        if isinstance(handler_node, ast.Lambda):
            handler_lambda = handler_node
        elif (
            isinstance(handler_node, ast.Attribute)
            and isinstance(handler_node.value, ast.Name)
            and handler_node.value.id in ("self", "cls")
        ):
            cls = self._enclosing_class(module, ctx, node)
            if cls is not None:
                handler = self.symbols.method_in_hierarchy(
                    cls, handler_node.attr
                )
        else:
            dotted = ctx.dotted_name(handler_node)
            if dotted is not None:
                resolved = self.symbols.resolve(dotted, scope=module)
                if resolved is not None and resolved[0] == "function":
                    handler = resolved[1]  # type: ignore[assignment]
        self.subscriptions.append(
            Subscription(
                event=event,
                handler=handler,
                handler_lambda=handler_lambda,
                path=ctx.path,
                node=node,
            )
        )

    def _enclosing_class(
        self, module: str, ctx: ModuleContext, node: ast.AST
    ) -> Optional[str]:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return f"{module}.{ancestor.name}"
        return None

    def _collect_publish(
        self, module: str, ctx: ModuleContext, node: ast.Call
    ) -> None:
        for arg in node.args:
            if not isinstance(arg, ast.Call):
                continue
            event = self._event_class(module, ctx, arg.func)
            if event is not None:
                self.publishes.append(
                    Publish(event=event, path=ctx.path, node=node)
                )

    # -- coverage queries ------------------------------------------------

    def _matches(self, subscribed: str, event: str) -> bool:
        """MRO-style match: a subscription to a base covers the event."""
        if subscribed == event:
            return True
        return any(
            ancestor.qualname == subscribed
            for ancestor in self.symbols.ancestors(event)
        )

    def subscriptions_for(self, event: str) -> List[Subscription]:
        return [
            sub
            for sub in self.subscriptions
            if self._matches(sub.event, event)
        ]

    def handler_resolves(self, sub: Subscription) -> bool:
        """Whether the subscription's handler calls ``.resolve(`` on its
        event parameter (or, for an unresolvable handler, conservatively
        assume it might)."""
        node, param = self.handler_body(sub)
        if node is None:
            return sub.handler is None and sub.handler_lambda is None
        if param is None:
            return False
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "resolve"
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id == param
            ):
                return True
        return False

    def handler_body(
        self, sub: Subscription
    ) -> Tuple[Optional[ast.AST], Optional[str]]:
        """(handler AST, name of its event parameter)."""
        if sub.handler_lambda is not None:
            args = sub.handler_lambda.args.args
            return sub.handler_lambda, args[0].arg if args else None
        if sub.handler is not None:
            node = sub.handler.node
            args = getattr(node, "args", None)
            if args is None:
                return node, None
            positional = list(args.posonlyargs) + list(args.args)
            skip = 1 if sub.handler.cls is not None else 0
            if len(positional) > skip:
                return node, positional[skip].arg
            return node, None
        return None, None
