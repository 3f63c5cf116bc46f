"""The core JavaScript object: ordered own properties + a prototype chain.

Enumeration semantics are the load-bearing part for the paper's Table 1:

- **Own-property order** is insertion order (string keys), as in modern
  engines.  Creating an own shadow of an inherited property therefore moves
  it to the *front* of ``for-in`` enumeration -- the "incorrect order of
  navigator properties" side effect.
- ``Object.keys`` lists **own enumerable** properties only.
- ``for-in`` lists own enumerable properties, then walks the prototype
  chain; a name shadowed by *any* own property (even a non-enumerable one)
  is suppressed -- which is why a ``defineProperty`` spoof with the default
  ``enumerable: false`` makes ``webdriver`` *disappear* from enumeration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.jsobject.descriptors import PropertyDescriptor
from repro.jsobject.errors import JSTypeError
from repro.jsobject.functions import JSFunction, NativeAccessor


class Undefined:
    """Singleton standing in for JavaScript's ``undefined``.

    Distinct from ``None`` (which models JS ``null``) so fingerprint probes
    can tell a property holding ``null``/``false`` apart from an absent one.
    """

    _instance: Optional["Undefined"] = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "undefined"


UNDEFINED = Undefined()


def _invoke_getter(get: Any, receiver: Any) -> Any:
    """Invoke a descriptor's getter with an explicit receiver (``this``)."""
    if isinstance(get, NativeAccessor):
        return get(receiver)
    if isinstance(get, JSFunction):
        return get.call(receiver)
    if callable(get):
        return get(receiver)
    raise JSTypeError(f"getter is not callable: {get!r}")


def _invoke_setter(set_: Any, receiver: Any, value: Any) -> None:
    """Invoke a descriptor's setter with an explicit receiver."""
    if isinstance(set_, NativeAccessor):
        set_.set(receiver, value)
    elif isinstance(set_, JSFunction):
        set_.call(receiver, value)
    elif callable(set_):
        set_(receiver, value)
    else:
        raise JSTypeError(f"setter is not callable: {set_!r}")


class JSObject:
    """An ordinary JavaScript object.

    Parameters
    ----------
    proto:
        The object's prototype (``None`` models a ``null`` prototype).
    js_class:
        The platform-class brand (e.g. ``"Navigator"``) used by WebIDL
        brand checks; plain objects use ``"Object"``.
    """

    #: Opt-in probe ledger (:mod:`repro.obs.probes`).  Class attributes so
    #: uninstrumented objects pay one attribute check per operation and
    #: this module never imports ``repro.obs``.  Hooks fire at the public
    #: operation granularity page script observes (``[[Get]]`` on the
    #: receiver, not each internal chain step).
    _probe_ledger = None
    _probe_label = None

    def __init__(
        self,
        proto: Optional["JSObject"] = None,
        js_class: str = "Object",
    ) -> None:
        self._own: Dict[str, PropertyDescriptor] = {}
        self._proto = proto
        self.js_class = js_class
        self.extensible = True

    # -- prototype ---------------------------------------------------------

    @property
    def proto(self) -> Optional["JSObject"]:
        """The object's prototype (JS ``__proto__`` / ``getPrototypeOf``)."""
        if self._probe_ledger is not None:
            self._probe_ledger.record("getPrototypeOf", self._probe_label)
        return self._proto

    def set_prototype_of(self, proto: Optional["JSObject"]) -> None:
        """``Object.setPrototypeOf`` (cycle-checked)."""
        if self._probe_ledger is not None:
            self._probe_ledger.record("setPrototypeOf", self._probe_label)
        seen = proto
        while seen is not None:
            if seen is self:
                raise JSTypeError("cyclic prototype chain")
            seen = seen._proto
        if not self.extensible:
            raise JSTypeError("cannot change prototype of a non-extensible object")
        self._proto = proto

    def prototype_chain(self) -> List["JSObject"]:
        """The chain of prototypes from nearest to farthest."""
        chain: List[JSObject] = []
        node = self._proto
        while node is not None:
            chain.append(node)
            node = node._proto
        return chain

    # -- property lookup ----------------------------------------------------

    def get_own_property(self, name: str) -> Optional[PropertyDescriptor]:
        """The own descriptor for ``name``, or ``None``."""
        return self._own.get(name)

    def has_own(self, name: str) -> bool:
        """JS ``Object.prototype.hasOwnProperty``."""
        if self._probe_ledger is not None:
            self._probe_ledger.record(
                "hasOwn", self._probe_label, key=name,
                detail={"result": name in self._own},
            )
        return name in self._own

    def has(self, name: str) -> bool:
        """JS ``in`` operator: own or inherited."""
        obj: Optional[JSObject] = self
        found = False
        while obj is not None:
            if name in obj._own:
                found = True
                break
            obj = obj._proto
        if self._probe_ledger is not None:
            self._probe_ledger.record(
                "has", self._probe_label, key=name, detail={"result": found}
            )
        return found

    def get(self, name: str, receiver: Any = None) -> Any:
        """JS ``[[Get]]``: walk the prototype chain, invoking getters.

        ``receiver`` is the original ``this`` for accessor invocation (used
        by brand checks); defaults to this object.
        """
        if receiver is None:
            receiver = self
        if self._probe_ledger is not None:
            self._probe_ledger.record("get", self._probe_label, key=name)
        obj: Optional[JSObject] = self
        while obj is not None:
            desc = obj._own.get(name)
            if desc is not None:
                if desc.is_accessor():
                    if desc.get is None:
                        return UNDEFINED
                    if obj._probe_ledger is not None:
                        obj._probe_ledger.record(
                            "getter", obj._probe_label, key=name,
                            detail={"native": isinstance(desc.get, NativeAccessor)},
                        )
                    return _invoke_getter(desc.get, receiver)
                return desc.value
            obj = obj._proto
        return UNDEFINED

    def set(self, name: str, value: Any, receiver: Any = None) -> None:
        """JS ``[[Set]]`` (assignment semantics).

        Inherited accessor setters are honoured; otherwise an own enumerable
        data property is created/updated.
        """
        if receiver is None:
            receiver = self
        if self._probe_ledger is not None:
            self._probe_ledger.record("set", self._probe_label, key=name)
        obj: Optional[JSObject] = self
        while obj is not None:
            desc = obj._own.get(name)
            if desc is not None:
                if desc.is_accessor():
                    if desc.set is None:
                        raise JSTypeError(f'setting getter-only property "{name}"')
                    if obj._probe_ledger is not None:
                        obj._probe_ledger.record(
                            "setter", obj._probe_label, key=name,
                            detail={"native": isinstance(desc.set, NativeAccessor)},
                        )
                    _invoke_setter(desc.set, receiver, value)
                    return
                if obj is self:
                    if not desc.writable:
                        raise JSTypeError(f'"{name}" is read-only')
                    desc.value = value
                    return
                break  # inherited data property: create own shadow below
            obj = obj._proto
        self._own[name] = PropertyDescriptor.data(value)

    def delete(self, name: str) -> bool:
        """JS ``delete obj.name``.

        Returns ``False`` (delete failure) for non-configurable properties.
        """
        desc = self._own.get(name)
        deleted = True
        if desc is not None:
            if not desc.configurable:
                deleted = False
            else:
                del self._own[name]
        if self._probe_ledger is not None:
            self._probe_ledger.record(
                "delete", self._probe_label, key=name, detail={"result": deleted}
            )
        return deleted

    # -- property definition -------------------------------------------------

    def define_property(self, name: str, descriptor: PropertyDescriptor) -> "JSObject":
        """``Object.defineProperty`` with ES validation/merge semantics.

        Creating a new property completes the (possibly partial) descriptor
        with spec defaults -- ``enumerable``/``configurable``/``writable``
        all ``False`` -- which is the root of the paper's "disappears from
        Object.keys" observation.
        """
        if self._probe_ledger is not None:
            self._probe_ledger.record(
                "defineProperty", self._probe_label, key=name,
                detail={
                    "kind": "accessor" if descriptor.is_accessor() else "data",
                    "enumerable": descriptor.enumerable,
                    "configurable": descriptor.configurable,
                },
            )
        current = self._own.get(name)
        if current is None:
            if not self.extensible:
                raise JSTypeError(f"cannot define property {name}: object is not extensible")
            self._own[name] = descriptor.completed()
            return self
        if not current.configurable:
            changes_flavour = descriptor.is_accessor() != current.is_accessor() and (
                descriptor.is_accessor() or descriptor.is_data()
            )
            if changes_flavour or descriptor.configurable:
                raise JSTypeError(f"cannot redefine non-configurable property {name!r}")
            if (
                descriptor.enumerable is not None
                and bool(descriptor.enumerable) != bool(current.enumerable)
            ):
                raise JSTypeError(f"cannot redefine non-configurable property {name!r}")
        self._own[name] = descriptor.merged_onto(current)
        return self

    def define_getter(self, name: str, getter: Callable) -> None:
        """``Object.prototype.__defineGetter__``.

        Per spec this *always* creates an enumerable, configurable accessor
        property -- unlike ``defineProperty``'s falsy defaults.  (Mozilla
        deprecated it; the paper still evaluates it as method 2.)
        """
        self.define_property(
            name,
            PropertyDescriptor.accessor(get=getter, enumerable=True, configurable=True),
        )

    def define_setter(self, name: str, setter: Callable) -> None:
        """``Object.prototype.__defineSetter__`` (companion of the above)."""
        current = self._own.get(name)
        get = current.get if current is not None and current.is_accessor() else None
        self.define_property(
            name,
            PropertyDescriptor.accessor(
                get=get, set=setter, enumerable=True, configurable=True
            ),
        )

    # -- enumeration ----------------------------------------------------------

    def own_property_names(self) -> List[str]:
        """``Object.getOwnPropertyNames``: all own keys, insertion order."""
        names = list(self._own.keys())
        if self._probe_ledger is not None:
            self._probe_ledger.record(
                "ownKeys", self._probe_label, detail={"keys": names}
            )
        return names

    def own_enumerable_names(self) -> List[str]:
        """Own keys whose descriptor is enumerable, insertion order."""
        names = [n for n, d in self._own.items() if d.enumerable]
        if self._probe_ledger is not None:
            self._probe_ledger.record(
                "enumerate", self._probe_label, detail={"keys": names}
            )
        return names

    # -- integrity levels -----------------------------------------------------

    def freeze(self) -> "JSObject":
        """``Object.freeze``: lock every own property and extensibility.

        Some stealth scripts freeze their spoofed objects so page scripts
        cannot undo the override -- which is itself observable via
        ``Object.isFrozen`` (a stock ``navigator`` is never frozen).
        """
        for descriptor in self._own.values():
            descriptor.configurable = False
            if not descriptor.is_accessor():
                descriptor.writable = False
        self.extensible = False
        return self

    def is_frozen(self) -> bool:
        """``Object.isFrozen``."""
        if self.extensible:
            return False
        for descriptor in self._own.values():
            if descriptor.configurable:
                return False
            if not descriptor.is_accessor() and descriptor.writable:
                return False
        return True

    def seal(self) -> "JSObject":
        """``Object.seal``: non-configurable properties, no extensions."""
        for descriptor in self._own.values():
            descriptor.configurable = False
        self.extensible = False
        return self

    def is_sealed(self) -> bool:
        """``Object.isSealed``."""
        return not self.extensible and all(
            not d.configurable for d in self._own.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.js_class} own={list(self._own.keys())!r}>"


# -- free functions mirroring the JS built-ins used by fingerprint probes ----


def object_keys(obj: Any) -> List[str]:
    """``Object.keys(obj)``: own enumerable property names, in order."""
    from repro.jsobject.proxy import JSProxy

    if isinstance(obj, JSProxy):
        return obj.own_enumerable_names()
    return obj.own_enumerable_names()


def get_own_property_names(obj: Any) -> List[str]:
    """``Object.getOwnPropertyNames(obj)``."""
    return obj.own_property_names()


def for_in_names(obj: Any) -> List[str]:
    """``for (name in obj)`` enumeration order.

    Own enumerable names first (insertion order), then each prototype's
    enumerable names -- skipping names shadowed by *any* property closer to
    the receiver, enumerable or not.
    """
    from repro.jsobject.proxy import JSProxy

    names: List[str] = []
    seen: set = set()
    node: Any = obj
    while node is not None:
        if isinstance(node, JSProxy):
            own_all: Iterable[str] = node.own_property_names()
            own_enum = node.own_enumerable_names()
            nxt = node.proto
        else:
            own_all = node.own_property_names()
            own_enum = node.own_enumerable_names()
            nxt = node.proto
        enum_set = set(own_enum)
        for name in own_all:
            if name in seen:
                continue
            seen.add(name)
            if name in enum_set:
                names.append(name)
        node = nxt
    return names
