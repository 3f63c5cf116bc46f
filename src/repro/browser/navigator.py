"""The ``navigator`` object, built on the JavaScript object model.

Structure mirrors Firefox:

- ``Object.prototype`` holds the universal methods (``toString``,
  ``hasOwnProperty``, ...) as named :class:`NativeFunction`\\ s -- the
  ``toString`` name is what the Listing 1 probe inspects.
- ``Navigator.prototype`` holds every navigator attribute as an
  **enumerable accessor property with a WebIDL brand check**, in Firefox's
  canonical order.  Reading ``Navigator.prototype.webdriver`` directly
  (i.e. with the prototype as ``this``) raises a ``TypeError``, exactly the
  behaviour spoofing method 3 cannot preserve.
- The ``navigator`` *instance* has **no own properties**; everything is
  inherited.  ``Object.keys(navigator)`` is empty and ``for-in`` yields the
  prototype's canonical order -- any own shadow property created by a
  spoofing attempt perturbs one of these observables.

``navigator.webdriver`` reflects whether the browser is WebDriver-
controlled (W3C WebDriver spec), which the paper identifies as the
single most load-bearing bot signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.jsobject import (
    JSObject,
    NativeAccessor,
    NativeFunction,
    PropertyDescriptor,
)


@dataclass
class NavigatorProfile:
    """The values a navigator reports; defaults model Firefox 88 on Linux."""

    user_agent: str = (
        "Mozilla/5.0 (X11; Linux x86_64; rv:88.0) Gecko/20100101 Firefox/88.0"
    )
    app_version: str = "5.0 (X11)"
    platform: str = "Linux x86_64"
    oscpu: str = "Linux x86_64"
    vendor: str = ""
    vendor_sub: str = ""
    product: str = "Gecko"
    product_sub: str = "20100101"
    app_code_name: str = "Mozilla"
    app_name: str = "Netscape"
    language: str = "en-US"
    languages: Tuple[str, ...] = ("en-US", "en")
    hardware_concurrency: int = 8
    max_touch_points: int = 0
    cookie_enabled: bool = True
    on_line: bool = True
    do_not_track: str = "unspecified"
    build_id: str = "20181001000000"
    pdf_viewer_enabled: bool = True
    #: True iff the browser is WebDriver-controlled (Selenium/OpenWPM).
    webdriver: bool = False

    def automated(self) -> "NavigatorProfile":
        """A copy of this profile as a WebDriver-controlled browser."""
        values = self.__dict__.copy()
        values["webdriver"] = True
        return NavigatorProfile(**values)


#: Navigator attributes in Firefox's canonical WebIDL declaration order.
#: (name, profile attribute) pairs; order is observable via for-in and is
#: one of the Table 1 side-effect probes.
NAVIGATOR_ATTRIBUTES: Tuple[Tuple[str, str], ...] = (
    ("vendorSub", "vendor_sub"),
    ("productSub", "product_sub"),
    ("vendor", "vendor"),
    ("maxTouchPoints", "max_touch_points"),
    ("hardwareConcurrency", "hardware_concurrency"),
    ("cookieEnabled", "cookie_enabled"),
    ("appCodeName", "app_code_name"),
    ("appName", "app_name"),
    ("appVersion", "app_version"),
    ("platform", "platform"),
    ("userAgent", "user_agent"),
    ("product", "product"),
    ("language", "language"),
    ("languages", "languages"),
    ("onLine", "on_line"),
    ("webdriver", "webdriver"),
    ("oscpu", "oscpu"),
    ("doNotTrack", "do_not_track"),
    ("buildID", "build_id"),
    ("pdfViewerEnabled", "pdf_viewer_enabled"),
)

#: Navigator methods (WebIDL operations), declared after the attributes.
NAVIGATOR_METHODS: Tuple[str, ...] = (
    "javaEnabled",
    "taintEnabled",
    "vibrate",
    "sendBeacon",
    "registerProtocolHandler",
)


def make_object_prototype() -> JSObject:
    """Build a fresh ``Object.prototype`` with named native methods.

    Methods are non-enumerable (as in real engines), so they do not show
    up in ``for-in``/``Object.keys`` but *are* reachable -- the
    ``toString``-name probe of Listing 1 depends on them.
    """
    proto = JSObject(proto=None, js_class="Object")

    def _to_string(this) -> str:
        js_class = getattr(this, "js_class", "Object")
        return f"[object {js_class}]"

    def _has_own_property(this, name: str) -> bool:
        return bool(getattr(this, "has_own")(name))

    def _property_is_enumerable(this, name: str) -> bool:
        desc = this.get_own_property(name)
        return bool(desc is not None and desc.enumerable)

    def _value_of(this):
        return this

    methods = {
        "toString": _to_string,
        "hasOwnProperty": _has_own_property,
        "propertyIsEnumerable": _property_is_enumerable,
        "valueOf": _value_of,
    }
    for name, fn in methods.items():
        proto.define_property(
            name,
            PropertyDescriptor.data(
                NativeFunction(fn, name=name),
                writable=True,
                enumerable=False,
                configurable=True,
            ),
        )
    return proto


def make_navigator_prototype(object_prototype: JSObject) -> JSObject:
    """Build ``Navigator.prototype`` with brand-checked accessors.

    Each attribute getter reads the *instance's* internal slots; invoking
    it with any ``this`` that is not a genuine Navigator raises
    ``JSTypeError`` (Firefox: "called on an object that does not implement
    interface Navigator").
    """
    proto = JSObject(proto=object_prototype, js_class="NavigatorPrototype")
    for name, slot in NAVIGATOR_ATTRIBUTES:
        accessor = NativeAccessor(
            name,
            getter=_slot_getter(slot),
            brand="Navigator",
        )
        proto.define_property(
            name,
            PropertyDescriptor.accessor(
                get=accessor, enumerable=True, configurable=True
            ),
        )
    for name in NAVIGATOR_METHODS:
        proto.define_property(
            name,
            PropertyDescriptor.data(
                NativeFunction(_method_stub(name), name=name, brand="Navigator"),
                writable=True,
                enumerable=True,
                configurable=True,
            ),
        )
    return proto


def _slot_getter(slot: str):
    def _get(this):
        return this.slots[slot]

    return _get


def _method_stub(name: str):
    def _call(this, *args):
        if name == "javaEnabled":
            return False
        if name == "taintEnabled":
            return False
        if name == "vibrate":
            return False
        if name == "sendBeacon":
            return True
        return None

    return _call


class Navigator(JSObject):
    """A Navigator platform object: brand + internal slots, no own props."""

    def __init__(self, proto: JSObject, profile: NavigatorProfile) -> None:
        super().__init__(proto=proto, js_class="Navigator")
        #: WebIDL internal slots the prototype's getters read.
        self.slots = {
            slot: getattr(profile, slot) for _, slot in NAVIGATOR_ATTRIBUTES
        }


def make_navigator(
    profile: NavigatorProfile = None, ledger=None, label: str = "navigator"
) -> Navigator:
    """Build a complete navigator (fresh prototype chain each call).

    A fresh chain per browser instance keeps spoofing experiments
    independent: patching one browser's ``Navigator.prototype`` must not
    leak into another's.

    ``ledger`` (a :class:`repro.obs.probes.ProbeLedger`) instruments the
    fresh chain before it is returned: the navigator, its prototypes and
    every method/accessor record their fundamental operations under
    ``label``.  Attachment itself records nothing.
    """
    profile = profile or NavigatorProfile()
    object_proto = make_object_prototype()
    navigator_proto = make_navigator_prototype(object_proto)
    navigator = Navigator(navigator_proto, profile)
    if ledger is not None:
        from repro.obs.probes import instrument

        instrument(navigator, ledger, label)
    return navigator
