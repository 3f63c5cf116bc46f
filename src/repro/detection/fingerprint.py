"""Fingerprint-based bot detection (Section 3 / Table 1).

Two layers:

1. The **webdriver flag**: ``navigator.webdriver`` is ``true`` by W3C
   convention in automated browsers; Vastel et al. found detectors depend
   heavily on it.  :func:`probe_webdriver_flag` reads it the way a page
   script would.
2. **Spoof-detection probes** -- the five side effects of Table 1, each
   implemented as the observable JavaScript behaviour the paper
   describes, evaluated against a pristine reference navigator:

   - incorrect order of navigator properties (``for-in`` enumeration);
   - modified ``navigator._length`` (template-attack property count);
   - new ``Object.keys(navigator)``;
   - defined ``navigator.__proto__.webdriver`` (the WebIDL brand check is
     gone after ``setPrototypeOf``);
   - unnamed ``window.navigator`` functions (Listing 1's ``toString``
     probe).

:class:`TemplateAttack` implements the Schwarz et al. style structural
diff the paper uses to find side effects automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Set

from repro.browser.navigator import NavigatorProfile, make_navigator
from repro.jsobject import (
    JSFunction,
    JSTypeError,
    for_in_names,
    get_own_property_names,
    object_keys,
)
from repro.obs.probes import (
    PROBE_SCOPE_PREFIX,
    REFERENCE_LABEL_PREFIX,
    EntryDict,
    ProbeLedger,
    instrument,
)

#: Function-valued navigator properties the ``toString`` probe inspects.
PROBED_FUNCTIONS = ("toString", "hasOwnProperty", "javaEnabled", "sendBeacon")

#: Ledger probe name for the plain ``navigator.webdriver`` read (the five
#: Table 1 probes are named after their :class:`SideEffect`).
PROBE_WEBDRIVER_FLAG = "WEBDRIVER_FLAG"


class SideEffect(Enum):
    """The detectable side effects of Table 1, row by row."""

    INCORRECT_PROPERTY_ORDER = "incorrect order of navigator properties"
    MODIFIED_LENGTH = "modified navigator._length"
    NEW_OBJECT_KEYS = "new Object.keys(navigator)"
    PROTO_WEBDRIVER_DEFINED = "defined navigator.__proto__.webdriver"
    UNNAMED_FUNCTIONS = "unnamed window.navigator functions"


@dataclass
class FingerprintProbeResult:
    """Everything the fingerprinting layer learned about a browser."""

    #: ``navigator.webdriver`` as the page sees it (None = undefined).
    webdriver_value: Optional[bool]
    #: Side effects revealing a spoofing attempt.
    side_effects: Set[SideEffect] = field(default_factory=set)
    #: With an instrumented window: per fired side effect, the ledger
    #: slice (the exact accesses) of the probe that revealed it.
    ledger_slices: Dict[SideEffect, List[EntryDict]] = field(default_factory=dict)
    #: With an instrumented window: every probe's ledger slice, fired or
    #: not, keyed by probe name (``SideEffect.name`` / ``WEBDRIVER_FLAG``).
    probe_slices: Dict[str, List[EntryDict]] = field(default_factory=dict)

    @property
    def webdriver_visible(self) -> bool:
        """The naive check most real-world detectors rely on."""
        return self.webdriver_value is True

    @property
    def spoofing_detected(self) -> bool:
        """Whether any Table 1 side effect fired."""
        return bool(self.side_effects)

    @property
    def bot_suspected(self) -> bool:
        """Combined verdict of a fingerprint-only detector."""
        return self.webdriver_visible or self.spoofing_detected


def _reference_navigator():
    """A pristine navigator to compare against.

    The structural observables (order, counts, keys, brand checks,
    function names) do not depend on the profile's values, so the default
    profile serves as reference for any browser.
    """
    return make_navigator(NavigatorProfile())


# -- probe-ledger plumbing ----------------------------------------------------


def _window_ledger(window) -> Optional[ProbeLedger]:
    """The probe ledger attached to a window, re-instrumenting on use.

    A window is instrumented either explicitly
    (:func:`repro.obs.probes.instrument_window`) or by a supervisor that
    sets ``window.probe_ledger`` at browser spawn.  Because spoofing may
    have replaced ``window.navigator`` (method 4) or its prototype
    (method 3) since, the navigator graph is re-walked here; attaching
    records nothing and is idempotent, so probes see a fully instrumented
    graph without the ledger observing its own bookkeeping.
    """
    navigator = window.navigator
    ledger = getattr(window, "probe_ledger", None)
    if ledger is None:
        ledger = getattr(navigator, "_probe_ledger", None)
    if ledger is not None and (
        navigator._probe_ledger is not ledger
        or navigator._probe_label != "navigator"
    ):
        # Only walk when the root is not yet carrying this ledger: every
        # graph mutation (spoofing install, proxy swap) re-instruments
        # its result, so an already-attached root means an attached graph.
        instrument(navigator, ledger, "navigator")
    return ledger


def _instrument_reference(reference, ledger: ProbeLedger) -> None:
    """Instrument the pristine comparison navigator with ``ref:`` labels,
    so both access streams of a comparison probe land in one ledger."""
    if getattr(reference, "_probe_ledger", None) is not ledger:
        instrument(reference, ledger, REFERENCE_LABEL_PREFIX + "navigator")


# -- individual probes ------------------------------------------------------


def probe_webdriver_flag(window) -> Optional[bool]:
    """Read ``navigator.webdriver`` as page JavaScript would."""
    ledger = _window_ledger(window)
    if ledger is None:
        value = window.navigator.get("webdriver")
    else:
        with ledger.scope(PROBE_SCOPE_PREFIX + PROBE_WEBDRIVER_FLAG):
            value = window.navigator.get("webdriver")
            ledger.record(
                "probe.result",
                "detector",
                key=PROBE_WEBDRIVER_FLAG,
                detail={"fired": value is True},
            )
    if isinstance(value, bool):
        return value
    return None


def probe_property_order(window, reference=None) -> bool:
    """Table 1 row 1: ``for-in`` order differs from a stock Firefox.

    A spoof that creates an *own* property makes it enumerate before the
    prototype's canonical order.
    """
    reference = reference or _reference_navigator()
    return for_in_names(window.navigator) != for_in_names(reference)


def probe_property_count(window, reference=None) -> bool:
    """Table 1 row 2: the template-attack property count changed.

    "each attempt to spoof a property increments the navigator.length
    property ... its original value remains in the prototype chain."
    """
    reference = reference or _reference_navigator()
    return _template_length(window.navigator) != _template_length(reference)


def _template_length(navigator) -> int:
    """Total own-property count along the prototype chain."""
    count = len(get_own_property_names(navigator))
    node = navigator.proto
    while node is not None:
        count += len(get_own_property_names(node))
        node = node.proto
    return count


def probe_object_keys(window, reference=None) -> bool:
    """Table 1 row 3: ``Object.keys(navigator)`` differs from stock.

    In stock Firefox every navigator property lives on the prototype, so
    the instance's own-key listing is empty; own shadow properties created
    by spoofing show up here (or, with ``defineProperty``'s default
    ``enumerable: false``, make the attribute vanish from enumeration).
    """
    reference = reference or _reference_navigator()
    return object_keys(window.navigator) != object_keys(reference)


def probe_proto_webdriver(window) -> bool:
    """Table 1 row 4: ``navigator.__proto__.webdriver`` is defined.

    In stock Firefox the prototype's accessor has a WebIDL brand check:
    reading it with the prototype itself as ``this`` throws a TypeError.
    After ``setPrototypeOf`` spoofing, the substituted prototype returns a
    plain value.
    """
    proto = window.navigator.proto
    if proto is None:
        return True  # a null-prototype navigator is itself an anomaly
    try:
        proto.get("webdriver", receiver=proto)
    except JSTypeError:
        return False
    return True


def probe_function_tostring(window) -> bool:
    """Table 1 row 5 / Listing 1: navigator methods lost their names.

    ``window.navigator.toString.toString()`` must read
    ``function toString() { [native code] }``; proxy-wrapped navigators
    hand out anonymous bound wrappers instead.
    """
    navigator = window.navigator
    for name in PROBED_FUNCTIONS:
        value = navigator.get(name)
        if isinstance(value, JSFunction):
            rendering = value.to_string()
            if f"function {name}(" not in rendering:
                return True
    return False


def probe_frozen_navigator(window) -> bool:
    """Extra probe (beyond Table 1): a frozen/sealed navigator.

    Stealth scripts sometimes ``Object.freeze`` their spoofed objects to
    prevent pages from undoing the override; a stock ``navigator`` is
    never frozen or sealed, so integrity itself is a tell.
    """
    navigator = window.navigator
    target = getattr(navigator, "target", navigator)  # probe through proxies
    is_frozen = getattr(target, "is_frozen", None)
    is_sealed = getattr(target, "is_sealed", None)
    return bool((is_frozen and is_frozen()) or (is_sealed and is_sealed()))


def run_all_probes(window, reference=None) -> FingerprintProbeResult:
    """Run the webdriver check and all five Table 1 probes.

    On an instrumented window (see :mod:`repro.obs.probes`), every
    probe's accesses are recorded under a ``detector.probe:<NAME>`` scope
    -- both on the probed navigator and, for comparison probes, on the
    ``ref:``-labelled reference -- and each fired side effect carries its
    ledger slice in the result.  Probe outcomes are identical either way:
    instrumentation only observes.
    """
    reference = reference or _reference_navigator()
    ledger = _window_ledger(window)
    probes = (
        (SideEffect.INCORRECT_PROPERTY_ORDER, lambda: probe_property_order(window, reference)),
        (SideEffect.MODIFIED_LENGTH, lambda: probe_property_count(window, reference)),
        (SideEffect.NEW_OBJECT_KEYS, lambda: probe_object_keys(window, reference)),
        (SideEffect.PROTO_WEBDRIVER_DEFINED, lambda: probe_proto_webdriver(window)),
        (SideEffect.UNNAMED_FUNCTIONS, lambda: probe_function_tostring(window)),
    )
    side_effects: Set[SideEffect] = set()
    result = FingerprintProbeResult(webdriver_value=None, side_effects=side_effects)
    if ledger is None:
        for effect, probe in probes:
            if probe():
                side_effects.add(effect)
        result.webdriver_value = probe_webdriver_flag(window)
        return result
    _instrument_reference(reference, ledger)
    for effect, probe in probes:
        with ledger.scope(PROBE_SCOPE_PREFIX + effect.name):
            start = len(ledger)
            fired = probe()
            ledger.record(
                "probe.result",
                "detector",
                key=effect.name,
                detail={"fired": bool(fired)},
            )
            entries = ledger.slice_from(start)
        result.probe_slices[effect.name] = entries
        if fired:
            side_effects.add(effect)
            result.ledger_slices[effect] = entries
    start = len(ledger)
    result.webdriver_value = probe_webdriver_flag(window)
    result.probe_slices[PROBE_WEBDRIVER_FLAG] = ledger.slice_from(start)
    return result


# -- template attack ----------------------------------------------------------


class TemplateAttack:
    """A JavaScript-template-attack-style structural differ.

    Captures a template of an object (own property names, per-prototype
    property names, enumeration order, per-property value types) and
    reports every difference against another object.  This is the
    systematic tool the paper uses to *find* side effects, as opposed to
    the targeted probes above.
    """

    def __init__(self, reference=None) -> None:
        self.reference_template = self.capture(
            reference if reference is not None else _reference_navigator()
        )

    @staticmethod
    def capture(obj) -> Dict[str, Any]:
        """Capture the structural template of an object."""
        chain: List[List[str]] = []
        node = obj.proto
        while node is not None:
            chain.append(get_own_property_names(node))
            node = node.proto
        types: Dict[str, str] = {}
        for name in for_in_names(obj):
            try:
                value = obj.get(name)
            except JSTypeError:
                types[name] = "<throws>"
                continue
            types[name] = type(value).__name__
        return {
            "own": get_own_property_names(obj),
            "keys": object_keys(obj),
            "for_in": for_in_names(obj),
            "chain": chain,
            "types": types,
        }

    def diff(self, obj) -> List[str]:
        """Differences of ``obj`` against the captured reference."""
        observed = self.capture(obj)
        reference = self.reference_template
        differences: List[str] = []
        if observed["own"] != reference["own"]:
            differences.append(
                f"own properties changed: {reference['own']} -> {observed['own']}"
            )
        if observed["keys"] != reference["keys"]:
            differences.append(
                f"Object.keys changed: {reference['keys']} -> {observed['keys']}"
            )
        if observed["for_in"] != reference["for_in"]:
            differences.append("for-in enumeration changed")
        if observed["chain"] != reference["chain"]:
            differences.append("prototype chain structure changed")
        for name, type_name in observed["types"].items():
            ref_type = reference["types"].get(name)
            if ref_type is not None and ref_type != type_name:
                differences.append(
                    f"property {name!r} type changed: {ref_type} -> {type_name}"
                )
        return differences

    def detects(self, obj) -> bool:
        """Whether the template attack finds any difference at all."""
        return bool(self.diff(obj))
