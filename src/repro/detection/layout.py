"""Keyboard-layout inference from modifier usage (Section 4.1).

    "By monitoring the usage of modifier keys, detectors can infer the
    keyboard layout, which can be used for static fingerprinting
    purposes."

:func:`observe_modifier_usage` reconstructs, from the key-event stream,
which modifier accompanied each printable character;
:func:`repro.models.layouts.infer_layout` turns those observations into
a layout guess; and :class:`LayoutLanguageMismatchDetector` cross-checks
the guess against the browser's claimed language -- a German-language
fingerprint typing with US-layout modifier conventions is lying about
something.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import Recording, RecordingFeatures
from repro.models.layouts import ALTGR, PLAIN, SHIFT, KeyboardLayout, infer_layout


def observe_modifier_usage(recording: Recording) -> Dict[str, str]:
    """Reconstruct ``char -> modifier`` from the key-event stream.

    Modifier state is rebuilt from the Shift/AltGraph down/up events --
    exactly what a page script monitoring ``keydown`` can do.
    """
    held = {"Shift": False, "AltGraph": False}
    observations: Dict[str, str] = {}
    for event in RecordingFeatures.of(recording).of_type("keydown", "keyup"):
        if event.key in held:
            held[event.key] = event.type == "keydown"
            continue
        if event.type != "keydown" or len(event.key) != 1:
            continue
        if held["AltGraph"]:
            observations[event.key] = ALTGR
        elif held["Shift"]:
            observations[event.key] = SHIFT
        else:
            observations[event.key] = PLAIN
    return observations


def infer_layout_from_recording(recording: Recording) -> Optional[KeyboardLayout]:
    """The detector-side layout guess (None without discriminating chars)."""
    return infer_layout(observe_modifier_usage(recording))


class LayoutLanguageMismatchDetector(Detector):
    """Typed layout disagrees with the claimed browser language.

    Static fingerprint (``navigator.language``) and dynamic behaviour
    (modifier conventions) must tell the same story; a simulator that
    picked its typing model and its fingerprint independently breaks the
    consistency -- a level-3 check in the Fig. 3 sense.
    """

    name = "layout-language-mismatch"
    level = DetectionLevel.CONSISTENCY

    def __init__(self, window) -> None:
        self.window = window

    def judge(self, features: RecordingFeatures) -> Verdict:
        layout = infer_layout_from_recording(features)
        if layout is None:
            return self._human()  # nothing discriminating was typed
        language = self.window.navigator.get("language")
        if not isinstance(language, str) or not language:
            return self._human()
        prefix = language.split("-")[0].lower()
        if any(prefix == tag for tag in layout.languages):
            return self._human()
        # The inferred layout is typical for other languages entirely.
        return self._bot(
            0.7,
            f"browser claims language {language!r} but the typing follows "
            f"the {layout.name!r} keyboard layout",
        )
