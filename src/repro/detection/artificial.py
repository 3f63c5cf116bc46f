"""Level-1 detectors: "detect artificial behaviour" (Fig. 3).

These catch interaction that is *impossible* or essentially impossible
for a human: the signatures Section 4.1 attributes to plain Selenium.
Thresholds are generous -- a level-1 detector must never flag a human, so
each bound sits well outside the human envelope.
"""

from __future__ import annotations

import numpy as np

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import RecordingFeatures

#: Sustained cursor speed beyond trained-human capability (px/s).
MAX_HUMAN_MEAN_SPEED = 3000.0
#: Instantaneous peak beyond plausible flicks (px/s).
MAX_HUMAN_PEAK_SPEED = 12000.0
#: Sustained typing beyond world-record pace (cpm).
MAX_HUMAN_CPM = 1100.0
#: A wheel tick is 57 px; a single scroll event beyond this many px
#: without wheel context cannot come from a wheel.
TELEPORT_SCROLL_PX = 4 * 57.0


class SuperhumanSpeedDetector(Detector):
    """Cursor movements faster than a human arm."""

    name = "superhuman-speed"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        for metrics in features.movement_metrics:
            if metrics.chord_length < 100:
                continue
            if metrics.mean_speed_px_s > MAX_HUMAN_MEAN_SPEED:
                return self._bot(
                    1.0,
                    f"mean cursor speed {metrics.mean_speed_px_s:.0f} px/s "
                    f"exceeds {MAX_HUMAN_MEAN_SPEED:.0f}",
                )
            if metrics.peak_speed_px_s > MAX_HUMAN_PEAK_SPEED:
                return self._bot(
                    0.9,
                    f"peak cursor speed {metrics.peak_speed_px_s:.0f} px/s",
                )
        return self._human()


class StraightLineDetector(Detector):
    """Long movements that are perfect straight lines."""

    name = "straight-line"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        flagged = 0
        considered = 0
        for metrics in features.movement_metrics:
            if metrics.chord_length < 150 or metrics.n_samples < 6:
                continue
            considered += 1
            if metrics.straightness > 0.9985:
                flagged += 1
        if considered and flagged / considered > 0.5:
            return self._bot(
                0.95, f"{flagged}/{considered} long movements perfectly straight"
            )
        return self._human()


class PerfectCenterClickDetector(Detector):
    """Every click exactly in the centre of its element (Fig. 2)."""

    name = "perfect-center-clicks"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        if len(features.placed_clicks) < 3:
            return self._human()
        center_rate = features.click_placement.exact_center_rate
        if center_rate > 0.8:
            return self._bot(
                1.0, f"{center_rate:.0%} of clicks exactly on element centres"
            )
        return self._human()


class ZeroDwellClickDetector(Detector):
    """Mouse button pressed and released in (essentially) no time."""

    name = "zero-dwell-clicks"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        clicks = features.clicks
        if len(clicks) < 2:
            return self._human()
        dwells = np.array([c.dwell_ms for c in clicks])
        if float(np.mean(dwells)) < 5.0:
            return self._bot(1.0, f"mean click dwell {np.mean(dwells):.1f} ms")
        return self._human()


class InhumanTypingSpeedDetector(Detector):
    """Typing far beyond human speed (Selenium: 13,333 cpm)."""

    name = "inhuman-typing-speed"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        metrics = features.typing
        if len(features.key_strokes) < 10 or metrics is None:
            return self._human()
        if metrics.chars_per_minute > MAX_HUMAN_CPM:
            return self._bot(
                1.0, f"typing speed {metrics.chars_per_minute:.0f} cpm"
            )
        return self._human()


class ZeroKeyDwellDetector(Detector):
    """Keys released the instant they are pressed."""

    name = "zero-key-dwell"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        metrics = features.typing
        if len(features.key_strokes) < 5 or metrics is None:
            return self._human()
        if metrics.has_negligible_dwell:
            return self._bot(1.0, f"mean key dwell {metrics.dwell_mean_ms:.1f} ms")
        return self._human()


class MissingModifierDetector(Detector):
    """Capitals or shifted symbols typed without any Shift press.

    The paper: "while humans need to press modifier keys to press
    characters like capital letters, Selenium can input any character
    that exists without pressing additional modifier keys."
    """

    name = "missing-modifiers"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        metrics = features.typing
        if metrics is None:
            return self._human()
        if metrics.shifted_without_modifier > 0:
            return self._bot(
                1.0,
                f"{metrics.shifted_without_modifier} shifted characters "
                "arrived without a Shift press",
            )
        return self._human()


class TeleportScrollDetector(Detector):
    """Single scroll events covering arbitrary distances (Section 4.1).

    The paper's caveat (Appendix D) is honoured: wheel-less scrolling
    alone is *not* conclusive, and large jumps are legitimate when a
    scroll-causing key (space, PageDown/Up, Home/End) was pressed just
    before -- the page can see those keydowns, so the detector must
    exempt them or flag space-bar-scrolling humans.
    """

    name = "teleport-scroll"
    level = DetectionLevel.ARTIFICIAL

    #: A scroll within this window after a scroll key is key-caused.
    KEY_EXEMPTION_MS = 200.0
    SCROLL_KEYS = frozenset({" ", "PageDown", "PageUp", "Home", "End"})

    def judge(self, features: RecordingFeatures) -> Verdict:
        scrolls = features.scroll_events
        if len(scrolls) < 1:
            return self._human()
        key_times = [
            e.timestamp
            for e in features.of_type("keydown")
            if e.key in self.SCROLL_KEYS
        ]

        def key_caused(timestamp: float) -> bool:
            return any(
                0.0 <= timestamp - t <= self.KEY_EXEMPTION_MS for t in key_times
            )

        previous_offset = 0.0
        for event in scrolls:
            step = abs(event.page_y - previous_offset)
            previous_offset = event.page_y
            if step > TELEPORT_SCROLL_PX and not key_caused(event.timestamp):
                return self._bot(
                    0.9, f"single scroll event covered {step:.0f} px"
                )
        return self._human()


class NoMovementClickDetector(Detector):
    """A click with no approach movement at all.

    ``WebElement.click`` teleports the cursor; a human cursor must travel
    to the element first.
    """

    name = "click-without-movement"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        clicks = features.clicks
        if not clicks:
            return self._human()
        times = np.array([sample[0] for sample in features.mouse_path], dtype=float)
        for click in clicks:
            t_click = click.down.timestamp
            approach = np.count_nonzero((t_click - 2000.0 <= times) & (times <= t_click))
            if approach < 3:
                return self._bot(
                    0.85, "click arrived without preceding cursor movement"
                )
        return self._human()


class UntrustedEventDetector(Detector):
    """Events synthesised by page scripts (``isTrusted == false``).

    The cheapest bots skip input synthesis entirely and call
    ``element.dispatchEvent`` / ``element.click()`` from script; the
    browser marks such events untrusted.  One untrusted interaction
    event is conclusive.
    """

    name = "untrusted-events"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        for event in features.events:
            if not event.is_trusted:
                return self._bot(
                    1.0, f"untrusted {event.type!r} event (script-dispatched)"
                )
        return self._human()


class MissingPointerTwinDetector(Detector):
    """Mouse events arriving without their pointer-event twins.

    Real input produces a ``pointerdown`` before every ``mousedown`` (and
    ``pointermove`` alongside ``mousemove``); scripts that fabricate only
    the mouse family forget the twins.  Only meaningful when the
    recording shows mouse activity at all.
    """

    name = "missing-pointer-twins"
    level = DetectionLevel.ARTIFICIAL

    def judge(self, features: RecordingFeatures) -> Verdict:
        mouse_downs = len(features.of_type("mousedown"))
        pointer_downs = len(features.of_type("pointerdown"))
        if mouse_downs >= 2 and pointer_downs == 0:
            return self._bot(
                0.95,
                f"{mouse_downs} mousedown events without a single "
                "pointerdown twin",
            )
        return self._human()


#: The standard level-1 battery.
ARTIFICIAL_DETECTORS = (
    UntrustedEventDetector,
    MissingPointerTwinDetector,
    SuperhumanSpeedDetector,
    StraightLineDetector,
    PerfectCenterClickDetector,
    ZeroDwellClickDetector,
    InhumanTypingSpeedDetector,
    ZeroKeyDwellDetector,
    MissingModifierDetector,
    TeleportScrollDetector,
    NoMovementClickDetector,
)
