"""Typing-rhythm metrics (Section 4.1, "Key presses").

From recorded keystrokes the metrics recover everything the paper uses to
tell Selenium from human typing:

- typing speed in characters per minute (Selenium: 13,333; fast human:
  ~600);
- dwell-time distribution (Selenium: negligible and constant);
- flight-time distribution, including negative flights = rollover
  ("sometimes a key is only released when a different key has already
  been pressed");
- modifier consistency: capital letters/shifted symbols arriving without
  a Shift press reveal the bot (and with Shift, reveal the layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.events.recorder import KeyStroke, flight_times
from repro.humans.typing import needs_shift

#: Keys that modify other keys rather than type a character.
MODIFIER_KEYS = frozenset({"Shift", "Control", "Alt", "Meta"})


@dataclass(frozen=True)
class TypingMetrics:
    """Summary of one typing session."""

    n_strokes: int
    chars_per_minute: float
    dwell_mean_ms: float
    dwell_std_ms: float
    flight_mean_ms: float
    flight_std_ms: float
    rollover_count: int
    #: Shifted characters typed while Shift was observably down.
    shifted_with_modifier: int
    #: Shifted characters typed with no Shift press at all.
    shifted_without_modifier: int

    @property
    def has_negligible_dwell(self) -> bool:
        """Selenium signature: keys held for (essentially) no time."""
        return self.dwell_mean_ms < 5.0

    @property
    def is_inhumanly_fast(self) -> bool:
        """Beyond the fastest sustained human typing (~750 cpm)."""
        return self.chars_per_minute > 1000.0


def typing_metrics(strokes: Sequence[KeyStroke]) -> TypingMetrics:
    """Compute :class:`TypingMetrics` from matched keystrokes.

    Modifier keystrokes are excluded from character counts but used to
    reconstruct the Shift state over time.
    """
    strokes = sorted(strokes, key=lambda s: s.down.timestamp)
    if not strokes:
        raise ValueError("no keystrokes to analyse")
    character_strokes: List[KeyStroke] = [
        s for s in strokes if s.key not in MODIFIER_KEYS
    ]
    if not character_strokes:
        raise ValueError("only modifier keystrokes present")

    dwells = np.array([s.dwell_ms for s in character_strokes])
    flights = np.array(flight_times(character_strokes)) if len(character_strokes) > 1 else np.zeros(0)
    rollover = int(np.sum(flights < 0)) if flights.size else 0

    span_ms = (
        character_strokes[-1].up.timestamp - character_strokes[0].down.timestamp
    )
    cpm = (
        len(character_strokes) / (span_ms / 60000.0) if span_ms > 0 else float("inf")
    )

    shift_intervals = [
        (s.down.timestamp, s.up.timestamp) for s in strokes if s.key == "Shift"
    ]

    def _shift_down_at(t: float) -> bool:
        return any(lo <= t <= hi for lo, hi in shift_intervals)

    shifted_with = 0
    shifted_without = 0
    for stroke in character_strokes:
        if len(stroke.key) == 1 and needs_shift(stroke.key):
            # The event's own modifier flag is authoritative; the interval
            # check covers recorders that only kept key events.
            if stroke.down.shift_key or _shift_down_at(stroke.down.timestamp):
                shifted_with += 1
            else:
                shifted_without += 1

    return TypingMetrics(
        n_strokes=len(character_strokes),
        chars_per_minute=float(cpm),
        dwell_mean_ms=float(dwells.mean()),
        dwell_std_ms=float(dwells.std()),
        flight_mean_ms=float(flights.mean()) if flights.size else 0.0,
        flight_std_ms=float(flights.std()) if flights.size else 0.0,
        rollover_count=rollover,
        shifted_with_modifier=shifted_with,
        shifted_without_modifier=shifted_without,
    )
