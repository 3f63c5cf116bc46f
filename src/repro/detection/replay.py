"""Cross-session replay detection (Section 4.2's "perfect replayability").

A bot replaying recorded human interaction defeats every within-session
detector -- the distributions and couplings are genuinely human.  What it
cannot fake is *variability across visits*: humans never produce the
same timing sequence twice; a replay does, exactly.

:class:`CrossSessionReplayDetector` keeps a library of timing signatures
from previous visits and flags a new session whose signature correlates
near-perfectly with a stored one.  Signatures are built from inter-event
timing (keystroke gaps, movement-sample gaps), which replays preserve to
the millisecond.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.detection.base import DetectionLevel, Detector, Verdict
from repro.detection.features import Recording, RecordingFeatures


def timing_signature(recording: Recording, max_len: int = 400) -> np.ndarray:
    """A session's timing fingerprint: concatenated inter-event gaps.

    Keystroke-press gaps followed by mousedown gaps -- replays preserve
    both exactly; two genuine human sessions differ everywhere.
    """
    features = RecordingFeatures.of(recording)
    key_times = [e.timestamp for e in features.of_type("keydown")]
    click_times = [e.timestamp for e in features.of_type("mousedown")]
    gaps: List[float] = []
    for times in (key_times, click_times):
        if len(times) >= 2:
            gaps.extend(np.diff(times).tolist())
    return np.array(gaps[:max_len], dtype=float)


def signature_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of matching gaps (within 2 ms) over the shared prefix.

    Robust to truncated sessions; 1.0 = byte-identical timing.
    """
    n = min(a.size, b.size)
    if n < 10:
        return 0.0
    return float(np.mean(np.abs(a[:n] - b[:n]) <= 2.0))


@dataclass
class CrossSessionReplayDetector(Detector):
    """Flags sessions whose timing matches a previously seen visit."""

    name = "cross-session-replay"
    level = DetectionLevel.CONSISTENCY
    #: Similarity above which two sessions are "the same recording".
    similarity_threshold: float = 0.9
    #: Minimum signature length to compare at all.
    minimum_gaps: int = 20
    _library: List[np.ndarray] = field(default_factory=list)

    def judge(self, features: RecordingFeatures) -> Verdict:
        """Judge a session against the library, then remember it."""
        signature = timing_signature(features)
        verdict = self._judge(signature)
        if signature.size >= self.minimum_gaps:
            self._library.append(signature)
        return verdict

    def _judge(self, signature: np.ndarray) -> Verdict:
        if signature.size < self.minimum_gaps:
            return self._human()
        for stored in self._library:
            similarity = signature_similarity(signature, stored)
            if similarity >= self.similarity_threshold:
                return self._bot(
                    min(similarity, 1.0),
                    f"timing signature matches a previous visit at "
                    f"{similarity:.0%} (humans never repeat exactly)",
                )
        return self._human()

    @property
    def sessions_seen(self) -> int:
        return len(self._library)
