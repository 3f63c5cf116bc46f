"""The practical evaluation the paper leaves as future work.

    "The conceptual discussion of HLISA's limitations offers a framework
    to reason about its capabilities but lacks concrete data.  A
    practical evaluation would be desirable, but such necessitates
    detectors."  -- Section 5

This module supplies the missing piece: a population of sites that
deploy *interaction-based* detector batteries at the arms-race levels,
and a crawler that actually interacts with each page.  The outcome is
the blocked-visit rate per (interaction style x site detector level) --
concrete data for the Fig. 3 ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.detection.base import DetectionLevel
from repro.detection.battery import DetectorBattery
from repro.detection.features import Recording, RecordingFeatures
from repro.experiment.agents import Agent
from repro.experiment.tasks import BrowsingScenario


@dataclass
class BehavioralSite:
    """A site running an interaction-detector battery."""

    domain: str
    detector_level: DetectionLevel

    def judges(self, recording: Recording) -> bool:
        """Whether this site's battery flags the recorded visit."""
        return DetectorBattery(self.detector_level).evaluate(recording).is_bot


@dataclass
class BehavioralCrawlResult:
    """Blocked-visit rates per interaction style and site level."""

    #: style -> detector level -> (blocked, total)
    outcomes: Dict[str, Dict[DetectionLevel, List[int]]] = field(default_factory=dict)

    def record(self, style: str, level: DetectionLevel, blocked: bool) -> None:
        per_style = self.outcomes.setdefault(style, {})
        counts = per_style.setdefault(level, [0, 0])
        counts[0] += int(blocked)
        counts[1] += 1

    def blocked_rate(self, style: str, level: DetectionLevel) -> float:
        blocked, total = self.outcomes[style][level]
        return blocked / total if total else 0.0

    def format_table(self) -> str:
        levels = sorted({lvl for per in self.outcomes.values() for lvl in per})
        header = "interaction style    " + "  ".join(
            f"L{int(level)} sites" for level in levels
        )
        lines = [header]
        for style in self.outcomes:
            cells = "  ".join(
                f"{self.blocked_rate(style, level):8.0%}" for level in levels
            )
            lines.append(f"{style:20s} {cells}")
        return "\n".join(lines)


def make_behavioral_population(
    sites_per_level: int = 3,
    levels: Sequence[DetectionLevel] = (
        DetectionLevel.ARTIFICIAL,
        DetectionLevel.DEVIATION,
        DetectionLevel.CONSISTENCY,
    ),
) -> List[BehavioralSite]:
    """Sites deploying batteries at each interaction-detection level."""
    population: List[BehavioralSite] = []
    for level in levels:
        for i in range(sites_per_level):
            population.append(
                BehavioralSite(
                    domain=f"behavioral-l{int(level)}-{i}.example",
                    detector_level=level,
                )
            )
    return population


def run_behavioral_crawl(
    agents: Dict[str, Agent],
    population: Optional[List[BehavioralSite]] = None,
    visits_per_site: int = 1,
    scenario: Optional[BrowsingScenario] = None,
    seed: int = 7,
) -> BehavioralCrawlResult:
    """Crawl the behavioral population with each interaction style.

    Each visit performs the browsing scenario in a fresh session; the
    site's battery judges the recording.  Recordings are generated per
    (agent, visit), analysed once, and shared across the sites of that
    visit -- a site only ever sees its own visit's events.
    """
    population = population or make_behavioral_population()
    scenario = scenario or BrowsingScenario(clicks=40)
    rng = np.random.default_rng(seed)
    result = BehavioralCrawlResult()
    for style, agent in agents.items():
        for visit in range(visits_per_site):
            features = RecordingFeatures(scenario.run(agent).recorder)
            for site in population:
                result.record(style, site.detector_level, site.judges(features))
    return result
