"""The synthetic web population for the field study.

Deployment rates are calibrated against the *baseline* column of Table 2
(what a detectable OpenWPM experiences): visible bot reactions on ~1.7 %
of reachable sites, split across ad removal, blocking pages/CAPTCHAs and
frozen video; a further set of sites reacts at the HTTP level only
(Fig. 4's 403/503 surplus); a couple of sites' own scripts break when
``navigator`` is proxied (Section 3.2's breakage findings).

What the *extension* column looks like is not configured anywhere --
sites run their actual fingerprint probes against the actual (spoofed)
navigator object at visit time, so the Table 2 deltas are produced by the
spoofing mechanics, not by constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

import numpy as np


class DetectionSignal(Enum):
    """What a site's bot detector looks at."""

    #: ``navigator.webdriver`` only (the dominant real-world check,
    #: per Vastel et al. [36]).
    WEBDRIVER_FLAG = "webdriver-flag"
    #: webdriver flag *or* any Table 1 side effect (a sophisticated
    #: detector that also spots spoofing attempts).
    SIDE_EFFECTS = "side-effects"
    #: A non-fingerprint signal (IP reputation, rate limits): fires with
    #: a fixed probability regardless of spoofing.
    OTHER = "other"


class HostileArchetype(Enum):
    """Page pathologies a measurement tool must degrade gracefully on.

    These are crawler-hostile *mechanics*, not bot detectors: the page
    obstructs automation for every visitor (Krumnow et al.'s reliability
    pathologies; "Detecting Bot Detection"'s interstitial catalog).
    Whether a visit survives one depends on the supervising watchdogs,
    not on spoofing.
    """

    #: A full-page modal/cookie-consent overlay blocks interaction until
    #: dismissed.
    MODAL_OVERLAY = "modal-overlay"
    #: A challenge interstitial gates the page behind a wait.
    CHALLENGE_INTERSTITIAL = "challenge-interstitial"
    #: A required input is hidden/tiny: pointer interaction cannot reach
    #: it, only a scripted direct fill can.
    HIDDEN_INPUT = "hidden-input"
    #: The page stalls, consuming the visit's step budget without
    #: progress (per attempt, with probability ``hostile_intensity``).
    STALLING = "stalling"


class Reaction(Enum):
    """How a site reacts to a detected bot."""

    BLOCK_PAGE = "block-page"  # visible blocking page, first-party 403
    CAPTCHA = "captcha"  # visible challenge, first-party 503
    NO_ADS = "no-ads"  # all ad slots left empty
    LESS_ADS = "less-ads"  # some ad slots left empty
    FREEZE_VIDEO = "freeze-video"  # video element never loads
    HTTP_ONLY = "http-only"  # 403/503 on subresources, no visible change


@dataclass
class DetectorDeployment:
    """A bot detector deployed on one site."""

    signal: DetectionSignal
    reaction: Reaction
    #: Probability the check runs (and reacts) on a given visit; real
    #: deployments sample traffic.
    fire_probability: float = 1.0


@dataclass
class SiteConfig:
    """One site of the population."""

    rank: int
    domain: str
    detector: Optional[DetectorDeployment] = None
    #: Site never responds (DNS/parking/geo-blocks); Table 2 reached 921
    #: of 1,000 sites.
    unreachable: bool = False
    #: Site's own scripts misbehave when navigator is proxied
    #: (Section 3.2 found a deformed layout and an ever-loading video).
    breakage: Optional[str] = None  # None | "layout" | "video"
    ad_slots: int = 3
    has_video: bool = False
    #: Third-party requests per visit.
    n_third_party: int = 30
    #: Baseline per-request error rates (web dynamics, not bot related).
    third_party_error_rate: float = 0.02
    first_party_error_rate: float = 0.004
    #: Per-visit probability an ad auction simply fills fewer slots.
    ad_noise_probability: float = 0.0002
    #: Crawler-hostile page mechanics (None = plain page).
    hostile: Optional[HostileArchetype] = None
    #: For ``STALLING``: per-attempt probability the stall manifests.
    hostile_intensity: float = 0.4


@dataclass
class PopulationConfig:
    """Knobs for :func:`generate_population` (defaults = paper scale)."""

    n_sites: int = 1000
    seed: int = 2021
    #: Fraction of sites that never respond (-> ~921 reached).
    unreachable_fraction: float = 0.079
    #: Visible-reaction detector counts (calibrated to Table 2 col. 1).
    n_no_ads_detectors: int = 4
    n_less_ads_detectors: int = 2
    n_block_detectors: int = 5
    n_captcha_detectors: int = 3
    n_freeze_video_detectors: int = 1
    #: One "no ads" site keyed on a non-fingerprint signal: it keeps
    #: firing even against the extension (Table 2 col. 2's residual).
    n_other_signal_ad_detectors: int = 1
    #: One sophisticated blocker that also checks Table 1 side effects,
    #: sampling a subset of visits (Table 2: "only one site that deploys
    #: blocking against our extended OpenWPM version for a smaller subset
    #: of visits").
    n_side_effect_blockers: int = 1
    side_effect_fire_probability: float = 0.4
    #: Probability an ordinary blocking check runs on a given visit
    #: (Table 2 col. 1 shows 49 blocked visits on 8 sites of 8 visits).
    block_fire_probability: float = 0.77
    #: HTTP-only detectors (Fig. 4's 403/503 surplus).
    n_http_only_detectors: int = 25
    #: Sites whose scripts break under a proxied navigator.
    n_layout_breakage: int = 1
    n_video_breakage: int = 1
    #: Hostile-archetype site counts (all 0 by default: the paper-scale
    #: population is unchanged byte-for-byte unless a robustness study
    #: opts in).  Hostile sites are drawn from the ordinary *reachable*
    #: population on a dedicated rng stream, so enabling them perturbs
    #: no other draw.
    n_modal_overlay_sites: int = 0
    n_challenge_sites: int = 0
    n_hidden_input_sites: int = 0
    n_stalling_sites: int = 0
    #: Per-attempt stall probability for the stalling sites.
    stall_intensity: float = 0.4


def generate_population(config: Optional[PopulationConfig] = None) -> List[SiteConfig]:
    """Generate the site population (deterministic for a given seed)."""
    config = config or PopulationConfig()
    rng = np.random.default_rng(config.seed)
    sites = [
        SiteConfig(
            rank=i + 1,
            domain=f"site-{i + 1:04d}.example",
            ad_slots=int(rng.integers(1, 6)),
            has_video=bool(rng.random() < 0.25),
            n_third_party=int(rng.integers(12, 55)),
        )
        for i in range(config.n_sites)
    ]

    # Choose distinct reachable sites for the special roles.
    special_count = (
        config.n_no_ads_detectors
        + config.n_less_ads_detectors
        + config.n_block_detectors
        + config.n_captcha_detectors
        + config.n_freeze_video_detectors
        + config.n_other_signal_ad_detectors
        + config.n_side_effect_blockers
        + config.n_http_only_detectors
        + config.n_layout_breakage
        + config.n_video_breakage
    )
    if special_count > config.n_sites:
        raise ValueError(
            f"population of n_sites={config.n_sites} is too small for "
            f"{special_count} special roles"
        )
    chosen = rng.choice(config.n_sites, size=special_count, replace=False)
    cursor = 0

    def take(n: int) -> List[SiteConfig]:
        nonlocal cursor
        picked = [sites[i] for i in chosen[cursor : cursor + n]]
        cursor += n
        return picked

    for site in take(config.n_no_ads_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.WEBDRIVER_FLAG, Reaction.NO_ADS
        )
    for site in take(config.n_less_ads_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.WEBDRIVER_FLAG, Reaction.LESS_ADS
        )
        site.ad_slots = max(site.ad_slots, 3)  # "less ads" needs slots left
    for site in take(config.n_block_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.WEBDRIVER_FLAG,
            Reaction.BLOCK_PAGE,
            fire_probability=config.block_fire_probability,
        )
    for site in take(config.n_captcha_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.WEBDRIVER_FLAG,
            Reaction.CAPTCHA,
            fire_probability=config.block_fire_probability,
        )
    for site in take(config.n_freeze_video_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.WEBDRIVER_FLAG, Reaction.FREEZE_VIDEO
        )
        site.has_video = True
    for site in take(config.n_other_signal_ad_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.OTHER, Reaction.NO_ADS, fire_probability=0.5
        )
    for site in take(config.n_side_effect_blockers):
        site.detector = DetectorDeployment(
            DetectionSignal.SIDE_EFFECTS,
            Reaction.BLOCK_PAGE,
            fire_probability=config.side_effect_fire_probability,
        )
    for site in take(config.n_http_only_detectors):
        site.detector = DetectorDeployment(
            DetectionSignal.WEBDRIVER_FLAG, Reaction.HTTP_ONLY
        )
    for site in take(config.n_layout_breakage):
        site.breakage = "layout"
    for site in take(config.n_video_breakage):
        site.breakage = "video"
        site.has_video = True

    # Unreachable sites are drawn from the *ordinary* population: a site
    # that deploys a bot detector (or breaks under spoofing) evidently
    # responds, so the special roles stay reachable.
    chosen_set = set(chosen)
    ordinary = [i for i in range(config.n_sites) if i not in chosen_set]
    n_unreachable = min(
        int(round(config.n_sites * config.unreachable_fraction)), len(ordinary)
    )
    for i in rng.choice(ordinary, size=n_unreachable, replace=False):
        sites[i].unreachable = True

    _assign_hostile_sites(sites, config, ordinary)
    return sites


def field_study_population(n_sites: int) -> List[SiteConfig]:
    """The field study's population at ``n_sites`` sites.

    The visible-reaction and HTTP-only detector counts scale with
    ``n_sites / 1000``, keeping at least one site per role (two HTTP-only
    detectors); the other roles keep their single site.  At 1,000 sites
    this is the default population.  The report CLI's ``--sites`` and
    ``examples/field_study.py`` both build their population here.
    """
    paper = PopulationConfig()
    scale = n_sites / paper.n_sites
    return generate_population(
        PopulationConfig(
            n_sites=n_sites,
            n_no_ads_detectors=max(1, round(paper.n_no_ads_detectors * scale)),
            n_less_ads_detectors=max(1, round(paper.n_less_ads_detectors * scale)),
            n_block_detectors=max(1, round(paper.n_block_detectors * scale)),
            n_captcha_detectors=max(1, round(paper.n_captcha_detectors * scale)),
            n_http_only_detectors=max(2, round(paper.n_http_only_detectors * scale)),
        )
    )


#: Sub-stream tag for hostile-site selection (disjoint from the main
#: population stream, so default configs draw nothing from it).
_HOSTILE_STREAM = 0x48


def _assign_hostile_sites(
    sites: List[SiteConfig], config: PopulationConfig, ordinary: List[int]
) -> None:
    """Mark hostile-archetype sites (no-op with the default counts).

    Hostile sites come from the ordinary *reachable* population -- a
    page that throws up an overlay or stalls evidently responds, and
    keeping the detector sites plain keeps the Table 2 calibration
    orthogonal to robustness studies.  Selection uses its own seeded rng
    stream: enabling hostile counts never perturbs the draws that shape
    the rest of the population.
    """
    quotas = [
        (HostileArchetype.MODAL_OVERLAY, config.n_modal_overlay_sites),
        (HostileArchetype.CHALLENGE_INTERSTITIAL, config.n_challenge_sites),
        (HostileArchetype.HIDDEN_INPUT, config.n_hidden_input_sites),
        (HostileArchetype.STALLING, config.n_stalling_sites),
    ]
    total = sum(count for _, count in quotas)
    if total == 0:
        return
    eligible = [i for i in ordinary if not sites[i].unreachable]
    if total > len(eligible):
        raise ValueError(
            f"population has {len(eligible)} eligible sites for "
            f"{total} hostile roles"
        )
    hostile_rng = np.random.default_rng([config.seed, _HOSTILE_STREAM])
    chosen = hostile_rng.choice(eligible, size=total, replace=False)
    cursor = 0
    for archetype, count in quotas:
        for i in chosen[cursor : cursor + count]:
            sites[i].hostile = archetype
            sites[i].hostile_intensity = config.stall_intensity
        cursor += count


def hostile_population(
    n_sites: int = 200,
    seed: int = 2021,
    hostile_fraction: float = 0.2,
    stall_intensity: float = 0.4,
) -> List[SiteConfig]:
    """A population with ``hostile_fraction`` of sites hostile, split
    evenly across the four archetypes (the robustness-ablation subject)."""
    per_archetype = max(1, int(round(n_sites * hostile_fraction / 4.0)))
    config = PopulationConfig(
        n_sites=n_sites,
        seed=seed,
        n_modal_overlay_sites=per_archetype,
        n_challenge_sites=per_archetype,
        n_hidden_input_sites=per_archetype,
        n_stalling_sites=per_archetype,
        stall_intensity=stall_intensity,
    )
    return generate_population(config)
