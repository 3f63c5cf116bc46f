"""Evaluation pipelines: Table 2, the breakage report, and Fig. 4.

``evaluate_screenshots`` reproduces the paper's screenshot review: for
each crawler it counts sites and visits showing missing ads (split into
"no ads"/"less ads"), blocking pages/CAPTCHAs, and frozen video elements.

``evaluate_http_errors`` reproduces Appendix B / Fig. 4: status-code
occurrence counts per crawler (codes above a threshold), plus the
Wilcoxon matched-pairs signed-rank test on per-site first-party and
third-party error counts, all tallied in one walk over each crawl
(``tally_http_responses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.crawl.crawler import CrawlResult
from repro.stats.wilcoxon import WilcoxonResult, wilcoxon_signed_rank

if TYPE_CHECKING:  # avoid a runtime cycle through crawl.supervisor
    from repro.crawl.supervisor import SupervisorStats


@dataclass
class ScreenshotCategory:
    """One Table 2 row for one crawler: affected sites and visits."""

    sites: int = 0
    visits: int = 0


@dataclass
class ScreenshotEvaluation:
    """Table 2 for one crawler configuration."""

    crawler_name: str
    total_sites: int = 0
    total_visits: int = 0
    #: Visits that never produced a screenshot (crawler- or site-side
    #: failure); kept out of every category so crawl health cannot leak
    #: into the paper's site-reaction numbers.
    failed_visits: int = 0
    missing_ads: ScreenshotCategory = field(default_factory=ScreenshotCategory)
    no_ads: ScreenshotCategory = field(default_factory=ScreenshotCategory)
    less_ads: ScreenshotCategory = field(default_factory=ScreenshotCategory)
    blocking_captchas: ScreenshotCategory = field(default_factory=ScreenshotCategory)
    frozen_video: ScreenshotCategory = field(default_factory=ScreenshotCategory)

    @property
    def affected_sites(self) -> int:
        """Sites showing any visible sign of bot detection."""
        return self.missing_ads.sites + self.blocking_captchas.sites + self.frozen_video.sites

    def rows(self) -> List[Tuple[str, int, int]]:
        """Table rows as ``(label, sites, visits)``."""
        return [
            ("total", self.total_sites, self.total_visits),
            ("missing ads", self.missing_ads.sites, self.missing_ads.visits),
            ("- no ads", self.no_ads.sites, self.no_ads.visits),
            ("- less ads", self.less_ads.sites, self.less_ads.visits),
            ("blocking/CAPTCHAs", self.blocking_captchas.sites, self.blocking_captchas.visits),
            ("frozen video element(s)", self.frozen_video.sites, self.frozen_video.visits),
        ]


def evaluate_screenshots(result: CrawlResult) -> ScreenshotEvaluation:
    """The Table 2 screenshot review for one crawl.

    One walk over the records counts the reached sites and visits and
    the failed visits; only the visits that show a reaction (fewer ads
    than expected, a block page or CAPTCHA, a frozen video) are tallied
    per domain, as ``[no ads, less ads, blocked, frozen]`` visit counts.
    Every other visit adds nothing to any category.
    """
    evaluation = ScreenshotEvaluation(crawler_name=result.crawler_name)
    reached_domains = set()
    reached = 0
    reactions: Dict[str, List[int]] = {}
    for record in result.records:
        if not record.reached:
            continue
        reached += 1
        reached_domains.add(record.domain)
        shot = record.screenshot
        blocked = shot.blocked or shot.captcha
        if shot.ads_shown < shot.ads_expected or blocked or shot.video_frozen:
            counts = reactions.setdefault(record.domain, [0, 0, 0, 0])
            counts[0] += shot.missing_all_ads
            counts[1] += shot.missing_some_ads
            counts[2] += blocked
            counts[3] += shot.video_frozen
    evaluation.total_sites = len(reached_domains)
    evaluation.total_visits = reached
    evaluation.failed_visits = len(result.records) - reached
    for no_ads_visits, less_ads_visits, blocked_visits, frozen_visits in (
        reactions.values()
    ):
        if no_ads_visits:
            evaluation.no_ads.sites += 1
            evaluation.no_ads.visits += no_ads_visits
        if less_ads_visits:
            evaluation.less_ads.sites += 1
            evaluation.less_ads.visits += less_ads_visits
        if no_ads_visits or less_ads_visits:
            evaluation.missing_ads.sites += 1
            evaluation.missing_ads.visits += no_ads_visits + less_ads_visits
        if blocked_visits:
            evaluation.blocking_captchas.sites += 1
            evaluation.blocking_captchas.visits += blocked_visits
        if frozen_visits:
            evaluation.frozen_video.sites += 1
            evaluation.frozen_video.visits += frozen_visits
    return evaluation


@dataclass
class CrawlHealthReport:
    """Crawl-reliability accounting, separate from the paper's tables.

    Krumnow et al. showed crawler-side failure silently biases web
    measurements; this report makes the failure budget explicit so a
    reader can tell "the site reacted" apart from "the crawler broke".
    """

    crawler_name: str
    total_visits: int = 0
    reached_visits: int = 0
    failed_visits: int = 0
    recovered_visits: int = 0
    attempts_total: int = 0
    failure_counts: Dict[str, int] = field(default_factory=dict)
    #: Supervisor work-done counters (recycled browsers, circuit-breaker
    #: skips, faults observed); zero when the crawl ran unsupervised.
    recycles: int = 0
    breaker_skips: int = 0
    faults_seen: int = 0

    def rows(self) -> List[Tuple[str, int]]:
        """Report rows as ``(label, count)``, taxonomy sorted by size."""
        rows = [
            ("visits", self.total_visits),
            ("reached", self.reached_visits),
            ("failed", self.failed_visits),
            ("recovered by retry", self.recovered_visits),
            ("attempts (incl. retries)", self.attempts_total),
        ]
        if self.recycles or self.breaker_skips or self.faults_seen:
            rows.append(("faults seen", self.faults_seen))
            rows.append(("browser recycles", self.recycles))
            rows.append(("breaker skips", self.breaker_skips))
        for reason in sorted(
            self.failure_counts, key=lambda r: -self.failure_counts[r]
        ):
            rows.append((f"- {reason}", self.failure_counts[reason]))
        return rows


def evaluate_crawl_health(
    result: CrawlResult, stats: Optional["SupervisorStats"] = None
) -> CrawlHealthReport:
    """Summarise reachability, recovery and the failure taxonomy.

    Pass the supervisor's ``stats`` to fold its work-done counters
    (faults seen, browser recycles, breaker skips) into the report; the
    visit-facing numbers always come from the ``CrawlResult`` itself.
    """
    return CrawlHealthReport(
        crawler_name=result.crawler_name,
        total_visits=len(result.records),
        reached_visits=len(result.successful_visits),
        failed_visits=len(result.failed_visits),
        recovered_visits=len(result.recovered_visits),
        attempts_total=result.attempts_total(),
        failure_counts=result.failure_counts(),
        recycles=stats.recycles if stats is not None else 0,
        breaker_skips=stats.breaker_skips if stats is not None else 0,
        faults_seen=stats.faults_seen if stats is not None else 0,
    )


@dataclass
class BreakageReport:
    """Website breakage attributable to the extension (Section 3.2)."""

    deformed_layout_sites: List[str] = field(default_factory=list)
    frozen_video_sites: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.deformed_layout_sites) + len(self.frozen_video_sites)


def evaluate_breakage(
    baseline: CrawlResult, extended: CrawlResult
) -> BreakageReport:
    """Breakage = anomalies the *extension* crawl shows and the baseline
    does not (on sites that showed no bot reaction either way)."""
    report = BreakageReport()
    baseline_by_domain = baseline.by_domain()
    for domain, records in extended.by_domain().items():
        base_records = baseline_by_domain.get(domain, [])
        deformed = any(r.screenshot.layout_deformed for r in records)
        deformed_base = any(r.screenshot.layout_deformed for r in base_records)
        if deformed and not deformed_base:
            report.deformed_layout_sites.append(domain)
        frozen = any(r.screenshot.video_frozen for r in records)
        frozen_base = any(
            r.screenshot.video_frozen or r.detected_as_bot for r in base_records
        )
        if frozen and not frozen_base:
            report.frozen_video_sites.append(domain)
    return report


@dataclass
class HTTPErrorEvaluation:
    """Fig. 4 / Appendix B: status-code histogram + significance tests."""

    #: status -> (baseline count, extension count); all parties combined.
    status_counts: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    first_party_wilcoxon: Optional[WilcoxonResult] = None
    third_party_wilcoxon: Optional[WilcoxonResult] = None
    baseline_first_party_errors: int = 0
    extended_first_party_errors: int = 0

    def rows(self, min_occurrences: int = 100) -> List[Tuple[int, int, int]]:
        """Fig. 4's bars: ``(status, baseline, extension)`` for codes with
        more than ``min_occurrences`` occurrences in either crawl."""
        rows = [
            (status, counts[0], counts[1])
            for status, counts in sorted(self.status_counts.items())
            if max(counts) > min_occurrences
        ]
        return rows


class HTTPTally(NamedTuple):
    """One crawl's reached visits, counted for Fig. 4."""

    #: status -> occurrences, all parties combined.
    status_counts: Dict[int, int]
    #: domain -> first-party error responses (for Wilcoxon).
    first_party_errors: Dict[str, int]
    #: domain -> third-party error responses (for Wilcoxon).
    third_party_errors: Dict[str, int]


def tally_http_responses(result: CrawlResult) -> HTTPTally:
    """Fig. 4's counts of one crawl, in one walk over its records.

    Most responses are 200s, which ``tuple.count`` counts in C; only a
    record with another status is walked response by response, its
    first :meth:`~repro.crawl.visit.VisitRecord.first_party_count`
    responses being first-party.
    """
    status_counts: Dict[int, int] = {}
    first_party: Dict[str, int] = {}
    third_party: Dict[str, int] = {}
    oks = 0
    for record in result.records:
        if not record.reached:
            continue
        statuses = record.statuses
        domain = record.domain
        first_errors = first_party.get(domain, 0)
        third_errors = third_party.get(domain, 0)
        record_oks = statuses.count(200)
        oks += record_oks
        if record_oks != len(statuses):
            first_count = record.first_party_count()
            for index, status in enumerate(statuses):
                if status == 200:
                    continue
                status_counts[status] = status_counts.get(status, 0) + 1
                if status >= 400:
                    if index < first_count:
                        first_errors += 1
                    else:
                        third_errors += 1
        first_party[domain] = first_errors
        third_party[domain] = third_errors
    if oks:
        status_counts[200] = oks
    return HTTPTally(status_counts, first_party, third_party)


def evaluate_http_errors(
    baseline: CrawlResult, extended: CrawlResult
) -> HTTPErrorEvaluation:
    """Compare the two crawls' HTTP responses (Section 3.2 / Appendix B)."""
    evaluation = HTTPErrorEvaluation()
    base = tally_http_responses(baseline)
    ext = tally_http_responses(extended)
    for status in sorted(set(base.status_counts) | set(ext.status_counts)):
        evaluation.status_counts[status] = (
            base.status_counts.get(status, 0),
            ext.status_counts.get(status, 0),
        )

    # Wilcoxon matched pairs over per-site error counts (sites reached by
    # both crawls; the paper pairs the two machines' observations).
    def _paired(
        base_map: Dict[str, int], ext_map: Dict[str, int]
    ) -> Tuple[List[float], List[float]]:
        shared = sorted(set(base_map) & set(ext_map))
        return (
            [float(base_map[d]) for d in shared],
            [float(ext_map[d]) for d in shared],
        )

    base_fp, ext_fp = _paired(base.first_party_errors, ext.first_party_errors)
    evaluation.baseline_first_party_errors = int(sum(base_fp))
    evaluation.extended_first_party_errors = int(sum(ext_fp))
    evaluation.first_party_wilcoxon = _wilcoxon_or_none(base_fp, ext_fp)
    evaluation.third_party_wilcoxon = _wilcoxon_or_none(
        *_paired(base.third_party_errors, ext.third_party_errors)
    )
    return evaluation


def _wilcoxon_or_none(
    baseline: List[float], extended: List[float]
) -> Optional[WilcoxonResult]:
    """The matched-pairs test, or ``None`` when it is undefined (no
    pairs, or every pair tied)."""
    try:
        return wilcoxon_signed_rank(baseline, extended)
    except ValueError:
        return None
