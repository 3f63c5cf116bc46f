"""A single crawler visit to a site.

Every visit runs on a supervisor-managed browser session: a *real*
simulated window (WebDriver-controlled profile, extension -- if any --
injected at spawn).  The visit publishes its commands over the crawl's
event bus (navigate, element lookup, hostile-page confrontation) and
then runs the site's actual fingerprint probes against the session's
window.  The bot verdict is therefore produced by the same code path as
the Table 1 experiments; the population only decides *which* probes a
site runs and how it reacts.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.browser.window import Window
from repro.bus import (
    ChallengeDetected,
    InputObstructed,
    NavigateToUrl,
    OverlayDetected,
    PageStalled,
    QueryElements,
    RunScript,
)
from repro.crawl.population import (
    DetectionSignal,
    HostileArchetype,
    Reaction,
    SiteConfig,
)
from repro.detection.fingerprint import probe_webdriver_flag, run_all_probes
from repro.dom.hostile import (
    install_challenge,
    install_hidden_input,
    install_overlay,
)
from repro.obs.export import canonical_json
from repro.spoofing.extension import SpoofingExtension


class FailureReason:
    """The failure taxonomy recorded on unreached visits.

    Separating *site-side* conditions (``UNREACHABLE`` is permanent,
    ``TRANSIENT`` is per-visit web dynamics) from *crawler-side* faults
    (the :class:`repro.faults.FaultType` values) is what lets the
    supervisor retry only what a retry can fix, and lets the evaluation
    keep crawler failure out of the paper's site-reaction statistics.
    """

    #: The site never responds (DNS/parking/geo-block) -- permanent.
    UNREACHABLE = "unreachable"
    #: A one-off web-dynamics failure -- a retry usually succeeds.
    TRANSIENT = "transient"
    #: All retries were consumed without a successful page load.
    EXHAUSTED_PREFIX = "exhausted:"
    #: The per-domain circuit breaker refused the visit.
    CIRCUIT_OPEN = "circuit-open"
    #: A stall watchdog aborted the attempt at the step budget -- the
    #: page may behave next time, so a retry is worthwhile.
    STALLED = "stalled"
    #: The page stalled with no watchdog to bound it: the visit hung
    #: until an external kill.  Permanent -- retrying an unsupervised
    #: hang just hangs again.
    STALLED_UNBOUNDED = "stalled-unbounded"
    #: A modal/cookie overlay blocked the page and nothing dismissed it.
    MODAL_OVERLAY = "modal-overlay"
    #: A challenge interstitial gated the page and nothing waited it out.
    CHALLENGE_INTERSTITIAL = "challenge-interstitial"
    #: A required input was unreachable and nothing fell back to a
    #: scripted direct fill.
    HIDDEN_INPUT = "hidden-input"

    #: Hostile-page conditions no retry fixes without a watchdog: the
    #: page presents the same obstacle every time.
    _PERMANENT = frozenset(
        {
            UNREACHABLE,
            STALLED_UNBOUNDED,
            MODAL_OVERLAY,
            CHALLENGE_INTERSTITIAL,
            HIDDEN_INPUT,
        }
    )

    @staticmethod
    def exhausted(last_reason: str) -> str:
        """Terminal reason after retries ran out (keeps the last cause)."""
        return FailureReason.EXHAUSTED_PREFIX + last_reason

    @staticmethod
    def is_permanent(reason: Optional[str]) -> bool:
        """Whether retrying this failure cannot help."""
        return reason in FailureReason._PERMANENT


@dataclass
class HTTPResponse:
    """One HTTP response observed during a visit."""

    url: str
    status: int
    first_party: bool

    @property
    def is_error(self) -> bool:
        return self.status >= 400


@dataclass
class Screenshot:
    """The visually observable outcome of a visit (Table 2's categories)."""

    blocked: bool = False
    captcha: bool = False
    ads_expected: int = 0
    ads_shown: int = 0
    video_frozen: bool = False
    layout_deformed: bool = False

    @property
    def missing_all_ads(self) -> bool:
        return self.ads_expected > 0 and self.ads_shown == 0

    @property
    def missing_some_ads(self) -> bool:
        return 0 < self.ads_shown < self.ads_expected


#: First-party assets every rendered page loads, after its API calls.
_ASSETS = 6


def _urls(domain: str, api_calls: int, count: int) -> List[str]:
    """The URLs of a visit's first ``count`` responses, in load order.

    Every response sits at a fixed position: the page, its ``api_calls``
    first-party API calls, 6 first-party assets, then the third parties.
    ``domain`` is spelled as the caller needs it: as is for the
    :class:`HTTPResponse` views, JSON-escaped for the record text.
    """
    page = f"https://{domain}/"
    urls = [page]
    urls += [f"{page}api/{i}" for i in range(api_calls)]
    urls += [f"{page}assets/{i}" for i in range(_ASSETS)]
    urls += [f"https://tp-{i}.example/r" for i in range(count - len(urls))]
    return urls[:count]


def _count_errors(statuses: Sequence[int]) -> int:
    """Statuses that :attr:`HTTPResponse.is_error` calls errors."""
    return sum(1 for status in statuses if status >= 400)


@dataclass
class VisitRecord:
    """Everything recorded about one visit.

    A record keeps what the visit drew: its response statuses, in load
    order, and how many of them are API calls.  Each response's URL and
    party follow from the domain and its position (:func:`_urls`), so
    :attr:`responses`, :meth:`to_dict` and :meth:`to_json` derive them.
    """

    domain: str
    rank: int
    visit_index: int
    reached: bool
    #: The HTTP status of each response, in load order: the page, the
    #: API calls, the assets, then the third parties.  A block page or
    #: CAPTCHA has only the page's; an unreached visit has none.
    statuses: Tuple[int, ...] = ()
    #: First-party ``/api/`` calls after the page (the HTTP-only
    #: reaction's 1-3, else 0).
    api_calls: int = 0
    screenshot: Optional[Screenshot] = None
    #: Whether the site's detector decided "bot" this visit.
    detected_as_bot: bool = False
    #: Why the visit failed (a :class:`FailureReason` value or a
    #: :class:`repro.faults.FaultType` value); ``None`` when reached.
    failure_reason: Optional[str] = None
    #: Visit attempts actually made (1 without a supervisor).
    attempts: int = 1
    #: Whether the visit succeeded only after at least one failed attempt.
    recovered: bool = False

    def first_party_count(self) -> int:
        """How many of :attr:`statuses` are first-party."""
        return min(len(self.statuses), 1 + self.api_calls + _ASSETS)

    @property
    def responses(self) -> List[HTTPResponse]:
        """The responses as :class:`HTTPResponse` objects, built on each
        read."""
        first = self.first_party_count()
        urls = _urls(self.domain, self.api_calls, len(self.statuses))
        return [
            HTTPResponse(url, status, index < first)
            for index, (url, status) in enumerate(zip(urls, self.statuses))
        ]

    def first_party_errors(self) -> int:
        return _count_errors(self.statuses[: self.first_party_count()])

    def third_party_errors(self) -> int:
        return _count_errors(self.statuses[self.first_party_count() :])

    # -- checkpoint serialisation ---------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict (inverse of :meth:`from_dict`)."""
        return {
            "domain": self.domain,
            "rank": self.rank,
            "visit_index": self.visit_index,
            "reached": self.reached,
            "responses": [
                {"url": r.url, "status": r.status, "first_party": r.first_party}
                for r in self.responses
            ],
            "screenshot": self._screenshot_dict(),
            "detected_as_bot": self.detected_as_bot,
            "failure_reason": self.failure_reason,
            "attempts": self.attempts,
            "recovered": self.recovered,
        }

    def _screenshot_dict(self) -> Optional[Dict[str, Any]]:
        if self.screenshot is None:
            return None
        return {
            "blocked": self.screenshot.blocked,
            "captcha": self.screenshot.captcha,
            "ads_expected": self.screenshot.ads_expected,
            "ads_shown": self.screenshot.ads_shown,
            "video_frozen": self.screenshot.video_frozen,
            "layout_deformed": self.screenshot.layout_deformed,
        }

    def to_json(self) -> str:
        """``canonical_json(self.to_dict())``, the record's checkpoint and
        ``crawl.records.json`` text, without building the responses.

        Canonical JSON sorts keys, so ``"responses"`` falls between
        ``"recovered"`` and ``"screenshot"``: the fields on either side
        are encoded as two dicts and the responses joined between them.
        """
        head = canonical_json(
            {
                "attempts": self.attempts,
                "detected_as_bot": self.detected_as_bot,
                "domain": self.domain,
                "failure_reason": self.failure_reason,
                "rank": self.rank,
                "reached": self.reached,
                "recovered": self.recovered,
            }
        )
        tail = canonical_json(
            {"screenshot": self._screenshot_dict(), "visit_index": self.visit_index}
        )
        return f'{head[:-1]},"responses":[{self._responses_json()}],{tail[1:]}'

    def _responses_json(self) -> str:
        """The responses' canonical JSON items, joined by ``,``.

        JSON escapes a string character by character, so a URL's text is
        its layout around the JSON-escaped domain.
        """
        statuses = self.statuses
        first = self.first_party_count()
        domain = canonical_json(self.domain)[1:-1]
        urls = _urls(domain, self.api_calls, len(statuses))
        texts = [
            f'{{"first_party":true,"status":{status},"url":"{url}"}}'
            for status, url in zip(statuses[:first], urls)
        ]
        texts += [
            f'{{"first_party":false,"status":{status},"url":"{url}"}}'
            for status, url in zip(statuses[first:], urls[first:])
        ]
        return ",".join(texts)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VisitRecord":
        """The record :meth:`to_dict` gave ``data``.

        Raises :class:`ValueError` when ``data``'s responses are not the
        layout's -- a URL, party flag, status or entry order whose text
        the record could not give back -- so no checkpoint record is
        re-encoded into a different text.
        """
        responses = data.get("responses", [])
        page = f"https://{data['domain']}/"
        api_calls = 0
        while 1 + api_calls < len(responses) and (
            responses[1 + api_calls].get("url") == f"{page}api/{api_calls}"
        ):
            api_calls += 1
        screenshot = data.get("screenshot")
        record = cls(
            domain=data["domain"],
            rank=data["rank"],
            visit_index=data["visit_index"],
            reached=data["reached"],
            statuses=tuple(r.get("status") for r in responses),
            api_calls=api_calls,
            screenshot=None if screenshot is None else Screenshot(**screenshot),
            detected_as_bot=data.get("detected_as_bot", False),
            failure_reason=data.get("failure_reason"),
            attempts=data.get("attempts", 1),
            recovered=data.get("recovered", False),
        )
        if f"[{record._responses_json()}]" != canonical_json(responses):
            raise ValueError(
                f"visit {record.visit_index} of {record.domain!r}: its "
                "responses break the response layout"
            )
        return record


#: A weighted status draw: the statuses and their cumulative weights.
_StatusTable = Tuple[Tuple[int, ...], List[float]]


def _status_table(statuses: Sequence[int], p: Sequence[float]) -> _StatusTable:
    """The table for drawing one of ``statuses`` with weights ``p``.

    The cdf is normalised exactly as ``Generator.choice`` normalises
    ``p`` (a float64 ``cumsum`` divided by its last entry), so
    ``statuses[bisect_right(cdf, rng.random())]`` picks what
    ``rng.choice(statuses, p=p)`` picks: both take one double from the
    stream and search it on the right.
    """
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return tuple(statuses), cdf.tolist()


_FIRST_PARTY_ERRORS = _status_table([404, 403, 500, 503], [0.6, 0.15, 0.15, 0.1])
_THIRD_PARTY_ERRORS = _status_table(
    [404, 400, 403, 410, 429, 500, 502, 503],
    [0.48, 0.12, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05],
)


def _draw_statuses(
    rng: np.random.Generator, n: int, error_rate: float, errors: _StatusTable
) -> List[int]:
    """The HTTP statuses of ``n`` subresources.

    Each subresource rolls one double: below ``error_rate`` it fails
    with a status drawn from ``errors`` (one more double), otherwise it
    answers 200.  The doubles come in ``rng.random(k)`` blocks, where
    ``k`` is the number of statuses still missing.  Each of those needs
    at least one more double, so a block never draws past what rolling
    one double at a time would: the stream is consumed double for
    double as by ``rng.random()`` per roll and ``rng.choice`` per error.
    """
    statuses, cdf = errors
    drawn: List[int] = []
    failing = False
    while len(drawn) < n:
        for u in rng.random(n - len(drawn)).tolist():
            if failing:
                drawn.append(statuses[bisect_right(cdf, u)])
                failing = False
            elif u < error_rate:
                failing = True
            else:
                drawn.append(200)
    return drawn


def _run_site_detector(
    site: SiteConfig, window: Window, rng: np.random.Generator, reference
) -> bool:
    """The site's bot-detection script.  Returns True when it fires."""
    deployment = site.detector
    if deployment is None:
        return False
    if rng.random() >= deployment.fire_probability:
        return False
    if deployment.signal is DetectionSignal.WEBDRIVER_FLAG:
        return probe_webdriver_flag(window) is True
    if deployment.signal is DetectionSignal.SIDE_EFFECTS:
        result = run_all_probes(window, reference)
        return result.bot_suspected
    # DetectionSignal.OTHER: non-fingerprint signal; already gated by
    # fire_probability above.
    return True


def _confront_hostile(
    site: SiteConfig,
    window: Window,
    rng: np.random.Generator,
    *,
    bus,
    browser: int,
    visit_index: int,
    attempt: int,
) -> Optional[str]:
    """Let the site's hostile archetype obstruct the visit.

    Installs the archetype's furniture into the live document and
    publishes the matching :class:`~repro.bus.events.Resolvable`.  A
    watchdog that resolves it lets the visit proceed (performing or
    replaying the interrupted scripted scroll); an unresolved event
    degrades gracefully into the returned typed failure reason -- never
    an exception.
    """
    hostile = site.hostile

    def finish_actions() -> None:
        # The visit's scripted scroll, issued over the bus.
        bus.publish(RunScript(script="window.scrollTo(0, 0)", browser=browser))

    if hostile is HostileArchetype.STALLING:
        # One dedicated draw decides whether this attempt stalls; plain
        # pages never reach here, so their rng streams are untouched.
        if rng.random() >= site.hostile_intensity:
            finish_actions()
            return None
        event = bus.publish(
            PageStalled(
                domain=site.domain, visit_index=visit_index, attempt=attempt
            )
        )
        if event.resolved:
            return FailureReason.STALLED
        return FailureReason.STALLED_UNBOUNDED

    if hostile is HostileArchetype.MODAL_OVERLAY:
        kind = "cookie-banner" if site.rank % 2 == 0 else "modal"
        overlay = install_overlay(window.document, kind=kind)
        event = bus.publish(
            OverlayDetected(
                domain=site.domain,
                kind=kind,
                dismiss=overlay.remove,
                action_chain=[finish_actions],
            )
        )
        if event.resolved:
            return None
        return FailureReason.MODAL_OVERLAY

    if hostile is HostileArchetype.CHALLENGE_INTERSTITIAL:
        interstitial = install_challenge(window.document)
        event = bus.publish(
            ChallengeDetected(domain=site.domain, wait_out=interstitial.remove)
        )
        if event.resolved:
            finish_actions()
            return None
        return FailureReason.CHALLENGE_INTERSTITIAL

    if hostile is HostileArchetype.HIDDEN_INPUT:
        hidden = install_hidden_input(window.document)

        def fill_direct() -> None:
            hidden.value = "crawler@example.org"

        event = bus.publish(
            InputObstructed(
                domain=site.domain,
                element_id=hidden.id,
                fill_direct=fill_direct,
            )
        )
        if event.resolved and hidden.value:
            finish_actions()
            return None
        return FailureReason.HIDDEN_INPUT

    finish_actions()
    return None


def simulate_visit(
    site: SiteConfig,
    *,
    extension: Optional[SpoofingExtension],
    visit_index: int,
    rng: np.random.Generator,
    driver,
    bus,
    reference=None,
    per_visit_failure: float = 0.002,
    injector=None,
    browser: int = 0,
    attempt: int = 0,
) -> VisitRecord:
    """Simulate one crawler visit to ``site``.

    ``driver`` (a :class:`repro.webdriver.driver.WebDriver`) is the
    supervisor-managed browser instance the visit runs on; its session
    injected the extension at spawn.  ``bus`` (a live
    :class:`repro.bus.EventBus` with a
    :class:`~repro.browser.session.BrowserSession` attached for
    ``browser``) carries the visit's WebDriver command sequence --
    navigate, element lookup, scripted scroll -- as command events, and
    lets watchdog subscribers resolve the site's hostile archetype; an
    unresolved one degrades into its typed failure.  ``injector`` (an
    armed :class:`repro.faults.FaultInjector`) is wired into the driver
    for those commands, so scheduled faults surface as the typed
    exceptions a live crawl would see.
    """
    record = VisitRecord(
        domain=site.domain, rank=site.rank, visit_index=visit_index, reached=True
    )
    if site.unreachable:
        record.reached = False
        record.failure_reason = FailureReason.UNREACHABLE
        return record
    if injector is not None:
        # Process-level faults (OOM) strike before the browser acts.
        injector.on_hook("visit")
    if rng.random() < per_visit_failure:
        record.reached = False
        record.failure_reason = FailureReason.TRANSIENT
        return record

    window = driver.window
    previous_injector = driver.fault_injector
    if injector is not None:
        driver.fault_injector = injector
    try:
        bus.publish(NavigateToUrl(url=f"https://{site.domain}/", browser=browser))
        bus.publish(QueryElements(by="tag name", value="body", browser=browser))
        hostile_failure = _confront_hostile(
            site,
            window,
            rng,
            bus=bus,
            browser=browser,
            visit_index=visit_index,
            attempt=attempt,
        )
        if hostile_failure is not None:
            record.reached = False
            record.failure_reason = hostile_failure
            return record
    finally:
        driver.fault_injector = previous_injector

    ledger = window.probe_ledger
    ledger_start = len(ledger) if ledger is not None else 0
    detected = _run_site_detector(site, window, rng, reference)
    if ledger is not None:
        delta = len(ledger) - ledger_start
        if delta:
            # Tie the visit's ledger slice into the span tree: the event
            # carries the entry-count delta, the ledger itself carries
            # the per-access detail.
            bus.tracer.event("probe.ledger", entries=delta)
    record.detected_as_bot = detected
    reaction = site.detector.reaction if (site.detector and detected) else None

    screenshot = Screenshot(ads_expected=site.ad_slots, ads_shown=site.ad_slots)
    statuses = [200]

    if reaction is Reaction.BLOCK_PAGE:
        screenshot.blocked = True
        statuses[0] = 403
        screenshot.ads_shown = 0
        screenshot.ads_expected = 0  # the block page has no ad slots
    elif reaction is Reaction.CAPTCHA:
        screenshot.captcha = True
        statuses[0] = 503
        screenshot.ads_shown = 0
        screenshot.ads_expected = 0
    elif reaction is Reaction.NO_ADS:
        screenshot.ads_shown = 0
    elif reaction is Reaction.LESS_ADS:
        if site.ad_slots > 1:
            screenshot.ads_shown = int(rng.integers(1, site.ad_slots))
        else:
            screenshot.ads_shown = 0
    elif reaction is Reaction.FREEZE_VIDEO:
        screenshot.video_frozen = True
    elif reaction is Reaction.HTTP_ONLY:
        # Subresource blocking: some first-party API calls and trackers
        # answer 403/503; the page still renders.
        record.api_calls = int(rng.integers(1, 4))
        for _ in range(record.api_calls):
            statuses.append(403 if rng.random() < 0.7 else 503)

    if not (screenshot.blocked or screenshot.captcha):
        # Ordinary first-party subresources, then third parties (ads,
        # trackers, CDNs) with web-dynamics noise.
        statuses += _draw_statuses(
            rng, _ASSETS, site.first_party_error_rate, _FIRST_PARTY_ERRORS
        )
        statuses += _draw_statuses(
            rng, site.n_third_party, site.third_party_error_rate, _THIRD_PARTY_ERRORS
        )

        # Ad-auction noise: occasionally fewer ads regardless of detection.
        if reaction is None and screenshot.ads_expected > 0:
            if rng.random() < site.ad_noise_probability:
                screenshot.ads_shown = int(rng.integers(0, screenshot.ads_expected))

    # Breakage: the proxied navigator trips the site's own scripts.
    if extension is not None and site.breakage is not None:
        if site.breakage == "layout":
            screenshot.layout_deformed = True
        elif site.breakage == "video":
            screenshot.video_frozen = True

    record.statuses = tuple(statuses)
    record.screenshot = screenshot
    return record
