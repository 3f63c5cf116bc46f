"""The field-study simulation: population, visits, Table 2 / Fig. 4."""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crawl import (
    CrawlSupervisor,
    DetectionSignal,
    DetectorDeployment,
    OpenWPMCrawler,
    PopulationConfig,
    Reaction,
    SiteConfig,
    evaluate_breakage,
    evaluate_http_errors,
    evaluate_screenshots,
    field_study_population,
    generate_population,
    paper_crawlers,
)
from repro.crawl.visit import (
    _FIRST_PARTY_ERRORS,
    _THIRD_PARTY_ERRORS,
    FailureReason,
    Screenshot,
    VisitRecord,
    _draw_statuses,
)
from repro.faults import FaultType
from repro.obs.export import canonical_json
from repro.obs.tracer import NULL_TRACER
from repro.shard import run_sharded_crawl
from repro.shard.worker import WATCHDOGS_NONE
from repro.spoofing import SpoofingExtension, SpoofingMethod


def small_population(n=120, seed=3):
    config = PopulationConfig(
        n_sites=n,
        seed=seed,
        n_no_ads_detectors=2,
        n_less_ads_detectors=1,
        n_block_detectors=2,
        n_captcha_detectors=1,
        n_freeze_video_detectors=1,
        n_other_signal_ad_detectors=1,
        n_side_effect_blockers=1,
        n_http_only_detectors=8,
        n_layout_breakage=1,
        n_video_breakage=1,
    )
    return generate_population(config)


class TestPopulation:
    def test_deterministic_for_seed(self):
        a = generate_population(PopulationConfig(n_sites=50, seed=9,
                                                 n_http_only_detectors=2,
                                                 n_block_detectors=1,
                                                 n_captcha_detectors=1,
                                                 n_no_ads_detectors=1,
                                                 n_less_ads_detectors=1,
                                                 n_freeze_video_detectors=1,
                                                 n_other_signal_ad_detectors=1,
                                                 n_side_effect_blockers=1,
                                                 n_layout_breakage=1,
                                                 n_video_breakage=1))
        b = generate_population(PopulationConfig(n_sites=50, seed=9,
                                                 n_http_only_detectors=2,
                                                 n_block_detectors=1,
                                                 n_captcha_detectors=1,
                                                 n_no_ads_detectors=1,
                                                 n_less_ads_detectors=1,
                                                 n_freeze_video_detectors=1,
                                                 n_other_signal_ad_detectors=1,
                                                 n_side_effect_blockers=1,
                                                 n_layout_breakage=1,
                                                 n_video_breakage=1))
        assert [s.domain for s in a] == [s.domain for s in b]
        assert [s.unreachable for s in a] == [s.unreachable for s in b]

    def test_default_scale_matches_paper(self):
        population = generate_population()
        assert len(population) == 1000
        detectors = [s for s in population if s.detector is not None]
        visible = [
            s
            for s in detectors
            if s.detector.reaction is not Reaction.HTTP_ONLY
        ]
        assert 10 <= len(visible) <= 25  # ~1.7% of reachable sites
        assert sum(1 for s in population if s.breakage) == 2

    def test_special_roles_distinct_sites(self):
        population = small_population()
        special = [s for s in population if s.detector or s.breakage]
        assert len({s.domain for s in special}) == len(special)

    def test_too_few_sites_for_the_special_roles(self):
        with pytest.raises(ValueError, match=r"n_sites=40 .* 44 special roles"):
            generate_population(PopulationConfig(n_sites=40))

    def test_field_study_population_scales_the_roles(self):
        assert field_study_population(1000) == generate_population()
        population = field_study_population(100)
        reactions = [site.detector.reaction for site in population if site.detector]
        # One webdriver-flag blocker, and the one side-effect blocker.
        assert reactions.count(Reaction.BLOCK_PAGE) == 2
        assert reactions.count(Reaction.HTTP_ONLY) == 2
        with pytest.raises(ValueError, match=r"n_sites=10 .* 11 special roles"):
            field_study_population(10)
        assert len(generate_population(PopulationConfig(n_sites=44))) == 44


def crawl_site(site, extension=None, seed=0):
    """One visit to ``site`` on the crawl engine: a one-instance,
    watchdog-less, untraced supervisor crawl."""
    crawler = OpenWPMCrawler("visit", extension=extension, instances=1, seed=seed)
    supervisor = CrawlSupervisor(crawler, watchdogs=(), tracer=NULL_TRACER)
    (record,) = supervisor.crawl([site]).records
    return record


class TestVisit:
    def _site(self, **kwargs):
        return SiteConfig(rank=1, domain="test.example", **kwargs)

    def test_unreachable_site(self):
        record = crawl_site(self._site(unreachable=True))
        assert not record.reached
        assert record.responses == []

    def test_plain_site_returns_200(self):
        record = crawl_site(self._site())
        assert record.reached
        assert record.responses[0].status == 200
        assert not record.detected_as_bot

    def test_webdriver_detector_blocks_bare_crawler(self):
        site = self._site(
            detector=DetectorDeployment(DetectionSignal.WEBDRIVER_FLAG, Reaction.BLOCK_PAGE)
        )
        record = crawl_site(site)
        assert record.detected_as_bot
        assert record.screenshot.blocked
        assert record.responses[0].status == 403

    def test_webdriver_detector_misses_extension(self):
        site = self._site(
            detector=DetectorDeployment(DetectionSignal.WEBDRIVER_FLAG, Reaction.BLOCK_PAGE)
        )
        record = crawl_site(site, SpoofingExtension())
        assert not record.detected_as_bot
        assert not record.screenshot.blocked

    def test_side_effect_detector_catches_extension(self):
        site = self._site(
            detector=DetectorDeployment(DetectionSignal.SIDE_EFFECTS, Reaction.BLOCK_PAGE)
        )
        record = crawl_site(site, SpoofingExtension())
        assert record.detected_as_bot  # unnamed-function side effect

    def test_captcha_reaction(self):
        site = self._site(
            detector=DetectorDeployment(DetectionSignal.WEBDRIVER_FLAG, Reaction.CAPTCHA)
        )
        record = crawl_site(site)
        assert record.screenshot.captcha
        assert record.responses[0].status == 503

    def test_no_ads_reaction(self):
        site = self._site(
            ad_slots=4,
            detector=DetectorDeployment(DetectionSignal.WEBDRIVER_FLAG, Reaction.NO_ADS),
        )
        record = crawl_site(site)
        assert record.screenshot.missing_all_ads

    def test_breakage_only_with_extension(self):
        site = self._site(breakage="layout")
        plain = crawl_site(site)
        spoofed = crawl_site(site, SpoofingExtension())
        assert not plain.screenshot.layout_deformed
        assert spoofed.screenshot.layout_deformed

    def test_http_only_detector_no_visible_change(self):
        site = self._site(
            detector=DetectorDeployment(DetectionSignal.WEBDRIVER_FLAG, Reaction.HTTP_ONLY)
        )
        record = crawl_site(site)
        assert not record.screenshot.blocked
        assert record.first_party_errors() >= 1


#: (table, statuses, weights): each visit error table next to the
#: weighted ``rng.choice`` it must match.
ERROR_DRAWS = [
    (_FIRST_PARTY_ERRORS, [404, 403, 500, 503], [0.6, 0.15, 0.15, 0.1]),
    (
        _THIRD_PARTY_ERRORS,
        [404, 400, 403, 410, 429, 500, 502, 503],
        [0.48, 0.12, 0.1, 0.05, 0.05, 0.1, 0.05, 0.05],
    ),
]


def scalar_statuses(rng, n, error_rate, statuses, p):
    """The reference: one ``rng.random()`` roll per subresource and one
    ``rng.choice`` per error."""
    drawn = []
    for _ in range(n):
        status = 200
        if rng.random() < error_rate:
            status = int(rng.choice(statuses, p=p))
        drawn.append(status)
    return drawn


class TestStatusDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        error_rate=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
        draw=st.sampled_from(ERROR_DRAWS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_block_draws_consume_the_stream_like_the_scalar_loop(
        self, n, error_rate, draw, seed
    ):
        table, statuses, p = draw
        blocked = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        assert _draw_statuses(blocked, n, error_rate, table) == scalar_statuses(
            reference, n, error_rate, statuses, p
        )
        # An over-draw leaves the statuses alone but shifts every later
        # draw; in a visit the next one is the rare ad-noise roll.
        assert blocked.random() == reference.random()


#: Every failure reason a record can carry, ``None`` (reached) included.
FAILURE_REASONS = [
    None,
    FailureReason.UNREACHABLE,
    FailureReason.TRANSIENT,
    FailureReason.CIRCUIT_OPEN,
    FailureReason.STALLED,
    FailureReason.STALLED_UNBOUNDED,
    FailureReason.MODAL_OVERLAY,
    FailureReason.CHALLENGE_INTERSTITIAL,
    FailureReason.HIDDEN_INPUT,
    *(fault.value for fault in FaultType),
    *(FailureReason.exhausted(fault.value) for fault in FaultType),
    FailureReason.exhausted(FailureReason.TRANSIENT),
    FailureReason.exhausted(FailureReason.STALLED),
]
#: Domains whose JSON text differs from the domain: quotes, backslashes,
#: control and non-ASCII characters.
ESCAPED_DOMAINS = [
    'q"uote.example',
    "back\\slash.example",
    "tab\t.example",
    "ünï.example",
]
STATUSES = st.sampled_from([200, 400, 403, 404, 410, 429, 500, 502, 503])


@st.composite
def visit_records(draw):
    """Records over the response layout: unreached, rendered, HTTP-only
    with 1-3 API calls, and block pages and CAPTCHAs without
    subresources."""
    page = draw(
        st.sampled_from(["unreached", "rendered", "http-only", "block", "captcha"])
    )
    api_calls = draw(st.integers(1, 3)) if page == "http-only" else 0
    screenshot = None
    statuses = ()
    if page in ("block", "captcha"):
        statuses = (403 if page == "block" else 503,)
    elif page != "unreached":
        api = st.sampled_from([403, 503])
        statuses = (
            (200,)
            + tuple(draw(st.lists(api, min_size=api_calls, max_size=api_calls)))
            + tuple(draw(st.lists(STATUSES, min_size=6, max_size=6)))
            + tuple(draw(st.lists(STATUSES, min_size=12, max_size=54)))
        )
    if page != "unreached":
        screenshot = Screenshot(
            blocked=page == "block",
            captcha=page == "captcha",
            ads_expected=draw(st.integers(0, 5)),
            ads_shown=draw(st.integers(0, 5)),
            video_frozen=draw(st.booleans()),
            layout_deformed=draw(st.booleans()),
        )
    return VisitRecord(
        domain=draw(
            st.one_of(
                st.builds("site-{:04d}.example".format, st.integers(1, 9999)),
                st.sampled_from(ESCAPED_DOMAINS),
                st.text(max_size=12),
            )
        ),
        rank=draw(st.integers(1, 10_000)),
        visit_index=draw(st.integers(0, 7)),
        reached=page != "unreached",
        statuses=statuses,
        api_calls=api_calls,
        screenshot=screenshot,
        detected_as_bot=draw(st.booleans()),
        failure_reason=draw(st.sampled_from(FAILURE_REASONS)),
        attempts=draw(st.integers(0, 5)),
        recovered=draw(st.booleans()),
    )


class TestRecordText:
    """A record's checkpoint text is joined from its statuses, so it is
    checked against the canonical JSON of its dict."""

    @settings(max_examples=300, deadline=None)
    @given(visit_records())
    def test_text_is_the_canonical_json_of_the_dict(self, record):
        text = record.to_json()
        assert text == canonical_json(record.to_dict())
        restored = VisitRecord.from_dict(json.loads(text))
        assert restored == record
        assert restored.to_json() == text

    @settings(max_examples=200, deadline=None)
    @given(visit_records().filter(lambda record: len(record.statuses) > 1), st.data())
    def test_a_dict_off_the_layout_is_refused(self, record, data):
        entries = record.to_dict()
        responses = entries["responses"]
        index = data.draw(st.integers(0, len(responses) - 1))
        change = data.draw(st.sampled_from(["url", "party", "order"]))
        if change == "url":
            responses[index]["url"] += "x"
        elif change == "party":
            responses[index]["first_party"] = not responses[index]["first_party"]
        else:
            other = data.draw(
                st.integers(0, len(responses) - 1).filter(lambda other: other != index)
            )
            responses[index], responses[other] = responses[other], responses[index]
        with pytest.raises(ValueError, match="response layout"):
            VisitRecord.from_dict(entries)

    def test_views_follow_the_layout(self):
        statuses = (200, 403, 503, *[200] * 6, 404, 200)
        record = VisitRecord("a.example", 1, 0, True, statuses=statuses, api_calls=2)
        assert [(r.url, r.first_party) for r in record.responses[:3]] == [
            ("https://a.example/", True),
            ("https://a.example/api/0", True),
            ("https://a.example/api/1", True),
        ]
        assert record.responses[3].url == "https://a.example/assets/0"
        assert [(r.url, r.first_party) for r in record.responses[-2:]] == [
            ("https://tp-0.example/r", False),
            ("https://tp-1.example/r", False),
        ]
        assert (record.first_party_errors(), record.third_party_errors()) == (2, 1)


class TestRecordMemory:
    def test_a_crawl_retains_under_2_kib_per_record(self):
        # A record holds its statuses as one tuple of shared ints (about
        # 600 B a record on Python 3.11); a response object per status
        # would hold about 6.5 kB.
        population = generate_population(PopulationConfig(n_sites=100))
        crawler = OpenWPMCrawler("OpenWPM", instances=8, seed=11)
        crawler.crawl(population[:5])  # the process's lazy state, built once
        gc.collect()
        tracemalloc.start()
        try:
            result = crawler.crawl(population)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.records) == 800
        assert retained / len(result.records) < 2048


class TestReusedSessions:
    def test_side_effect_blocker_catches_every_reused_session(self):
        # Each browser session injects the extension once, at spawn, and
        # then carries its spoofed window across the whole crawl.  The
        # side effects must survive that reuse: a blocker that always
        # checks catches all 8 visits, while the webdriver flag stays
        # hidden on every site.
        population = generate_population(PopulationConfig(side_effect_fire_probability=1.0))
        result = OpenWPMCrawler(
            "OpenWPM+extension", extension=SpoofingExtension(), instances=8, seed=22
        ).crawl(population)
        by_domain = {}
        for record in result.records:
            by_domain.setdefault(record.domain, []).append(record)
        [(position, blocker)] = [
            (i, site)
            for i, site in enumerate(population)
            if site.detector is not None
            and site.detector.signal is DetectionSignal.SIDE_EFFECTS
        ]
        assert position > 0  # the sessions served earlier sites first
        blocked = by_domain[blocker.domain]
        assert len(blocked) == 8
        assert all(r.reached and r.detected_as_bot for r in blocked)
        assert all(r.screenshot.blocked for r in blocked)
        flagged = [
            site
            for site in population
            if site.detector is not None
            and site.detector.signal is DetectionSignal.WEBDRIVER_FLAG
        ]
        assert flagged
        for site in flagged:
            for record in by_domain[site.domain]:
                assert record.reached and not record.detected_as_bot
                assert not (record.screenshot.blocked or record.screenshot.captcha)


def canonical_records_json(result):
    """A crawl's records in the sharded merge's canonical JSON."""
    return (
        json.dumps(
            [record.to_dict() for record in result.records],
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )


class TestPaperEngineOracle:
    """Table 2 / Fig. 4 come from the oracle-covered engine: the paper
    crawl's records equal a sharded watchdog-less crawl's, and a traced,
    watchdog-on supervised crawl's with no fault plan, byte for byte."""

    @pytest.mark.parametrize("crawler", paper_crawlers(), ids=["stock", "extension"])
    def test_paper_crawl_matches_sharded_merge(self, tmp_path, crawler):
        sites = generate_population()[:70]
        serial = canonical_records_json(crawler.crawl(sites))
        outcome = run_sharded_crawl(
            sites,
            out_dir=tmp_path,
            seed=crawler.seed,
            instances=crawler.instances,
            with_extension=crawler.extension is not None,
            watchdogs=WATCHDOGS_NONE,
            shard_size=30,  # 30 + 30 + 10: does not divide 70
        )
        assert len(outcome.plan) == 3
        assert outcome.artifacts.records.read_bytes() == serial.encode()
        assert serial.count('"domain"') == 560
        # No fault fires, so no watchdog acts: the records stay the same.
        supervisor = CrawlSupervisor(crawler)
        assert supervisor.tracer.enabled and supervisor.watchdogs
        assert canonical_records_json(supervisor.crawl(sites)) == serial


class TestCrawlAndEvaluation:
    @pytest.fixture(scope="class")
    def crawls(self):
        population = small_population()
        baseline = OpenWPMCrawler("base", extension=None, instances=4, seed=5).crawl(population)
        extended = OpenWPMCrawler(
            "ext", extension=SpoofingExtension(), instances=4, seed=6
        ).crawl(population)
        return population, baseline, extended

    def test_visit_counts(self, crawls):
        population, baseline, _ = crawls
        assert len(baseline.records) == len(population) * 4
        reachable = sum(1 for s in population if not s.unreachable)
        assert len(baseline.successful_visits) <= reachable * 4

    def test_screenshot_eval_baseline_sees_detection(self, crawls):
        _, baseline, extended = crawls
        base_eval = evaluate_screenshots(baseline)
        ext_eval = evaluate_screenshots(extended)
        assert base_eval.blocking_captchas.sites >= 3
        assert ext_eval.blocking_captchas.sites <= 1  # side-effect blocker only
        assert base_eval.missing_ads.visits > ext_eval.missing_ads.visits

    def test_screenshot_rows_structure(self, crawls):
        _, baseline, _ = crawls
        rows = evaluate_screenshots(baseline).rows()
        assert rows[0][0] == "total"
        assert len(rows) == 6

    def test_breakage_report(self, crawls):
        _, baseline, extended = crawls
        report = evaluate_breakage(baseline, extended)
        assert len(report.deformed_layout_sites) == 1
        assert len(report.frozen_video_sites) == 1

    def test_http_errors_first_party_significant(self, crawls):
        _, baseline, extended = crawls
        evaluation = evaluate_http_errors(baseline, extended)
        assert evaluation.baseline_first_party_errors > evaluation.extended_first_party_errors
        assert evaluation.first_party_wilcoxon is not None
        assert evaluation.first_party_wilcoxon.significant(0.05)

    def test_http_errors_third_party_not_significant(self, crawls):
        _, baseline, extended = crawls
        evaluation = evaluate_http_errors(baseline, extended)
        assert evaluation.third_party_wilcoxon.p_value > 0.05

    def test_fig4_rows_dominated_by_403_503(self, crawls):
        _, baseline, extended = crawls
        evaluation = evaluate_http_errors(baseline, extended)
        deltas = {
            status: base - ext
            for status, (base, ext) in evaluation.status_counts.items()
            if status >= 400
        }
        assert deltas.get(403, 0) > 0
        biggest = sorted(deltas, key=lambda s: deltas[s], reverse=True)[:2]
        assert set(biggest) <= {403, 503}
