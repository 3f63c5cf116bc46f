"""Assorted edge-case coverage across subsystems."""

from collections import Counter

import pytest

from repro.crawl import (
    CrawlResult,
    CrawlSupervisor,
    OpenWPMCrawler,
    SiteConfig,
    SupervisorConfig,
    evaluate_breakage,
    evaluate_http_errors,
    evaluate_screenshots,
)
from repro.crawl.evaluation import tally_http_responses
from repro.crawl.visit import HTTPResponse, Screenshot, VisitRecord
from repro.obs.tracer import NULL_TRACER
from repro.spoofing import SpoofingExtension


class TestHTTPResponse:
    def test_is_error_boundary(self):
        assert not HTTPResponse("u", 399, True).is_error
        assert HTTPResponse("u", 400, True).is_error
        assert HTTPResponse("u", 503, False).is_error


class TestScreenshot:
    def test_missing_ads_flags(self):
        shot = Screenshot(ads_expected=3, ads_shown=0)
        assert shot.missing_all_ads and not shot.missing_some_ads
        shot = Screenshot(ads_expected=3, ads_shown=1)
        assert shot.missing_some_ads and not shot.missing_all_ads
        shot = Screenshot(ads_expected=0, ads_shown=0)
        assert not shot.missing_all_ads


class TestVisitRecordCounters:
    def test_error_counters(self):
        site = SiteConfig(rank=1, domain="a.example", first_party_error_rate=0.0,
                          third_party_error_rate=0.0)
        crawler = OpenWPMCrawler("x", None, instances=1, seed=0)
        supervisor = CrawlSupervisor(
            crawler,
            config=SupervisorConfig(per_visit_failure=0.0),
            watchdogs=(),
            tracer=NULL_TRACER,
        )
        (record,) = supervisor.crawl([site]).records
        assert record.first_party_errors() == 0
        assert record.third_party_errors() == 0


class TestEmptyCrawlEvaluation:
    def test_empty_crawl_result(self):
        empty = CrawlResult(crawler_name="empty")
        evaluation = evaluate_screenshots(empty)
        assert evaluation.total_sites == 0
        assert evaluation.affected_sites == 0

    def test_http_eval_with_no_shared_sites(self):
        a = CrawlResult(crawler_name="a")
        b = CrawlResult(crawler_name="b")
        evaluation = evaluate_http_errors(a, b)
        assert evaluation.first_party_wilcoxon is None
        assert evaluation.rows() == []

    def test_breakage_on_empty(self):
        report = evaluate_breakage(CrawlResult("a"), CrawlResult("b"))
        assert report.total == 0


class TestCrawlerStatusCounts:
    def test_party_split(self):
        sites = [
            SiteConfig(rank=1, domain="b.example", first_party_error_rate=0.3,
                       third_party_error_rate=0.3),
            SiteConfig(rank=2, domain="c.example"),
        ]
        result = OpenWPMCrawler("x", None, instances=2, seed=3).crawl(sites)
        tally = tally_http_responses(result)
        reached = [r for r in result.records if r.reached]
        assert tally.status_counts == Counter(s for r in reached for s in r.statuses)
        domains = {r.domain for r in reached}
        assert set(tally.first_party_errors) == set(tally.third_party_errors) == domains
        for domain in domains:
            visits = [r for r in reached if r.domain == domain]
            assert tally.first_party_errors[domain] == sum(
                r.first_party_errors() for r in visits
            )
            assert tally.third_party_errors[domain] == sum(
                r.third_party_errors() for r in visits
            )
        errors = sum(n for status, n in tally.status_counts.items() if status >= 400)
        assert errors > 0
        assert errors == sum(tally.first_party_errors.values()) + sum(
            tally.third_party_errors.values()
        )

    def test_unreached_visits_and_non_error_statuses(self):
        page = (200, 301, 404) + (200,) * 4  # the page, 6 first-party assets
        records = [
            VisitRecord("a.example", 1, 0, True, statuses=page + (200, 500, 204)),
            VisitRecord("a.example", 1, 1, False, failure_reason="transient"),
            VisitRecord("b.example", 2, 0, True, statuses=(200,) * 7),
            VisitRecord("c.example", 3, 0, False, failure_reason="unreachable"),
        ]
        tally = tally_http_responses(CrawlResult("x", records))
        assert tally.status_counts == {200: 13, 204: 1, 301: 1, 404: 1, 500: 1}
        assert tally.first_party_errors == {"a.example": 1, "b.example": 0}
        assert tally.third_party_errors == {"a.example": 1, "b.example": 0}


class TestReportsSmoke:
    def test_table4_report_small(self):
        from repro.reports import table4_report

        report = table4_report(click_attempts=30)
        assert "HLISA" in report
        assert "feature counts" in report


class TestTaxonomyDragFamily:
    def test_drag_events_in_document_list(self):
        from repro.events.taxonomy import DOCUMENT_EVENTS

        for name in ("dragstart", "drag", "dragend", "dragenter", "dragleave",
                     "dragover", "drop"):
            assert name in DOCUMENT_EVENTS


class TestNavigatorExtras:
    def test_languages_tuple(self):
        from repro.browser.navigator import NavigatorProfile, make_navigator

        nav = make_navigator(NavigatorProfile(languages=("de-DE", "de", "en")))
        assert nav.get("languages") == ("de-DE", "de", "en")

    def test_property_is_enumerable_method(self):
        from repro.browser.navigator import make_navigator

        nav = make_navigator()
        fn = nav.get("propertyIsEnumerable")
        assert fn.call(nav.proto, "webdriver") is True

    def test_has_own_property_method(self):
        from repro.browser.navigator import make_navigator

        nav = make_navigator()
        fn = nav.get("hasOwnProperty")
        assert fn.call(nav, "webdriver") is False  # lives on the prototype
        assert fn.call(nav.proto, "webdriver") is True


class TestSpoofedCrawlDeterminism:
    def test_same_seed_same_outcome(self):
        site = SiteConfig(rank=1, domain="d.example")

        def crawl():
            crawler = OpenWPMCrawler("x", SpoofingExtension(), instances=2, seed=5)
            supervisor = CrawlSupervisor(crawler, watchdogs=(), tracer=NULL_TRACER)
            return supervisor.crawl([site]).records

        first, second = crawl(), crawl()
        assert len(first) == len(second) == 2
        for a, b in zip(first, second):
            assert [r.status for r in a.responses] == [r.status for r in b.responses]
