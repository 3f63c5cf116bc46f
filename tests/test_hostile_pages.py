"""Hostile-page archetypes: DOM furniture, visit semantics, populations.

The four archetypes (modal/cookie overlays, challenge interstitials,
hidden inputs, stalling pages) are real pages a field crawler meets;
these tests pin their mechanics at every layer -- the live-DOM
furniture, the graceful-degradation semantics of a visit,
the hostile-population generator, and the watchdogs-on/off coverage
split the robustness ablation measures at scale.
"""

import pytest

from repro.browser.navigator import NavigatorProfile
from repro.browser.window import Window
from repro.crawl import (
    CrawlSupervisor,
    FailureReason,
    HostileArchetype,
    OpenWPMCrawler,
    PopulationConfig,
    SiteConfig,
    SupervisorConfig,
    generate_population,
    hostile_population,
    visit_coverage,
)
from repro.dom.hostile import (
    CHALLENGE_ID,
    HIDDEN_INPUT_ID,
    OVERLAY_ACCEPT_ID,
    OVERLAY_ID,
    has_hostile_furniture,
    install_challenge,
    install_hidden_input,
    install_overlay,
)
from repro.geometry import Point
from repro.obs.tracer import NULL_TRACER


def fresh_document():
    return Window(profile=NavigatorProfile(webdriver=True)).document


class TestHostileFurniture:
    def test_overlay_covers_the_page_and_wins_hit_tests(self):
        document = fresh_document()
        overlay = install_overlay(document, kind="cookie-banner")
        assert document.get_element_by_id(OVERLAY_ID) is overlay
        assert document.get_element_by_id(OVERLAY_ACCEPT_ID) is not None
        hit = document.element_at(Point(document.width / 2.0, 100.0))
        assert hit.id in (OVERLAY_ID, OVERLAY_ACCEPT_ID)
        assert has_hostile_furniture(document)

    def test_dismissing_the_overlay_restores_the_page(self):
        document = fresh_document()
        overlay = install_overlay(document)
        overlay.remove()
        assert document.get_element_by_id(OVERLAY_ID) is None
        assert document.get_element_by_id(OVERLAY_ACCEPT_ID) is None
        assert not has_hostile_furniture(document)
        hit = document.element_at(Point(document.width / 2.0, 100.0))
        assert hit.id not in (OVERLAY_ID, OVERLAY_ACCEPT_ID)

    def test_reinstall_replaces_instead_of_accumulating(self):
        document = fresh_document()
        first = install_overlay(document)
        second = install_overlay(document)
        assert first is not second
        assert document.get_element_by_id(OVERLAY_ID) is second
        # The first instance is fully detached: removing the second
        # leaves no hostile furniture behind.
        second.remove()
        assert not has_hostile_furniture(document)

    def test_challenge_interstitial_installs_and_clears(self):
        document = fresh_document()
        interstitial = install_challenge(document)
        assert document.get_element_by_id(CHALLENGE_ID) is interstitial
        interstitial.remove()
        assert document.get_element_by_id(CHALLENGE_ID) is None

    def test_hidden_input_has_no_pointer_presence(self):
        document = fresh_document()
        field = install_hidden_input(document)
        assert not field.visible
        assert field.box is None
        assert document.get_element_by_id(HIDDEN_INPUT_ID) is field
        # Only a scripted direct fill can reach it.
        field.value = "crawler@example.org"
        assert field.value


def hostile_site(archetype, intensity=0.4, rank=0):
    return SiteConfig(
        rank=rank,
        domain=f"hostile-{rank}.example",
        hostile=archetype,
        hostile_intensity=intensity,
    )


def visit(site, seed=1):
    """One visit to ``site`` on a watchdog-less, untraced supervisor."""
    crawler = OpenWPMCrawler("visit", instances=1, seed=seed)
    supervisor = CrawlSupervisor(
        crawler,
        config=SupervisorConfig(per_visit_failure=0.0),
        watchdogs=(),
        tracer=NULL_TRACER,
    )
    (record,) = supervisor.crawl([site]).records
    return record


class TestUnwatchedVisitSemantics:
    """With no watchdog subscribed to resolve it, every archetype
    degrades into its typed permanent failure -- never an exception."""

    @pytest.mark.parametrize(
        "archetype, reason",
        [
            (HostileArchetype.MODAL_OVERLAY, FailureReason.MODAL_OVERLAY),
            (
                HostileArchetype.CHALLENGE_INTERSTITIAL,
                FailureReason.CHALLENGE_INTERSTITIAL,
            ),
            (HostileArchetype.HIDDEN_INPUT, FailureReason.HIDDEN_INPUT),
        ],
    )
    def test_obstruction_degrades_to_typed_failure(self, archetype, reason):
        record = visit(hostile_site(archetype))
        assert not record.reached
        assert record.failure_reason == reason
        assert FailureReason.is_permanent(record.failure_reason)

    def test_stall_manifests_with_its_intensity(self):
        always = visit(hostile_site(HostileArchetype.STALLING, intensity=1.0))
        assert always.failure_reason == FailureReason.STALLED_UNBOUNDED
        never = visit(hostile_site(HostileArchetype.STALLING, intensity=0.0))
        assert never.reached

    def test_plain_site_rng_stream_is_untouched(self):
        # A hostile site draws exactly one extra value (the stall roll)
        # only on the STALLING path; plain sites must consume the same
        # stream they always did, or Table 2 / Fig. 4 shift.
        plain = SiteConfig(rank=0, domain="plain.example")
        a = visit(plain, seed=5)
        b = visit(plain, seed=5)
        assert a.to_dict() == b.to_dict()


class TestHostilePopulation:
    def test_quota_composition_and_fraction(self):
        population = hostile_population(n_sites=200, seed=2021)
        hostile = [site for site in population if site.hostile is not None]
        assert len(hostile) / len(population) >= 0.2
        by_archetype = {}
        for site in hostile:
            by_archetype[site.hostile] = by_archetype.get(site.hostile, 0) + 1
        assert set(by_archetype) == set(HostileArchetype)
        assert len(set(by_archetype.values())) == 1  # split evenly

    def test_hostile_sites_are_reachable_plain_sites(self):
        population = hostile_population(n_sites=200, seed=2021)
        for site in population:
            if site.hostile is not None:
                assert not site.unreachable
                assert site.detector is None

    def test_enabling_hostile_counts_perturbs_nothing_else(self):
        base = generate_population(PopulationConfig(n_sites=120, seed=9))
        spiked = generate_population(
            PopulationConfig(
                n_sites=120,
                seed=9,
                n_modal_overlay_sites=6,
                n_challenge_sites=6,
                n_hidden_input_sites=6,
                n_stalling_sites=6,
            )
        )
        assert len(base) == len(spiked)
        for plain, hostile in zip(base, spiked):
            assert plain.domain == hostile.domain
            assert plain.unreachable == hostile.unreachable
            assert plain.breakage == hostile.breakage
            assert plain.ad_slots == hostile.ad_slots
            assert plain.has_video == hostile.has_video
            assert (plain.detector is None) == (hostile.detector is None)
            assert plain.hostile is None

    def test_quota_beyond_eligible_sites_is_an_error(self):
        with pytest.raises(ValueError):
            generate_population(
                PopulationConfig(n_sites=10, seed=1, n_stalling_sites=50)
            )

    def test_deterministic_for_a_seed(self):
        a = hostile_population(n_sites=80, seed=4)
        b = hostile_population(n_sites=80, seed=4)
        assert [(s.domain, s.hostile, s.hostile_intensity) for s in a] == [
            (s.domain, s.hostile, s.hostile_intensity) for s in b
        ]


class TestCoverageAblation:
    def supervised(self, watchdogs=None):
        crawler = OpenWPMCrawler("hostile", instances=2, seed=13)
        return CrawlSupervisor(
            crawler,
            config=SupervisorConfig(per_visit_failure=0.0),
            watchdogs=watchdogs,
        )

    def test_watchdogs_recover_most_hostile_visits(self):
        population = hostile_population(n_sites=80, seed=6)
        protected = self.supervised()
        covered = visit_coverage(
            protected.crawl(population), population, instances=2
        )
        unprotected = self.supervised(watchdogs=())
        degraded = visit_coverage(
            unprotected.crawl(population), population, instances=2
        )
        assert covered >= 0.95
        assert degraded < covered
        # The unprotected crawler loses (roughly) the hostile fraction.
        assert degraded <= 0.9
