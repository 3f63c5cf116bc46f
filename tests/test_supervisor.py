"""The resilient crawl supervisor: retries, recycling, checkpoint/resume."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crawl import (
    CrawlSupervisor,
    FailureReason,
    OpenWPMCrawler,
    PopulationConfig,
    SiteConfig,
    SupervisorConfig,
    evaluate_crawl_health,
    evaluate_screenshots,
    generate_population,
    hostile_population,
    visit_coverage,
)
from repro.crawl import streams
from repro.crawl.streams import (
    BLOCK_RANKS,
    JITTER_STREAM,
    VISIT_STREAM,
    AttemptStreams,
    reference_rng,
)
from repro.faults import BackoffPolicy, FaultPlan, FaultType
from repro.obs import crawl_metrics
from repro.spoofing import SpoofingExtension


def small_population(n=60, seed=3):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=seed,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=1,
            n_other_signal_ad_detectors=1,
            n_side_effect_blockers=1,
            n_http_only_detectors=3,
        )
    )


def make_supervisor(plan=None, config=None, seed=7, instances=4, extension="spoof"):
    crawler = OpenWPMCrawler(
        "supervised",
        extension=SpoofingExtension() if extension == "spoof" else None,
        instances=instances,
        seed=seed,
    )
    return CrawlSupervisor(crawler, config=config, plan=plan)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        population = small_population()
        plan_args = dict(rate=0.08, seed=99)
        a = make_supervisor(FaultPlan.generate(population, 4, **plan_args)).crawl(
            population
        )
        b = make_supervisor(FaultPlan.generate(population, 4, **plan_args)).crawl(
            population
        )
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_different_seed_differs(self):
        population = small_population()
        a = make_supervisor(seed=7).crawl(population)
        b = make_supervisor(seed=8).crawl(population)
        assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())

    def test_backoff_advances_simulated_clock_deterministically(self):
        population = small_population()
        plan = FaultPlan.generate(population, 2, rate=0.2, seed=5)
        sup_a = make_supervisor(plan, instances=2)
        sup_a.crawl(population)
        sup_b = make_supervisor(FaultPlan.generate(population, 2, rate=0.2, seed=5),
                                instances=2)
        sup_b.crawl(population)
        assert sup_a.stats.retries > 0
        assert sup_a.clock.now() == sup_b.clock.now()
        assert sup_a.stats == sup_b.stats


class TestAttemptStreams:
    """Every attempt draws its visit and jitter streams from the entropy
    words ``[seed, stream, rank, visit_index, attempt]``."""

    @staticmethod
    def _hostile_crawl(seed):
        population = hostile_population(200, seed=5, hostile_fraction=0.2)
        plan = FaultPlan.generate(population, 4, rate=0.3, seed=9)
        supervisor = CrawlSupervisor(
            OpenWPMCrawler("x", instances=4, seed=seed), plan=plan
        )
        return supervisor, supervisor.crawl(population[:30])

    def test_a_seed_past_32_bits_keeps_its_streams(self):
        # NumPy seeds 2**40 as two uint32 words; the pinned records are
        # the ones those streams draw, visit and jitter streams alike
        # (the faults cost 63 retries).
        supervisor, result = self._hostile_crawl(2**40)
        text = "\n".join(record.to_json() for record in result.records)
        assert supervisor.stats.retries == 63
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b8f3390ebfe93cc43c0f69cbc5ad06e5d4dc5153deadf563489cb54ff91831bc"
        )

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            self._hostile_crawl(-1)

    #: Entropy words: uint32 words, the edges either side of 2**32, small
    #: negatives, and a float, which NumPy refuses as a seed.
    WORD = st.one_of(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 2**32 - 1, 2**32, 2**40, 1.0]),
        st.integers(-3, -1),
    )
    #: Ranks at block edges: the first and last rank of a block, rank 0,
    #: the last block below 2**32 and the first one past it.
    EDGE_RANK = st.sampled_from(
        [
            0,
            1,
            BLOCK_RANKS - 1,
            BLOCK_RANKS,
            2 * BLOCK_RANKS - 1,
            2**32 - BLOCK_RANKS,
            2**32 - 1,
            2**32,
            2**32 + BLOCK_RANKS - 1,
        ]
    )

    @staticmethod
    def stream(make_rng):
        """A generator's state and first draws, or the type of the error
        building it raised."""
        try:
            rng = make_rng()
        except (OverflowError, TypeError, ValueError) as error:
            return type(error)
        return rng.bit_generator.state, rng.random(16).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        words=st.tuples(
            WORD,
            st.one_of(st.sampled_from([VISIT_STREAM, JITTER_STREAM]), WORD),
            st.one_of(EDGE_RANK, WORD),
            st.one_of(st.integers(0, 3), WORD),
            st.one_of(st.integers(0, 3), WORD),
        )
    )
    def test_the_helper_seeds_the_lists_stream(self, words):
        seed, stream, rank, visit_index, attempt = words
        supervisor = make_supervisor(seed=seed)
        expected = self.stream(lambda: np.random.default_rng(list(words)))
        assert expected == self.stream(lambda: reference_rng(*words))
        assert expected == self.stream(
            lambda: supervisor._streams.rng(stream, rank, visit_index, attempt)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 2**32 - 1])),
        requests=st.lists(
            st.tuples(
                st.sampled_from([VISIT_STREAM, JITTER_STREAM]),
                st.integers(0, 5 * BLOCK_RANKS),
                st.integers(0, 3),
                st.integers(0, 3),
            ),
            min_size=2,
            max_size=30,
        ),
    )
    def test_requests_across_blocks_in_any_order(self, seed, requests):
        # One supervisor, asked in any rank order and with repeats: each
        # request switches to its rank's block when it is not the
        # current one.  ``integers`` draws through the buffered 32-bit
        # path, ``random`` does not.
        supervisor = make_supervisor(seed=seed)
        for request in requests + requests[::-1]:
            rng = supervisor._streams.rng(*request)
            reference = reference_rng(seed, *request)
            assert rng.bit_generator.state == reference.bit_generator.state
            for draw in (lambda g: g.integers(1, 9, 8), lambda g: g.random(4)):
                assert draw(rng).tolist() == draw(reference).tolist()

    def test_a_block_crossing_2_to_the_32_stops_below_it(self, monkeypatch):
        # 2**32 is not a multiple of 24, so the last block below it would
        # run past it; its ranks from 2**32 up are seeded from two words.
        monkeypatch.setattr(streams, "BLOCK_RANKS", 24)
        supervisor = make_supervisor(seed=2021)
        for rank in (2**32 - 17, 2**32 - 16, 2**32 - 1, 2**32, 2**32 + 7):
            for stream in (VISIT_STREAM, JITTER_STREAM):
                assert self.stream(
                    lambda: supervisor._streams.rng(stream, rank, 3, 1)
                ) == self.stream(lambda: reference_rng(2021, stream, rank, 3, 1))

    @staticmethod
    def attempt_seed():
        supervisor = make_supervisor(seed=2021)
        rng = supervisor._streams.rng(VISIT_STREAM, 5, 2, 1)
        return rng.bit_generator.seed_seq

    def test_the_seed_hands_pcg64_its_words(self):
        words = self.attempt_seed().generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.shape == (4,)
        assert words.flags.c_contiguous and not words.flags.writeable
        assert words.tolist() == np.random.SeedSequence(
            [2021, VISIT_STREAM, 5, 2, 1]
        ).generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize(
        "n_words, dtype",
        [
            (4, np.uint32),
            (8, np.uint32),
            (2, np.uint64),
            (8, np.uint64),
            (4.0, np.uint64),
            (4, np.int64),
            (4, np.dtype(np.uint64)),
            (4, "u8"),
        ],
    )
    def test_the_seed_refuses_any_other_request(self, n_words, dtype):
        with pytest.raises(ValueError):
            self.attempt_seed().generate_state(n_words, dtype)

    @pytest.mark.parametrize("order", ["rank", "reversed", "shuffled"])
    def test_a_crawl_in_any_rank_order_draws_the_reference_streams(
        self, order, monkeypatch
    ):
        population = small_population()
        if order == "reversed":
            population = population[::-1]
        elif order == "shuffled":
            population = random.Random(5).sample(population, len(population))

        def crawl():
            plan = FaultPlan.generate(population, 4, rate=0.08, seed=99)
            supervisor = make_supervisor(plan)
            result = supervisor.crawl(population)
            # The jitter streams show only on the clock and in the trace's
            # backoff delays.
            return (
                supervisor.stats,
                [record.to_json() for record in result.records],
                json.dumps(supervisor.tracer.spans),
            )

        # Blocks of 16 ranks, so the 60 ranks span four of them.
        monkeypatch.setattr(streams, "BLOCK_RANKS", 16)
        computed = []
        block_words = streams._block_words

        def counted(seed, first_rank, *shape):
            computed.append(first_rank)
            return block_words(seed, first_rank, *shape)

        monkeypatch.setattr(streams, "_block_words", counted)
        stats, records, trace = crawl()
        assert stats.retries > 0
        # A block is computed when the crawl reaches a site outside the
        # current one: never ahead of the population, at most once a site.
        firsts = [site.rank - site.rank % 16 for site in population]
        assert computed == [
            first for i, first in enumerate(firsts) if i == 0 or first != firsts[i - 1]
        ]

        monkeypatch.setattr(
            AttemptStreams,
            "rng",
            lambda self, *words: reference_rng(self.seed, *words),
        )
        reference_stats, expected, reference_trace = crawl()
        assert records == expected
        assert stats == reference_stats
        assert trace == reference_trace


class TestCheckpointResume:
    def test_resume_is_byte_identical(self, tmp_path):
        population = small_population()

        def fresh():
            return make_supervisor(FaultPlan.generate(population, 4, rate=0.08, seed=99))

        full = fresh().crawl(population)
        checkpoint = tmp_path / "crawl.json"
        fresh().crawl(population[:25], checkpoint_path=checkpoint)  # "interrupted"
        resumed_sup = fresh()
        resumed = resumed_sup.crawl(population, checkpoint_path=checkpoint)
        assert resumed_sup.stats.resumed == 25 * 4
        assert json.dumps(full.to_dict()) == json.dumps(resumed.to_dict())

    def test_resume_skips_completed_pairs(self, tmp_path):
        population = small_population(n=20)
        checkpoint = tmp_path / "crawl.json"
        first = make_supervisor()
        first.crawl(population, checkpoint_path=checkpoint)
        resumed_sup = make_supervisor()
        resumed_sup.crawl(population, checkpoint_path=checkpoint)
        assert resumed_sup.stats.resumed == 20 * 4
        # Stats are restored from the checkpoint and nothing is re-visited.
        assert resumed_sup.stats.attempts == first.stats.attempts

    def test_checkpoint_file_is_json_with_records(self, tmp_path):
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population, checkpoint_path=checkpoint)
        data = json.loads(checkpoint.read_text())
        assert data["crawler_name"] == "supervised"
        assert len(data["records"]) == 24 * 4
        assert data["clock_ms"] > 0

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor(seed=7).crawl(population, checkpoint_path=checkpoint)
        with pytest.raises(ValueError):
            make_supervisor(seed=8).crawl(population, checkpoint_path=checkpoint)

    def test_interrupt_at_every_site_boundary_is_byte_identical(self, tmp_path):
        """Result AND trace must match the uninterrupted run for every cut."""
        population = small_population(n=12)

        def fresh():
            plan = FaultPlan.generate(population, 2, rate=0.25, seed=5)
            config = SupervisorConfig(checkpoint_every_sites=3)
            return make_supervisor(plan, config=config, instances=2)

        full_trace = tmp_path / "full.jsonl"
        full = fresh().crawl(population, trace_path=full_trace)
        full_json = json.dumps(full.to_dict())
        full_bytes = full_trace.read_bytes()
        for cut in range(1, len(population) + 1):
            checkpoint = tmp_path / f"ck{cut}.json"
            fresh().crawl(population[:cut], checkpoint_path=checkpoint)
            resumed_trace = tmp_path / f"resumed{cut}.jsonl"
            resumed = fresh().crawl(
                population, checkpoint_path=checkpoint, trace_path=resumed_trace
            )
            assert json.dumps(resumed.to_dict()) == full_json, f"cut={cut}"
            assert resumed_trace.read_bytes() == full_bytes, f"cut={cut}"

    def test_resume_advances_the_shared_clock_in_place(self, tmp_path):
        """Regression: _load_checkpoint used to rebind ``self.clock`` to a
        fresh VirtualClock, leaving collaborators that captured the old
        reference (the tracer, notably) on a stale timeline."""
        population = small_population(n=20)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population[:10], checkpoint_path=checkpoint)
        resumed = make_supervisor()
        clock_before = resumed.clock
        tracer_clock_before = resumed.tracer.clock
        resumed.crawl(population, checkpoint_path=checkpoint)
        assert resumed.clock is clock_before
        assert resumed.tracer.clock is resumed.clock
        assert tracer_clock_before is resumed.clock
        # The span timeline actually advanced past the checkpointed time.
        assert resumed.tracer.spans[0]["end_ms"] == resumed.clock.now()

    def test_stale_checkpoint_behind_supervisor_clock_rejected(self, tmp_path):
        population = small_population(n=12)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population, checkpoint_path=checkpoint)
        reused = make_supervisor()
        reused.clock.advance(10_000_000_000.0)  # way past the checkpoint
        with pytest.raises(ValueError):
            reused.crawl(population, checkpoint_path=checkpoint)

    def test_resume_with_shrunk_population_reconciles_stats(self, tmp_path):
        """Regression: restored stats counted checkpointed visits whose
        sites a shrunk population no longer contains, so ``stats`` and
        ``CrawlResult.records`` disagreed."""
        population = small_population(n=12)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population, checkpoint_path=checkpoint)
        shrunk = population[:5] + population[6:]  # one checkpointed site gone
        resumed = make_supervisor()
        result = resumed.crawl(shrunk, checkpoint_path=checkpoint)
        assert len(result.records) == len(shrunk) * 4
        assert resumed.stats.visits == len(result.records)
        assert resumed.stats.reached == len(result.successful_visits)
        assert resumed.stats.failed == len(result.failed_visits)
        assert resumed.stats.resumed == len(shrunk) * 4

    def test_checkpoint_carries_observability_state(self, tmp_path):
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        sup = make_supervisor(FaultPlan.generate(population, 4, rate=0.1, seed=2))
        sup.crawl(population, checkpoint_path=checkpoint)
        data = json.loads(checkpoint.read_text())
        assert data["version"] == 4
        assert list(data)[-2:] == ["records_sha256", "records"]
        assert len(data["trace"]["spans"]) == len(sup.tracer.spans)
        # The metrics are not stored: they fold from what is.
        assert "metrics" not in data
        assert crawl_metrics(data["trace"]["spans"]) == sup.metrics_state()
        assert len(data["browsers"]) == 4

    def test_older_checkpoint_version_is_refused_untouched(self, tmp_path):
        population = small_population(n=12)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population[:3], checkpoint_path=checkpoint)
        text = checkpoint.read_text()
        assert text.startswith('{"version": 4, ')
        checkpoint.write_text(text.replace('"version": 4', '"version": 3', 1))
        before = checkpoint.read_bytes()
        with pytest.raises(ValueError, match="unsupported checkpoint version in"):
            make_supervisor().crawl(population, checkpoint_path=checkpoint)
        assert checkpoint.read_bytes() == before

    def test_edited_records_are_refused_untouched(self, tmp_path):
        population = small_population(n=12)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population[:3], checkpoint_path=checkpoint)
        text = checkpoint.read_text()
        start = text.rindex('"records": [')
        edited = text[start:].replace('"reached":true', '"reached":false', 1)
        assert edited != text[start:]
        checkpoint.write_text(text[:start] + edited)
        json.loads(checkpoint.read_text())  # still valid JSON
        before = checkpoint.read_bytes()
        with pytest.raises(ValueError, match="records_sha256 in"):
            make_supervisor().crawl(population, checkpoint_path=checkpoint)
        assert checkpoint.read_bytes() == before


class TestFailureTaxonomy:
    def test_unreachable_not_retried(self):
        population = [SiteConfig(rank=1, domain="dead.example", unreachable=True)]
        result = make_supervisor(instances=2).crawl(population)
        for record in result.records:
            assert not record.reached
            assert record.failure_reason == FailureReason.UNREACHABLE
            assert record.attempts == 1  # permanent -> no retry

    def test_transient_failures_are_retried_and_recovered(self):
        population = [SiteConfig(rank=1, domain="flaky.example")]
        config = SupervisorConfig(per_visit_failure=0.5, max_attempts=6)
        sup = make_supervisor(config=config, instances=8)
        result = sup.crawl(population)
        recovered = [r for r in result.records if r.recovered]
        assert sup.stats.retries > 0
        assert recovered, "with 50% transient failure some visits must recover"
        for record in recovered:
            assert record.reached
            assert record.attempts > 1
            assert record.failure_reason is None

    def test_exhausted_reason_keeps_last_cause(self):
        population = [SiteConfig(rank=1, domain="down.example")]
        config = SupervisorConfig(per_visit_failure=1.0, max_attempts=3)
        result = make_supervisor(config=config, instances=1).crawl(population)
        (record,) = result.records
        assert not record.reached
        assert record.attempts == 3
        assert record.failure_reason == FailureReason.exhausted(FailureReason.TRANSIENT)

    def test_fault_failure_reasons_carry_taxonomy(self):
        population = small_population(n=30)
        plan = FaultPlan.generate(
            population,
            2,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.DRIVER_CRASH],
            max_attempts_affected=1,
        )
        config = SupervisorConfig(max_attempts=1)  # no retry: every fault is final
        result = make_supervisor(plan, config=config, instances=2).crawl(population)
        crashed = [
            r
            for r in result.records
            if r.failure_reason == FailureReason.exhausted(FaultType.DRIVER_CRASH.value)
        ]
        reachable = sum(1 for s in population if not s.unreachable)
        assert len(crashed) == reachable * 2

    def test_failure_counts_accounting(self):
        population = small_population()
        result = make_supervisor().crawl(population)
        counts = result.failure_counts()
        assert sum(counts.values()) == len(result.failed_visits)
        unreachable_sites = sum(1 for s in population if s.unreachable)
        assert counts[FailureReason.UNREACHABLE] == unreachable_sites * 4


class TestRecoveryMachinery:
    def test_browser_recycled_on_fatal_fault(self):
        population = small_population(n=20)
        plan = FaultPlan.generate(
            population,
            1,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.OOM_RESTART],
            max_attempts_affected=1,
        )
        sup = make_supervisor(plan, instances=1)
        sup.crawl(population)
        reachable = sum(1 for s in population if not s.unreachable)
        assert sup.stats.recycles == reachable  # every OOM kills the browser

    def test_browser_recycled_after_fault_budget(self):
        population = small_population(n=30)
        plan = FaultPlan.generate(
            population,
            1,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.STALE_ELEMENT],
            max_attempts_affected=1,
        )
        config = SupervisorConfig(recycle_after_faults=3)
        sup = make_supervisor(plan, config=config, instances=1)
        sup.crawl(population)
        assert sup.stats.faults_seen >= 3
        assert sup.stats.recycles == sup.stats.faults_seen // 3

    def test_circuit_breaker_short_circuits_dead_domain(self):
        population = [SiteConfig(rank=1, domain="dead.example", unreachable=True)]
        config = SupervisorConfig(breaker_failure_threshold=3)
        sup = make_supervisor(config=config, instances=8)
        result = sup.crawl(population)
        reasons = [r.failure_reason for r in result.records]
        assert reasons[:3] == [FailureReason.UNREACHABLE] * 3
        assert reasons[3:] == [FailureReason.CIRCUIT_OPEN] * 5
        assert sup.stats.breaker_skips == 5

    def test_hang_costs_the_full_step_budget(self):
        population = [SiteConfig(rank=1, domain="hang.example")]
        plan = FaultPlan.generate(
            population,
            1,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.DRIVER_HANG],
            max_attempts_affected=1,
        )
        config = SupervisorConfig(
            visit_budget_ms=60_000.0,
            visit_cost_ms=8_000.0,
            backoff=BackoffPolicy(jitter=0.0),
        )
        sup = make_supervisor(plan, config=config, instances=1)
        sup.crawl(population)
        # budget (hang) + backoff(attempt 0) + clean retry cost.
        expected = 60_000.0 + config.backoff.delay_ms(0) + 8_000.0
        assert sup.clock.now() == pytest.approx(expected)


class TestCoverageAndHealth:
    def test_coverage_under_five_percent_faults(self):
        population = small_population(n=120)
        plan = FaultPlan.generate(population, 8, rate=0.05, seed=99)
        sup = make_supervisor(plan, instances=8)
        result = sup.crawl(population)
        assert len(plan) > 0
        assert visit_coverage(result, population, 8) >= 0.99
        # Every failed record explains itself.
        for record in result.failed_visits:
            assert record.failure_reason is not None

    def test_health_report_totals(self):
        population = small_population()
        plan = FaultPlan.generate(population, 4, rate=0.1, seed=12)
        sup = make_supervisor(plan)
        result = sup.crawl(population)
        health = evaluate_crawl_health(result)
        assert health.total_visits == len(population) * 4
        assert health.reached_visits + health.failed_visits == health.total_visits
        assert health.recovered_visits == sup.stats.recovered
        assert health.attempts_total >= health.total_visits
        assert sum(health.failure_counts.values()) == health.failed_visits
        labels = [label for label, _ in health.rows()]
        assert "recovered by retry" in labels

    def test_screenshot_eval_reports_failed_visits(self):
        population = small_population()
        result = make_supervisor().crawl(population)
        evaluation = evaluate_screenshots(result)
        assert evaluation.failed_visits == len(result.failed_visits)
        assert evaluation.total_visits + evaluation.failed_visits == len(result.records)

    def test_faulty_crawl_statistics_match_fault_free(self):
        """A recovered crawl must not bias the Table 2 categories."""
        population = small_population(n=120)
        clean = make_supervisor(instances=8).crawl(population)
        plan = FaultPlan.generate(population, 8, rate=0.05, seed=99)
        faulty = make_supervisor(plan, instances=8).crawl(population)
        clean_eval = evaluate_screenshots(clean)
        faulty_eval = evaluate_screenshots(faulty)
        assert faulty_eval.blocking_captchas.sites == clean_eval.blocking_captchas.sites
        assert faulty_eval.missing_ads.sites == clean_eval.missing_ads.sites
        assert (
            abs(faulty_eval.total_visits - clean_eval.total_visits)
            <= 0.01 * clean_eval.total_visits
        )
