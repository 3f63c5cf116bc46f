"""Robustness ablation: does a recovered crawl bias the paper's results?

Krumnow et al. showed that unhandled crawler failure (hung loads,
crashed browsers, lost records) systematically biases web measurements.
This bench injects a 5% fault rate across all six fault types into the
full Section 3.2 field study, runs it under the resilient supervisor,
and checks the recovered crawl against the fault-free paper crawl:

- visit coverage stays >= 99% despite the injected faults;
- every failed record carries its failure taxonomy (crawler failure is
  never silently conflated with a site reaction);
- the Table 2 screenshot categories match the fault-free run;
- per-site first-party error counts are statistically indistinguishable
  (Wilcoxon matched pairs) from the fault-free run, and the paper's
  baseline-vs-extension significance conclusion is preserved.

The fault-free reference is the session's ``field_study`` draw, the
paper crawl (watchdogs off, untraced).  It equals a fault-free crawl on
the supervisor the faulty crawls use (watchdogs on, traced): with no
fault plan no fault fires, so no watchdog acts, and the trace writes no
record byte (``tests/test_crawl.py::TestPaperEngineOracle``).  The
benchmark times the two faulty crawls alone.
"""

from conftest import print_table

from repro.crawl import (
    CrawlSupervisor,
    evaluate_crawl_health,
    evaluate_http_errors,
    evaluate_screenshots,
    paper_crawlers,
    visit_coverage,
)
from repro.faults import FaultPlan

FAULT_RATE = 0.05
INSTANCES = 8


def run_faulty_crawls(population):
    faulty = {}
    supervisors = {}
    for crawler in paper_crawlers():
        plan = FaultPlan.generate(
            population, INSTANCES, rate=FAULT_RATE, seed=crawler.seed
        )
        supervisor = CrawlSupervisor(crawler, plan=plan)
        faulty[crawler.name] = supervisor.crawl(population)
        supervisors[crawler.name] = supervisor
    return faulty, supervisors


def test_robustness_crawl_recovery(benchmark, field_study):
    population, *paper_crawls = field_study
    clean = {result.crawler_name: result for result in paper_crawls}
    faulty, supervisors = benchmark.pedantic(
        run_faulty_crawls, args=(population,), rounds=1, iterations=1
    )

    lines = [
        f"{'crawler':20s} {'coverage':>9s} {'recovered':>10s} {'recycles':>9s} "
        f"{'faults':>7s}"
    ]
    for name, supervisor in supervisors.items():
        health = evaluate_crawl_health(faulty[name])
        coverage = visit_coverage(faulty[name], population, INSTANCES)
        lines.append(
            f"{name:20s} {coverage:9.2%} {health.recovered_visits:10d} "
            f"{supervisor.stats.recycles:9d} {supervisor.stats.faults_seen:7d}"
        )
    lines.append("")
    lines.append("Table 2 categories, fault-free vs 5% faults (sites):")
    for name in clean:
        clean_eval = evaluate_screenshots(clean[name])
        faulty_eval = evaluate_screenshots(faulty[name])
        for (label, clean_sites, _), (_, faulty_sites, _) in zip(
            clean_eval.rows()[1:], faulty_eval.rows()[1:]
        ):
            lines.append(f"  {name:20s} {label:26s} {clean_sites:3d} {faulty_sites:3d}")
    print_table(
        f"Robustness ablation: {FAULT_RATE:.0%} injected faults, supervised recovery",
        lines,
    )

    for name, supervisor in supervisors.items():
        result = faulty[name]
        # >= 99% coverage despite faults on ~5% of visits.
        assert visit_coverage(result, population, INSTANCES) >= 0.99
        assert supervisor.stats.faults_seen > 0
        # Correct taxonomy on every record.
        for record in result.records:
            assert record.attempts >= 1 or record.failure_reason is not None
            if not record.reached:
                assert record.failure_reason is not None
            else:
                assert record.failure_reason is None

        # Table 2 site counts survive recovery exactly.
        clean_eval = evaluate_screenshots(clean[name])
        faulty_eval = evaluate_screenshots(faulty[name])
        for (label, clean_sites, _), (_, faulty_sites, _) in zip(
            clean_eval.rows()[1:], faulty_eval.rows()[1:]
        ):
            assert abs(clean_sites - faulty_sites) <= 1, (name, label)

        # First-party error counts indistinguishable from fault-free
        # (``None``: every pair tied, literally identical).
        comparison = evaluate_http_errors(clean[name], result).first_party_wilcoxon
        assert comparison is None or not comparison.significant(0.05), comparison.p_value

    # The paper's conclusion is preserved under faults: the extension's
    # first-party error decrease stays significant, third-party not.
    faulty_http = evaluate_http_errors(
        faulty["OpenWPM"], faulty["OpenWPM+extension"]
    )
    clean_http = evaluate_http_errors(clean["OpenWPM"], clean["OpenWPM+extension"])
    assert clean_http.first_party_wilcoxon.significant(0.05)
    assert faulty_http.first_party_wilcoxon.significant(0.05)
    assert not faulty_http.third_party_wilcoxon.significant(0.05)
