#!/usr/bin/env python3
"""Reproduce the Section 3.2 field study: Table 2 and Fig. 4.

Crawls the synthetic 1,000-site population twice -- stock OpenWPM and
OpenWPM with the webdriver-spoofing extension -- then prints the
screenshot evaluation, the breakage report, and the HTTP status-code
comparison with the Wilcoxon significance test.

Both crawls always run on the resilient supervisor.  Fault-free, it is
the paper crawl: no fault plan, no watchdogs.  With a non-zero fault
rate, the supervisor attaches its watchdogs and runs against a
deterministic fault plan (page-load timeouts, driver crashes/hangs,
stale elements, network resets, OOM restarts), and a crawl-health
report shows the recovery accounting -- demonstrating that
retried/recycled crawls keep the paper's statistics intact.

With a trace directory, each supervised crawl exports its deterministic
JSONL trace there; inspect one with ``python -m repro.obs report``.
With ``--ledger`` each crawl additionally records the probe ledger and
exports ``<name>.ledger.jsonl`` next to its trace -- feed the pair to
``python -m repro.obs attribute`` to see which JS-object accesses
betrayed the spoof.

Usage: python examples/field_study.py [n_sites] [fault_rate] [trace_dir]
                                      [--ledger]
"""

import sys
from pathlib import Path

from repro.crawl import (
    CrawlSupervisor,
    OpenWPMCrawler,
    PopulationConfig,
    evaluate_breakage,
    evaluate_crawl_health,
    evaluate_http_errors,
    evaluate_screenshots,
    generate_population,
    visit_coverage,
)
from repro.faults import FaultPlan
from repro.obs.probes import ProbeLedger
from repro.spoofing import SpoofingExtension


def main(
    n_sites: int = 1000,
    fault_rate: float = 0.0,
    trace_dir: str | None = None,
    ledger: bool = False,
) -> None:
    if ledger and trace_dir is None:
        raise SystemExit(
            "--ledger needs a trace_dir: the ledger is exported next to "
            "the trace"
        )
    if n_sites == 1000:
        population = generate_population()
    else:
        scale = n_sites / 1000.0
        population = generate_population(
            PopulationConfig(
                n_sites=n_sites,
                n_no_ads_detectors=max(1, round(4 * scale)),
                n_less_ads_detectors=max(1, round(2 * scale)),
                n_block_detectors=max(1, round(5 * scale)),
                n_captcha_detectors=max(1, round(3 * scale)),
                n_freeze_video_detectors=1,
                n_other_signal_ad_detectors=1,
                n_side_effect_blockers=1,
                n_http_only_detectors=max(2, round(25 * scale)),
            )
        )
    base_crawler = OpenWPMCrawler("OpenWPM", extension=None, instances=8, seed=11)
    ext_crawler = OpenWPMCrawler(
        "OpenWPM+extension", extension=SpoofingExtension(), instances=8, seed=22
    )
    if fault_rate > 0 or ledger:
        print(
            f"crawling {len(population)} sites x 8 instances, twice, "
            f"supervised at {fault_rate:.1%} injected faults"
            f"{' with probe ledgers' if ledger else ''} ..."
        )
        supervisors = [
            CrawlSupervisor(
                crawler,
                plan=FaultPlan.generate(
                    population, crawler.instances, rate=fault_rate, seed=crawler.seed
                ),
                probe_ledger=ProbeLedger() if ledger else None,
            )
            for crawler in (base_crawler, ext_crawler)
        ]
        trace_paths = [None, None]
        ledger_paths = [None, None]
        if trace_dir is not None:
            out = Path(trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            trace_paths = [
                out / f"{s.crawler.name.replace('+', '-')}.trace.jsonl"
                for s in supervisors
            ]
            if ledger:
                ledger_paths = [
                    out / f"{s.crawler.name.replace('+', '-')}.ledger.jsonl"
                    for s in supervisors
                ]
        baseline, extended = (
            s.crawl(population, trace_path=path, ledger_path=ledger_path)
            for s, path, ledger_path in zip(
                supervisors, trace_paths, ledger_paths
            )
        )
        if fault_rate > 0:
            print("\ncrawl health (crawler failure kept out of the site statistics)")
            for supervisor, result in zip(supervisors, (baseline, extended)):
                health = evaluate_crawl_health(result, supervisor.stats)
                coverage = visit_coverage(
                    result, population, supervisor.crawler.instances
                )
                print(
                    f"  {health.crawler_name:18s} coverage {coverage:6.1%}  "
                    f"recovered {health.recovered_visits:3d}  "
                    f"recycles {health.recycles:3d}  "
                    f"breaker skips {health.breaker_skips:3d}"
                )
                for label, count in health.rows():
                    if label.startswith("- "):
                        print(f"      {label} {count}")
        if trace_dir is not None:
            for path in trace_paths:
                print(f"  trace -> {path}  (python -m repro.obs report {path})")
            if ledger:
                for path in ledger_paths:
                    print(f"  ledger -> {path}")
                print(
                    f"  attribute spoofing side effects: python -m repro.obs "
                    f"attribute {ledger_paths[1]} {ledger_paths[0]}"
                )
    else:
        print(f"crawling {len(population)} sites x 8 instances, twice ...")
        baseline = base_crawler.crawl(population)
        extended = ext_crawler.crawl(population)

    base_eval = evaluate_screenshots(baseline)
    ext_eval = evaluate_screenshots(extended)
    print("\nTable 2: results from the screenshot evaluation")
    print(f"{'Response':26s} {'(1)sites':>9s} {'(2)sites':>9s} {'(1)visits':>10s} {'(2)visits':>10s}")
    for (label, s1, v1), (_, s2, v2) in zip(base_eval.rows(), ext_eval.rows()):
        print(f"{label:26s} {s1:9d} {s2:9d} {v1:10d} {v2:10d}")

    breakage = evaluate_breakage(baseline, extended)
    print(
        f"\nwebsite breakage under the extension: "
        f"{len(breakage.deformed_layout_sites)} deformed layout, "
        f"{len(breakage.frozen_video_sites)} ever-loading video"
    )

    http = evaluate_http_errors(baseline, extended)
    print("\nFigure 4: HTTP responses by status code (>100 occurrences)")
    print(f"{'status':>7s} {'OpenWPM':>9s} {'+ext':>9s}")
    for status, base, ext in http.rows(min_occurrences=100):
        print(f"{status:7d} {base:9d} {ext:9d}")
    fp = http.first_party_wilcoxon
    print(
        f"\nfirst-party errors {http.baseline_first_party_errors} -> "
        f"{http.extended_first_party_errors}; Wilcoxon matched-pairs "
        f"signed-rank p = {fp.p_value:.4f} "
        f"({'significant' if fp.significant() else 'not significant'} at 95%)"
    )
    tp = http.third_party_wilcoxon
    print(
        f"third-party errors: Wilcoxon p = {tp.p_value:.3f} "
        f"({'significant' if tp.significant() else 'not significant'})"
    )


if __name__ == "__main__":
    argv = [arg for arg in sys.argv[1:] if arg != "--ledger"]
    main(
        int(argv[0]) if len(argv) > 0 else 1000,
        float(argv[1]) if len(argv) > 1 else 0.0,
        argv[2] if len(argv) > 2 else None,
        ledger="--ledger" in sys.argv[1:],
    )
