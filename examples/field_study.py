#!/usr/bin/env python3
"""Reproduce the Section 3.2 field study: Table 2 and Fig. 4.

Crawls the synthetic 1,000-site population twice -- stock OpenWPM and
OpenWPM with the webdriver-spoofing extension, the two configurations of
:func:`repro.crawl.paper_crawlers` -- then prints the field-study report
of ``python -m repro table2``: the screenshot evaluation, the breakage
report, and the HTTP status-code comparison with the Wilcoxon
significance test.

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
    evaluate_crawl_health,
    field_study_population,
    paper_crawlers,
    run_field_study,
    visit_coverage,
)
from repro.faults import FaultPlan
from repro.obs.probes import ProbeLedger
from repro.reports import field_study_report


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
    population = field_study_population(n_sites)
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
            for crawler in paper_crawlers()
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
        baseline, extended = run_field_study(population)

    print()
    print(field_study_report(baseline, extended))


if __name__ == "__main__":
    argv = [arg for arg in sys.argv[1:] if arg != "--ledger"]
    main(
        int(argv[0]) if len(argv) > 0 else 1000,
        float(argv[1]) if len(argv) > 1 else 0.0,
        argv[2] if len(argv) > 2 else None,
        ledger="--ledger" in sys.argv[1:],
    )
