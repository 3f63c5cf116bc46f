"""Command-line entry point: regenerate any paper artefact.

Usage::

    python -m repro table1            # Table 1: spoofing side effects
    python -m repro table2 --sites 300
    python -m repro fig3              # the arms-race tournament
    python -m repro all               # everything (full scale; slow-ish)
"""

from __future__ import annotations

import argparse
import sys

from repro.reports import REPORTS, field_study_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables and figures of the HLISA paper.",
    )
    parser.add_argument(
        "artefact",
        choices=sorted(set(REPORTS)) + ["all"],
        help="which artefact to regenerate",
    )
    parser.add_argument(
        "--sites",
        type=int,
        default=1000,
        help="population size for the field study (table2/fig4); its "
        "detector roles scale with it (repro.crawl.field_study_population)",
    )
    args = parser.parse_args(argv)

    if args.artefact == "all":
        names = ["table1", "table3", "table4", "fig1", "fig2", "fig3", "table2"]
    else:
        names = [args.artefact]
    if any(REPORTS[name] is field_study_report for name in names):
        from repro.crawl import field_study_population, run_field_study

        try:
            population = field_study_population(args.sites)
        except ValueError as error:
            parser.error(str(error))
    for name in names:
        report = REPORTS[name]
        if report is field_study_report:
            print(report(*run_field_study(population)))
        else:
            print(report())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
