"""Table 2: the screenshot evaluation of the 1,000-site field study.

Paper's numbers (sites / visits):

    Response                 (1) OpenWPM      (2) +extension
    total                    921 / 7,230      921 / 7,221
    missing ads                7 /    56        3 /    10
    - no ads                   5 /    40        1 /     4
    - less ads                 2 /    16        2 /     6
    blocking/CAPTCHAs          8 /    49        1 /     3
    frozen video element(s)    1 /     8        0 /     0

We reproduce the *shape*: spoofing collapses visible bot reactions to
what no fingerprint explains.  The one sophisticated blocker that checks
spoofing side effects samples 40% of visits; at seed 22 it fires on none
of its 8 (30 of 80 visits over seeds 22-31).  Our screenshot review
additionally counts the breakage-induced frozen video (which the paper
reports separately in its breakage paragraph).  Both columns run on the
one crawl engine, :class:`~repro.crawl.supervisor.CrawlSupervisor` with
its watchdogs off; the session's ``field_study`` fixture crawls them
once, and the benchmark times the evaluation alone.
"""

from conftest import print_table

from repro.crawl import evaluate_breakage, evaluate_screenshots

PAPER_ROWS = {
    "total": ((921, 7230), (921, 7221)),
    "missing ads": ((7, 56), (3, 10)),
    "- no ads": ((5, 40), (1, 4)),
    "- less ads": ((2, 16), (2, 6)),
    "blocking/CAPTCHAs": ((8, 49), (1, 3)),
    "frozen video element(s)": ((1, 8), (0, 0)),
}


def evaluate(baseline, extended):
    return (
        evaluate_screenshots(baseline),
        evaluate_screenshots(extended),
        evaluate_breakage(baseline, extended),
    )


def test_table2_screenshot_evaluation(benchmark, field_study):
    _, baseline, extended = field_study
    base_eval, ext_eval, breakage = benchmark.pedantic(
        evaluate, args=(baseline, extended), rounds=1, iterations=1
    )
    lines = [
        f"{'Response':26s} {'(1)s':>6s} {'(2)s':>6s} {'(1)v':>7s} {'(2)v':>7s}   paper(1)   paper(2)"
    ]
    for (label, s1, v1), (_, s2, v2) in zip(base_eval.rows(), ext_eval.rows()):
        p1, p2 = PAPER_ROWS[label]
        lines.append(
            f"{label:26s} {s1:6d} {s2:6d} {v1:7d} {v2:7d}   "
            f"{p1[0]}/{p1[1]:<7d} {p2[0]}/{p2[1]}"
        )
    lines.append(
        f"breakage: layout={breakage.deformed_layout_sites} "
        f"video={breakage.frozen_video_sites} (paper: 1 deformed layout, "
        f"1 ever-loading video)"
    )
    print_table("Table 2: screenshot evaluation (measured vs paper)", lines)

    # Shape assertions (Section 3.2's findings):
    # visible signs of detection on only ~1-2% of sites for stock OpenWPM...
    assert 10 <= base_eval.affected_sites <= 30
    assert base_eval.affected_sites / base_eval.total_sites < 0.04
    # ... spoofing significantly reduces the effect ...
    assert ext_eval.blocking_captchas.sites <= 1
    assert ext_eval.blocking_captchas.visits < base_eval.blocking_captchas.visits / 3
    assert ext_eval.missing_ads.visits < base_eval.missing_ads.visits / 2
    # ... and breakage exists but is rare (2 sites).
    assert breakage.total == 2
