"""Fig. 4 / Appendix B: HTTP (error) responses by status code.

Paper findings reproduced as shape:

- overall, the detectable crawler does "not retrieve a far larger number
  of error responses";
- the significant variation concentrates on 403 (forbidden) and 503
  (service unavailable) -- the bot-blocking codes;
- the Wilcoxon matched-pairs signed-rank test finds the first-party
  error decrease significant (paper: p = 0.004), third-party not.

The session's ``field_study`` fixture crawls the draw once; the
benchmark times the evaluation alone.
"""

from conftest import print_table

from repro.crawl import evaluate_http_errors


def test_figure4_http_errors(benchmark, field_study):
    _, baseline, extended = field_study
    evaluation = benchmark.pedantic(
        evaluate_http_errors, args=(baseline, extended), rounds=1, iterations=1
    )
    lines = [f"{'status':>6s} {'OpenWPM':>10s} {'+extension':>11s} {'delta':>7s}"]
    for status, base, ext in evaluation.rows(min_occurrences=100):
        lines.append(f"{status:6d} {base:10d} {ext:11d} {base - ext:7d}")
    fp = evaluation.first_party_wilcoxon
    tp = evaluation.third_party_wilcoxon
    lines.append("")
    lines.append(
        f"first-party errors: {evaluation.baseline_first_party_errors} -> "
        f"{evaluation.extended_first_party_errors}; Wilcoxon p = {fp.p_value:.4f} "
        f"(paper: p = 0.004)"
    )
    lines.append(f"third-party Wilcoxon p = {tp.p_value:.3f} (paper: not significant)")
    print_table("Figure 4: HTTP responses by status code", lines)

    # Shape assertions.
    error_rows = {
        status: (base, ext)
        for status, base, ext in evaluation.rows(min_occurrences=100)
        if status >= 400
    }
    assert 403 in error_rows and 503 in error_rows
    deltas = {s: b - e for s, (b, e) in error_rows.items()}
    ranked = sorted(deltas, key=lambda s: deltas[s], reverse=True)
    assert set(ranked[:2]) == {403, 503}, ranked
    assert fp.significant(0.05)
    assert not tp.significant(0.05)
    # "OpenWPM does not retrieve a far larger number of error responses":
    base_total = sum(b for b, _ in error_rows.values())
    ext_total = sum(e for _, e in error_rows.values())
    assert base_total < 1.5 * ext_total
