"""Canonical report generators: one function per paper artefact.

Used by the command-line interface (``python -m repro <artefact>``); the
benchmarks in ``benchmarks/`` regenerate the same artefacts with shape
assertions attached.  ``examples/field_study.py`` prints the same
field-study text as ``python -m repro table2`` for its own crawls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

if TYPE_CHECKING:
    from repro.crawl import CrawlResult


def _table(title: str, lines: List[str]) -> str:
    bar = "=" * max(len(title), 40)
    return "\n".join([bar, title, bar] + lines)


def table1_report() -> str:
    """Table 1: spoofing side effects."""
    from repro.browser.navigator import NavigatorProfile
    from repro.browser.window import Window
    from repro.detection.fingerprint import SideEffect, run_all_probes
    from repro.spoofing import SpoofingMethod, apply_spoofing

    rows = [
        ("Incorrect order of navigator properties", SideEffect.INCORRECT_PROPERTY_ORDER),
        ("Modified navigator._length", SideEffect.MODIFIED_LENGTH),
        ("New Object.keys(navigator)", SideEffect.NEW_OBJECT_KEYS),
        ("Defined navigator.__proto__.webdriver", SideEffect.PROTO_WEBDRIVER_DEFINED),
        ("Unnamed window.navigator functions", SideEffect.UNNAMED_FUNCTIONS),
    ]
    observed = {}
    for method in SpoofingMethod:
        window = Window(profile=NavigatorProfile(webdriver=True))
        apply_spoofing(window, method)
        observed[method.value] = run_all_probes(window).side_effects
    lines = [f"{'Side effect':44s} 1  2  3  4"]
    for label, effect in rows:
        cells = "  ".join("x" if effect in observed[m] else "." for m in (1, 2, 3, 4))
        lines.append(f"{label:44s} {cells}")
    return _table("Table 1: detectable side effects by spoofing method", lines)


def field_study_report(baseline: CrawlResult, extended: CrawlResult) -> str:
    """Table 2 + Fig. 4 of the field study's two crawls (see
    :func:`repro.crawl.field_study.run_field_study`)."""
    from repro.crawl import evaluate_breakage, evaluate_http_errors, evaluate_screenshots

    base_eval = evaluate_screenshots(baseline)
    ext_eval = evaluate_screenshots(extended)
    lines = [f"{'Response':26s} {'(1)s':>6s} {'(2)s':>6s} {'(1)v':>8s} {'(2)v':>8s}"]
    for (label, s1, v1), (_, s2, v2) in zip(base_eval.rows(), ext_eval.rows()):
        lines.append(f"{label:26s} {s1:6d} {s2:6d} {v1:8d} {v2:8d}")
    breakage = evaluate_breakage(baseline, extended)
    lines.append(
        f"breakage: {len(breakage.deformed_layout_sites)} layout, "
        f"{len(breakage.frozen_video_sites)} video"
    )
    http = evaluate_http_errors(baseline, extended)
    lines.append("")
    lines.append(f"{'status':>7s} {'OpenWPM':>9s} {'+ext':>9s}")
    for status, base, ext in http.rows(min_occurrences=100):
        lines.append(f"{status:7d} {base:9d} {ext:9d}")
    fp = http.first_party_wilcoxon
    if fp is not None:
        lines.append(
            f"first-party Wilcoxon p = {fp.p_value:.4f} "
            f"({'significant' if fp.significant() else 'not significant'})"
        )
    return _table("Table 2 / Figure 4: the field study", lines)


def table3_report() -> str:
    """Table 3: the HLISA API, listed from the implementation."""
    import inspect

    from repro.core.hlisa_action_chains import HLISA_ActionChains
    from repro.webdriver.driver import make_browser_driver

    chain = HLISA_ActionChains(make_browser_driver())
    lines = []
    for name in sorted(dir(chain)):
        if name.startswith("_"):
            continue
        method = getattr(chain, name)
        if not callable(method):
            continue
        signature = str(inspect.signature(method))
        doc = (inspect.getdoc(method) or "").splitlines()
        summary = doc[0] if doc else ""
        lines.append(f"{name}{signature:<42s} {summary}")
    return _table("Table 3: the HLISA API", lines)


def table4_report(click_attempts: int = 120) -> str:
    """Table 4: the tool comparison, probed empirically."""
    from repro.tools import build_feature_matrix

    matrix = build_feature_matrix(click_attempts=click_attempts)
    counts = {c: matrix.feature_count(c) for c in matrix.columns}
    lines = matrix.format_table().splitlines()
    lines.append("")
    lines.append("feature counts: " + "  ".join(f"{c}={n}" for c, n in counts.items()))
    return _table("Table 4: tool comparison", lines)


def figure1_report() -> str:
    """Fig. 1: trajectory signatures for the four agents."""
    from repro.analysis.trajectory import per_movement_metrics
    from repro.experiment import PointingTask, STANDARD_AGENTS

    lines = [
        f"{'agent':10s} {'straight':>9s} {'speedCV':>8s} {'edge/mid':>9s} "
        f"{'jitter':>7s} {'px/s':>6s}"
    ]
    for name, factory in STANDARD_AGENTS.items():
        result = PointingTask(repetitions=3).run(factory())
        ms = [
            m
            for m in per_movement_metrics(result.recorder.mouse_path())
            if m.chord_length > 300
        ]
        lines.append(
            f"{name:10s} {np.mean([m.straightness for m in ms]):9.4f} "
            f"{np.mean([m.speed_cv for m in ms]):8.2f} "
            f"{np.mean([m.edge_to_middle_speed_ratio for m in ms]):9.2f} "
            f"{np.mean([m.jitter_rms_px for m in ms]):7.2f} "
            f"{np.mean([m.mean_speed_px_s for m in ms]):6.0f}"
        )
    return _table("Figure 1: trajectory signatures", lines)


def figure2_report(clicks: int = 100) -> str:
    """Fig. 2: click-distribution signatures for the four agents."""
    from repro.analysis import click_metrics
    from repro.experiment import MovingClickTask, STANDARD_AGENTS

    lines = [
        f"{'agent':10s} {'exact-centre':>13s} {'mean offset':>12s} {'corners':>8s}"
    ]
    for name, factory in STANDARD_AGENTS.items():
        result = MovingClickTask(clicks=clicks).run(factory())
        records = result.recorder.clicks()
        m = click_metrics(
            [c.position for c in records], [c.target_box for c in records]
        )
        lines.append(
            f"{name:10s} {m.exact_center_rate:13.1%} "
            f"{m.mean_radial_offset:12.3f} {m.corner_rate:8.1%}"
        )
    return _table("Figure 2: click distributions", lines)


def figure3_report() -> str:
    """Fig. 3: the arms-race tournament matrix."""
    from repro.armsrace import Tournament

    result = Tournament().run()
    lines = result.format_matrix().splitlines()
    lines.append("")
    lines.append(
        "matches the Fig. 3 model"
        if result.matches_model()
        else "DEVIATES: " + "; ".join(result.mismatches())
    )
    return _table("Figure 3: arms-race detection matrix", lines)


REPORTS = {
    "table1": table1_report,
    "table2": field_study_report,
    "table3": table3_report,
    "table4": table4_report,
    "fig1": figure1_report,
    "fig2": figure2_report,
    "fig3": figure3_report,
    "fig4": field_study_report,
}
