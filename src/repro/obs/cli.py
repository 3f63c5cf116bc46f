"""``python -m repro.obs`` -- read traces and ledgers, print analyses.

Usage::

    python -m repro.obs report trace.jsonl            # text report
    python -m repro.obs report trace.jsonl --format json --top 10
    python -m repro.obs profile traces/ --speedscope out.json
    python -m repro.obs profile shard-out/        # a repro.shard --out dir
    python -m repro.obs diff a.jsonl b.jsonl          # exit 0 iff identical
    python -m repro.obs diff a.jsonl b.jsonl --profile # + hotspot deltas
    python -m repro.obs bench record --baseline
    python -m repro.obs bench check --tolerance 0.15  # exit 1 on regression
    python -m repro.obs attribute table1.ledger.jsonl
    python -m repro.obs attribute spoofed.ledger.jsonl vanilla.ledger.jsonl

``report`` aggregates the JSONL trace written by
``CrawlSupervisor.crawl(..., trace_path=...)``; it embeds the trace's
profile, so its JSON ``profile`` is ``profile --format json``'s and its
text ends with the profile table.  ``profile`` folds a trace into the
deterministic profiler's accounting -- per-span-name self/total time,
per-visit percentiles, the slowest visit's critical path -- and
optionally exports speedscope / chrome-trace files for human
inspection.  ``report`` and ``profile`` also accept a
directory: a ``repro.shard`` output directory (it holds
``manifest.json``) is read through the merged ``crawl.trace.jsonl`` the
shard merge writes, and any other directory has its ``*.trace.jsonl``
files spliced end to end in sorted-name order.  ``diff`` compares two
export files of the same kind (traces or probe ledgers) record by
record and uses ``diff(1)`` exit semantics: 0 identical, 1 different,
2 on error.
``bench`` maintains the append-only ``BENCH_HISTORY.jsonl`` over the
``BENCH_*.json`` benchmark outputs and gates regressions against the
recorded baseline (``check`` exits 1 past tolerance).
``attribute`` reconstructs the paper's Table 1 -- method x side effect
x culprit accesses -- from probe-ledger data alone; the optional second
file supplies a vanilla baseline when the ledger has no in-file
``method:0:vanilla`` group.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs.attribute import build_attribution
from repro.obs.bench import (
    DEFAULT_BENCH_FILES,
    DEFAULT_HISTORY,
    DEFAULT_TOLERANCE,
    BenchError,
    append_history,
    check_bench_files,
)
from repro.obs.diff import ExportKindError, diff_exports
from repro.obs.export import parse_trace, read_trace
from repro.obs.flame import write_chrome_trace, write_speedscope
from repro.obs.merge import merge_spans
from repro.obs.probes import read_ledger
from repro.obs.profile import (
    build_profile,
    profile_delta,
    profile_to_json,
    render_delta_text,
    render_profile_text,
)
from repro.obs.report import build_report


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the output here instead of stdout",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description=(
            "Deterministic crawl observability: trace reports, export "
            "diffs, probe-ledger attribution."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="aggregate a JSONL trace into a crawl report"
    )
    report.add_argument(
        "trace",
        help="JSONL trace file, a repro.shard output directory, or a "
        "directory of *.trace.jsonl files (spliced before reporting)",
    )
    report.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also rank the N slowest sites and most frequent failure "
        "reasons, and cut the profile table to the N hottest span "
        "names (default: off; the table lists every name)",
    )
    _add_output_arguments(report)

    profile = subparsers.add_parser(
        "profile",
        help="fold a trace into the deterministic profiler's accounting",
    )
    profile.add_argument(
        "trace",
        help="JSONL trace file, a repro.shard output directory, or a "
        "directory of *.trace.jsonl files (spliced before profiling)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hotspot rows in text output (default: 10; 0 = all)",
    )
    profile.add_argument(
        "--speedscope",
        default=None,
        metavar="PATH",
        help="also write a speedscope file (open at speedscope.app)",
    )
    profile.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="also write a chrome-trace file (chrome://tracing, Perfetto)",
    )
    _add_output_arguments(profile)

    bench = subparsers.add_parser(
        "bench",
        help="benchmark history (BENCH_HISTORY.jsonl) and regression gate",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    for name, text in (
        ("record", "append the current BENCH_*.json values to the history"),
        ("check", "gate the current BENCH_*.json values against the "
                  "recorded baseline; exit 1 past tolerance"),
    ):
        sub = bench_sub.add_parser(name, help=text)
        sub.add_argument(
            "bench_files",
            nargs="*",
            default=None,
            metavar="BENCH.json",
            help="bench files to read (default: the committed "
            "BENCH_crawl/hlisa/lint.json that exist)",
        )
        sub.add_argument(
            "--history",
            default=DEFAULT_HISTORY,
            metavar="PATH",
            help=f"history file (default: {DEFAULT_HISTORY})",
        )
        if name == "record":
            sub.add_argument(
                "--baseline",
                action="store_true",
                help="record as the gate's baseline instead of a sample "
                "(the last baseline per metric wins)",
            )
            sub.add_argument(
                "--label",
                default="",
                help="free-form label stored on every appended record",
            )
        else:
            sub.add_argument(
                "--tolerance",
                type=float,
                default=DEFAULT_TOLERANCE,
                metavar="FRAC",
                help="relative regression tolerance "
                f"(default: {DEFAULT_TOLERANCE})",
            )
            _add_output_arguments(sub)

    diff = subparsers.add_parser(
        "diff",
        help="compare two JSONL exports (traces or ledgers); "
        "exit 0 iff identical",
    )
    diff.add_argument("a", help="first export file")
    diff.add_argument("b", help="second export file")
    diff.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="cap per-section detail lines in text output (0 = no cap)",
    )
    diff.add_argument(
        "--profile",
        action="store_true",
        help="also profile both traces and show per-span-name hotspot "
        "deltas (traces only)",
    )
    _add_output_arguments(diff)

    attribute = subparsers.add_parser(
        "attribute",
        help="reconstruct Table 1 (method x side effect x culprit "
        "accesses) from a probe ledger",
    )
    attribute.add_argument("ledger", help="probe-ledger JSONL file")
    attribute.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help="optional vanilla-run ledger used as the baseline when the "
        "main ledger has no method:0:vanilla group",
    )
    _add_output_arguments(attribute)

    return parser


def _emit(rendered: str, out: Optional[str]) -> None:
    if out is not None:
        Path(out).write_text(rendered)
    else:
        sys.stdout.write(rendered)


def _require(path_str: str, what: str) -> Optional[Path]:
    path = Path(path_str)
    if not path.exists():
        print(f"error: no such {what} file: {path}", file=sys.stderr)
        return None
    return path


def _load_spans(trace_path: Path):
    """Spans from a trace file or a directory.

    A ``repro.shard`` output directory (it holds the manifest) is read
    through its merged ``crawl.trace.jsonl``, which exists once every
    shard is done.  Any other directory (e.g. ``examples/field_study.py``
    output) has its ``*.trace.jsonl`` files spliced end to end in
    sorted-name order.
    """
    if not trace_path.is_dir():
        return read_trace(trace_path)
    # Imported here: only directory arguments need the shard layout.
    from repro.shard.manifest import MANIFEST_NAME

    if (trace_path / MANIFEST_NAME).exists():
        merged = trace_path / "crawl.trace.jsonl"
        if not merged.exists():
            raise ValueError(
                f"{trace_path}: sharded run incomplete; re-run "
                "python -m repro.shard with the same --out"
            )
        return read_trace(merged)
    files = sorted(trace_path.glob("*.trace.jsonl"))
    if not files:
        raise ValueError(f"{trace_path}: no *.trace.jsonl files")
    return merge_spans([parse_trace(path.read_text()) for path in files])


def _run_report(args: argparse.Namespace) -> int:
    trace_path = _require(args.trace, "trace")
    if trace_path is None:
        return 1
    try:
        spans = _load_spans(trace_path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = build_report(spans, top=args.top)
    rendered = (
        report.render_json() if args.format == "json" else report.render_text()
    )
    _emit(rendered, args.out)
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    trace_path = _require(args.trace, "trace")
    if trace_path is None:
        return 1
    try:
        spans = _load_spans(trace_path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    profile = build_profile(spans)
    if args.speedscope is not None:
        write_speedscope(args.speedscope, spans)
    if args.chrome is not None:
        write_chrome_trace(args.chrome, spans)
    rendered = (
        profile_to_json(profile)
        if args.format == "json"
        else render_profile_text(profile, top=args.top)
    )
    _emit(rendered, args.out)
    return 0


def _default_bench_files(args: argparse.Namespace) -> List[Path]:
    if args.bench_files:
        return [Path(p) for p in args.bench_files]
    return [Path(name) for name in DEFAULT_BENCH_FILES if Path(name).exists()]


def _run_bench(args: argparse.Namespace) -> int:
    bench_files = _default_bench_files(args)
    if not bench_files:
        print(
            "error: no BENCH_*.json files found (pass them explicitly)",
            file=sys.stderr,
        )
        return 2
    if args.bench_command == "record":
        try:
            records = append_history(
                args.history,
                bench_files,
                kind="baseline" if args.baseline else "sample",
                label=args.label,
            )
        except BenchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        kind = "baseline" if args.baseline else "sample"
        print(
            f"recorded {len(records)} {kind} metric(s) from "
            f"{len(bench_files)} file(s) to {args.history}"
        )
        return 0
    try:
        result = check_bench_files(
            bench_files, history_path=args.history, tolerance=args.tolerance
        )
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rendered = (
        result.render_json()
        if args.format == "json"
        else result.render_text()
    )
    _emit(rendered, args.out)
    return 0 if result.passed else 1


def _run_diff(args: argparse.Namespace) -> int:
    path_a = _require(args.a, "export")
    path_b = _require(args.b, "export")
    if path_a is None or path_b is None:
        return 2
    for path in (path_a, path_b):
        if path.is_dir():
            print(
                f"error: {path} is a directory; diff compares two files, "
                f"e.g. {path / 'crawl.trace.jsonl'}",
                file=sys.stderr,
            )
            return 2
    try:
        result = diff_exports(path_a, path_b)
    except (ExportKindError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.profile and result.kind != "trace":
        print("error: --profile only applies to trace diffs", file=sys.stderr)
        return 2
    rendered = (
        result.render_json() + "\n"
        if args.format == "json"
        else result.render_text(limit=args.limit)
    )
    if args.profile:
        try:
            deltas = profile_delta(
                build_profile(read_trace(path_a)),
                build_profile(read_trace(path_b)),
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.format == "json":
            data = result.to_dict()
            data["profile_delta"] = deltas
            rendered = json.dumps(data, sort_keys=True, indent=2) + "\n"
        else:
            rendered += "\n" + render_delta_text(deltas, top=args.limit)
    _emit(rendered, args.out)
    return 0 if result.identical else 1


def _run_attribute(args: argparse.Namespace) -> int:
    ledger_path = _require(args.ledger, "ledger")
    if ledger_path is None:
        return 1
    paths = [ledger_path]
    if args.baseline is not None:
        baseline_path = _require(args.baseline, "baseline ledger")
        if baseline_path is None:
            return 1
        paths.append(baseline_path)
    ledgers = []
    for path in paths:
        try:
            ledgers.append(read_ledger(path))
        except ValueError as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 1
    report = build_attribution(*ledgers)
    rendered = (
        report.render_json() + "\n"
        if args.format == "json"
        else report.render_text()
    )
    _emit(rendered, args.out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _run_report(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "diff":
        return _run_diff(args)
    return _run_attribute(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
