"""``repro.obs``: deterministic observability for the crawl stack.

Spans (a per-visit tree over the virtual clock), a metrics export
folded from the trace and the probe ledger, byte-stable JSONL trace
export, an aggregate crawl report, the probe ledger (detection-surface
tracing in the JS object model), diff/attribution tooling over the exports, a
deterministic profiler (self/total time, exact per-visit percentiles,
critical paths, speedscope/chrome-trace flame exports; the crawl
report embeds its profile rather than folding spans again), and the
benchmark-history regression gate (``BENCH_HISTORY.jsonl`` +
``python -m repro.obs bench check``) -- all seed- and
clock-deterministic, so traces, ledgers and canonical profiles are
byte-identical across identical runs, across interrupt/resume, and
across sharded execution (docs/OBSERVABILITY.md).

The motivating literature: Krumnow et al. show unobserved crawler-side
behaviour silently biases crawl statistics; this package makes every
supervised visit's timeline observable without breaking the
reproduction's determinism contract.
"""

from repro.obs.attribute import (
    AttributionReport,
    build_attribution,
    record_table1_ledger,
)
from repro.obs.bench import (
    BenchCheckResult,
    BenchError,
    MetricCheck,
    append_history,
    baseline_values,
    check_bench_files,
    check_metrics,
    flatten_bench,
    load_bench_values,
    metric_direction,
    read_history,
)
from repro.obs.flame import (
    chrome_trace_document,
    speedscope_document,
    write_chrome_trace,
    write_speedscope,
)
from repro.obs.profile import (
    build_profile,
    hotspots,
    nearest_rank,
    profile_delta,
    profile_to_json,
    render_delta_text,
    render_profile_text,
    write_profile,
)
from repro.obs.diff import ExportDiff, diff_exports
from repro.obs.merge import (
    MergeError,
    merge_spans,
    shard_duration,
)
from repro.obs.export import (
    parse_trace,
    read_trace,
    span_to_json,
    trace_to_jsonl,
    write_trace,
)
from repro.obs.metrics import Histogram, crawl_metrics
from repro.obs.probes import (
    EntryDict,
    ProbeLedger,
    instrument,
    instrument_window,
    ledger_to_jsonl,
    parse_ledger,
    read_ledger,
    write_ledger,
)
from repro.obs.report import CrawlReport, build_report
from repro.obs.span import SpanDict
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "SpanDict",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Histogram",
    "crawl_metrics",
    "span_to_json",
    "trace_to_jsonl",
    "write_trace",
    "parse_trace",
    "read_trace",
    "CrawlReport",
    "build_report",
    "EntryDict",
    "ProbeLedger",
    "instrument",
    "instrument_window",
    "ledger_to_jsonl",
    "parse_ledger",
    "read_ledger",
    "write_ledger",
    "ExportDiff",
    "diff_exports",
    "MergeError",
    "merge_spans",
    "shard_duration",
    "AttributionReport",
    "build_attribution",
    "record_table1_ledger",
    "build_profile",
    "hotspots",
    "nearest_rank",
    "profile_delta",
    "profile_to_json",
    "render_delta_text",
    "render_profile_text",
    "write_profile",
    "chrome_trace_document",
    "speedscope_document",
    "write_chrome_trace",
    "write_speedscope",
    "BenchCheckResult",
    "BenchError",
    "MetricCheck",
    "append_history",
    "baseline_values",
    "check_bench_files",
    "check_metrics",
    "flatten_bench",
    "load_bench_values",
    "metric_direction",
    "read_history",
]
