"""Benchmark history and the perf regression gate.

The benchmark suites already measure the things the ROADMAP cares
about -- the motor-kernel speedup (``BENCH_hlisa.json``), shard scaling
(``BENCH_crawl.json``), the whole-program lint budget
(``BENCH_lint.json``) -- but until now nothing *consumed* those files:
a PR could halve the 11.9x kernel win and no test would notice.  This
module closes the loop:

- :func:`append_history` flattens each ``BENCH_*.json`` into dotted
  metric paths (``hlisa.hlisa_motor.kernel.speedup``) and appends one
  record per metric to the append-only ``BENCH_HISTORY.jsonl``;
- :func:`check_metrics` compares current values against the last
  recorded *baseline* per metric, in the metric's own direction
  (events/s up is good, wall-seconds up is bad), with a relative
  tolerance;
- ``python -m repro.obs bench check --tolerance 0.15`` exposes the
  gate with ``diff(1)`` exit semantics (0 pass, 1 regression, 2 error)
  so CI fails a PR that regresses a guarded metric.

Only metrics with a known direction are gated.  Counts, configuration
echoes (``sites``, ``instances``) and declared targets (leaf names
starting with ``target``) are recorded for the history but never fail
the gate -- changing the benchmark's shape is a review decision, not a
regression.

History records carry no wall-clock timestamps: determinism rules
(``repro.lint`` DET001) ban time reads in this tree, and ordering is
already total -- the file is append-only and each append batch gets the
next sequential ``seq``.  Callers who want real timestamps can put them
in ``label``.  Each appended record is stamped with the ``host`` it was
measured on (:func:`host_context`), so absolute values can be compared
like with like; records written before the stamp load unchanged.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.export import canonical_json

#: The benchmark files the gate knows about, in check order.
DEFAULT_BENCH_FILES: Tuple[str, ...] = (
    "BENCH_crawl.json",
    "BENCH_hlisa.json",
    "BENCH_lint.json",
)

#: The append-only history the gate reads its baselines from.
DEFAULT_HISTORY = "BENCH_HISTORY.jsonl"

#: Default relative tolerance before a guarded metric fails the gate.
DEFAULT_TOLERANCE = 0.15


class BenchError(ValueError):
    """Raised when bench files or history cannot be read or paired."""


def bench_prefix(path: Union[str, Path]) -> str:
    """Metric-path prefix for a bench file: ``BENCH_crawl.json`` ->
    ``crawl``; any other stem is used verbatim."""
    stem = Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def flatten_bench(data: Any, prefix: str) -> Dict[str, float]:
    """Flatten nested bench JSON to ``{dotted.path: number}``.

    Booleans and non-numeric leaves are dropped: the gate compares
    magnitudes, and flags like ``byte_identical`` have their own tests.
    """
    flat: Dict[str, float] = {}
    if isinstance(data, dict):
        for key in sorted(data):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_bench(data[key], child_prefix))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        flat[prefix] = float(data)
    return flat


def load_bench_values(
    paths: Sequence[Union[str, Path]],
) -> Dict[str, float]:
    """Read and flatten bench files into one metric-path -> value map."""
    values: Dict[str, float] = {}
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise BenchError(f"no such bench file: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise BenchError(f"{path}: not valid JSON ({error})") from error
        values.update(flatten_bench(data, bench_prefix(path)))
    return values


def metric_direction(metric: str) -> Optional[str]:
    """``"higher"`` / ``"lower"`` is better, or ``None`` (not gated).

    The rules are deliberately name-based and conservative: throughput
    and speedup metrics must not drop, time/latency metrics must not
    grow, and everything else -- counts, rates that are configuration,
    declared targets -- is informational.
    """
    segments = metric.split(".")
    leaf = segments[-1]
    if leaf.startswith("target"):
        return None
    if "speedup" in leaf or leaf.endswith("_per_s") or "coverage" in leaf:
        return "higher"
    for segment in segments:
        if segment.endswith("_ms") or segment.endswith("_s"):
            return "lower"
        if "_ms_" in segment or "wall_ms" in segment:
            return "lower"
    return None


# -- history ------------------------------------------------------------------


def read_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """All history records, oldest first; missing file reads empty."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise BenchError(
                f"{path}:{lineno}: corrupt history line ({error})"
            ) from error
        records.append(record)
    return records


def host_context() -> Dict[str, Any]:
    """The host a history batch is measured on: core count, machine
    architecture and Python version."""
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def append_history(
    history_path: Union[str, Path],
    bench_paths: Sequence[Union[str, Path]],
    kind: str = "sample",
    label: str = "",
) -> List[Dict[str, Any]]:
    """Append one record per metric of ``bench_paths`` to the history.

    ``kind`` is ``"sample"`` (a measurement) or ``"baseline"`` (the
    reference the gate compares against; the *last* baseline per metric
    wins, so re-baselining is one more append, never a rewrite).  Every
    record carries this host's :func:`host_context`.  Returns the
    records appended.
    """
    if kind not in ("sample", "baseline"):
        raise BenchError(f"unknown history kind: {kind!r}")
    history_path = Path(history_path)
    existing = read_history(history_path)
    seq = 1 + max((int(r.get("seq", 0)) for r in existing), default=0)
    host = host_context()
    records = []
    for path in bench_paths:
        path = Path(path)
        values = load_bench_values([path])
        for metric in sorted(values):
            records.append(
                {
                    "host": host,
                    "kind": kind,
                    "label": label,
                    "metric": metric,
                    "seq": seq,
                    "source": path.name,
                    "value": values[metric],
                }
            )
    with history_path.open("a") as fh:
        for record in records:
            fh.write(canonical_json(record) + "\n")
    return records


def baseline_values(history: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The last recorded baseline per metric path."""
    baselines: Dict[str, float] = {}
    for record in history:
        if record.get("kind") == "baseline":
            baselines[str(record["metric"])] = float(record["value"])
    return baselines


# -- the gate -----------------------------------------------------------------


@dataclass
class MetricCheck:
    """One gated metric's verdict against its baseline."""

    metric: str
    direction: str
    baseline: float
    current: float
    #: Relative change in the *bad* direction (0 when the metric moved
    #: the right way); the gate trips when this exceeds the tolerance.
    regression: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "regression": self.regression,
        }


@dataclass
class BenchCheckResult:
    """The gate's full verdict."""

    tolerance: float
    checked: List[MetricCheck] = field(default_factory=list)
    #: Gated metrics whose regression exceeds the tolerance.
    failures: List[MetricCheck] = field(default_factory=list)
    #: Current metrics with no recorded baseline (never a failure).
    unbaselined: List[str] = field(default_factory=list)
    #: Baselined metrics absent from the current bench files.
    missing: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checked": [c.to_dict() for c in self.checked],
            "failures": [c.to_dict() for c in self.failures],
            "unbaselined": self.unbaselined,
            "missing": self.missing,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [
            "bench check",
            "===========",
            f"tolerance: {self.tolerance:.0%} | gated metrics: "
            f"{len(self.checked)} | regressions: {len(self.failures)}",
        ]
        for check in self.checked:
            verdict = (
                "FAIL" if check.regression > self.tolerance else "ok  "
            )
            arrow = "^" if check.direction == "higher" else "v"
            lines.append(
                f"  [{verdict}] {check.metric:52s} {arrow} "
                f"base {check.baseline:14.4f}  now {check.current:14.4f}  "
                f"worse by {check.regression:7.2%}"
            )
        if self.unbaselined:
            lines.append(
                f"unbaselined (recorded, not gated): "
                f"{len(self.unbaselined)}"
            )
            for metric in self.unbaselined:
                lines.append(f"  + {metric}")
        if self.missing:
            lines.append(f"baselined but missing now: {len(self.missing)}")
            for metric in self.missing:
                lines.append(f"  - {metric}")
        lines.append("verdict: " + ("pass" if self.passed else "REGRESSION"))
        return "\n".join(lines) + "\n"


def check_metrics(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchCheckResult:
    """Gate ``current`` against ``baseline`` with a relative tolerance.

    Only metrics with a known direction participate.  For
    higher-is-better metrics the regression is ``(baseline - current) /
    baseline``; for lower-is-better it is ``(current - baseline) /
    baseline``; values moving the right way clamp to zero.  Zero
    baselines gate only on sign (any move in the bad direction is a
    full 100% regression).
    """
    if tolerance < 0:
        raise BenchError("tolerance must be >= 0")
    result = BenchCheckResult(tolerance=tolerance)
    for metric in sorted(current):
        direction = metric_direction(metric)
        if direction is None:
            continue
        if metric not in baseline:
            result.unbaselined.append(metric)
            continue
        base, now = baseline[metric], current[metric]
        if direction == "higher":
            shortfall = base - now
        else:
            shortfall = now - base
        if shortfall <= 0:
            regression = 0.0
        elif base == 0:
            regression = 1.0
        else:
            regression = shortfall / abs(base)
        check = MetricCheck(metric, direction, base, now, regression)
        result.checked.append(check)
        if regression > tolerance:
            result.failures.append(check)
    result.missing = sorted(
        metric
        for metric in baseline
        if metric_direction(metric) is not None and metric not in current
    )
    return result


def check_bench_files(
    bench_paths: Sequence[Union[str, Path]],
    history_path: Union[str, Path] = DEFAULT_HISTORY,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BenchCheckResult:
    """The full gate: current bench files vs the history's baselines."""
    history_path = Path(history_path)
    if not history_path.exists():
        raise BenchError(
            f"no benchmark history at {history_path}; record a baseline "
            f"first: python -m repro.obs bench record --baseline"
        )
    current = load_bench_values(bench_paths)
    baseline = baseline_values(read_history(history_path))
    return check_metrics(current, baseline, tolerance)
