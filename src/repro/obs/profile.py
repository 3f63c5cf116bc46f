"""The deterministic profiler: fold a span trace into an accounting.

``build_profile`` answers "where does a crawl spend its virtual-clock
time" from the trace alone: per-span-name **self** time (time inside
the span but outside its children), **total** time, call counts, the
per-visit distribution of each name (exact p50/p95 over the per-visit
totals, nearest-rank -- no averaging, so every reported value is one
that actually occurred), and the **critical path** of the slowest
visit (the greedy heaviest-child chain from the visit span down).

This is the one place span durations are folded: the crawl report
(:mod:`repro.obs.report`) carries this profile rather than its own
aggregate, and ``diff --profile`` subtracts two of them, so every
command that reads a trace agrees on it.

Determinism contract: every number is derived from virtual-clock spans
whose timestamps live on the dyadic grid (see :mod:`repro.obs.merge`),
folded in ``span_id`` order, and serialised with sorted keys and fixed
separators -- so the canonical profile of a same-seed serial run, an
interrupted-then-resumed run, and a ``repro.shard --jobs N`` run's
merged ``crawl.trace.jsonl`` are byte-identical (asserted in
``tests/test_profile.py``).

Wall-clock attribution needs no separate mode: a :class:`~repro.obs.
Tracer` built on a wall-clock clock (``benchmarks/e2e/layers.py``'s
``PerfClock``) records a trace that folds here like any other.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.export import canonical_json
from repro.obs.span import SpanDict, duration_ms

#: The span the supervisor opens per visit; per-visit percentiles and
#: the critical path are taken over these subtrees.
SPAN_VISIT = "visit"

#: Bumped when the canonical profile layout changes.
PROFILE_SCHEMA = "repro.obs.profile/1"


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule over sorted values.

    Always returns an element of ``sorted_values`` (never an average),
    so quantiles of dyadic-grid durations stay exactly representable
    and byte-stable.  Empty input reports 0.0.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if not sorted_values:
        return 0.0
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def _children_map(spans: Sequence[SpanDict]) -> Dict[int, List[SpanDict]]:
    children: Dict[int, List[SpanDict]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    return children


def build_profile(spans: Sequence[SpanDict]) -> Dict[str, Any]:
    """Fold a trace into the profile dict (see the module docstring)."""
    children = _children_map(spans)
    names: Dict[str, Dict[str, Any]] = {}
    total_ms = 0.0
    for span in spans:
        duration = duration_ms(span)
        if span["parent_id"] == 0:
            total_ms += duration
        child_ms = 0.0
        for child in children.get(span["span_id"], ()):
            child_ms += duration_ms(child)
        entry = names.get(span["name"])
        if entry is None:
            entry = names[span["name"]] = {
                "count": 0,
                "total_ms": 0.0,
                "self_ms": 0.0,
                "max_ms": 0.0,
            }
        entry["count"] += 1
        entry["total_ms"] += duration
        entry["self_ms"] += duration - child_ms
        if duration > entry["max_ms"]:
            entry["max_ms"] = duration

    visits = [span for span in spans if span["name"] == SPAN_VISIT]
    per_visit: Dict[str, List[float]] = {}
    for visit in visits:
        totals: Dict[str, float] = {}
        stack = [visit]
        while stack:
            node = stack.pop()
            totals[node["name"]] = totals.get(node["name"], 0.0) + duration_ms(node)
            stack.extend(children.get(node["span_id"], ()))
        for name, value in totals.items():
            per_visit.setdefault(name, []).append(value)
    for name, entry in names.items():
        values = sorted(per_visit.get(name, ()))
        entry["per_visit"] = {
            "visits": len(values),
            "p50_ms": nearest_rank(values, 0.50),
            "p95_ms": nearest_rank(values, 0.95),
        }

    return {
        "schema": PROFILE_SCHEMA,
        "total_ms": total_ms,
        "span_count": len(spans),
        "visits": len(visits),
        "names": names,
        "critical_path": _critical_path(visits, children),
    }


def _critical_path(
    visits: Sequence[SpanDict], children: Dict[int, List[SpanDict]]
) -> Optional[Dict[str, Any]]:
    """The greedy heaviest-child chain through the slowest visit.

    Ties break towards the smaller ``span_id`` (start order), keeping
    the path deterministic even when two subtrees cost the same.
    """
    slowest: Optional[SpanDict] = None
    for visit in visits:
        if slowest is None or duration_ms(visit) > duration_ms(slowest):
            slowest = visit
    if slowest is None:
        return None
    path = []
    node = slowest
    while True:
        kids = children.get(node["span_id"], [])
        child_ms = 0.0
        for child in kids:
            child_ms += duration_ms(child)
        path.append(
            {
                "name": node["name"],
                "span_id": node["span_id"],
                "total_ms": duration_ms(node),
                "self_ms": duration_ms(node) - child_ms,
            }
        )
        if not kids:
            break
        heaviest = kids[0]
        for child in kids[1:]:
            if duration_ms(child) > duration_ms(heaviest):
                heaviest = child
        node = heaviest
    return {
        "domain": str(slowest["attrs"].get("domain", "(unknown)")),
        "duration_ms": duration_ms(slowest),
        "path": path,
    }


# -- serialisation ------------------------------------------------------------


def profile_to_json(profile: Dict[str, Any]) -> str:
    """The profile as canonical JSON (sorted keys, fixed separators)."""
    return canonical_json(profile) + "\n"


def write_profile(path: Union[str, Path], profile: Dict[str, Any]) -> Path:
    """Write the canonical profile JSON; returns the path written."""
    path = Path(path)
    path.write_text(profile_to_json(profile))
    return path


# -- hotspots and deltas ------------------------------------------------------


def hotspots(profile: Dict[str, Any], top: int = 10) -> List[Dict[str, Any]]:
    """The ``top`` span names by self time, heaviest first.

    Ties break by name so the ranking is deterministic; ``top <= 0``
    returns every name.
    """
    ranked = sorted(
        profile["names"].items(),
        key=lambda item: (-item[1]["self_ms"], item[0]),
    )
    if top > 0:
        ranked = ranked[:top]
    return [
        {
            "name": name,
            "self_ms": entry["self_ms"],
            "total_ms": entry["total_ms"],
            "count": entry["count"],
        }
        for name, entry in ranked
    ]


def profile_delta(
    profile_a: Dict[str, Any], profile_b: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Per-span-name self-time deltas between two profiles.

    Sorted by absolute self-time delta (largest first, name
    tie-break); names missing from one side count as zero there, and
    ``in_a`` tells whether ``a`` has the name at all.  The ``ratio`` is
    ``b / a`` self time (``None`` when ``a`` is zero).
    """
    names = sorted(set(profile_a["names"]) | set(profile_b["names"]))
    deltas = []
    for name in names:
        self_a = profile_a["names"].get(name, {}).get("self_ms", 0.0)
        self_b = profile_b["names"].get(name, {}).get("self_ms", 0.0)
        deltas.append(
            {
                "name": name,
                "in_a": name in profile_a["names"],
                "self_ms_a": self_a,
                "self_ms_b": self_b,
                "delta_ms": self_b - self_a,
                "ratio": (self_b / self_a) if self_a else None,
            }
        )
    deltas.sort(key=lambda d: (-abs(d["delta_ms"]), d["name"]))
    return deltas


# -- rendering ----------------------------------------------------------------


def render_profile_text(profile: Dict[str, Any], top: int = 10) -> str:
    """A human-readable profile: hotspots table + critical path."""
    lines = ["crawl profile", "============="]
    lines.append(f"{'total (virtual clock)':28s} {profile['total_ms']:14.1f} ms")
    lines.append(f"{'spans':28s} {profile['span_count']:14d}")
    lines.append(f"{'visits':28s} {profile['visits']:14d}")
    lines.append("")
    ranked = hotspots(profile, top=top)
    lines.append(f"hotspots by self time (top {len(ranked)})")
    header = (
        f"  {'span name':26s} {'count':>8s} {'self ms':>14s} "
        f"{'total ms':>14s} {'p50/visit':>12s} {'p95/visit':>12s}"
    )
    lines.append(header)
    for spot in ranked:
        entry = profile["names"][spot["name"]]
        per_visit = entry["per_visit"]
        lines.append(
            f"  {spot['name']:26s} {spot['count']:8d} "
            f"{spot['self_ms']:14.1f} {spot['total_ms']:14.1f} "
            f"{per_visit['p50_ms']:12.1f} {per_visit['p95_ms']:12.1f}"
        )
    critical = profile.get("critical_path")
    if critical:
        lines.append("")
        lines.append(
            f"critical path of the slowest visit "
            f"({critical['domain']}, {critical['duration_ms']:.1f} ms)"
        )
        for depth, step in enumerate(critical["path"]):
            indent = "  " * (depth + 1)
            lines.append(
                f"{indent}{step['name']}  total {step['total_ms']:.1f} ms  "
                f"self {step['self_ms']:.1f} ms"
            )
    return "\n".join(lines) + "\n"


def render_delta_text(
    deltas: List[Dict[str, Any]], top: int = 10
) -> str:
    """Hotspot deltas between two runs, largest movement first.

    A name only run b has is marked ``new``; one with no self time in
    run a has no ratio (``-``).
    """
    lines = ["hotspot deltas (self time, b - a)"]
    shown = deltas[:top] if top > 0 else deltas
    for delta in shown:
        ratio = delta["ratio"]
        if not delta["in_a"]:
            ratio_text = "     new"
        elif ratio is None:
            ratio_text = "       -"
        else:
            ratio_text = f"{ratio:8.2f}x"
        lines.append(
            f"  {delta['name']:26s} {delta['self_ms_a']:14.1f} -> "
            f"{delta['self_ms_b']:14.1f} ms  ({delta['delta_ms']:+12.1f} ms, "
            f"{ratio_text})"
        )
    if not shown:
        lines.append("  (no spans on either side)")
    return "\n".join(lines) + "\n"
