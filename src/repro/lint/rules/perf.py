"""PERF0xx: determinism-adjacent performance rules.

Both members were born from real costs:

- PERF001: a ``set(...)`` built inside a comprehension's ``if`` is
  rebuilt *per element*, turning a linear filter into O(n^2) --
  invisible at unit-test scale, dominant at the million-site
  populations the roadmap targets.
- PERF002: a detector that analyses its recording itself repeats work
  every other detector of the battery also does; before the shared
  :class:`~repro.detection.features.RecordingFeatures`, each movement's
  trajectory metrics were computed six times per battery run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_CONTAINER_BUILDERS = frozenset({"dict", "frozenset", "set"})

#: Analysis entry points a detector must read from its features instead.
_RECORDING_ANALYSES = frozenset(
    {
        "repro.analysis.clicks.click_metrics",
        "repro.analysis.clicks.normalised_offsets",
        "repro.analysis.scroll_metrics.scroll_metrics",
        "repro.analysis.trajectory.per_movement_metrics",
        "repro.analysis.trajectory.split_movements",
        "repro.analysis.trajectory.trajectory_metrics",
        "repro.analysis.typing_metrics.typing_metrics",
        "repro.detection.features.extract_features",
    }
)
#: ``EventRecorder`` accessors that scan the whole recording; the
#: features expose each as a cached attribute.
_RECORDER_SCANS = frozenset(
    {"clicks", "key_strokes", "mouse_path", "scroll_events", "wheel_ticks"}
)


def _builds_container(ctx: ModuleContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and ctx.dotted_name(node.func) in _CONTAINER_BUILDERS
    )


@register
class ContainerInComprehensionConditionRule(Rule):
    id = "PERF001"
    name = "container-built-per-element"
    family = "perf"
    rationale = (
        "A set/dict constructed inside a comprehension condition is "
        "rebuilt for every element; hoist it to a variable before the "
        "comprehension."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                continue
            for gen in node.generators:
                for condition in gen.ifs:
                    for sub in ast.walk(condition):
                        if _builds_container(ctx, sub):
                            yield self.finding(
                                ctx,
                                sub,
                                "container built inside a comprehension "
                                "condition is reconstructed per element -- "
                                "hoist it out of the comprehension",
                            )


def _is_detector_class(ctx: ModuleContext, node: ast.ClassDef) -> bool:
    """A class deriving from something named ``*Detector``."""
    return any(
        (ctx.dotted_name(base) or "").endswith("Detector") for base in node.bases
    )


@register
class DetectorReanalysisRule(Rule):
    id = "PERF002"
    name = "detector-reanalyses-recording"
    family = "perf"
    rationale = (
        "A battery analyses each recording once and hands the same "
        "RecordingFeatures to every detector; a detector that re-runs an "
        "analysis, scans the recorder or overrides observe() repeats that "
        "work once per detector."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef) or not _is_detector_class(ctx, cls):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "observe":
                    yield self.finding(
                        ctx,
                        item,
                        f"{cls.name} overrides observe() -- implement "
                        "judge(features) so batteries can share the analysis",
                    )
            for node in ast.walk(cls):
                if isinstance(node, ast.Call):
                    yield from self._check_call(ctx, cls, node)

    def _check_call(
        self, ctx: ModuleContext, cls: ast.ClassDef, node: ast.Call
    ) -> Iterator[Finding]:
        name = ctx.dotted_name(node.func) or ""
        if name in _RECORDING_ANALYSES:
            yield self.finding(
                ctx,
                node,
                f"{cls.name} calls {name.rsplit('.', 1)[1]}() -- read the "
                "shared RecordingFeatures instead of re-analysing",
            )
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _RECORDER_SCANS:
            yield self.finding(
                ctx,
                node,
                f"{cls.name} scans the recorder with .{node.func.attr}() -- "
                f"read features.{node.func.attr} instead",
            )
