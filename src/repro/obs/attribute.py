"""Reconstructing Table 1 from probe-ledger data alone.

Given a ledger recorded while detection probes ran against spoofed (and
ideally vanilla) navigators, this module answers the paper's central
question -- *which* spoofing method causes *which* side effect -- and
one the paper's methodology implies but never shows: **which concrete
accesses revealed it**.  A side effect's culprits are the ledger
entries of its probe whose operation stream differs from the same
probe's stream against a pristine navigator: an enumeration that now
lists an own ``webdriver`` key, a getter invocation that stopped being
native, a ``toString`` rendering an anonymous function.

Entries are grouped by the leading ``method:<n>:<name>`` scope
component (the :func:`record_table1_ledger` harness and the CI crawl
pair both use it); entries outside any ``method:`` scope form one
``crawl`` group.  The baseline stream comes from the in-file
``method:0:vanilla`` group when present, else from a second
(baseline) ledger -- so ``python -m repro.obs attribute`` works both on
a self-contained Table 1 ledger and on a spoofed-vs-vanilla crawl pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import canonical_json
from repro.obs.probes import (
    PROBE_SCOPE_PREFIX,
    REFERENCE_LABEL_PREFIX,
    EntryDict,
    ProbeLedger,
)

#: Scope-component prefix the grouping keys on.
METHOD_GROUP_PREFIX = "method:"

#: The in-file baseline group :func:`record_table1_ledger` records.
VANILLA_GROUP = METHOD_GROUP_PREFIX + "0:vanilla"

#: Group label for entries recorded outside any ``method:`` scope.
CRAWL_GROUP = "crawl"


def record_table1_ledger() -> ProbeLedger:
    """Record the full Table 1 experiment into one ledger.

    One group per spoofing method (numbered as in the paper) plus the
    ``method:0:vanilla`` baseline, each over a fresh WebDriver-controlled
    window: instrument, spoof (except the baseline), probe.  The
    resulting ledger is self-contained -- :func:`build_attribution` can
    reconstruct the whole table from it with no other input.
    """
    from repro.browser.navigator import NavigatorProfile
    from repro.browser.window import Window
    from repro.detection.fingerprint import run_all_probes
    from repro.obs.probes import instrument_window
    from repro.spoofing.methods import SpoofingMethod, apply_spoofing

    ledger = ProbeLedger()

    def run_group(label: str, method=None) -> None:
        with ledger.scope(label):
            window = Window(profile=NavigatorProfile(webdriver=True))
            instrument_window(window, ledger)
            if method is not None:
                apply_spoofing(window, method)
            run_all_probes(window)

    run_group(VANILLA_GROUP)
    for method in SpoofingMethod:
        run_group(f"{METHOD_GROUP_PREFIX}{method.value}:{method.name.lower()}", method)
    return ledger


# -- attribution data model ---------------------------------------------------


@dataclass
class Culprit:
    """One operation signature whose stream differs from the baseline."""

    #: ``"added"`` / ``"removed"`` / ``"changed"``.
    kind: str
    obj: str
    op: str
    key: Optional[str]
    via: Optional[str]
    baseline_count: int
    observed_count: int
    #: ids of the observed-side entries carrying the signature (empty
    #: for ``removed`` culprits -- those exist only in the baseline).
    entry_ids: List[int] = field(default_factory=list)
    #: Example payloads for ``changed`` culprits.
    detail_baseline: Optional[Dict[str, Any]] = None
    detail_observed: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "obj": self.obj,
            "op": self.op,
            "key": self.key,
            "via": self.via,
            "baseline_count": self.baseline_count,
            "observed_count": self.observed_count,
            "entry_ids": self.entry_ids,
            "detail_baseline": self.detail_baseline,
            "detail_observed": self.detail_observed,
        }


@dataclass
class ProbeAttribution:
    """One detector probe's outcome and culprits within a group."""

    probe: str
    fired: bool
    accesses: int
    culprits: List[Culprit] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "probe": self.probe,
            "fired": self.fired,
            "accesses": self.accesses,
            "culprits": [c.to_dict() for c in self.culprits],
        }


@dataclass
class GroupAttribution:
    """One method group's reconstructed Table 1 row."""

    group: str
    probes: List[ProbeAttribution] = field(default_factory=list)

    @property
    def side_effects(self) -> List[str]:
        return [p.probe for p in self.probes if p.fired]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "group": self.group,
            "side_effects": self.side_effects,
            "probes": [p.to_dict() for p in self.probes],
        }


@dataclass
class AttributionReport:
    """The full reconstruction: groups x probes x culprits."""

    groups: List[GroupAttribution] = field(default_factory=list)
    baseline: Optional[str] = None

    def group(self, label: str) -> Optional[GroupAttribution]:
        for group in self.groups:
            if group.group == label:
                return group
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "baseline": self.baseline,
            "groups": [g.to_dict() for g in self.groups],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = ["Probe-ledger attribution (Table 1 reconstruction)"]
        lines.append(f"baseline: {self.baseline or '(none)'}")
        for group in self.groups:
            lines.append("")
            effects = ", ".join(group.side_effects) or "(none)"
            lines.append(f"{group.group}")
            lines.append(f"  side effects: {effects}")
            for probe in group.probes:
                mark = "fired" if probe.fired else "quiet"
                lines.append(
                    f"  {probe.probe}: {mark}, {probe.accesses} accesses"
                )
                for culprit in probe.culprits:
                    lines.append("    " + _culprit_line(culprit))
        return "\n".join(lines) + "\n"


def _culprit_line(culprit: Culprit) -> str:
    sign = {"added": "+", "removed": "-", "changed": "~"}[culprit.kind]
    key = f"[{culprit.key!r}]" if culprit.key is not None else ""
    via = f" via={culprit.via}" if culprit.via else ""
    line = f"{sign} {culprit.obj}.{culprit.op}{key}{via}"
    if culprit.kind == "changed" and (
        culprit.detail_baseline is not None or culprit.detail_observed is not None
    ):
        line += (
            f" detail {_fmt(culprit.detail_baseline)}"
            f" -> {_fmt(culprit.detail_observed)}"
        )
    else:
        line += f" x{culprit.baseline_count} -> x{culprit.observed_count}"
    if culprit.entry_ids:
        ids = ",".join(f"#{i}" for i in culprit.entry_ids[:4])
        if len(culprit.entry_ids) > 4:
            ids += ",..."
        line += f" (entries {ids})"
    return line


def _fmt(value: Any) -> str:
    return canonical_json(value)


# -- building the attribution -------------------------------------------------


def _group_of(entry: EntryDict) -> str:
    head = entry["scope"].split("/", 1)[0]
    if head.startswith(METHOD_GROUP_PREFIX):
        return head
    return CRAWL_GROUP


def _probe_of(entry: EntryDict) -> Optional[str]:
    for component in entry["scope"].split("/"):
        if component.startswith(PROBE_SCOPE_PREFIX):
            return component[len(PROBE_SCOPE_PREFIX):]
    return None


def _probe_streams(
    entries: Iterable[EntryDict],
) -> "Dict[str, Dict[str, List[EntryDict]]]":
    """``{group: {probe: [probe entries, in ledger order]}}``.

    Reference-navigator accesses (``ref:*`` objects) are the probe
    *comparing*, not the page-observable surface, and are dropped.
    """
    streams: Dict[str, Dict[str, List[EntryDict]]] = {}
    for entry in entries:
        probe = _probe_of(entry)
        if probe is None:
            continue
        if entry["obj"].startswith(REFERENCE_LABEL_PREFIX):
            continue
        group = streams.setdefault(_group_of(entry), {})
        group.setdefault(probe, []).append(entry)
    return streams


def _signature(entry: EntryDict) -> Tuple[str, str, Optional[str], Optional[str]]:
    return (entry["obj"], entry["op"], entry["key"], entry["via"])


def _by_signature(entries: Iterable[EntryDict]):
    grouped: Dict[Tuple, List[EntryDict]] = {}
    for entry in entries:
        grouped.setdefault(_signature(entry), []).append(entry)
    return grouped


def _details_of(entries: List[EntryDict]) -> List[str]:
    return sorted(_fmt(entry["detail"]) for entry in entries)


def _culprits(
    observed: List[EntryDict], baseline: List[EntryDict]
) -> List[Culprit]:
    """Multiset-diff the two operation streams, signature by signature."""
    observed_ops = [e for e in observed if e["op"] != "probe.result"]
    baseline_ops = [e for e in baseline if e["op"] != "probe.result"]
    by_sig_observed = _by_signature(observed_ops)
    by_sig_baseline = _by_signature(baseline_ops)
    culprits: List[Culprit] = []
    signatures = set(by_sig_observed) | set(by_sig_baseline)
    for signature in sorted(
        signatures, key=lambda s: tuple("" if v is None else v for v in s)
    ):
        obs = by_sig_observed.get(signature, [])
        base = by_sig_baseline.get(signature, [])
        obj, op, key, via = signature
        if not base:
            kind = "added"
        elif not obs:
            kind = "removed"
        elif len(obs) != len(base) or _details_of(obs) != _details_of(base):
            kind = "changed"
        else:
            continue
        culprit = Culprit(
            kind=kind,
            obj=obj,
            op=op,
            key=key,
            via=via,
            baseline_count=len(base),
            observed_count=len(obs),
            entry_ids=[e["entry_id"] for e in obs],
        )
        if kind == "changed":
            observed_details = [e["detail"] for e in obs]
            baseline_details = [e["detail"] for e in base]
            diff_base = [d for d in baseline_details if d not in observed_details]
            diff_obs = [d for d in observed_details if d not in baseline_details]
            if diff_base:
                culprit.detail_baseline = diff_base[0]
            if diff_obs:
                culprit.detail_observed = diff_obs[0]
        culprits.append(culprit)
    return culprits


def build_attribution(
    entries: Iterable[EntryDict],
    baseline_entries: Optional[Iterable[EntryDict]] = None,
) -> AttributionReport:
    """Reconstruct the attribution table from ledger entries.

    ``baseline_entries`` (a vanilla run's ledger) is consulted only when
    the entries themselves contain no ``method:0:vanilla`` group.
    Without any baseline, probes still report fired/quiet and access
    counts, but no culprits (there is nothing to diff against).
    """
    streams = _probe_streams(entries)
    baseline_label: Optional[str] = None
    baseline_streams: Dict[str, List[EntryDict]] = {}
    if VANILLA_GROUP in streams:
        baseline_label = VANILLA_GROUP
        baseline_streams = streams[VANILLA_GROUP]
    elif baseline_entries is not None:
        external = _probe_streams(baseline_entries)
        merged: Dict[str, List[EntryDict]] = {}
        for group_streams in external.values():
            for probe, stream in group_streams.items():
                merged.setdefault(probe, []).extend(stream)
        baseline_label = "(external baseline)"
        baseline_streams = merged

    report = AttributionReport(baseline=baseline_label)
    for group_label, probes in streams.items():
        group = GroupAttribution(group=group_label)
        for probe_name, stream in probes.items():
            results = [e for e in stream if e["op"] == "probe.result"]
            fired = any(
                bool((e["detail"] or {}).get("fired")) for e in results
            )
            ops = [e for e in stream if e["op"] != "probe.result"]
            attribution = ProbeAttribution(
                probe=probe_name, fired=fired, accesses=len(ops)
            )
            if group_label != baseline_label and baseline_streams:
                attribution.culprits = _culprits(
                    stream, baseline_streams.get(probe_name, [])
                )
            group.probes.append(attribution)
        report.groups.append(group)
    return report
