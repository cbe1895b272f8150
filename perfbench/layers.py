"""Per-layer metrics computed from the spans that tracer.py writes.

Span names are ``module.function`` or ``module.Class.method`` (the method's
defining name, so ``__rmul__`` records as ``__mul__``).  A metric reads a
group of span names selected by a regular expression:

- ``calls``: every span in the group, nested ones included;
- ``s``: time inside the group, counting only spans with no ancestor in the
  group, so nested and recursive calls are not counted twice;
- ``self_s``: the sum over the group's spans of duration minus the time
  covered by their direct child spans.

``TARGETS`` records, for each layer, which end-to-end metric on which
workload the layer's metrics should move.
"""

from __future__ import annotations

import array
import json
import operator
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

from tracer import SPAN_FIELDS

GROUPS = {
    "schubert.ring_build": r"schubert\.GrassmannianRing\.__init__",
    "schubert.partitions_in_box": r"schubert\.partitions_in_box",
    "schubert.mul_basis": r"schubert\.GrassmannianRing\.mul_basis",
    "schubert.mul_labels": r"schubert\.GrassmannianRing\._mul_labels",
    "schubert.pieri_dict": r"schubert\.GrassmannianRing\.pieri_dict",
    "rings.GradedClass.mul": r"rings\.GradedClass\.__mul__",
    "rings.GradedClass.add": r"rings\.GradedClass\.__(add|sub|rsub|neg)__",
    "rings.GradedClass.new": r"rings\.GradedClass\.__init__",
    "rings.mul_basis": r"rings\.\w+\.mul_basis",
    "rings.mul_labels": r"rings\.\w+\._mul_labels",
    "rings.ring_build": r"rings\.(ProjectiveSpaceRing|ProductRing|ProjBundleRing)\.__init__",
    "bundles.chern_to_character": r"bundles\.chern_to_character",
    "bundles.line_character": r"bundles\.line_character",
    "bundles.CharacterVector.mul": r"bundles\.CharacterVector\.__mul__",
    "bundles.plethysm": r"bundles\.(sym2_character|wedge2_character|adams)",
    "minimalfamily.UClass.mul": r"minimalfamily\.UClass\.__mul__",
    "minimalfamily.UClass.pow": r"minimalfamily\.UClass\.__pow__",
    "minimalfamily.HClass.mul": r"minimalfamily\.HClass\.__mul__",
    "minimalfamily.push_pi": r"minimalfamily\.push_pi",
    "minimalfamily.verify_claim31": r"minimalfamily\.verify_claim31",
    "catalog.positivity_of_twist": r"catalog\.positivity_of_twist",
    "catalog.pair_build": r"catalog\.pair_\w+",
    "families.chk_verdict": r"families\.chk_verdict",
    "families.tangent_character": r"families\.tangent_character",
    "families.consistency_check": r"families\.consistency_check",
    "families.threshold_oracle": r"families\.threshold_oracle",
    "numeric.todd_coeff": r"numeric\.todd_coeff",
    "numeric.bernoulli": r"numeric\.bernoulli",
    "cli.compute_row": r"cli\.compute_row",
    "cli.main": r"cli\.main",
}

# (metric, unit, better): the per-layer metrics, in report order
METRICS = [
    ("schubert.ring_build.calls", "count", "lower"),
    ("schubert.ring_build.s", "s", "lower"),
    ("schubert.partitions_in_box.calls", "count", "lower"),
    ("schubert.partitions_in_box.s", "s", "lower"),
    ("schubert.basis_labels", "count", "lower"),
    ("schubert.basis_used_frac", "ratio", "higher"),
    ("schubert.mul_basis.calls", "count", "lower"),
    ("schubert.mul_basis.misses", "count", "lower"),
    ("schubert.mul_basis.hit_ratio", "ratio", "higher"),
    ("schubert.mul_basis.s", "s", "lower"),
    ("schubert.pieri_dict.calls", "count", "lower"),
    ("schubert.pieri_dict.s", "s", "lower"),
    ("rings.GradedClass.mul.calls", "count", "lower"),
    ("rings.GradedClass.mul.self_s", "s", "lower"),
    ("rings.GradedClass.add.calls", "count", "lower"),
    ("rings.GradedClass.add.self_s", "s", "lower"),
    ("rings.GradedClass.new.calls", "count", "lower"),
    ("rings.mul_basis.calls", "count", "lower"),
    ("rings.mul_basis.misses", "count", "lower"),
    ("rings.mul_basis.hit_ratio", "ratio", "higher"),
    ("rings.ring_build.calls", "count", "lower"),
    ("rings.ring_build.s", "s", "lower"),
    ("bundles.chern_to_character.calls", "count", "lower"),
    ("bundles.chern_to_character.s", "s", "lower"),
    ("bundles.line_character.calls", "count", "lower"),
    ("bundles.line_character.s", "s", "lower"),
    ("bundles.CharacterVector.mul.calls", "count", "lower"),
    ("bundles.CharacterVector.mul.s", "s", "lower"),
    ("bundles.plethysm.s", "s", "lower"),
    ("minimalfamily.UClass.mul.calls", "count", "lower"),
    ("minimalfamily.UClass.mul.self_s", "s", "lower"),
    ("minimalfamily.UClass.pow.calls", "count", "lower"),
    ("minimalfamily.HClass.mul.calls", "count", "lower"),
    ("minimalfamily.HClass.mul.s", "s", "lower"),
    ("minimalfamily.push_pi.calls", "count", "lower"),
    ("minimalfamily.push_pi.s", "s", "lower"),
    ("minimalfamily.verify_claim31.s", "s", "lower"),
    ("catalog.positivity_of_twist.calls", "count", "lower"),
    ("catalog.positivity_of_twist.s", "s", "lower"),
    ("catalog.pair_build.calls", "count", "lower"),
    ("catalog.pair_build.s", "s", "lower"),
    ("families.chk_verdict.self_s", "s", "lower"),
    ("families.tangent_character.self_s", "s", "lower"),
    ("families.consistency_check.self_s", "s", "lower"),
    ("families.threshold_oracle.s", "s", "lower"),
    ("numeric.todd_coeff.calls", "count", "lower"),
    ("numeric.bernoulli.calls", "count", "lower"),
    ("cli.compute_row.calls", "count", "lower"),
    ("cli.compute_row.p50_ms", "ms", "lower"),
    ("cli.compute_row.ptail_ms", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# metric-name prefix (the longest match applies) -> which end-to-end metrics
# the metric should move, and on which workloads
TARGETS = {
    "schubert.ring_build": {"end_to_end": ["wall_s", "cpu_s", "peak_rss_mb"], "workloads": ["census-grass-wide"],
                            "note": "a little on census-grass-deep, nothing on census-ci or verify-claim31; "
                                    "census-grass-wide is not in BENCHMARK.json"},
    "schubert.partitions_in_box": {"end_to_end": ["wall_s", "cpu_s", "peak_rss_mb"], "workloads": ["census-grass-wide"],
                                   "note": "as schubert.ring_build"},
    "schubert.basis_": {"end_to_end": ["wall_s", "cpu_s", "peak_rss_mb"], "workloads": ["census-grass-wide"],
                        "note": "as schubert.ring_build"},
    "schubert.mul_basis": {"end_to_end": ["wall_s"], "workloads": ["census-grass-deep"]},
    "schubert.pieri_dict": {"end_to_end": ["wall_s"], "workloads": ["census-grass-deep"]},
    "rings.": {"end_to_end": ["wall_s"], "workloads": ["census-ci", "census-grass-deep"]},
    "bundles.": {"end_to_end": ["wall_s"], "workloads": ["census-grass-deep", "census-ci"],
                 "note": "Newton's identities at cap 10 on census-grass-deep, line_character on census-ci"},
    "minimalfamily.": {"end_to_end": ["wall_s"], "workloads": ["verify-claim31"]},
    "catalog.": {"end_to_end": ["wall_s"], "workloads": ["census-ci"]},
    "families.": {"end_to_end": ["wall_s"], "workloads": ["census-grass-wide", "census-grass-deep", "census-ci"],
                  "note": "glue on all three censuses"},
    "numeric.": {"end_to_end": [], "workloads": [], "note": "counts only; no end-to-end target"},
    "cli.": {"end_to_end": ["wall_s"], "workloads": ["census-ci", "verify-claim31"]},
    "trace.": {"end_to_end": [], "workloads": [], "note": "cost of the tracer itself"},
}


@dataclass
class Trace:
    names: list[str]
    name: array.array
    parent: array.array
    start: array.array
    end: array.array
    counts: dict[str, int]
    grass_basis_sizes: list[list[int]]


def load_trace(out_dir: Path) -> Trace:
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    fields = {}
    for field, code in SPAN_FIELDS:
        values = array.array(code)
        data = (out_dir / f"spans.{field}").read_bytes()
        values.frombytes(data)
        fields[field] = values
    return Trace(meta["names"], counts=meta["counts"], grass_basis_sizes=meta["grass_basis_sizes"], **fields)


class Aggregate:
    """Group lookups over one trace."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.dur = array.array("d", map(operator.sub, trace.end, trace.start))
        child = array.array("d", bytes(8 * len(self.dur)))
        for i, p in enumerate(trace.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = array.array("d", map(operator.sub, self.dur, child))
        self.members: dict[str, list[int]] = {}
        ids = {}
        for group, pattern in GROUPS.items():
            rx = re.compile(pattern)
            ids[group] = {i for i, name in enumerate(trace.names) if rx.fullmatch(name)}
            self.members[group] = []
        self.group_ids = ids
        by_name: dict[int, list[str]] = {}
        for group, nids in ids.items():
            for nid in nids:
                by_name.setdefault(nid, []).append(group)
        for i, nid in enumerate(trace.name):
            for group in by_name.get(nid, ()):
                self.members[group].append(i)

    def calls(self, group: str) -> int:
        return len(self.members[group])

    def self_s(self, group: str) -> float:
        return sum(self.self_time[i] for i in self.members[group])

    def s(self, group: str) -> float:
        nids, name, parent = self.group_ids[group], self.trace.name, self.trace.parent
        total = 0.0
        for i in self.members[group]:
            p = parent[i]
            while p >= 0 and name[p] not in nids:
                p = parent[p]
            if p < 0:
                total += self.dur[i]
        return total

    def durations(self, group: str) -> list[float]:
        return [self.dur[i] for i in self.members[group]]


def tail_rank(n: int) -> tuple[int, float] | None:
    """Index into n sorted samples of the highest percentile with ten samples beyond it."""
    if n < 11:
        return None
    return n - 11, 100.0 * (n - 10) / n


def layer_metrics(trace: Trace, chern_k: int) -> tuple[dict[str, float], dict]:
    """Every per-layer metric but trace.overhead_frac, plus notes on how some were read."""
    agg = Aggregate(trace)
    out: dict[str, float] = {}
    for metric, _, _ in METRICS:
        group, _, kind = metric.rpartition(".")
        if group in GROUPS and kind in ("calls", "s", "self_s"):
            out[metric] = getattr(agg, kind)(group)
    for prefix in ("schubert", "rings"):
        calls = agg.calls(f"{prefix}.mul_basis")
        misses = agg.calls(f"{prefix}.mul_labels")
        out[f"{prefix}.mul_basis.misses"] = misses
        out[f"{prefix}.mul_basis.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    labels = sum(sum(sizes) for sizes in trace.grass_basis_sizes)
    used = sum(sum(sizes[: chern_k + 1]) for sizes in trace.grass_basis_sizes)
    out["schubert.basis_labels"] = labels
    out["schubert.basis_used_frac"] = used / labels if labels else 0.0
    rows = sorted(agg.durations("cli.compute_row"))
    notes: dict = {"ptail_percentile": None}
    out["cli.compute_row.p50_ms"] = 1000 * statistics.median(rows) if rows else 0.0
    out["cli.compute_row.ptail_ms"] = 0.0
    tail = tail_rank(len(rows))
    if tail is not None:
        out["cli.compute_row.ptail_ms"] = 1000 * rows[tail[0]]
        notes["ptail_percentile"] = round(tail[1], 2)
    notes["pieri_shapes.calls"] = trace.counts.get("schubert.pieri_shapes", 0)
    return out, notes


def layer_shares(trace: Trace) -> dict[str, float]:
    """Self time per traced span name, as a share of the whole traced run."""
    agg = Aggregate(trace)
    total = sum(agg.self_time) or 1.0
    shares: dict[str, float] = {}
    for i, nid in enumerate(trace.name):
        name = trace.names[nid]
        shares[name] = shares.get(name, 0.0) + agg.self_time[i] / total
    return shares
