"""Self-test of the tracer and of the per-layer predictions the benchmark rests on.

Usage (from the root of a checkout): python3 perfbench/selftest.py

It checks that the tracer reaches every path into a layer (names imported
with ``from .x import y``, dunder aliases such as ``__rmul__ = __mul__``),
then makes one traced run of each workload and checks which layers each one
touches and which one leads.  Prints one PASS/FAIL line per check and exits
1 on any failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import layers
import tracer
from run import BENCH_DIR, OUT_DIR, ROOT, Spawner, failed_rows

CENSUSES = ("census-grass-wide", "census-grass-deep", "census-ci")


@dataclass
class TracedRun:
    metrics: dict[str, float]
    trace: layers.Trace
    rows: int

    def touched(self, prefix: str) -> int:
        """Spans and counted calls whose name starts with prefix."""
        ids = {i for i, n in enumerate(self.trace.names) if n.startswith(prefix)}
        counted = sum(c for n, c in self.trace.counts.items() if n.startswith(prefix))
        return sum(1 for nid in self.trace.name if nid in ids) + counted

    def share(self, *prefixes: str) -> float:
        shares = layers.layer_shares(self.trace)
        return sum(v for k, v in shares.items() if k.startswith(prefixes))

    def top_self(self) -> str:
        shares = layers.layer_shares(self.trace)
        return max(shares, key=shares.get)

    def total_s(self) -> float:
        return sum(self.trace.end[i] - self.trace.start[i] for i, p in enumerate(self.trace.parent) if p < 0)


def binding_checks() -> list[tuple[str, bool]]:
    sys.path.insert(0, str(ROOT / "src"))
    tracer.Tracer().install()
    from higherfano import bundles, families, rings, schubert

    return [
        ("families.chern_to_character is the traced bundles.chern_to_character",
         families.chern_to_character is bundles.chern_to_character
         and hasattr(bundles.chern_to_character, "__wrapped__")),
        ("families.grassmannian_ring is the traced schubert.grassmannian_ring",
         families.grassmannian_ring is schubert.grassmannian_ring
         and hasattr(schubert.grassmannian_ring, "__wrapped__")),
        ("GradedClass.__rmul__ records as __mul__", rings.GradedClass.__rmul__ is rings.GradedClass.__mul__),
        ("GrassmannianRing.mul_basis is traced apart from RingModel.mul_basis",
         schubert.GrassmannianRing.mul_basis is not rings.RingModel.mul_basis),
    ]


def traced_run(spawner: Spawner, name: str, spec: dict) -> TracedRun:
    out = OUT_DIR / "selftest" / name
    run = spawner.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(out), *spec["argv"]])
    if failed_rows(spec, run.exit_code, run.stdout):
        raise SystemExit(f"FAIL {name}: traced output differs from the recorded output")
    trace = layers.load_trace(out)
    metrics, _ = layers.layer_metrics(trace, spec.get("chern_k", 0))
    return TracedRun(metrics, trace, spec["rows"])


def prediction_checks(runs: dict[str, TracedRun]) -> list[tuple[str, bool]]:
    wide, deep, ci, claim = (runs[n].metrics for n in (*CENSUSES, "verify-claim31"))
    return [
        ("schubert basis building runs on census-grass-wide",
         wide["schubert.ring_build.calls"] > 0 and wide["schubert.partitions_in_box.calls"] > 0),
        ("schubert products run on census-grass-deep",
         deep["schubert.mul_basis.calls"] > 0 and deep["schubert.pieri_dict.calls"] > 0),
        ("rings arithmetic runs on census-ci and census-grass-deep",
         ci["rings.GradedClass.mul.calls"] > 0 and ci["rings.mul_basis.calls"] > 0
         and deep["rings.GradedClass.mul.calls"] > 0),
        ("bundles: Newton on census-grass-deep, line_character on census-ci",
         deep["bundles.chern_to_character.calls"] > 0 and ci["bundles.line_character.calls"] > 0),
        ("minimalfamily runs on verify-claim31",
         claim["minimalfamily.UClass.mul.calls"] > 0 and claim["minimalfamily.push_pi.calls"] > 0),
        # catalog.pair_build reads 0 on census-ci: families.minimal_pair builds
        # the CI pairs with PolarizedPair(...) directly, not via catalog.pair_*
        ("catalog twist runs on census-ci", ci["catalog.positivity_of_twist.calls"] > 0),
        ("families glue runs on all three censuses",
         all(runs[n].metrics["families.chk_verdict.self_s"] > 0 for n in CENSUSES)),
        ("cli.compute_row runs once per census row",
         all(runs[n].metrics["cli.compute_row.calls"] == runs[n].rows for n in CENSUSES)),
        ("schubert is untouched on census-ci and verify-claim31",
         runs["census-ci"].touched("schubert.") == 0 and runs["verify-claim31"].touched("schubert.") == 0),
        ("minimalfamily is untouched on the three censuses",
         all(runs[n].touched("minimalfamily.") == 0 for n in CENSUSES)),
        ("census-grass-wide: schubert.ring_build covers most of the traced run",
         wide["schubert.ring_build.s"] > 0.5 * runs["census-grass-wide"].total_s()),
        ("census-grass-deep: schubert.mul_basis and bundles.chern_to_character lead schubert.ring_build",
         min(deep["schubert.mul_basis.s"], deep["bundles.chern_to_character.s"]) > deep["schubert.ring_build.s"]),
        ("census-ci: rings/bundles arithmetic has the largest self-time share",
         runs["census-ci"].top_self().startswith(("rings.GradedClass", "bundles."))
         and runs["census-ci"].share("rings.", "bundles.") > 0.5),
        ("verify-claim31: minimalfamily.UClass.__mul__ has the largest self-time share",
         runs["verify-claim31"].top_self() == "minimalfamily.UClass.__mul__"),
    ]


def main() -> int:
    config = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    checks = binding_checks()
    with Spawner() as spawner:
        runs = {name: traced_run(spawner, name, spec) for name, spec in config["workloads"].items()}
    checks += prediction_checks(runs)
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
