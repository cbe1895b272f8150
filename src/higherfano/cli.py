"""Command-line front end: single checks, censuses, pair lookups, verification suites.

Subcommands: check | census | minimal-family | verify.  Output is JSON by
default (exact rationals serialized as strings, never floats) or CSV with the
fixed columns kind,k,n,params,ch_coeffs,verdict,oracle,twist,agree.  Output
is byte-identical across runs of the same command: no timestamps, canonical
row order, exact arithmetic throughout.

Exit codes: 0 success/agreement, 1 verified disagreement or identity failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import factorial

from . import __version__
from . import catalog as cat
from . import families as fam
from . import minimalfamily as mf
from .numeric import todd_coeff

SCHEMA_VERSION = "1"
CSV_COLUMNS = ("kind", "k", "n", "params", "ch_coeffs", "verdict", "oracle", "twist", "agree")


class UsageError(Exception):
    pass


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    lo, hi = int(lo), int(hi if sep else lo)
    if lo > hi:
        raise UsageError(f"empty range {text!r}: {lo} > {hi}")
    return range(lo, hi + 1)


def _coeff_string(witnesses) -> str:
    return ";".join(f"{label}:{value}" for label, value in witnesses)


def compute_row(spec_text: str, k: int) -> dict:
    """One check/census row: the consistency report of the spec at k, as a row dict."""
    report = fam.consistency_check(fam.parse_spec(spec_text), k)
    spec, verdict = report.spec, report.verdict
    return {
        "params": spec.text(),
        "kind": spec.kind,
        "k": k,
        "n": spec.n if spec.kind != fam.G2P else "",
        "ch_coeffs": _coeff_string(verdict.witnesses),
        "verdict": verdict.status,
        "oracle": report.oracle_status,
        "twist": report.twist_status,
        "pair": report.pair_label,
        "note": report.note,
        "agree": report.agree,
    }


def _census_row(args: tuple[str, int]) -> dict:
    return compute_row(*args)


def _census_specs(ns) -> list[str]:
    kind = ns.kind
    specs: list[fam.FamilySpec] = []
    if kind == "CI":
        if ns.n is None and ns.n_range is None:
            raise UsageError("census CI needs --n or --n-range")
        n_values = _parse_range(ns.n_range) if ns.n_range else [ns.n]
        for n in n_values:
            for degrees in fam.enumerate_fano_ci(n, ns.max_c):
                specs.append(fam.ci(n, degrees))
    else:
        if ns.k_range is None or ns.n_range is None:
            raise UsageError(f"census {kind} needs --k-range and --n-range")
        maker = fam.KIND_MAKERS[kind]
        for k in _parse_range(ns.k_range):
            for n in _parse_range(ns.n_range):
                try:
                    specs.append(maker(k, n))
                except fam.InvalidFamilyError:
                    continue
    # ch_k vanishes above dim X, so those specs are skipped like invalid (k, n)
    specs = [s for s in specs if fam.dim_x(s) >= ns.k]
    specs.sort(key=lambda s: (s.kind, s.k, s.n, s.degrees))
    return [s.text() for s in specs]


def _render_csv(items: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for item in items:
        writer.writerow([item.get(col, "") for col in CSV_COLUMNS])
    return buf.getvalue()


def _report(argv: list[str], items: list[dict], passed: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "higherfano",
        "tool_version": __version__,
        "catalog_version": cat.CATALOG_VERSION,
        "command": " ".join(argv),
        "items": items,
        "pass": passed,
    }


def _emit(ns, payload: dict) -> None:
    if ns.format == "csv":
        text = _render_csv(payload["items"])
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verification suites -------------------------------------------------------


def _verify_items(ns) -> list[dict]:
    items: list[dict] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        items.append({"check": name, "ok": ok, "detail": detail})

    def add_report(rep: mf.VerificationReport) -> None:
        fails = rep.failures()
        detail = "; ".join(f"{c.name}{c.params}: {c.lhs} != {c.rhs}" for c in fails[:3])
        add(rep.label, rep.ok, detail)

    if ns.suite == "claim31":
        for n in range(1, ns.n_max + 1):
            for d in range(0, min(ns.d_max, n - 1) + 1):
                add_report(mf.verify_claim31(n, d, ns.k_max))
    elif ns.suite == "prop11-sym":
        for n in range(1, ns.n_max + 1):
            for d in range(0, min(ns.d_max, n - 1) + 1):
                add_report(mf.verify_prop11_symbolic(n, d, ns.k_max))
    elif ns.suite == "prop11-ci":
        for n in range(1, ns.n_max + 1):
            for degrees in fam.enumerate_fano_ci(n, ns.max_c):
                add_report(mf.verify_prop11_ci(n, degrees, ns.k_max))
    elif ns.suite == "todd-identity":
        for k in range(1, ns.k_max + 1):
            lhs = sum(todd_coeff(k + 1 - j) / factorial(j) for j in range(1, k + 2))
            add(f"todd-identity(k={k})", lhs == Fraction(1, factorial(k)), f"lhs={lhs}")
    elif ns.suite == "catalog":
        items.extend(cat.verify_catalog(ns.m_max))
    else:
        raise UsageError(f"unknown suite {ns.suite!r}")
    return items


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="higherfano",
        description="Exact positivity checks for Chern characters of the example Fano families.",
    )
    parser.add_argument("--version", action="version", version=f"higherfano {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to FILE instead of stdout")

    p_check = sub.add_parser("check", help="one family: verdict, oracle, pair twist, agreement")
    p_check.add_argument("spec", help='family text form, e.g. "G[2,5]", "CI[9;3]", "G2P"')
    p_check.add_argument("--k", type=int, default=2, help="Chern character index (default 2)")
    common(p_check)

    p_census = sub.add_parser("census", help="sweep a parametric family kind")
    p_census.add_argument("kind", choices=("G", "GH", "OG", "SG", "SGdeg", "CI"))
    p_census.add_argument("--k", type=int, default=2, help="Chern character index (default 2)")
    p_census.add_argument("--k-range", dest="k_range", default=None, help="family k range, e.g. 2..4")
    p_census.add_argument("--n-range", dest="n_range", default=None, help="family n range, e.g. 4..12")
    p_census.add_argument("--n", type=int, default=None, help="single n (CI census)")
    p_census.add_argument("--max-c", dest="max_c", type=int, default=2, help="max codimension (CI census)")
    p_census.add_argument("--jobs", type=int, default=1, help="parallel workers for the rows")
    common(p_census)

    p_pair = sub.add_parser("minimal-family", help="look up the polarized minimal pair")
    p_pair.add_argument("spec")
    common(p_pair)

    p_verify = sub.add_parser("verify", help="run a verification suite of exact identities")
    p_verify.add_argument(
        "suite", choices=("claim31", "prop11-sym", "prop11-ci", "catalog", "todd-identity")
    )
    p_verify.add_argument("--n-max", dest="n_max", type=int, default=8)
    p_verify.add_argument("--d-max", dest="d_max", type=int, default=9)
    p_verify.add_argument("--k-max", dest="k_max", type=int, default=4)
    p_verify.add_argument("--max-c", dest="max_c", type=int, default=3)
    p_verify.add_argument("--m-max", dest="m_max", type=int, default=6)
    common(p_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.cmd == "check":
            items = [compute_row(ns.spec, ns.k)]
            passed = bool(items[0]["agree"])
        elif ns.cmd == "census":
            spec_texts = _census_specs(ns)
            tasks = [(text, ns.k) for text in spec_texts]
            # more workers than cores or rows only cost processes
            jobs = min(ns.jobs, os.cpu_count() or 1, len(tasks))
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    items = list(pool.map(_census_row, tasks))
            else:
                items = [_census_row(t) for t in tasks]
            passed = all(item["agree"] for item in items)
        elif ns.cmd == "minimal-family":
            pair = fam.minimal_pair(fam.parse_spec(ns.spec))
            item = pair.to_dict()
            item["twist"] = cat.positivity_of_twist(pair)
            item["twist_class"] = [str(x) for x in cat.twist_class(pair)]
            items, passed = [item], True
        elif ns.cmd == "verify":
            items = _verify_items(ns)
            passed = all(item["ok"] for item in items)
        else:
            raise UsageError(f"unknown command {ns.cmd!r}")
        _emit(ns, _report(argv, items, passed))
    except (UsageError, ValueError) as exc:  # the family errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
