"""Command-line front end: single checks, censuses, pair lookups, verification suites.

Subcommands: check | census | minimal-family | verify, each flag spelled in full.
Output is JSON (exact rationals as strings, never floats); check and census also
give CSV with the fixed columns kind,k,n,params,ch_coeffs,verdict,oracle,twist,agree.
Output is byte-identical across runs of the same command: no timestamps,
canonical row order, exact arithmetic throughout.

A report is written one item at a time, each census row before the next is
computed, so a census holds one row in memory however many it has.  Every
refusal comes before the first byte: a census lists and checks all its specs
first, and no --out file is opened before the first item exists.  An error
raised after that leaves the items already written and exits 2.

Exit codes: 0 success/agreement, 1 verified disagreement or identity failure,
2 usage error or a report that cannot be written (an --out path, or a stdout
whose reader has closed it).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Iterable, Iterator

from . import __version__
from . import catalog as cat
from . import families as fam

SCHEMA_VERSION = "1"
CSV_COLUMNS = ("kind", "k", "n", "params", "ch_coeffs", "verdict", "oracle", "twist", "agree")

# the most specs a census lists before it is refused; the largest census in the tests
# has 10,613 rows, while P^60 alone holds 831,820 degree tuples at --max-c 59
MAX_CENSUS_SPECS = 10**5


class UsageError(Exception):
    pass


def _parse_range(flag: str, text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"cannot read {flag} {text!r}: give N or LO..HI in integers") from None
    if lo > hi:
        raise UsageError(f"empty range {text!r}: {lo} > {hi}")
    return range(lo, hi + 1)


def _coeff_string(witnesses) -> str:
    return ";".join(f"{label}:{value}" for label, value in witnesses)


def compute_row(spec: fam.FamilySpec, k: int) -> dict:
    """One check/census row: the consistency report of the spec at k, as a row dict."""
    report = fam.consistency_check(spec, k)
    verdict = report.verdict
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
        "note": verdict.note,
        "agree": report.agree,
    }


def _list_spec(specs: list[fam.FamilySpec], spec: fam.FamilySpec, narrow: str) -> None:
    if len(specs) == MAX_CENSUS_SPECS:
        raise UsageError(f"census lists more than {MAX_CENSUS_SPECS} specs; narrow {narrow}")
    specs.append(spec)


def _census_specs(ns) -> list[fam.FamilySpec]:
    kind = ns.kind
    specs: list[fam.FamilySpec] = []
    # every row fails below k = 2, so whether a census gets that far must not
    # depend on its ranges: refuse it before any spec is listed
    fam.check_verdict_index(ns.k)
    # only a CI census reads --max-c, and only the other kinds read --k-range;
    # anywhere else a flag would be dropped unread
    if ns.max_c is not None and kind != fam.CI:
        raise UsageError(f"--max-c is for census CI; census {kind} takes no codimension bound")
    if ns.k_range is not None and kind == fam.CI:
        *kinds, last = fam.ZERO_LOCI
        raise UsageError(f"--k-range is for census {', '.join(kinds)} and {last}; census CI takes --n-range")
    if kind == fam.CI:
        if ns.n_range is None:
            raise UsageError("census CI needs --n-range")
        n_values = _parse_range("--n-range", ns.n_range)
        max_c = 2 if ns.max_c is None else ns.max_c
        if max_c < 0:
            raise UsageError(f"max codimension must be >= 0, got {max_c}")
        # c degrees on P^n cut out dimension n - c, so only n >= --k and c <= n - --k
        # yield rows, and only those specs are listed and count toward the cap.  P^n
        # itself is the largest spec on P^n and the bound reads n alone, so the
        # pre-check, which builds no ring, refuses an over-bound n before its tuples
        for n in range(max(n_values.start, ns.k), n_values.stop):
            fam.check_ambient_bound(fam.FamilySpec(fam.CI, 0, n, ()))
            # the tuples are nonincreasing already, so each spec is built as ci() would sort it
            for degrees in fam.enumerate_fano_ci(n, min(max_c, n - ns.k)):
                _list_spec(specs, fam.FamilySpec(fam.CI, 0, n, degrees), "--n-range or --max-c")
    else:
        if ns.k_range is None or ns.n_range is None:
            raise UsageError(f"census {kind} needs --k-range and --n-range")
        k_values = _parse_range("--k-range", ns.k_range)
        n_values = _parse_range("--n-range", ns.n_range)
        # every kind takes only 2 <= k <= n/2, and dim X <= k(n-k) reaches --k only
        # from n = k + ceil(--k / k) on, so no (k, n) outside those bounds is visited
        for k in range(max(k_values.start, 2), k_values.stop):
            if 2 * k > n_values[-1]:
                break
            for n in range(max(n_values.start, 2 * k, k - (-ns.k // k)), n_values.stop):
                try:
                    spec = fam.FamilySpec(kind, k, n)
                except fam.InvalidFamilyError:
                    continue
                # ch_k vanishes above dim X, so those specs are skipped like invalid (k, n);
                # one over-bound ambient ring fails the whole census, so the pre-check, which
                # builds no ring, refuses it as soon as it is listed, not after the rest of
                # the ranges
                if fam.dim_x(spec) >= ns.k:
                    fam.check_ambient_bound(spec)
                    _list_spec(specs, spec, "--k-range or --n-range")
    specs.sort()
    return specs


def _report(argv: list[str], passed: bool) -> dict:
    """The report's envelope; its items go between "command" and "pass" in key order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "higherfano",
        "tool_version": __version__,
        "catalog_version": cat.CATALOG_VERSION,
        "command": " ".join(argv),
        "items": [],
        "pass": passed,
    }


def _write(fh, fmt: str, argv: list[str], items: Iterator[dict], key: str | None) -> bool:
    """Write the report to fh one item at a time; True when every item's `key` holds."""
    passed = True
    if fmt == "csv":
        import csv
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for item in items:
            writer.writerow([item.get(col, "") for col in CSV_COLUMNS])
            passed = passed and (key is None or bool(item[key]))
        return passed
    import json
    encoder = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)
    # the envelope sorts "items" after the keys before it and before "pass", which is
    # known only at the end; each item is its own indent-2 text shifted to depth 2,
    # which is its layout inside the whole report, as JSON strings hold no raw newline
    def envelope(passed: bool) -> tuple[str, str, str]:
        return encoder.encode(_report(argv, passed)).partition('"items": []')

    fh.write(envelope(True)[0] + '"items": [')
    sep, close = "\n", "]"  # no item: "items": []
    for item in items:
        fh.write(sep + "    " + encoder.encode(item).replace("\n", "\n    "))
        sep, close = ",\n", "\n  ]"
        passed = passed and (key is None or bool(item[key]))
    fh.write(close + envelope(passed)[2] + "\n")
    return passed


def _emit(ns, argv: list[str], items: Iterable[dict], key: str | None) -> bool:
    """Write the report of items, each before the next is computed; whether they all pass.

    The first item is computed before any output is opened, so an error raised up to
    then writes nothing; one raised later leaves the items already written.
    """
    items = iter(items)
    first = next(items, None)
    if first is not None:
        items = itertools.chain((first,), items)
    fmt = getattr(ns, "format", "json")
    try:
        if not ns.out:
            passed = _write(sys.stdout, fmt, argv, items, key)
            sys.stdout.flush()
            return passed
        with open(ns.out, "w", encoding="utf-8") as fh:
            return _write(fh, fmt, argv, items, key)
    except OSError as exc:
        if not ns.out:
            # the reader is gone: what stdout still buffers goes to devnull, so the
            # flush at interpreter exit raises nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {ns.out or 'stdout'}: {exc.strerror}") from exc


def _mf():
    """minimalfamily, imported by the verify suites that read it, so no other command loads it."""
    from . import minimalfamily

    return minimalfamily


# each `verify` suite: the bounds it reads and its call with them, in `verify --help` order
SUITES = {
    "claim31": (("n_max", "d_max", "k_max"),
                lambda ns: _mf().symbolic_suite(_mf().verify_claim31, ns.n_max, ns.d_max, ns.k_max)),
    "prop11-sym": (("n_max", "d_max", "k_max"),
                   lambda ns: _mf().symbolic_suite(_mf().verify_prop11_symbolic, ns.n_max, ns.d_max, ns.k_max)),
    "prop11-ci": (("n_max", "max_c", "k_max"), lambda ns: _mf().prop11_ci_suite(ns.n_max, ns.max_c, ns.k_max)),
    "catalog": (("m_max",), lambda ns: cat.verify_catalog(ns.m_max)),
    "todd-identity": (("k_max",), lambda ns: _mf().todd_identity_suite(ns.k_max)),
}

# the `verify` bounds: dest -> (flag, default, floor).  The parser leaves a bound unset, so a
# flag a suite does not read can be refused; below its floor a bound names no check, or
# checks that test nothing (a negative --max-c is refused by the CI enumeration)
VERIFY_BOUNDS = {
    "n_max": ("--n-max", 8, 1),
    "d_max": ("--d-max", 9, 0),
    "k_max": ("--k-max", 4, 1),
    "max_c": ("--max-c", 3, None),
    "m_max": ("--m-max", 6, 1),
}


def _suites_reading(dest: str) -> str:
    return ", ".join(name for name, (bounds, _) in SUITES.items() if dest in bounds)


def _verify_bounds(ns) -> None:
    """Fill in the defaults of the bounds ns.suite reads; UsageError for any other bound given."""
    reads = SUITES[ns.suite][0]
    for dest, (flag, default, floor) in VERIFY_BOUNDS.items():
        value = getattr(ns, dest)
        if dest not in reads:
            if value is not None:
                takes = ", ".join(VERIFY_BOUNDS[d][0] for d in reads)
                raise UsageError(
                    f"{flag} is for verify {_suites_reading(dest)}; verify {ns.suite} takes {takes}"
                )
        elif value is None:
            setattr(ns, dest, default)
        elif floor is not None and value < floor:
            raise UsageError(f"{flag} must be >= {floor}, got {value}")


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    # a flag is read only as spelled in full: as a prefix, `verify --k 3` ran as --k-max 3
    parser = argparse.ArgumentParser(
        prog="higherfano",
        description="Exact positivity checks for Chern characters of the example Fano families.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"higherfano {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, rows=False):
        # only check and census rows have the CSV columns; the other commands print JSON
        if rows:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to FILE instead of stdout")

    p_check = sub.add_parser("check", help="one family: verdict, oracle, pair twist, agreement",
                             allow_abbrev=False)
    p_check.add_argument("spec", help='family text form, e.g. "G[2,5]", "CI[9;3]", "G2P"')
    p_check.add_argument("--k", type=int, default=2, help="Chern character index (default 2)")
    common(p_check, rows=True)

    p_census = sub.add_parser("census", help="sweep a parametric family kind", allow_abbrev=False)
    p_census.add_argument("kind", choices=(*fam.ZERO_LOCI, fam.CI))
    p_census.add_argument("--k", type=int, default=2, help="Chern character index (default 2)")
    p_census.add_argument("--k-range", dest="k_range", default=None, help="family k range, e.g. 2..4")
    p_census.add_argument("--n-range", dest="n_range", default=None, help="family n range, e.g. 4..12")
    p_census.add_argument("--max-c", dest="max_c", type=int, default=None,
                          help="max codimension (CI census, default 2)")
    common(p_census, rows=True)

    p_pair = sub.add_parser("minimal-family", help="look up the polarized minimal pair", allow_abbrev=False)
    p_pair.add_argument("spec")
    common(p_pair)

    p_verify = sub.add_parser("verify", help="run a verification suite of exact identities",
                              allow_abbrev=False)
    p_verify.add_argument("suite", choices=tuple(SUITES))
    for dest, (flag, default, _) in VERIFY_BOUNDS.items():
        p_verify.add_argument(flag, dest=dest, type=int, default=None,
                              help=f"read by {_suites_reading(dest)} (default {default})")
    common(p_verify)
    return parser


def _items(ns) -> tuple[Iterable[dict], str | None]:
    """The items of ns's report, and the key of each item that the report's pass reads."""
    if ns.cmd == "check":
        return [compute_row(fam.parse_spec(ns.spec), ns.k)], "agree"
    if ns.cmd == "census":
        # the generator lists the specs, and so makes every listing refusal, when it is made;
        # each row is computed only once the one before it is written
        return (compute_row(spec, ns.k) for spec in _census_specs(ns)), "agree"
    if ns.cmd == "minimal-family":
        pair = fam.minimal_pair(fam.parse_spec(ns.spec))
        item = pair.to_dict()
        item["twist"] = cat.positivity_of_twist(pair)
        item["twist_class"] = [str(x) for x in cat.twist_class(pair)]
        return [item], None
    if ns.cmd == "verify":
        _verify_bounds(ns)
        return SUITES[ns.suite][1](ns), "ok"
    raise UsageError(f"unknown command {ns.cmd!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        passed = _emit(ns, argv, *_items(ns))
    except (UsageError, ValueError) as exc:  # the family errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
