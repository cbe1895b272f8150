"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with `pytest -s` or in the
captured output) and enforces its stated wall-clock budget.
"""

import contextlib
import io
from fractions import Fraction
from math import factorial
from time import perf_counter

from higherfano import families as fam
from higherfano import minimalfamily as mf
from higherfano.catalog import catalog_entries, verify_catalog
from higherfano.cli import main as cli_main
from higherfano.numeric import todd_coeff


def _criterion(number: int, description: str, limit: float, fn) -> None:
    t0 = perf_counter()
    try:
        fn()
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    dt = perf_counter() - t0
    ok_time = dt <= limit
    print(f"criterion {number} ({description}): {'PASS' if ok_time else 'FAIL (slow)'} [{dt:.2f}s]")
    assert ok_time, f"criterion {number} exceeded {limit}s: {dt:.2f}s"


def test_criterion_1_grassmannian_ch2_formula():
    def body():
        for n in range(4, 13):
            for k in range(2, n // 2 + 1):
                spec = fam.grass(k, n)
                ring = fam.ambient_ring(spec)
                got = fam.tangent_character(spec, cap=2).component(2)
                expected = Fraction(n + 2 - 2 * k, 2) * ring.sigma((2,)) - Fraction(
                    n - 2 - 2 * k, 2
                ) * ring.sigma((1, 1))
                assert got == expected, (k, n)

    _criterion(1, "Grassmannian ch_2 formula, n <= 12", 5.0, body)


def test_criterion_2_positivity_thresholds_by_ring():
    POS, NEF, NEI = fam.POSITIVE, fam.NEF_ONLY, fam.NEITHER

    def tri(pos: bool, nef: bool) -> str:
        return POS if pos else (NEF if nef else NEI)

    def body():
        for n in range(4, 15):
            for k in range(2, n // 2 + 1):
                got = fam.chk_verdict(fam.grass(k, n), 2).status
                assert got == tri(n <= 2 * k + 1, n <= 2 * k + 2), ("G", k, n)
                got = fam.chk_verdict(fam.grass_hyperplane(k, n), 2).status
                assert got == tri(n == 2 * k, n <= 2 * k + 1), ("GH", k, n)
        for n in range(7, 15):
            for k in range(2, n // 2):
                if 2 * k + 2 >= n:
                    continue
                got = fam.chk_verdict(fam.orthogonal_grass(k, n), 2).status
                assert got == tri(n == 3 * k + 2, 3 * k + 1 <= n <= 3 * k + 3), ("OG", k, n)
        for n in range(4, 15, 2):
            for k in range(2, n // 2 + 1):
                got = fam.chk_verdict(fam.symplectic_grass(k, n), 2).status
                assert got == tri(
                    n == 2 * k or n == 3 * k - 2,
                    n == 2 * k or 3 * k - 3 <= n <= 3 * k - 1,
                ), ("SG", k, n)
        for n in range(2, 13):
            for degrees in fam.enumerate_fano_ci(n, 3):
                spec = fam.ci(n, degrees)
                for k in range(2, min(5, fam.dim_x(spec)) + 1):
                    s = sum(d**k for d in degrees)
                    got = fam.chk_verdict(spec, k).status
                    assert got == tri(s <= n, s <= n + 1), ("CI", n, degrees, k)

    _criterion(2, "positivity thresholds by ring computation, n <= 14", 30.0, body)


def test_criterion_3_prop11_ci_cross_validation():
    def body():
        for n in range(1, 13):
            for degrees in fam.enumerate_fano_ci(n, 3):
                rep = mf.verify_prop11_ci(n, degrees, 5)
                assert rep.ok, (n, degrees, rep.failures()[:2])

    _criterion(3, "family character formula vs direct CI oracle, k <= 5", 10.0, body)


def test_criterion_4_derivation_suite():
    def body():
        for n in range(1, 11):
            for d in range(0, n):
                assert mf.verify_claim31(n, d, 5).ok, (n, d)
                assert mf.verify_prop11_symbolic(n, d, 5).ok, (n, d)
        for k in range(1, 21):
            s = sum(todd_coeff(k + 1 - j) / factorial(j) for j in range(1, k + 2))
            assert s == Fraction(1, factorial(k)), k

    _criterion(4, "symbolic derivation suite and Todd identity", 10.0, body)


def test_criterion_5_catalog_suite():
    def body():
        items = verify_catalog(6)
        assert all(item["ok"] for item in items), [i for i in items if not i["ok"]]
        names = {item["check"] for item in items}
        expected = {"twist of (P1, O3) = 1"}
        expected |= {f"twist of (P{d}, O2) = 2h" for d in range(1, 9)}
        for case in "abcde":
            for m in range(1, 7):
                expected |= {f"twist ample ({case}, m={m})", f"classify ({case}, m={m})"}
        for pair in catalog_entries():
            if not (pair.picard_rank == 1 and pair.L[0] > 1):  # (P^d, O(2)) and (P^1, O(3))
                expected.add(f"L.R = 1 ({pair.label})")
        assert expected <= names, sorted(expected - names)

    _criterion(5, "catalog: ample twists, classification, L degrees", 1.0, body)


def test_criterion_6_low_degree_specializations():
    def body():
        inp = mf.ci_T_images(9, (3,), 1)
        assert mf.ch_Hx(inp, 1) == 3 * inp.ell
        assert mf.ci_family_character_direct(9, (3,), 1, ell=inp.ell) == 3 * inp.ell
        for n in range(1, 11):
            inp = mf.ci_T_images(n, (), n)
            for k in range(1, n + 1):
                got = mf.ch_Hx(inp, k)
                expected = Fraction(n, factorial(k)) * inp.ell**k
                assert got == expected, (n, k)

    _criterion(6, "degree-3 hypersurface and projective-space specializations", 1.0, body)


def test_criterion_7_product_nonexample():
    def body():
        for a in range(1, 7):
            for b in range(1, 7):
                assert fam.product_nonexample(a, b) == 0, (a, b)

    _criterion(7, "products pair to zero against the split surface class", 1.0, body)


def test_criterion_8_census_determinism():
    def body():
        argv = ["census", "G", "--k-range", "2..4", "--n-range", "4..12", "--format", "csv"]
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(argv))
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")

    _criterion(8, "census output byte-identical across runs", 10.0, body)
