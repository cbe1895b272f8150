from fractions import Fraction
from math import factorial
from typing import Iterable

import pytest

from higherfano import minimalfamily
from higherfano.families import InvalidFamilyError, enumerate_fano_ci
from higherfano.minimalfamily import (
    Check,
    FamilyModel,
    MinimalFamilyInput,
    MissingTransferError,
    T_power,
    UniversalModel,
    VerificationReport,
    ch_Hx,
    ci_T_images,
    ci_family_character_direct,
    family_character_formula,
    model_ring,
    prop11_ci_suite,
    push_pi,
    symbolic_suite,
    verify_claim31,
    verify_prop11_ci,
    verify_prop11_symbolic,
)
from higherfano.rings import DegreeError, ProjectiveSpaceRing, RingMismatchError


def test_T_power():
    ring = ProjectiveSpaceRing(4, gen="l")
    ell = ring.hyperplane()
    assert T_power(1, 1, ell) == ring.unit()
    assert T_power(2, 3, ell) == 8 * ell**2
    assert T_power(0, 2, ell).is_zero()
    with pytest.raises(ValueError):
        T_power(1, 0, ell)


def test_ci_transfer_images():
    inp = ci_T_images(9, (3,), 4)
    ell = inp.ell
    assert inp.d == 5
    assert inp.t[2] == ell / 2
    assert inp.t[1] == ell.ring.scalar(7)  # d + 2

    inp5 = ci_T_images(5, (), 3)
    assert inp5.t[2] == 3 * inp5.ell

    inp4 = ci_T_images(4, (2,), 3)
    assert inp4.d == 1
    assert inp4.t[1] == inp4.ell.ring.scalar(3)


def test_t1_is_d_plus_2_for_all_ci_inputs():
    for n in range(1, 13):
        for degrees in enumerate_fano_ci(n, 3):
            inp = ci_T_images(n, degrees, 2)
            assert inp.t[1] == inp.ell.ring.scalar(inp.d + 2)


def test_c1_of_cubic_sevenfold_family():
    inp = ci_T_images(9, (3,), 4)
    # formula: t_2 + (d/2) l
    assert ch_Hx(inp, 1) == inp.t[2] + Fraction(inp.d, 2) * inp.ell
    assert ch_Hx(inp, 1) == 3 * inp.ell
    assert ci_family_character_direct(9, (3,), 1, ell=inp.ell) == 3 * inp.ell


def test_ch2_formula_shape():
    inp = ci_T_images(10, (2,), 5)
    ell = inp.ell
    expected = inp.t[3] + ell * inp.t[2] / 2 + Fraction(inp.d - 4, 12) * ell**2
    assert ch_Hx(inp, 2) == expected


def test_direct_oracle_values():
    ring = ProjectiveSpaceRing(7, gen="l")
    ell = ring.hyperplane()
    assert ci_family_character_direct(9, (3,), 1, ell=ell) == 3 * ell
    assert ci_family_character_direct(7, (2, 2), 2, ell=ell) == Fraction(-3, 2) * ell**2
    # empty degree list: the family is P^(n-1), with ch_k = n l^k / k!
    for n in range(2, 9):
        for k in range(1, 4):
            got = ci_family_character_direct(n, (), k, ell=ell)
            assert got == Fraction(n, factorial(k)) * ell**k


def test_missing_transfer_rejected():
    ring = ProjectiveSpaceRing(3, gen="l")
    ell = ring.hyperplane()
    inp = MinimalFamilyInput(d=3, ell=ell, t={1: ring.scalar(5)})
    with pytest.raises(MissingTransferError):
        ch_Hx(inp, 2)


def test_input_degree_validation():
    ring = ProjectiveSpaceRing(3, gen="l")
    ell = ring.hyperplane()
    with pytest.raises(ValueError):
        MinimalFamilyInput(d=3, ell=ell, t={2: ell**2})


def test_input_is_validated_when_built():
    ring = ProjectiveSpaceRing(3, gen="l")
    ell = ring.hyperplane()
    with pytest.raises(DegreeError):
        MinimalFamilyInput(3, ell**2, {})
    with pytest.raises(DegreeError):
        MinimalFamilyInput(d=3, ell=ell, t={1: ring.scalar(5), 3: ell})
    with pytest.raises(ValueError, match="share the polarization's ring"):
        MinimalFamilyInput(d=3, ell=ell, t={1: ProjectiveSpaceRing(3).scalar(5)})


def test_reports_start_with_their_own_empty_check_list():
    first, second = VerificationReport("first"), VerificationReport("second", checks=None)
    first.record("equal", (), 1, 1)
    assert len(first.checks) == 1 and second.checks == [] and VerificationReport("third").checks == []


def test_no_lines_rejected():
    with pytest.raises(ValueError):
        ci_T_images(4, (2, 2), 2)


def test_push_pi_spec_values():
    u = model_ring(5, 2, 4)
    fam = u.family
    assert push_pi(u.sigma()) == fam.unit()
    assert push_pi(u.sigma() ** 3) == fam.ell() ** 2
    assert push_pi(u.ell() ** 2) == fam.zero()
    assert push_pi(u.ell() * u.e(2)) == fam.ell() * fam.t(2)


def test_push_pi_rejects_e_products():
    # U holds no product of two e-symbols, so forming one raises before any pushforward
    u = model_ring(5, 2, 4)
    with pytest.raises(ValueError, match="no products of two symbols: e_1 \\* e_2"):
        u.e(1) * u.e(2)


def test_universal_basis_is_one_symbol_per_monomial():
    # degree m > 0: l^m, l^a*e_(m-a) for a < m, and l^(m-1)*s
    for m in range(0, 10):
        u = UniversalModel(m)
        assert [len(u.basis(deg)) for deg in range(m + 1)] == [1] + [deg + 2 for deg in range(1, m + 1)]
    assert len(UniversalModel(9).basis()) == 64
    assert UniversalModel(3).basis(3) == ("e_3", "l*e_2", "l^2*e_1", "l^3", "l^2*s")
    assert FamilyModel(2).basis(2) == ("l^2", "t_3", "l*t_2", "l^2*t_1")


def test_symbolic_models_reject_negative_powers_and_mixed_truncations():
    u = model_ring(5, 2, 4)
    fam = u.family
    with pytest.raises(ValueError):
        u.sigma() ** -1
    with pytest.raises(ValueError):
        fam.ell() ** -2
    assert model_ring(9, 7, 4) is u  # one ring per truncation degree
    with pytest.raises(RingMismatchError):
        u.ell() + model_ring(5, 2, 3).ell()
    with pytest.raises(RingMismatchError):
        fam.ell() + model_ring(5, 2, 3).family.ell()


def test_symbolic_models_reject_integrals_and_t_products():
    u = model_ring(5, 2, 4)
    fam = u.family
    with pytest.raises(ValueError):
        (u.ell() ** 5).integrate()
    # one rule refuses a product of two symbols on both models, even above the truncation
    for product in (lambda: u.e(1) * u.e(2), lambda: u.e(2) * u.e(4), lambda: fam.t(2) * fam.t(3)):
        with pytest.raises(ValueError, match=r"^[UH]<\d+> has no products of two symbols: "):
            product()
    assert u.sigma() * u.e(2) == u.zero()
    assert u.e(6).is_zero()  # above the truncation


def test_sigma_power_normal_form():
    u = model_ring(7, 3, 5)
    s, l = u.sigma(), u.ell()
    for k in range(1, 6):
        assert s**k == (-l) ** (k - 1) * s


def test_power_tables_match_repeated_products():
    u = model_ring(7, 3, 5)
    gens = (u.sigma(), u.ell(), u.c1_relative_tangent(), u.family.ell())
    for table, x in zip(u.powers, gens):
        assert len(table) == x.ring.dimension + 1
        assert all(table[e] == x**e for e in range(len(table)))
    assert u.powers is u.powers  # built once per ring


def test_z_class_n_free_summand_is_exact():
    # z_class(n) is n * ch(O(-s)) plus a summand cached on the ring, and a substituted
    # e_1 adds (x - e_1) * ch(O(-s)); compare both with the product taken directly, on
    # every truncation the tests use, with prop11-sym's substitution (d + 2)(s + l)
    for k_max in range(1, 9):
        for n in range(1, 13):
            u = model_ring(n, 0, k_max)
            direct = (u.tangent_pullback(n) - u._ch_tpi) * u._ch_o_minus_s
            assert u.z_class(n) == direct
            assert u.w_class(n) == direct * u._todd_tpi
            for d in range(n):
                sub = (d + 2) * (u.sigma() + u.ell())
                pullback = u.scalar(n) + sub + sum((u.e(j) for j in range(2, u.dimension + 1)), u.zero())
                direct = (pullback - u._ch_tpi) * u._ch_o_minus_s
                assert u.z_class(n, e1_substitution=sub) == direct
                assert u.w_class(n, e1_substitution=sub) == direct * u._todd_tpi


class _WrongSquare(UniversalModel):
    """s^2 = +s*l instead of -s*l."""

    def _mul_labels(self, x, y):
        (a1, _, s1), (a2, _, s2) = self._key[x], self._key[y]
        if s1 + s2 == 2 and self._degree[x] + self._degree[y] <= self.dimension:
            return {self._name((a1 + a2 + 1, 0, 1)): 1}
        return super()._mul_labels(x, y)


def test_ring_identities_are_checked_in_every_claim31_report(monkeypatch):
    # a fresh ring with a wrong relation; the memoised rings stay as they are
    broken = _WrongSquare(5)
    monkeypatch.setattr(minimalfamily, "_universal_ring", lambda max_degree: broken)
    reports = {(n, d): verify_claim31(n, d, 4) for n, d in [(6, 2), (9, 5)]}
    for (n, d), rep in reports.items():
        identities = [c for c in rep.checks if c.name.startswith("(")]
        failed = {c.name for c in identities if not c.ok}
        assert {"(iv) l^i s^j", "(v) c1^i s^j", "(vi) c1^i"} <= failed
        assert all(c.params[:2] == (n, d) for c in rep.checks)
        detail = VerificationReport("identities", identities).item()["detail"]
        assert detail.count(f"({n}, {d}, ") == 3
        # the (n, d) prefix is applied on read: the report lists and shows what
        # copying every shared check with the prefix at the head of its params would
        eager = [
            Check(c.name, (n, d) + c.params, c.ok, c.lhs, c.rhs)
            for c in broken.claim31_z_checks(n) + broken.claim31_identities
        ]
        assert rep.checks == eager and not rep.ok
        assert rep.item() == VerificationReport(rep.label, eager).item()  # detail byte for byte
    first, second = reports.values()
    assert first.checks is not second.checks
    monkeypatch.undo()
    assert verify_claim31(6, 2, 4).ok and verify_claim31(9, 5, 4).ok


def _assert_all_ok(items: Iterable[dict], count: int) -> None:
    items = list(items)
    assert len(items) == count
    assert all(item["ok"] for item in items), [i for i in items if not i["ok"]]


def test_claim31_sweep():
    _assert_all_ok(symbolic_suite(verify_claim31, 10, 9, 5), 55)  # n <= 10, d <= n-1, k <= 5


def test_prop11_symbolic_sweep():
    _assert_all_ok(symbolic_suite(verify_prop11_symbolic, 10, 9, 5), 55)


def test_prop11_ci_sweep():
    _assert_all_ok(prop11_ci_suite(12, 3, 5), 178)  # n <= 12, codimension <= 3, k <= 5


def test_report_item_shows_the_first_three_failures():
    rep = VerificationReport("demo")
    rep.record("equal", (1,), 2, 2)
    for i in range(4):
        rep.record("differ", (i,), i, -1)
    item = rep.item()
    assert item == {
        "check": "demo",
        "ok": False,
        "detail": "differ(0,): 0 != -1; differ(1,): 1 != -1; differ(2,): 2 != -1",
    }
    assert verify_prop11_ci(9, (3,), 3).item() == {
        "check": "prop11_ci(n=9, degrees=(3,), k_max=3)", "ok": True, "detail": ""
    }


def test_ci_transfer_rejects_negative_truncation():
    # used to surface as a bare KeyError from the t_1 check
    with pytest.raises(ValueError, match="k_max >= 0"):
        ci_T_images(9, (3,), -1)
    assert ci_T_images(9, (3,), 0).t.keys() == {1}


def test_ci_transfer_refuses_a_degree_below_one_through_the_spec():
    with pytest.raises(InvalidFamilyError, match="CI degrees must be >= 1"):
        ci_T_images(5, (0,), 2)


def test_symbolic_specializations_present():
    rep = verify_prop11_symbolic(6, 3, 3)
    names = {c.name for c in rep.checks}
    assert "c_1(H) specialization" in names
    assert "ch_2(H) specialization" in names
    assert "standalone l^k coefficient" in names


def test_model_ring_validation():
    with pytest.raises(ValueError):
        model_ring(3, 3, 4)  # d must be <= n-1


@pytest.mark.parametrize("check", [verify_claim31, verify_prop11_symbolic])
def test_symbolic_checks_refuse_negative_truncation(check):
    # claim31 used to die on an unknown basis label, prop11-sym to pass with no checks
    with pytest.raises(ValueError, match="need k_max >= 0, got -1"):
        check(5, 2, -1)
    assert check(5, 2, 0).ok


def test_concrete_and_symbolic_formula_agree():
    # the symbolic t_j fed through ch_Hx give the symbolic formula back
    fam = FamilyModel(4)
    inp = MinimalFamilyInput(d=0, ell=fam.ell(), t={j: fam.t(j) for j in range(1, 6)})
    for k in range(1, 5):
        assert ch_Hx(inp, k) == family_character_formula(fam, k)
    inp = MinimalFamilyInput(d=0, ell=fam.ell(), t={j: fam.t(j) for j in range(1, 3)})
    with pytest.raises(MissingTransferError) as exc:
        ch_Hx(inp, 2)
    assert exc.value.args == (3,)
