from fractions import Fraction
from math import factorial

import pytest

from higherfano.families import enumerate_fano_ci
from higherfano.minimalfamily import (
    FamilyModel,
    MinimalFamilyInput,
    MissingTransferError,
    T_power,
    ch_Hx,
    ci_T_images,
    ci_family_character_direct,
    family_character_formula,
    model_ring,
    push_pi,
    verify_claim31,
    verify_prop11_ci,
    verify_prop11_symbolic,
)
from higherfano.rings import RingMismatchError, projective_space_ring


def test_T_power():
    ring = projective_space_ring(4, gen="l")
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
    ring = projective_space_ring(7, gen="l")
    ell = ring.hyperplane()
    assert ci_family_character_direct(9, (3,), 1, ell=ell) == 3 * ell
    assert ci_family_character_direct(7, (2, 2), 2, ell=ell) == Fraction(-3, 2) * ell**2
    # empty degree list: the family is P^(n-1), with ch_k = n l^k / k!
    for n in range(2, 9):
        for k in range(1, 4):
            got = ci_family_character_direct(n, (), k, ell=ell)
            assert got == Fraction(n, factorial(k)) * ell**k


def test_missing_transfer_rejected():
    ring = projective_space_ring(3, gen="l")
    ell = ring.hyperplane()
    inp = MinimalFamilyInput(d=3, ell=ell, t={1: ring.scalar(5)})
    with pytest.raises(MissingTransferError):
        ch_Hx(inp, 2)


def test_input_degree_validation():
    ring = projective_space_ring(3, gen="l")
    ell = ring.hyperplane()
    with pytest.raises(ValueError):
        MinimalFamilyInput(d=3, ell=ell, t={2: ell**2})


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
    u = model_ring(5, 2, 4)
    with pytest.raises(ValueError):
        push_pi(u.e(1) * u.e(2))


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
    with pytest.raises(ValueError):
        fam.t(2) * fam.t(3)
    assert u.sigma() * u.e(2) == u.zero()
    assert u.e(6).is_zero()  # above the truncation


def test_sigma_power_normal_form():
    u = model_ring(7, 3, 5)
    s, l = u.sigma(), u.ell()
    for k in range(1, 6):
        assert s**k == (-l) ** (k - 1) * s


def test_claim31_sweep():
    for n in range(1, 11):
        for d in range(0, n):
            rep = verify_claim31(n, d, 5)
            assert rep.ok, rep.failures()[:3]


def test_prop11_symbolic_sweep():
    for n in range(1, 11):
        for d in range(0, n):
            rep = verify_prop11_symbolic(n, d, 5)
            assert rep.ok, rep.failures()[:3]


def test_prop11_ci_sweep():
    for n in range(1, 13):
        for degrees in enumerate_fano_ci(n, 3):
            rep = verify_prop11_ci(n, degrees, 5)
            assert rep.ok, rep.failures()[:3]


def test_symbolic_specializations_present():
    rep = verify_prop11_symbolic(6, 3, 3)
    names = {c.name for c in rep.checks}
    assert "c_1(H) specialization" in names
    assert "ch_2(H) specialization" in names
    assert "standalone l^k coefficient" in names


def test_model_ring_validation():
    with pytest.raises(ValueError):
        model_ring(3, 3, 4)  # d must be <= n-1


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
