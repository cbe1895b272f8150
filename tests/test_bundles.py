from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higherfano.bundles import exp_line, todd_line
from higherfano.minimalfamily import UniversalModel
from higherfano.rings import DegreeError, GradedClass, product_ring, projective_space_ring
from higherfano.schubert import grassmannian_ring

from reference import (
    CharacterVector,
    adams,
    character_to_chern,
    chern_to_character,
    dual,
    euler_character,
    line_character,
    sym2_character,
    tautological_chern,
    trivial_character,
    wedge2_character,
)


def tangent_chern_pn(ring):
    """c(T) = (1+h)^(n+1), truncated."""
    n = ring.n
    h = ring.hyperplane()
    return [comb(n + 1, i) * h**i for i in range(1, n + 1)]


def test_line_bundle_character_on_p3():
    p3 = projective_space_ring(3)
    h = p3.hyperplane()
    ch = line_character(h)
    assert ch.rank == 1
    assert ch.component(1) == h
    assert ch.component(2) == h**2 / 2
    assert ch.component(3) == h**3 / 6


def test_tangent_character_of_projective_space():
    for n in range(1, 9):
        ring = projective_space_ring(n)
        h = ring.hyperplane()
        ch = chern_to_character(tangent_chern_pn(ring), n, ring)
        for k in range(1, n + 1):
            assert ch.component(k) == Fraction(n + 1, factorial(k)) * h**k


def test_newton_round_trip():
    # pseudo-random integral Chern classes on P^n, n <= 6
    for n in range(1, 7):
        ring = projective_space_ring(n)
        h = ring.hyperplane()
        for seed in range(3):
            cherns = [((seed + 2) * i * i - 7 * seed + i) * h**i for i in range(1, n + 1)]
            ch = chern_to_character(cherns, n, ring)
            back = character_to_chern(ch)
            assert list(back) == cherns


def test_quotient_bundle_character_on_g24():
    g24 = grassmannian_ring(2, 4)
    q = chern_to_character(tautological_chern(g24, "quotient"), 2, g24)
    assert q.component(1) == g24.sigma((1,))
    assert q.component(2) == (g24.sigma((1, 1)) - g24.sigma((2,))) / 2


def test_tangent_of_g24():
    g24 = grassmannian_ring(2, 4)
    sdual = chern_to_character(tautological_chern(g24, "sub-dual"), 2, g24)
    quot = chern_to_character(tautological_chern(g24, "quotient"), 2, g24)
    t = sdual * quot
    assert t.rank == 4
    assert t.component(1) == 4 * g24.sigma((1,))
    assert t.component(2) == g24.sigma((2,)) + g24.sigma((1, 1))


def test_grassmannian_ch2_formula():
    for n in range(4, 13):
        for k in range(2, n // 2 + 1):
            ring = grassmannian_ring(k, n)
            sdual = chern_to_character(tautological_chern(ring, "sub-dual"), k, ring, cap=2)
            quot = chern_to_character(tautological_chern(ring, "quotient"), n - k, ring, cap=2)
            ch2 = (sdual * quot).component(2)
            expected = Fraction(n + 2 - 2 * k, 2) * ring.sigma((2,)) - Fraction(
                n - 2 - 2 * k, 2
            ) * ring.sigma((1, 1))
            assert ch2 == expected


def test_adams():
    p3 = projective_space_ring(3)
    h = p3.hyperplane()
    x = line_character(h)
    assert adams(x, 1) == x
    assert adams(x, 2) == line_character(2 * h)
    assert adams(x, -1) == dual(x)
    y = x + line_character(2 * h)
    assert adams(y, -1) == dual(y)


def test_dual_involution_and_zero():
    p4 = projective_space_ring(4)
    x = line_character(p4.hyperplane()) + trivial_character(p4, 2)
    assert dual(dual(x)) == x
    zero = trivial_character(p4, 0)
    assert (x * zero).rank == 0
    assert all(c.is_zero() for c in (x * zero).components)


def test_sym2_wedge2_line():
    p3 = projective_space_ring(3)
    h = p3.hyperplane()
    x = line_character(h)
    assert sym2_character(x) == line_character(2 * h)
    w = wedge2_character(x)
    assert w.rank == 0
    assert all(c.is_zero() for c in w.components)


def test_sym2_wedge2_ranks_and_sum():
    p2 = projective_space_ring(2)
    x = trivial_character(p2, 2)
    assert sym2_character(x).rank == 3
    assert wedge2_character(x).rank == 1
    # rank(sym2) + rank(wedge2) = rank^2 and sym2 + wedge2 = x*x
    y = line_character(p2.hyperplane()) + trivial_character(p2, 3)
    assert sym2_character(y).rank + wedge2_character(y).rank == y.rank**2
    assert sym2_character(y) + wedge2_character(y) == y * y


def test_wedge2_of_subdual_on_g25():
    g25 = grassmannian_ring(2, 5)
    sdual = chern_to_character(tautological_chern(g25, "sub-dual"), 2, g25)
    w = wedge2_character(sdual)
    assert w.rank == 1
    assert w.component(1) == g25.sigma((1,))
    # the determinant line: full character is e^(sigma_1)
    assert w == line_character(g25.sigma((1,)), cap=w.cap)


def test_plethysm_rejects_virtual_rank():
    p2 = projective_space_ring(2)
    x = trivial_character(p2, Fraction(1, 2))
    with pytest.raises(ValueError):
        sym2_character(x)


def test_tensor_line():
    # twisting by O(D) multiplies by e^D at the character's own cap
    p4 = projective_space_ring(4)
    h = p4.hyperplane()
    x = line_character(h)
    assert x * line_character(2 * h, cap=x.cap) == line_character(3 * h)
    x = trivial_character(p4, 2)
    assert x * line_character(h, cap=x.cap) == 2 * line_character(h)


def test_todd_line():
    p4 = projective_space_ring(4)
    h = p4.hyperplane()
    assert todd_line(p4.zero()) == p4.unit()
    td = todd_line(h)
    assert td.coefficient("h^2") == Fraction(1, 12)
    assert td.coefficient("h^3") == 0
    assert td.coefficient("h^4") == Fraction(-1, 720)
    # e^D summed in the ring against the total of the line character
    for d in (p4.zero(), h, 2 * h, -h):
        assert exp_line(d) == line_character(d).total(), d
    for k in range(7):
        s = UniversalModel(k).sigma()
        assert exp_line(s) == line_character(s).total(), k
    for series in (exp_line, todd_line):
        with pytest.raises(DegreeError):
            series(h**2)


def test_dual_of_a_line_is_the_inverse_line():
    p3 = projective_space_ring(3)
    h = p3.hyperplane()
    assert dual(line_character(h)) == line_character(-h)
    one = trivial_character(p3, 1)
    assert dual(line_character(2 * h) + one) == line_character(-2 * h) + one


def test_euler_character_is_newton_on_the_total_chern_class():
    # ch(T_{P^n}) = (n+1)e^h - 1 against Newton's identities on c(T) = (1+h)^(n+1)
    p2xp3 = product_ring(projective_space_ring(2, "h1"), projective_space_ring(3, "h2"))
    cases = [(projective_space_ring(n).hyperplane(), n) for n in range(1, 9)]
    cases += [(p2xp3.monomial("h1"), 2), (p2xp3.monomial("h2"), 3)]
    for h, n in cases:
        ring = h.ring
        cherns = [comb(n + 1, i) * h**i for i in range(1, n + 1)]
        for cap in range(1, ring.dimension + 1):
            assert euler_character(h, n, cap) == chern_to_character(cherns, n, ring, cap), (ring, n, cap)
        assert euler_character(h, n) == chern_to_character(cherns, n, ring)


_CHAR_RINGS = (projective_space_ring(4), grassmannian_ring(2, 5))
_RANKS = (0, 1, -2, Fraction(1, 2), 3)


def _draw_character(data, ring):
    """A character on ring with a drawn rank, cap and homogeneous components."""
    cap = data.draw(st.integers(0, ring.dimension))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    comps = [
        GradedClass(ring, data.draw(st.dictionaries(st.sampled_from(ring.basis(k)), coeffs)))
        for k in range(1, cap + 1)
    ]
    return CharacterVector(ring, data.draw(st.sampled_from(_RANKS)), comps)


def _reference_product(x, y):
    """ch_k(xy) = sum_{i=0}^{k} x_i y_(k-i) to the smaller cap, with x_0 = rank times the unit."""
    ring = x.ring

    def part(v, i):
        return ring.scalar(v.rank) if i == 0 else v.components[i - 1]

    cap = min(x.cap, y.cap)
    comps = []
    for k in range(1, cap + 1):
        acc = ring.zero()
        for i in range(k + 1):
            acc = acc + part(x, i) * part(y, k - i)
        comps.append(acc)
    return CharacterVector(ring, x.rank * y.rank, comps)


@given(data=st.data())
def test_character_arithmetic_matches_its_definitions(data):
    ring = data.draw(st.sampled_from(_CHAR_RINGS))
    x, y = _draw_character(data, ring), _draw_character(data, ring)
    cap = min(x.cap, y.cap)
    assert x + y == CharacterVector(
        ring, x.rank + y.rank, [x.components[k] + y.components[k] for k in range(cap)]
    )
    assert x - y == CharacterVector(
        ring, x.rank - y.rank, [x.components[k] - y.components[k] for k in range(cap)]
    )
    assert x * y == _reference_product(x, y)
    assert y * x == _reference_product(y, x)
    c = data.draw(st.sampled_from(_RANKS))
    assert x * c == CharacterVector(ring, x.rank * c, [a * Fraction(c) for a in x.components])
    t = data.draw(st.integers(-2, 3))
    assert adams(x, t) == CharacterVector(
        ring, x.rank, [Fraction(t) ** k * a for k, a in enumerate(x.components, start=1)]
    )
