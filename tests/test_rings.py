from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higherfano.rings import (
    DegreeError,
    GradedClass,
    RingMismatchError,
    ProductRing,
    ProjBundleRing,
    ProjectiveSpaceRing,
    check_graded,
)
from higherfano.minimalfamily import FamilyModel, UniversalModel
from higherfano.schubert import GrassmannianRing

from reference import CharacterVector, chern_to_character


def exact_det(matrix):
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def test_projective_space_basics():
    p1 = ProjectiveSpaceRing(1)
    assert p1.basis() == ("1", "h")
    assert (p1.hyperplane() ** 2).is_zero()

    p3 = ProjectiveSpaceRing(3)
    h = p3.hyperplane()
    assert h * h**2 == p3.monomial("h^3")
    assert (h**3).integrate() == 1
    assert (h**2).integrate() == 0

    p4 = ProjectiveSpaceRing(4)
    h = p4.hyperplane()
    assert (h**3 * h**2).is_zero()


def test_point_ring():
    p0 = ProjectiveSpaceRing(0)
    assert p0.dimension == 0
    assert p0.unit().integrate() == 1
    assert p0.hyperplane().is_zero()


def test_product_ring():
    pp = ProductRing(ProjectiveSpaceRing(1, "h1"), ProjectiveSpaceRing(1, "h2"))
    h1, h2 = pp.monomial("h1"), pp.monomial("h2")
    assert (h1 * h2).integrate() == 1
    assert (h1 * h1).is_zero()

    p21 = ProductRing(ProjectiveSpaceRing(2, "h1"), ProjectiveSpaceRing(1, "h2"))
    assert p21.point_label == "h1^2*h2"
    assert (p21.monomial("h1^2") * p21.monomial("h2")).integrate() == 1

    p22 = ProductRing(ProjectiveSpaceRing(2, "h1"), ProjectiveSpaceRing(2, "h2"))
    a = 2 * p22.monomial("h1") + p22.monomial("h2")
    sq = a * a
    assert sq == (
        4 * p22.monomial("h1^2") + 4 * p22.monomial("h1*h2") + p22.monomial("h2^2")
    )


def test_product_requires_distinct_generators():
    with pytest.raises(ValueError):
        ProductRing(ProjectiveSpaceRing(1), ProjectiveSpaceRing(1))


def test_projbundle_known_relations():
    # P(O + O(-1)) over P^2: c(E) = 1 - h, so xi^2 = -xi*h
    base = ProjectiveSpaceRing(2)
    h = base.hyperplane()
    pb = ProjBundleRing(base, [-h], 2)
    xi = pb.xi()
    assert xi * xi == -(xi * pb.from_base(h))

    # trivial rank-2 bundle over P^1: xi^2 = 0
    b1 = ProjectiveSpaceRing(1)
    tb = ProjBundleRing(b1, [b1.zero()], 2)
    assert (tb.xi() ** 2).is_zero()


def test_projbundle_generators_register_only_their_degrees(monkeypatch):
    base = ProjectiveSpaceRing(40)
    h = base.hyperplane()
    h3 = h**3
    pb = ProjBundleRing(base, [-h], 2)
    register, registered = ProjBundleRing._register, []

    def recording(ring, degree, pairs):
        registered.append((ring, degree))
        register(ring, degree, pairs)

    monkeypatch.setattr(ProjectiveSpaceRing, "_register", recording)
    monkeypatch.setattr(ProjBundleRing, "_register", recording)
    # xi and a base class read their own degrees of P(E); their labels used to build
    # every degree of P(E) and of P^40 not built yet, 76 registrations here
    xi, h_up = pb.xi(), pb.from_base(h)
    assert registered == [(pb, 1)]
    assert xi.terms == {"xi": 1} and h_up.terms == {"h": 1}
    assert pb.from_base(h3 + h).terms == {"h^3": 1, "h": 1}
    assert registered == [(pb, 1), (pb, 3)]


def test_projbundle_whitney_first_chern():
    # O(2) + O(1)^m over P^(m+1): the relation reduces xi^(m+1) with c_1 = (m+2)h
    m = 2
    base = ProjectiveSpaceRing(m + 1)
    h = base.hyperplane()
    cherns = []
    roots = [2] + [1] * m
    # elementary symmetric functions of 2h, h, ..., h
    from itertools import combinations

    for i in range(1, m + 2):
        coeff = sum(
            Fraction(1) * _prod(c) for c in combinations(roots, i)
        )
        cherns.append(coeff * h**i)
    pb = ProjBundleRing(base, cherns, m + 1)
    vec = pb.xi_power_normal(m + 1)
    assert vec[m] == (m + 2) * h  # coefficient of xi^m is c_1


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_fiber_integration_and_segre():
    # rank-3 bundle on P^4 with c_1 = 2h, c_2 = 3h^2, c_3 = h^3
    base = ProjectiveSpaceRing(4)
    h = base.hyperplane()
    cherns = [2 * h, 3 * h**2, h**3]
    pb = ProjBundleRing(base, cherns, 3)
    xi = pb.xi()
    # base classes come back untouched through xi^(r-1)
    assert pb.push_to_base(xi**2 * pb.from_base(h)) == h
    assert pb.push_to_base(xi * pb.from_base(h)).is_zero()
    # independent oracle: s_t = (-1)^t [c(E)^(-1)]_t
    inv = [base.unit()]
    for t in range(1, 3):
        acc = base.zero()
        for i in range(1, t + 1):
            ci = cherns[i - 1] if i <= len(cherns) else base.zero()
            acc = acc - ci * inv[t - i]
        inv.append(acc)
    for t in range(0, 3):
        assert pb.push_to_base(xi ** (2 + t)) == (-1) ** t * inv[t]


def _inverse_chern(cherns, base, top):
    """[c(E)^(-1)]_0 .. [c(E)^(-1)]_top, by the recursion s_t = -sum_i c_i s_(t-i)."""
    inv = [base.unit()]
    for t in range(1, top + 1):
        acc = base.zero()
        for i in range(1, min(t, len(cherns)) + 1):
            acc = acc - cherns[i - 1] * inv[t - i]
        inv.append(acc)
    return inv


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_push_to_base_matches_the_segre_oracle(n, rank):
    # pushing xi^(r-1+j) * b gives b * (-1)^j [c(E)^(-1)]_j, and xi^t * b with t < r-1 gives 0
    base = ProjectiveSpaceRing(n)
    h = base.hyperplane()
    cherns = [c * h**i for i, c in enumerate([2, 3, -1, 5][:rank], start=1)]
    pb = ProjBundleRing(base, cherns, rank)
    xi = pb.xi()
    inv = _inverse_chern(cherns, base, pb.dimension)
    total, expected = pb.zero(), base.zero()
    for t in range(pb.dimension + 1):
        for j, label in enumerate(base.basis()):
            b = base.monomial(label)
            want = base.zero() if t < rank - 1 else (-1) ** (t - rank + 1) * b * inv[t - rank + 1]
            x = xi**t * pb.from_base(b)
            assert pb.push_to_base(x) == want, (t, label)
            coeff = Fraction(t + 1, j + 2)
            total, expected = total + coeff * x, expected + coeff * want
    assert pb.push_to_base(total) == expected


def test_is_homogeneous():
    p3 = ProjectiveSpaceRing(3)
    h = p3.hyperplane()
    assert all(p3.zero().is_homogeneous(k) for k in range(-1, 5))
    assert (2 * h**2).is_homogeneous(2)
    assert not (2 * h**2).is_homogeneous(1) and not (2 * h**2).is_homogeneous(3)
    assert p3.unit().is_homogeneous(0)
    mixed = h + h**2
    assert not any(mixed.is_homogeneous(k) for k in range(-1, 5))


def test_check_graded_errors_through_each_caller():
    p3 = ProjectiveSpaceRing(3)
    h = p3.hyperplane()
    other = ProjectiveSpaceRing(3, "g").hyperplane()
    assert check_graded([h, p3.zero(), h**3], p3, "c") == (h, p3.zero(), h**3)
    with pytest.raises(DegreeError, match=r"^ch_2 must be homogeneous of degree 2$"):
        CharacterVector(p3, 1, [h, h**3])
    with pytest.raises(DegreeError, match=r"^ch_2 must be homogeneous of degree 2$"):
        CharacterVector(p3, 1, [h, h + h**2])
    with pytest.raises(DegreeError, match=r"^c_2 must be homogeneous of degree 2$"):
        chern_to_character([h, h], 2, p3)
    with pytest.raises(DegreeError, match=r"^c_1 must be homogeneous of degree 1$"):
        ProjBundleRing(p3, [h**2], 2)
    with pytest.raises(RingMismatchError):
        CharacterVector(p3, 1, [h, other**2])
    with pytest.raises(RingMismatchError):
        chern_to_character([other], 1, p3)
    with pytest.raises(RingMismatchError):
        ProjBundleRing(p3, [h, other**2], 2)


def test_projbundle_rejects_bad_chern_degrees():
    base = ProjectiveSpaceRing(3)
    h = base.hyperplane()
    with pytest.raises(DegreeError):
        ProjBundleRing(base, [h**2], 2)
    with pytest.raises(ValueError):
        ProjBundleRing(base, [h], 1)


def _sample_rings():
    base2 = ProjectiveSpaceRing(2)
    return [
        ProjectiveSpaceRing(3),
        ProductRing(ProjectiveSpaceRing(2, "h1"), ProjectiveSpaceRing(1, "h2")),
        GrassmannianRing(2, 4),
        GrassmannianRing(2, 5),
        ProjBundleRing(base2, [base2.hyperplane()], 2),
    ]


def test_commutativity_and_associativity_exhaustive():
    for ring in _sample_rings():
        assert ring.dimension <= 6
        labels = ring.basis()
        classes = [ring.monomial(l) for l in labels]
        for i, a in enumerate(classes):
            for b in classes[i:]:
                assert a * b == b * a
        for a in classes:
            for b in classes:
                for c in classes:
                    assert (a * b) * c == a * (b * c)


def test_poincare_pairing_unimodular():
    for ring in _sample_rings():
        dim = ring.dimension
        for d in range(dim + 1):
            rows = ring.basis(d)
            cols = ring.basis(dim - d)
            assert len(rows) == len(cols)
            matrix = [
                [(ring.monomial(r) * ring.monomial(c)).integrate() for c in cols] for r in rows
            ]
            assert abs(exact_det(matrix)) == 1


def test_graded_class_api():
    p3 = ProjectiveSpaceRing(3)
    h = p3.hyperplane()
    x = 2 * h + h**2
    assert x.degrees() == (1, 2)
    assert x.degree_part(1) == 2 * h
    assert x.coefficient("h^2") == 1
    with pytest.raises(DegreeError):
        x.homogeneous_degree()
    assert h * h == p3.monomial("h^2")
    assert (x - x).is_zero()
    assert x / 2 == h + h**2 / 2


def test_powers_are_repeated_products():
    for ring in _sample_rings():
        # a homogeneous generator and a class mixing every degree
        mixed = GradedClass(ring, {l: Fraction(i + 1, 2) for i, l in enumerate(ring.basis())})
        for x in (ring.monomial(ring.basis(1)[0]), mixed):
            expected = [ring.unit()]
            for t in range(ring.dimension + 2):
                assert x.powers(t) == tuple(expected), (ring, t)
                assert x**t == expected[t]
                expected.append(expected[-1] * x)
    with pytest.raises(ValueError):
        ProjectiveSpaceRing(2).hyperplane() ** -1


def test_ring_mismatch_rejected():
    a = ProjectiveSpaceRing(2)
    b = ProjectiveSpaceRing(2, "g")
    with pytest.raises(RingMismatchError):
        a.hyperplane() * b.hyperplane()


def test_unknown_label_rejected():
    p2 = ProjectiveSpaceRing(2)
    with pytest.raises(ValueError):
        GradedClass(p2, {"nope": Fraction(1)})


def _monomial(*powers):
    """The label of a product of gen^e, e.g. (("h1", 2), ("h2", 1)) -> "h1^2*h2"; "1" when no exponent is positive."""
    return "*".join(g if e == 1 else f"{g}^{e}" for g, e in powers if e) or "1"


def _eager(dim, labels_of):
    """Every degree's labels at once, in order: labels_of(d) for d = 0..dim."""
    return [list(labels_of(d)) for d in range(dim + 1)]


def _assert_basis(make, expected):
    """A ring from make() lists `expected` as basis() and, degree by degree, as basis(d).

    The degrees are read last to first on a second fresh ring, so each degree is
    built before the ones below it.
    """
    full = tuple(label for labels in expected for label in labels)
    ring = make()
    assert ring.basis() == full, ring.name
    ring = make()
    for d in reversed(range(len(expected))):
        assert ring.basis(d) == tuple(expected[d]), (ring.name, d)
        assert all(ring.degree_of(label) == d for label in expected[d])
    assert ring.basis() == full and ring.basis(-1) == ring.basis(len(expected)) == ()


def test_each_degree_is_built_as_an_eager_enumeration_lists_it():
    for gen in ("h", "x"):
        for n in range(6):
            _assert_basis(lambda: ProjectiveSpaceRing(n, gen), _eager(n, lambda d: [_monomial((gen, d))]))
    for a, b in product(range(4), repeat=2):
        pairs = sorted(product(range(a + 1), range(b + 1)), key=lambda ij: (sum(ij), ij))
        _assert_basis(
            lambda: ProductRing(ProjectiveSpaceRing(a, "h1"), ProjectiveSpaceRing(b, "h2")),
            _eager(a + b, lambda d: [_monomial(("h1", i), ("h2", j)) for i, j in pairs if i + j == d]),
        )
    # the P(E) of bundle_nonexample_diagnostic: E = O(2) + O(1)^m (case c) or T (case e) on P^(m+1)
    for case, m in product("ce", range(1, 4)):
        def bundle():
            base = ProjectiveSpaceRing(m + 1)
            h = base.hyperplane()
            chern = (1 + 2 * h) * (1 + h) ** m if case == "c" else (1 + h) ** (m + 2)
            return ProjBundleRing(base, [chern.degree_part(i) for i in range(1, m + 2)], m + 1)

        pairs = sorted(product(range(m + 2), range(m + 1)), key=lambda et: (sum(et), et[1]))
        _assert_basis(bundle, _eager(2 * m + 1, lambda d: [
            _monomial(("h", e), ("xi", t)) for e, t in pairs if e + t == d]))
    for n in range(2, 8):
        for k in range(1, n):
            # every weakly decreasing k-tuple in 0..n-k, without its zeros, in sorted order
            shapes = sorted({tuple(p for p in parts if p) for parts in product(range(n - k + 1), repeat=k)
                             if list(parts) == sorted(parts, reverse=True)})
            _assert_basis(lambda: GrassmannianRing(k, n), _eager(k * (n - k), lambda d: [
                "σ[" + ",".join(map(str, p)) + "]" if p else "1" for p in shapes if sum(p) == d]))
    for m in range(1, 6):
        # U: l^a e_j and l^a s (no e_j s), e_j of degree j; each degree lists the e-monomials
        # by the power of l, then the power of l alone, then the one with s
        exps = sorted(((a, j, b) for a, j, b in product(range(m + 1), repeat=3) if b <= 1 and not (j and b)),
                      key=lambda ajb: (ajb[2], ajb[1] == 0, ajb[0]))
        _assert_basis(lambda: UniversalModel(m), _eager(m, lambda d: [
            _monomial(("l", a), (f"e_{j}", 1 if j else 0), ("s", b)) for a, j, b in exps if a + j + b == d]))
        # the family side: l^a and l^a t_j, t_j of degree j - 1; the power of l alone comes first
        exps = sorted(product(range(m + 1), range(m + 2)), key=lambda aj: (aj[1] > 0, aj[0]))
        _assert_basis(lambda: FamilyModel(m), _eager(m, lambda d: [
            _monomial(("l", a), (f"t_{j}", 1 if j else 0)) for a, j in exps if a + max(j - 1, 0) == d]))


def test_hyperplane_powers_build_only_their_degrees():
    ring = ProjectiveSpaceRing(999999)
    assert ring.hyperplane() ** 3 == ring.monomial("h^3")
    assert [d for d, labels in enumerate(ring._basis) if labels] == [0, 1, 2, 3, 999999]


_SUB_RINGS = (
    ProjectiveSpaceRing(4),
    ProductRing(ProjectiveSpaceRing(2, "h1"), ProjectiveSpaceRing(2, "h2")),
)


def _classes(ring):
    """Classes of ring whose coefficients may be zero, which the class must drop."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(st.sampled_from(ring.basis()), coeffs).map(lambda t: GradedClass(ring, t))


@given(data=st.data())
def test_subtraction_adds_the_negative(data):
    ring = data.draw(st.sampled_from(_SUB_RINGS))
    a, b = data.draw(_classes(ring)), data.draw(_classes(ring))
    diff = a - b
    assert diff == a + (-b)
    assert diff.ring is ring and all(diff.terms.values())


def test_subtraction_edge_cases():
    p3 = ProjectiveSpaceRing(3)
    h = p3.hyperplane()
    x = 2 * h + Fraction(1, 3) * h**3
    assert (x - x).terms == {}
    # int and Fraction operands on either side
    assert x - 2 == p3.scalar(-2) + x
    assert x - Fraction(1, 2) == p3.scalar(Fraction(-1, 2)) + x
    assert 2 - x == p3.scalar(2) + (-x)
    assert Fraction(1, 3) - x == GradedClass(p3, {"1": Fraction(1, 3), "h": -2, "h^3": Fraction(-1, 3)})
    assert (p3.unit() - 1).terms == {} and (1 - p3.unit()).terms == {}
    with pytest.raises(RingMismatchError):
        x - ProjectiveSpaceRing(3, "g").hyperplane()
    with pytest.raises(RingMismatchError):
        x - ProductRing(ProjectiveSpaceRing(1, "h1"), ProjectiveSpaceRing(1, "h2")).unit()


def _fraction_product(x, y):
    """x * y term by term in Fractions: coefficient times coefficient times structure constant."""
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for label, m in x.ring.mul_basis(a, b).items():
                out[label] = out.get(label, Fraction(0)) + Fraction(ca) * Fraction(cb) * Fraction(m)
    return {label: c for label, c in out.items() if c}


def _rational_bundle():
    """P(E) over P^3 for a rank-3 E with non-integral Chern classes, so xi^3 reduces with
    rational structure constants."""
    p3 = ProjectiveSpaceRing(3)
    h = p3.hyperplane()
    return ProjBundleRing(p3, [Fraction(1, 2) * h, Fraction(-2, 3) * h**2, Fraction(5, 7) * h**3], 3)


_MUL_RINGS = _SUB_RINGS + (GrassmannianRing(2, 5), _rational_bundle())


@given(data=st.data())
def test_product_matches_the_fraction_reference(data):
    ring = data.draw(st.sampled_from(_MUL_RINGS))
    a, b = data.draw(_classes(ring)), data.draw(_classes(ring))
    prod = a * b
    assert prod.terms == _fraction_product(a, b)
    assert all(type(c) is Fraction for c in prod.terms.values())


def test_product_with_mixed_denominators_and_zero_factors():
    pb = _rational_bundle()
    # the structure constants reducing xi^3 are not all integers
    assert any(
        type(m) is Fraction and m.denominator > 1
        for a in pb.basis() for b in pb.basis() for m in pb.mul_basis(a, b).values()
    )
    xi, h = pb.xi(), pb.from_base(pb.base.hyperplane())
    x = Fraction(1, 6) * xi**2 + Fraction(-3, 4) * h * xi + Fraction(5, 9) * h
    y = Fraction(2, 5) * xi + Fraction(-7, 10) * h**2 + pb.scalar(Fraction(1, 12))
    assert (x * y).terms == _fraction_product(x, y)
    assert (y * x).terms == _fraction_product(x, y)
    assert (x * y) * xi == x * (y * xi)
    assert (x * pb.zero()).terms == {} and (pb.zero() * x).terms == {}
    assert (x * pb.unit()) == x
    p4 = ProjectiveSpaceRing(4)
    g = p4.hyperplane()
    u = Fraction(1, 6) * g + Fraction(1, 4) * g**2
    v = Fraction(2, 3) * g - Fraction(3, 10) * g**3
    assert u * v == GradedClass(p4, {"h^2": Fraction(1, 9), "h^3": Fraction(1, 6), "h^4": Fraction(-1, 20)})
