import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higherfano.catalog import (
    AMPLE,
    NEF_ONLY,
    NEITHER,
    CATALOG_VERSION,
    NoMatchError,
    PolarizedPair,
    UnsupportedPairError,
    catalog_entries,
    catalog_to_json,
    classify_pair,
    extremal_L_degrees,
    pair_case,
    pair_divisor_11,
    pair_linear_blowup,
    pair_picard_one,
    pair_product,
    pair_projective_space,
    pair_quadric,
    positivity_of_twist,
    tri_state,
    twist_class,
)
from higherfano.families import CI, G2P, ZERO_LOCI, minimal_pair, parse_spec


def test_twist_examples():
    for m in range(1, 7):
        a = pair_case("a", m)
        assert twist_class(a) == (Fraction(2),) * 2
        c = pair_case("c", m)
        assert twist_class(c) == c.L  # -2K - dL = L for the blowup pairs
    assert twist_class(pair_projective_space(5, 2)) == (Fraction(2),)
    assert twist_class(pair_projective_space(1, 3)) == (Fraction(1),)


def test_positivity_of_twist():
    for case in "abcde":
        for m in range(1, 7):
            assert positivity_of_twist(pair_case(case, m)) == AMPLE
    assert positivity_of_twist(pair_projective_space(1, 3)) == AMPLE
    # (1,1)-divisor in P^(k-1) x P^(n-k-1) at n = 2k+1 sits on the boundary
    assert positivity_of_twist(pair_divisor_11(1, 2)) == NEF_ONLY  # k=2, n=5
    assert positivity_of_twist(pair_divisor_11(2, 3)) == NEF_ONLY  # k=3, n=7
    assert positivity_of_twist(pair_divisor_11(1, 3)) == NEITHER  # k=2, n=6


def test_twist_status_is_keyed_on_the_numbers_not_the_label():
    # the status must equal a fresh pairing for every pair, whatever the order of the
    # calls, and a relabelled pair must read the same status
    pairs = [pair_projective_space(d, m) for d in range(1, 7) for m in range(1, 6)]
    pairs += [pair_quadric(d) for d in range(1, 7)] + [pair_divisor_11(a, b) for a in (1, 2) for b in (2, 3)]
    for pair in pairs + pairs[::-1]:
        fresh = tri_state(pair.degrees_on_mori(twist_class(pair)))
        assert positivity_of_twist(pair) == fresh
        assert positivity_of_twist(pair._replace(label="relabelled", structure="other")) == fresh
    # same dim, label and K, only L differs: ample, on the boundary, negative
    p3 = pair_picard_one("P", 3, 4, 1, "projective_space")
    statuses = [positivity_of_twist(p3._replace(L=(Fraction(m, 3),))) for m in (7, 8, 9)]
    assert statuses == [AMPLE, NEF_ONLY, NEITHER]


def test_every_pair_lattice_is_ints():
    # one spec per kind with a minimal pair, and SG on both sides of n = 2k
    specs = [parse_spec(t) for t in
             ("CI[9;3]", "G[2,5]", "GH[3,7]", "OG[2,9]", "SG[3,6]", "SG[3,12]", "SGdeg[3,9]", "G2P")]
    assert {s.kind for s in specs} == {*ZERO_LOCI, CI, G2P}
    for pair in (*catalog_entries(), *map(minimal_pair, specs)):
        vectors = (*pair.pairing, pair.K, pair.L, *pair.nef_generators, *pair.mori_generators)
        numbers = [x for v in vectors for x in v]
        assert numbers and all(type(x) is int for x in numbers), pair.label


def test_extremal_degrees():
    for m in range(1, 7):
        assert extremal_L_degrees(pair_case("c", m)) == (Fraction(1), Fraction(1))
        assert extremal_L_degrees(pair_case("d", m)) == (Fraction(1),) * len(
            pair_case("d", m).mori_generators
        )
    assert extremal_L_degrees(pair_projective_space(4, 2)) == (Fraction(2),)
    assert extremal_L_degrees(pair_projective_space(1, 3)) == (Fraction(3),)


def test_classification():
    for case in "abcde":
        for m in range(1, 7):
            got = classify_pair(pair_case(case, m))
            assert got == (case, m), (case, m, got)


def test_classification_concrete_examples():
    assert classify_pair(pair_product(pair_projective_space(2), pair_projective_space(2))) == ("a", 2)
    assert classify_pair(pair_product(pair_projective_space(3), pair_projective_space(2))) == ("b", 2)
    assert classify_pair(pair_linear_blowup(5, 1)) == ("c", 2)


def test_classification_preconditions():
    with pytest.raises(ValueError):
        classify_pair(pair_projective_space(3))  # rank 1
    with pytest.raises(ValueError):
        classify_pair(pair_product(pair_projective_space(1), pair_projective_space(3)))  # nef only


def test_classification_no_match():
    fake = pair_case("d", 2)
    fake = PolarizedPair(
        label="fake",
        dim=fake.dim,
        divisor_basis=fake.divisor_basis,
        curve_basis=fake.curve_basis,
        pairing=fake.pairing,
        K=fake.K,
        L=fake.L,
        nef_generators=fake.nef_generators,
        mori_generators=fake.mori_generators,
        structure="mystery",
    )
    with pytest.raises(NoMatchError):
        classify_pair(fake)


def test_d_and_e_are_lattice_twins():
    # identical numerical lattices; only the structure tag separates them
    d2, e2 = pair_case("d", 2), pair_case("e", 2)
    assert d2.K == e2.K and d2.L == e2.L and d2.dim == e2.dim
    assert set(d2.nef_generators) == set(e2.nef_generators)
    assert set(d2.mori_generators) == set(e2.mori_generators)
    assert d2.structure != e2.structure


def test_low_dimensional_quadrics():
    q1 = pair_quadric(1)
    assert q1.picard_rank == 1 and q1.L == (Fraction(2),)
    q2 = pair_quadric(2)
    assert q2.picard_rank == 2 and q2.dim == 2
    q3 = pair_quadric(3)
    assert q3.picard_rank == 1 and q3.K == (Fraction(-3),)


def test_case_d_at_m1_is_threefold_of_rank_three():
    d1 = pair_case("d", 1)
    assert d1.dim == 3 and d1.picard_rank == 3
    assert positivity_of_twist(d1) == AMPLE


def test_catalog_invariants():
    entries = catalog_entries()
    assert len(entries) > 40
    for pair in entries:
        neg_k = [-x for x in pair.K]
        assert pair.is_ample(pair.L), pair.label
        assert pair.is_ample(neg_k), pair.label
        assert pair.pseudoindex >= 1, pair.label
        # duality sanity: nef generators are nonnegative on the Mori cone
        for nef in pair.nef_generators:
            assert all(v >= 0 for v in pair.degrees_on_mori(nef)), pair.label
        if pair.picard_rank >= 2:
            assert pair.pseudoindex <= Fraction(pair.dim, 2) + 1, pair.label


def test_polarization_has_degree_one_on_extremal_curves():
    for pair in catalog_entries():
        if pair.picard_rank == 1 and pair.L[0] > 1:
            continue  # (P^d, O(2)) and (P^1, O(3)) are the stated exceptions
        assert all(v == 1 for v in extremal_L_degrees(pair)), pair.label


def test_unsupported_parameters():
    with pytest.raises(UnsupportedPairError):
        pair_projective_space(0)
    with pytest.raises(UnsupportedPairError):
        pair_quadric(0)
    with pytest.raises(UnsupportedPairError):
        pair_case("a", 0)
    with pytest.raises(UnsupportedPairError):
        pair_linear_blowup(3, 2)  # codimension 1 center


def test_json_serialization():
    doc = json.loads(catalog_to_json())
    assert doc["catalog_version"] == CATALOG_VERSION
    labels = [p["label"] for p in doc["pairs"]]
    assert len(labels) == len(set(labels))
    byname = {p["label"]: p for p in doc["pairs"]}
    c2 = byname["P_P3(O2+O1^2)(OP1)"]
    assert c2["K"] == ["-6", "3"]
    assert c2["L"] == ["2", "-1"]
    assert c2["pairing"] == [["1", "0"], ["0", "-1"]]
    assert c2["pseudoindex"] == "3"
    # all numbers are serialized as exact strings
    for p in doc["pairs"]:
        for vec in (p["K"], p["L"]):
            assert all(isinstance(x, str) for x in vec)


def test_intersection_arithmetic():
    c = pair_case("c", 2)
    # L = 2H - E against the two extremal curves
    assert c.intersect(c.L, (0, 1)) == 1  # exceptional line
    assert c.intersect(c.L, (1, -1)) == 1  # strict transform of a line through the center
    assert c.intersect([-x for x in c.K], (0, 1)) == 3


def test_tri_state():
    assert tri_state([Fraction(1, 2), 3]) == AMPLE
    assert tri_state([Fraction(1, 2), 0]) == NEF_ONLY
    assert tri_state([1, 0, Fraction(-1, 3)]) == NEITHER


_values = st.one_of(st.integers(-3, 3), st.fractions(Fraction(-3), Fraction(3), max_denominator=7))


@given(st.lists(_values, max_size=6))
def test_tri_state_is_the_two_all_rule(values):
    # the least value decides; on no value every value is positive, so the empty list is AMPLE
    if all(v > 0 for v in values):
        expected = AMPLE
    elif all(v >= 0 for v in values):
        expected = NEF_ONLY
    else:
        expected = NEITHER
    assert tri_state(values) == expected
    assert tri_state(tuple(values)) == expected


def test_intersect_is_the_double_sum_over_the_bases():
    # sum_ij D_i pairing_ij C_j, summed index by index over both bases
    for pair in catalog_entries():
        rho, nc = pair.picard_rank, len(pair.curve_basis)
        for divisor in (*pair.nef_generators, pair.K, pair.L, twist_class(pair)):
            for curve in pair.mori_generators:
                expected = sum(divisor[i] * pair.pairing[i][j] * curve[j] for i in range(rho) for j in range(nc))
                assert pair.intersect(divisor, curve) == expected, pair.label
            assert pair.degrees_on_mori(divisor) == tuple(pair.intersect(divisor, r) for r in pair.mori_generators)


def test_pair_picard_one_builds_the_rank_one_pairs():
    assert pair_picard_one("P4(O2)", 4, 5, 2, "projective_space") == pair_projective_space(4, 2)
    assert pair_picard_one("Q5(O1)", 5, 5, 1, "quadric") == pair_quadric(5)
    pair = pair_picard_one("X", 3, 4, 1, "test")
    assert pair.K == (Fraction(-4),) and pair.L == (Fraction(1),) and pair.pseudoindex == 4


def test_catalog_json_golden_digest():
    # digest of the catalog JSON as recorded before the rank-one pairs shared one constructor
    digest = hashlib.sha256(catalog_to_json().encode("utf-8")).hexdigest()
    assert digest == "f4f934d5865ac93828344c944a0465b8a9680cae6b37a1756b565ccd8367a328"
