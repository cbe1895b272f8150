import csv
import hashlib
import io
import pickle
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from higherfano import schubert
from higherfano import families as fam
from higherfano.bundles import power_sum_class
from higherfano.catalog import AMPLE, NEF_ONLY, tri_state
from higherfano.families import (
    NEITHER,
    POSITIVE,
    InvalidFamilyError,
    NoClosedFormError,
    NoPairError,
    chk_verdict,
    consistency_check,
    dim_x,
    enumerate_fano_ci,
    minimal_pair,
    parse_spec,
    product_nonexample,
    threshold_oracle,
)
from higherfano.rings import DegreeError, GradedClass
from higherfano.schubert import GrassmannianRing, partitions_in_box

import reference
from reference import (
    CharacterVector,
    character_to_chern,
    chern_to_character,
    euler_character,
    line_character,
    sym2_character,
    tangent_character,
    tautological_chern,
    trivial_character,
    wedge2_character,
)


def test_family_specs_are_validating_tuples():
    spec = fam.FamilySpec(fam.GRASS, k=2, n=5)
    assert repr(spec) == "FamilySpec(kind='G', k=2, n=5, degrees=())" and str(spec) == "G[2,5]"
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec(fam.GRASS, k=2, n=3)
    # a pickled spec comes back equal, as a FamilySpec
    for spec in (spec, fam.ci(9, (3, 2)), fam.FamilySpec(fam.G2P), fam.FamilySpec(fam.PRODUCT_PN, 2, 3)):
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec and type(back) is fam.FamilySpec and hash(back) == hash(spec)
    # and unpickling runs the validation: a spec that skipped it is refused on load
    unchecked = tuple.__new__(fam.FamilySpec, (fam.GRASS, 2, 3, ()))
    with pytest.raises(InvalidFamilyError):
        pickle.loads(pickle.dumps(unchecked))
    # _make and _replace build through the constructor too: namedtuple's own skip __new__
    cubic = fam.ci(9, (3, 2))
    assert cubic._replace(degrees=(2, 3)) == cubic and str(cubic._replace(degrees=(2, 3))) == "CI[9;3,2]"
    assert fam.FamilySpec._make((fam.CI, 0, 9, [2, 3])) == cubic
    wider = fam.FamilySpec(fam.GRASS, k=2, n=5)._replace(n=6)
    assert type(wider) is fam.FamilySpec and wider == fam.parse_spec("G[2,6]")
    with pytest.raises(InvalidFamilyError, match="CI needs n >= 1"):
        cubic._replace(n=-1)
    with pytest.raises(InvalidFamilyError, match="G needs 2 <= k <= n/2"):
        fam.FamilySpec._make((fam.GRASS, 2, 3, ()))
    # and _make takes every field, as namedtuple's does, not the constructor's defaults
    for short in ((fam.G2P,), (fam.CI, 0, 9)):
        with pytest.raises(TypeError, match="Expected 4 arguments"):
            fam.FamilySpec._make(short)


def test_verdicts_hash_and_compare_without_their_character():
    # a verdict is a plain named tuple of its four fields: it carries no character
    spec = fam.FamilySpec(fam.GRASS, k=2, n=5)
    verdict = chk_verdict(spec, 2)
    assert isinstance(hash(verdict), int) and isinstance(hash(consistency_check(spec)), int)
    assert fam.Verdict._fields == ("k", "status", "witnesses", "note") and not hasattr(verdict, "character")
    twin = fam.Verdict(2, verdict.status, verdict.witnesses)
    assert twin.note == "" and twin == verdict and hash(twin) == hash(verdict)
    assert twin == (2, "POSITIVE", (("σ[1,1]", Fraction(1, 2)), ("σ[2]", Fraction(3, 2))), "")
    assert repr(verdict) == (
        "Verdict(k=2, status='POSITIVE', witnesses=(('σ[1,1]', Fraction(1, 2)), ('σ[2]', Fraction(3, 2))), note='')"
    )
    back = pickle.loads(pickle.dumps(verdict))
    assert back == verdict and type(back) is fam.Verdict
    with pytest.raises(AttributeError):
        verdict.character = tangent_character(spec, cap=2)


def test_gh_rows_multiply_no_schubert_class(monkeypatch):
    Ring = schubert.GrassmannianRing
    mul_labels, products = Ring._mul_labels, []

    def counting(ring, *args):
        products.append(args)
        return mul_labels(ring, *args)

    # fresh rings, so no product is already in a ring's cache
    monkeypatch.setattr(fam, "_grass_ring", lru_cache(maxsize=None)(GrassmannianRing))
    monkeypatch.setattr(Ring, "_mul_labels", counting)
    for n in (8, 9, 10):
        tangent_character(fam.FamilySpec(fam.GRASS_HYP, k=3, n=n), cap=6)
    # ch(O(1)) comes from hook lengths, not from the powers of sigma_1
    assert products == []


def test_parse_and_text_round_trip():
    for text in ["CI[9;3]", "CI[10;3,2]", "CI[5;]", "G[2,5]", "GH[2,6]", "OG[2,8]",
                 "SG[3,12]", "SGdeg[2,7]", "G2P", "PP[3,4]"]:
        assert parse_spec(text).text() == text


def test_validation():
    for bad in ["G[2,3]", "G[1,5]", "OG[2,6]", "SG[2,5]", "SGdeg[2,6]", "CI[4;5]",
                "PP[0,1]", "nonsense", "G[2]"]:
        with pytest.raises(InvalidFamilyError):
            parse_spec(bad)


def test_dimensions():
    assert dim_x(parse_spec("G[2,5]")) == 6
    assert dim_x(parse_spec("GH[2,5]")) == 5
    assert dim_x(parse_spec("OG[2,8]")) == 9  # k(2n-3k-1)/2
    assert dim_x(parse_spec("SG[2,6]")) == 7  # k(2n-3k+1)/2
    assert dim_x(parse_spec("SGdeg[2,7]")) == 9
    assert dim_x(parse_spec("CI[9;3]")) == 8
    assert dim_x(parse_spec("G2P")) == 5
    assert dim_x(parse_spec("PP[3,4]")) == 7
    # Grassmannian ring dimension realizes the formula
    for n in range(4, 10):
        for k in range(2, n // 2 + 1):
            assert GrassmannianRing(k, n).dimension == dim_x(fam.FamilySpec(fam.GRASS, k=k, n=n))


def test_component_above_the_cap_is_refused():
    # the true ch_3 of G(2,5) is -5/6 sigma_21 + 5/6 sigma_3, not the 0 a cap-2 character would give
    g = fam.FamilySpec(fam.GRASS, k=2, n=5)
    ring = fam._power_sums(g)[0]
    assert tangent_character(g, cap=3).component(3) == (
        Fraction(-5, 6) * ring.sigma((2, 1)) + Fraction(5, 6) * ring.sigma((3,))
    )
    truncated = tangent_character(g, cap=2)
    assert truncated.component(0) == ring.scalar(6) and truncated.component(-1).is_zero()
    with pytest.raises(DegreeError, match=r"ch_3 is above this character's cap 2"):
        truncated.component(3)


def test_tangent_character_examples():
    g = fam.FamilySpec(fam.GRASS, k=2, n=5)
    ring = fam._power_sums(g)[0]
    ch2 = tangent_character(g, cap=2).component(2)
    assert ch2 == Fraction(3, 2) * ring.sigma((2,)) + Fraction(1, 2) * ring.sigma((1, 1))

    og = fam.FamilySpec(fam.OG, k=2, n=8)
    ring = fam._power_sums(og)[0]
    ch2 = tangent_character(og, cap=2).component(2)
    assert ch2 == Fraction(1, 2) * ring.sigma((2,)) + Fraction(1, 2) * ring.sigma((1, 1))

    sg = fam.FamilySpec(fam.SG, k=2, n=6)
    ring = fam._power_sums(sg)[0]
    ch2 = tangent_character(sg, cap=2).component(2)
    assert ch2 == Fraction(3, 2) * ring.sigma((2,)) - Fraction(1, 2) * ring.sigma((1, 1))


def test_tangent_character_ranks():
    for text in ["CI[9;3]", "G[2,5]", "GH[2,6]", "OG[2,8]", "SG[3,8]", "SGdeg[2,7]", "PP[2,3]"]:
        spec = parse_spec(text)
        assert tangent_character(spec, cap=2).rank == dim_x(spec)


def test_ci_tangent_components():
    spec = fam.ci(9, (3,))
    ring = fam._power_sums(spec)[0]
    h = ring.hyperplane()
    ch = tangent_character(spec, cap=3)
    assert ch.component(1) == 7 * h
    assert ch.component(2) == Fraction(1, 2) * h**2
    assert ch.component(3) == Fraction(10 - 27, 6) * h**3


def test_verdict_examples():
    assert chk_verdict(fam.FamilySpec(fam.GRASS, k=2, n=4), 2).status == POSITIVE
    assert chk_verdict(fam.FamilySpec(fam.GRASS, k=2, n=7), 2).status == NEITHER
    assert chk_verdict(fam.ci(9, (3,)), 2).status == POSITIVE
    v = chk_verdict(fam.FamilySpec(fam.GRASS, k=2, n=7), 2)
    assert dict(v.witnesses)["σ[1,1]"] == Fraction(-1, 2)


def test_verdict_rejects_bad_k():
    with pytest.raises(InvalidFamilyError):
        chk_verdict(fam.FamilySpec(fam.GRASS, k=2, n=4), 1)
    with pytest.raises(InvalidFamilyError):
        chk_verdict(fam.ci(4, (2,)), 4)  # dim X = 3
    with pytest.raises(InvalidFamilyError):
        chk_verdict(fam.FamilySpec(fam.G2P), 3)


def test_threshold_oracle():
    assert threshold_oracle(fam.FamilySpec(fam.OG, k=3, n=11), 2) == POSITIVE
    assert threshold_oracle(fam.FamilySpec(fam.SG, k=4, n=8), 2) == POSITIVE
    assert threshold_oracle(fam.ci(10, (2, 2)), 3) == NEITHER  # 16 > 11
    assert threshold_oracle(fam.FamilySpec(fam.G2P), 2) == POSITIVE
    with pytest.raises(NoClosedFormError):
        threshold_oracle(fam.FamilySpec(fam.GRASS, k=2, n=5), 3)
    with pytest.raises(NoClosedFormError):
        threshold_oracle(fam.FamilySpec(fam.PRODUCT_PN, 2, 3), 2)


def test_ch3_verdict_computed_for_grassmannian():
    # machinery supports k = 3 on the ambient ring even without a closed form
    v = chk_verdict(fam.FamilySpec(fam.GRASS, k=2, n=5), 3)
    assert set(dict(v.witnesses)) == {"σ[3]", "σ[2,1]"}


def test_minimal_pairs():
    assert minimal_pair(fam.FamilySpec(fam.GRASS, k=3, n=7)).label == "P2xP3(1,1)"
    assert minimal_pair(fam.FamilySpec(fam.SG, k=3, n=12)).label == "P_P2(O2+O1^6)(OP1)"
    assert minimal_pair(fam.FamilySpec(fam.G2P)).label == "P1(O3)"
    assert minimal_pair(fam.FamilySpec(fam.OG, k=2, n=8)).label == "P1xQ2(1,1,1)"
    # Lagrangian boundary: the bundle degenerates to (P^(k-1), O(2))
    p = minimal_pair(fam.FamilySpec(fam.SG, k=4, n=8))
    assert p.dim == 3 and p.L == (Fraction(2),)
    # the (1,1)-divisor in P^1 x P^1 is a conic
    conic = minimal_pair(fam.FamilySpec(fam.GRASS_HYP, k=2, n=4))
    assert conic.dim == 1 and conic.L == (Fraction(2),)
    with pytest.raises(NoPairError):
        minimal_pair(fam.FamilySpec(fam.PRODUCT_PN, 2, 2))
    with pytest.raises(NoPairError):
        minimal_pair(fam.ci(4, (2, 2)))  # dim H < 0


def test_ci_minimal_pair_twist_matches_inequality():
    for n in range(2, 13):
        for degrees in fam.enumerate_fano_ci(n, 3):
            pair = minimal_pair(fam.ci(n, degrees))
            s = sum(d * d for d in degrees)
            from higherfano.catalog import positivity_of_twist

            expected = AMPLE if s <= n else (NEF_ONLY if s == n + 1 else "NEITHER")
            assert positivity_of_twist(pair) == expected, (n, degrees)


def test_consistency_sweep():
    specs = []
    for n in range(4, 15):
        for k in range(2, n + 1):
            for kind in fam.ZERO_LOCI:
                try:
                    specs.append(fam.FamilySpec(kind, k=k, n=n))
                except InvalidFamilyError:
                    continue
    for n in range(2, 13):
        for degrees in fam.enumerate_fano_ci(n, 2):
            specs.append(fam.ci(n, degrees))
    specs.append(fam.FamilySpec(fam.G2P))
    for spec in specs:
        rep = consistency_check(spec)
        assert rep.agree, (spec.text(), rep)


def test_lagrangian_collapse_is_justified():
    # on G(k, 2k), both degree-2 classes multiply equally into the zero-locus
    # Euler class e(N) = c_top(wedge^2 of the dual subbundle)
    for k in (2, 3, 4):
        ring = GrassmannianRing(k, 2 * k)
        rank = k * (k - 1) // 2
        if rank == 0:
            continue
        sdual = chern_to_character(tautological_chern(ring, "sub-dual"), k, ring, cap=rank)
        w2 = wedge2_character(sdual)
        euler = character_to_chern(w2)[rank - 1]
        assert ring.sigma((2,)) * euler == ring.sigma((1, 1)) * euler, k


def test_de_jong_starr_examples():
    for k in range(2, 6):
        assert chk_verdict(fam.FamilySpec(fam.GRASS, k=k, n=2 * k), 2).status == POSITIVE
        assert chk_verdict(fam.FamilySpec(fam.GRASS, k=k, n=2 * k + 1), 2).status == POSITIVE


def test_product_nonexample():
    for a in range(1, 7):
        for b in range(1, 7):
            assert product_nonexample(a, b) == 0
    # contrast: pairing with a plane inside the first factor is positive
    spec = fam.FamilySpec(fam.PRODUCT_PN, 3, 4)
    ring = fam._power_sums(spec)[0]
    ch2 = tangent_character(spec, cap=2).component(2)
    plane = ring.monomial("h1") * ring.monomial("h2") ** 4
    assert (ch2 * plane).integrate() == Fraction(4, 2)


def test_product_verdict_is_nef_only():
    assert chk_verdict(fam.FamilySpec(fam.PRODUCT_PN, 2, 3), 2).status == NEF_ONLY


def test_bundle_nonexample_diagnostic():
    # at m = 1 the pullback hyperplane already pairs to zero
    for case in "ce":
        pairings = fam.bundle_nonexample_diagnostic(case, 1)
        assert min(v for _, v in pairings) == 0, (case, pairings)
    # for larger m every monomial pairing is positive: the diagnostic records
    # that no monomial witness exists (best effort, by design)
    for case in "ce":
        for m in (2, 3):
            pairings = fam.bundle_nonexample_diagnostic(case, m)
            assert all(v > 0 for v in (v for _, v in pairings)), (case, m)
    with pytest.raises(InvalidFamilyError):
        fam.bundle_nonexample_diagnostic("a", 2)
    # every pairing, not only its sign: the construction with characters on P(E)
    # (Newton for c(E), E^dual pulled back times e^xi) is the reference
    for case in "ce":
        for m in range(1, 9):
            assert fam.bundle_nonexample_diagnostic(case, m) == reference.bundle_nonexample_diagnostic(case, m), \
                (case, m)


def test_anticanonical_degrees():
    assert fam.anticanonical_line_degree(fam.FamilySpec(fam.GRASS, k=2, n=5)) == 5
    assert fam.anticanonical_line_degree(fam.FamilySpec(fam.OG, k=2, n=8)) == 5
    assert fam.anticanonical_line_degree(fam.FamilySpec(fam.SG, k=3, n=8)) == 6
    assert fam.anticanonical_line_degree(fam.FamilySpec(fam.GRASS_HYP, k=2, n=6)) == 5
    assert fam.anticanonical_line_degree(fam.ci(9, (3,))) == 7
    assert fam.anticanonical_line_degree(fam.FamilySpec(fam.G2P)) == 3


def test_consistency_report_agreement():
    rep = consistency_check(fam.FamilySpec(fam.GRASS, k=2, n=5))
    assert rep.agree and rep.twist_status == AMPLE and rep.pair_dim == rep.expected_dim == 3
    assert not rep._replace(pair_dim=rep.pair_dim + 1).agree
    assert not rep._replace(twist_status=NEF_ONLY).agree
    assert not rep._replace(oracle_status=NEITHER).agree
    # no closed form and no twist at k = 10: the ring verdict stands alone
    deep = consistency_check(fam.FamilySpec(fam.GRASS, k=3, n=9), 10)
    assert deep.oracle_status == "" and deep.twist_status == "" and deep.pair_label == ""
    assert deep.pair_dim is None and deep.expected_dim is None and deep.agree
    # products report instead of raising: no oracle, no minimal pair
    prod = consistency_check(fam.FamilySpec(fam.PRODUCT_PN, 2, 3))
    assert prod.verdict.status == NEF_ONLY and prod.oracle_status == "" and prod.twist_status == ""
    assert prod.agree
    # CI at k = 3: ring and threshold, no twist
    ci3 = consistency_check(fam.ci(9, (3,)), 3)
    assert ci3.oracle_status == ci3.verdict.status == NEITHER and ci3.twist_status == "" and ci3.agree


def test_dim_h_reads_c1_from_the_degree_one_power_sum(monkeypatch):
    # c_1 = 1! ch_1(T_X) is the integer p(1) on the one degree-1 label, read with no class,
    # from the (ring, p) the verdict read: a row reads the power sums once
    built, reads = [], []
    power_sum_class, power_sums = fam.power_sum_class, fam._power_sums

    def recording(ring, j, p_j):
        built.append(j)
        return power_sum_class(ring, j, p_j)

    def reading(spec):
        reads.append(spec)
        return power_sums(spec)

    monkeypatch.setattr(fam, "power_sum_class", recording)
    monkeypatch.setattr(fam, "_power_sums", reading)
    for spec, c1 in ((fam.FamilySpec(fam.GRASS, k=2, n=5), 5), (fam.FamilySpec(fam.OG, k=2, n=8), 5),
                     (fam.FamilySpec(fam.SG, k=3, n=8), 6), (fam.FamilySpec(fam.GRASS_HYP, k=2, n=6), 5),
                     (fam.ci(9, (3,)), 7)):
        built.clear()
        reads.clear()
        rep = consistency_check(spec)
        assert built == [] and reads == [spec], spec.text()
        assert rep.expected_dim == c1 - 2 == fam.anticanonical_line_degree(spec) - 2, spec.text()
        assert type(fam._line_degree(*fam._power_sums(spec))) is int


def test_enumerate_fano_ci_rejects_negative_codimension():
    assert list(fam.enumerate_fano_ci(10, 0)) == [()]
    with pytest.raises(InvalidFamilyError):
        list(fam.enumerate_fano_ci(10, -1))


def test_g2_fact_record():
    v = chk_verdict(fam.FamilySpec(fam.G2P), 2)
    assert v.status == POSITIVE and v.witnesses == ()
    rep = consistency_check(fam.FamilySpec(fam.G2P))
    assert rep.agree and rep.pair_dim == 1


def test_specs_are_validated_when_built():
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec(fam.GRASS, k=1, n=3)
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec("XX")
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec(fam.CI, n=4, degrees=(5,))
    # a field the kind does not read holds its zero, so each family has one spec
    for fields, message in (
        ((fam.CI, 5, 9, (3,)), "CI takes no k"),
        ((fam.GRASS, 2, 5, (3,)), "G takes no degrees"),
        ((fam.PRODUCT_PN, 2, 3, (1,)), "PP takes no degrees"),
        ((fam.G2P, 3, 7), "G2P takes no parameters"),
        ((fam.G2P, 0, 1), "G2P takes no parameters"),
        ((fam.G2P, 0, 0, (2,)), "G2P takes no degrees"),
    ):
        with pytest.raises(InvalidFamilyError, match=message):
            fam.FamilySpec(*fields)
    assert fam.FamilySpec(fam.G2P, 0, 0, ()) == fam.parse_spec("G2P")
    listed = fam.FamilySpec(fam.GRASS, 2, 5, [])
    assert listed == fam.parse_spec("G[2,5]") and hash(listed) == hash(fam.parse_spec("G[2,5]"))


def test_ci_not_covered_by_lines_gets_a_row():
    for spec in (fam.ci(4, (2, 2)), fam.ci(3, (3,))):
        with pytest.raises(NoPairError):
            minimal_pair(spec)
        rep = consistency_check(spec)
        assert rep.verdict.status == rep.oracle_status == NEITHER
        assert rep.twist_status == "" and rep.pair_label == ""
        assert rep.pair_dim is None and rep.expected_dim is None
        assert rep.agree


def _euler_sequence_character(n, degrees, cap):
    """ch(T_X) = (n+1)e^h - 1 - sum_i e^(d_i h) up to cap, from line characters as classes."""
    h = fam._power_sums(fam.ci(n, ()))[0].hyperplane()
    ch = line_character(h, cap) * (n + 1) - trivial_character(h.ring, 1, cap)
    for d in degrees:
        ch = ch - line_character(d * h, cap)
    return ch


def test_ci_character_from_the_cache_matches_the_euler_sequence():
    # every row on P^n reads its ring from the cached _pn_ring; its character is built
    # on ints, (n+1) - sum_i d_i^j per degree j, and must be the Euler sequence's
    for n in range(1, 13):
        for degrees in enumerate_fano_ci(n, 4):
            spec = fam.ci(n, degrees)
            h = fam._power_sums(spec)[0].hyperplane()
            for cap in range(1, dim_x(spec) + 1):
                ch = tangent_character(spec, cap)
                assert ch == _euler_sequence_character(n, degrees, cap), (spec, cap)
                # and the closed form: rank dim X, ch_k = ((n+1) - sum_i d_i^k) h^k / k!
                assert ch.rank == dim_x(spec) and ch.cap == cap
                for k in range(1, cap + 1):
                    coeff = Fraction(n + 1 - sum(d**k for d in degrees), factorial(k))
                    assert ch.component(k) == coeff * h**k, (spec, k)


def test_product_character_is_the_sum_of_two_euler_sequences():
    # P^a x P^b sums (a+1) h1^j + (b+1) h2^j on ints; the Euler sequence on each factor,
    # added as characters, is the reference
    for a in range(1, 7):
        for b in range(1, 7):
            spec = fam.FamilySpec(fam.PRODUCT_PN, a, b)
            ring = fam._power_sums(spec)[0]
            h1, h2 = ring.monomial("h1"), ring.monomial("h2")
            for cap in range(1, a + b + 1):
                ch = tangent_character(spec, cap)
                assert ch == euler_character(h1, a, cap) + euler_character(h2, b, cap), (a, b, cap)
                assert ch.rank == dim_x(spec) and ch.cap == cap


def test_cached_ambient_characters_stay_equal_to_a_fresh_computation():
    # many rows on the same P^n share the cached ring and its basis classes; no row's
    # witnesses may leak into another's
    held = []
    for n in range(2, 13):
        for degrees in enumerate_fano_ci(n, 3):
            spec = fam.ci(n, degrees)
            for k in range(2, min(dim_x(spec), 4) + 1):
                held.append((n, degrees, k, consistency_check(spec, k).verdict.witnesses))
    assert fam._pn_ring.cache_info().currsize
    for n, degrees, k, witnesses in held:
        (label,) = fam._pn_ring(n).basis(k)
        ch_k = _euler_sequence_character(n, degrees, k).component(k)
        assert witnesses == ((label, ch_k.coefficient(label)),), (n, degrees, k)
        assert tangent_character(fam.ci(n, ()), k) == _euler_sequence_character(n, (), k)
        assert fam._power_sums(fam.ci(n, degrees))[0] is fam._pn_ring(n)


def test_ci_prefix_memo_matches_the_euler_sequence_in_any_order():
    # a CI row keeps no prefix memo, so the order in which rows are visited can change
    # no value: a shuffled order must give what the sorted census order gives
    import random

    visits = [
        (fam.ci(n, degrees), cap)
        for n in range(1, 13)
        for degrees in enumerate_fano_ci(n, 4)
        for cap in range(1, n - len(degrees) + 1)
    ]
    in_order = {visit: tangent_character(*visit) for visit in visits}
    random.Random(20090).shuffle(visits)
    for spec, cap in visits:
        ch = tangent_character(spec, cap)
        assert ch == _euler_sequence_character(spec.n, spec.degrees, cap), (spec, cap)
        assert ch == in_order[spec, cap], (spec, cap)


def _count_character_arithmetic(monkeypatch) -> list[str]:
    """A list that records each CharacterVector or GradedClass sum, difference and product."""
    calls = []

    def counting(name, op):
        def counted(*args):
            calls.append(name)
            return op(*args)
        return counted

    for cls in (CharacterVector, GradedClass):
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counting(f"{cls.__name__}.{name}", getattr(cls, name)))
    return calls


def test_ci_census_runs_no_character_arithmetic(monkeypatch):
    # a CI row sums (n+1) - sum_i d_i^j on ints and divides by j! once: no row adds,
    # subtracts or multiplies a character or a class
    from higherfano import cli

    calls = _count_character_arithmetic(monkeypatch)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["census", "CI", "--n-range", "2..22", "--max-c", "3", "--format", "csv"]) == 0
    assert len(list(csv.DictReader(io.StringIO(out.getvalue())))) == 1731
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        "48b08d2e07bbafae317d28c5c93eabb621a43bfd4ca5b0107d9beec4c56947fc"
    assert not calls, Counter(calls)


def _two_recursion_tangent(spec, cap):
    """ch(T_X) on a Grassmannian kind with Newton's identities run on S^dual and on Q."""
    ring = fam._power_sums(spec)[0]
    sdual = chern_to_character(tautological_chern(ring, "sub-dual"), spec.k, ring, cap)
    quot = chern_to_character(tautological_chern(ring, "quotient"), spec.n - spec.k, ring, cap)
    normal = {
        fam.GRASS: trivial_character(ring, 0, cap),
        fam.GRASS_HYP: line_character(ring.sigma((1,)), cap),
        fam.OG: sym2_character(sdual),
        fam.SG: wedge2_character(sdual),
        fam.SG_DEGENERATE: wedge2_character(sdual),
    }[spec.kind]
    return sdual * quot - normal


def _grassmannian_kind_specs(k_values, n_max):
    for kind in fam.ZERO_LOCI:
        for k in k_values:
            for n in range(2 * k, n_max + 1):
                try:
                    yield fam.FamilySpec(kind, k, n)
                except InvalidFamilyError:
                    continue


def test_grassmannian_tangent_matches_the_two_recursion_construction():
    # ch(Q) = n - dual(ch(S^dual)) must agree with Newton on the quotient's Chern classes
    specs = list(_grassmannian_kind_specs(range(2, 6), 12))
    assert {s.kind for s in specs} == set(fam.ZERO_LOCI) and len(specs) == 84
    for spec in specs:
        for cap in range(1, min(dim_x(spec), 6) + 1):
            ch = tangent_character(spec, cap)
            assert ch == _two_recursion_tangent(spec, cap), (spec, cap)
            assert ch.rank == dim_x(spec) and ch.cap == cap


def test_grassmannian_rows_run_no_character_arithmetic_or_newton(monkeypatch):
    # ch(T_G) and each normal summand are integer power sums, one {label: int} per degree,
    # so no row of the five kinds adds, subtracts or multiplies a character or a class
    newton = []

    def counted_newton(*args, **kwargs):
        newton.append(args)
        return chern_to_character(*args, **kwargs)

    monkeypatch.setattr(reference, "chern_to_character", counted_newton)
    calls = _count_character_arithmetic(monkeypatch)
    specs = list(_grassmannian_kind_specs((2, 3), 9))
    assert {spec.kind for spec in specs} == set(fam.ZERO_LOCI)
    for spec in specs:
        tangent_character(spec, 3)
        assert not calls, (spec, Counter(calls))
    assert newton == []


def test_grassmannian_row_builds_only_the_degrees_it_reads(monkeypatch):
    sizes = []

    def recorded(rows, cols, size):
        sizes.append(size)
        return partitions_in_box(rows, cols, size)

    monkeypatch.setattr(schubert, "partitions_in_box", recorded)
    monkeypatch.setattr(fam, "_grass_ring", GrassmannianRing)
    rep = consistency_check(fam.FamilySpec(fam.GRASS, k=8, n=18), 2)
    assert rep.agree
    # the ring builds degree 0 and its point (degree 80) when it is made, dim H reads
    # the one label of degree 1 and the verdict reads degree 2; nothing else of the
    # 1 + 80 degrees is built
    assert sizes[:2] == [0, 80], sizes
    assert sizes[2:] and max(sizes[2:]) <= 2, sorted(set(sizes))


def _oracle_specs():
    """Every spec of the five Grassmannian kinds with n <= 12, every CI with n <= 12 and at
    most three degrees, and PP[a,b] for a, b <= 4."""
    yield from _grassmannian_kind_specs(range(2, 7), 12)
    for n in range(1, 13):
        for degrees in enumerate_fano_ci(n, 3):
            yield fam.ci(n, degrees)
    for a in range(1, 5):
        for b in range(1, 5):
            yield fam.FamilySpec(fam.PRODUCT_PN, a, b)


def test_verdicts_read_ch_k_of_the_full_tangent_character():
    # a verdict builds ch_k alone, from p(k); the character at every degree up to k,
    # summed on the full route, must give the same witnesses on each label
    specs = list(_oracle_specs())
    assert {s.kind for s in specs} == {*fam.ZERO_LOCI, fam.CI, fam.PRODUCT_PN} and len(specs) == 281
    for spec in specs:
        for k in range(2, dim_x(spec) + 1):
            ch_k = tangent_character(spec, k).component(k)
            verdict = chk_verdict(spec, k)
            if spec.kind == fam.SG and spec.n == 2 * spec.k and k == 2:
                # the Lagrangian boundary collapses the two degree-2 duals into one witness
                assert verdict.witnesses == (
                    ("σ[2]+σ[1,1]", ch_k.coefficient("σ[2]") + ch_k.coefficient("σ[1,1]")),), spec
                continue
            assert verdict.witnesses == tuple((label, ch_k.coefficient(label)) for label in ch_k.ring.basis(k)), \
                (spec, k)
        # dim H reads c_1 as an integer; the character at cap 1 is its reference
        expected = consistency_check(spec, 2).expected_dim if dim_x(spec) >= 2 else None
        if expected is not None:
            (label,) = fam._power_sums(spec)[0].basis(1)
            assert expected == tangent_character(spec, cap=1).component(1).coefficient(label) - 2, spec


def test_integer_verdict_matches_the_power_sum_class():
    # the verdict takes its status from the signs of the integers p(k) and divides each
    # witness once; the class ch_k = p(k)/k! must give the same Fractions, and tri_state of
    # them the same status, on every kind (SG[k,2k] and SGdeg included) and k = 2..min(4, dim X)
    specs = list(_oracle_specs())
    assert any(s.kind == fam.SG and s.n == 2 * s.k for s in specs)
    assert {s.kind for s in specs} == {*fam.ZERO_LOCI, fam.CI, fam.PRODUCT_PN}
    for spec in specs:
        ring, p = fam._power_sums(spec)
        for k in range(2, min(4, dim_x(spec)) + 1):
            cls = power_sum_class(ring, k, p(k))
            verdict = chk_verdict(spec, k)
            if spec.kind == fam.SG and spec.n == 2 * spec.k and k == 2:
                expected = (("σ[2]+σ[1,1]", cls.coefficient("σ[2]") + cls.coefficient("σ[1,1]")),)
            else:
                expected = tuple((label, cls.coefficient(label)) for label in ring.basis(k))
            assert verdict.witnesses == expected, (spec, k)
            assert all(type(v) is Fraction for _, v in verdict.witnesses), (spec, k)
            assert verdict.status == fam.TWIST_TO_VERDICT[tri_state([v for _, v in expected])], (spec, k)


def test_sg_2_6_pairs_ch6_with_h_positively():
    # SG(2,6) is the zero locus in G(2,6) of a section of N = Lambda^2 S^dual = O(1): dim X = 7
    # and b_2 = 1, so ch_6(T_X) is decided by the one number
    # int_X ch_6 h = int_G A_6 c_top(N) sigma_1 = int_G A_6 sigma_1 sigma_1, A_6 the ambient class
    spec = parse_spec("SG[2,6]")
    ring, p = fam._power_sums(spec)
    s1 = ring.sigma((1,))
    assert dim_x(spec) == 7
    assert (power_sum_class(ring, 6, p(6)) * s1 * s1).integrate() == Fraction(7, 360)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 26")
def test_sg_2_6_ch6_is_positive_on_x():
    # the ambient coefficients (13/144, -17/240) are not pairings on X: by the test above
    # ch_6 is positive on X's one ray of curves, but the verdict reads them as NEITHER
    assert chk_verdict(parse_spec("SG[2,6]"), 6).status == POSITIVE


def test_verdict_refuses_a_power_sum_label_of_another_degree(monkeypatch):
    # the label check the class made: p(k) may name only labels of degree k
    power_sums = fam._power_sums

    def stray(spec):
        ring, p = power_sums(spec)
        return ring, lambda j: {**p(j), ring.basis(j - 1)[0]: 1}

    monkeypatch.setattr(fam, "_power_sums", stray)
    for spec in (fam.ci(9, (3,)), fam.FamilySpec(fam.GRASS, k=2, n=5), fam.FamilySpec(fam.PRODUCT_PN, 2, 3)):
        with pytest.raises(ValueError, match="outside degree 2"):
            chk_verdict(spec, 2)
        with pytest.raises(ValueError):
            consistency_check(spec)


def test_enumerate_fano_ci_lists_each_nonincreasing_tuple_once():
    # the CI census builds FamilySpec(CI, 0, n, degrees) from these tuples directly, and
    # sorts each P^n's specs by these tuples
    for n in range(1, 15):
        for c in range(5):
            tuples = list(enumerate_fano_ci(n, c))
            assert len(set(tuples)) == len(tuples), (n, c)
            for degrees in tuples:
                assert len(degrees) <= c and all(d >= 2 for d in degrees) and sum(degrees) <= n - 1, (n, degrees)
                assert list(degrees) == sorted(degrees, reverse=True), (n, degrees)
                assert fam.FamilySpec(fam.CI, 0, n, degrees) == fam.ci(n, degrees), (n, degrees)


def test_a_ci_family_is_one_spec_however_its_degrees_are_ordered():
    spec = fam.FamilySpec(fam.CI, 0, 9, (2, 3))
    assert spec == fam.parse_spec("CI[9;2,3]") == fam.parse_spec("CI[9;3,2]") == fam.ci(9, [2, 3])
    assert spec.degrees == (3, 2) and str(spec) == "CI[9;3,2]"
    assert minimal_pair(spec).label == "lines(CI[9;3,2])"


def test_deep_grassmannian_verdict_builds_no_lower_degree(monkeypatch):
    # G(4,12) at k = 10: the verdict reads p(10) alone, so neither the ring's degrees 2..9
    # nor a power-sum table entry with 1 < j < 10 is built
    fam._grass_ring.cache_clear()
    schubert._adams_square.cache_clear()
    entries = []
    adams_square = schubert._adams_square

    def recording(j, *rest):
        entries.append(j)
        return adams_square(j, *rest)

    monkeypatch.setattr(schubert, "_adams_square", recording)
    spec = fam.FamilySpec(fam.GRASS, k=4, n=12)
    assert consistency_check(spec, 10).agree
    ring = fam._grass_ring(4, 12)
    assert [d for d in range(2, 10) if ring._basis[d]] == []
    assert len(ring._basis[10]) == len(partitions_in_box(4, 8, 10))
    assert entries == [10] and adams_square.cache_info().currsize == 1


@pytest.mark.parametrize("text, message", [
    ("G[2,3]", "G needs 2 <= k <= n/2"),
    ("GH[1,5]", "GH needs 2 <= k <= n/2"),
    ("OG[2,6]", "OG needs 2 <= k < n/2 - 1"),
    ("SG[2,5]", "SG needs n even and 2 <= k <= n/2"),
    ("SGdeg[2,6]", "SGdeg needs n odd and 2 <= k < n/2"),
    # a name that only starts with a kind is no kind
    ("XX[2,5]", "cannot parse family spec 'XX[2,5]'"),
    ("SG2[2,5]", "cannot parse family spec 'SG2[2,5]'"),
    ("GXX[2,5]", "cannot parse family spec 'GXX[2,5]'"),
    ("G2PX", "cannot parse family spec 'G2PX'"),
    ("og[2,8]", "cannot parse family spec 'og[2,8]'"),
    ("G2P[2]", "G2P takes no parameters"),
    ("GH", "GH needs parameters, e.g. GH[2,5]"),
    ("CI[5]", "CI spec looks like CI[n;d1,d2,...] (degrees may be empty)"),
    ("CI[0;]", "CI needs n >= 1"),
    ("CI[5;0]", "CI degrees must be >= 1"),
])
def test_refused_spec_messages(text, message):
    # recorded before the Grassmannian kinds were read from one table
    with pytest.raises(InvalidFamilyError) as exc:
        parse_spec(text)
    assert str(exc.value) == message


# dim X by hand, the reference for the table's k(n-k) - rank N
_HAND_DIMENSIONS = {
    fam.GRASS: lambda k, n: k * (n - k),
    fam.GRASS_HYP: lambda k, n: k * (n - k) - 1,
    fam.OG: lambda k, n: Fraction(k * (2 * n - 3 * k - 1), 2),
    fam.SG: lambda k, n: Fraction(k * (2 * n - 3 * k + 1), 2),
    fam.SG_DEGENERATE: lambda k, n: Fraction(k * (2 * n - 3 * k + 1), 2),
}


def test_dimension_matches_the_hand_formulas_on_a_grid():
    assert set(_HAND_DIMENSIONS) == set(fam.ZERO_LOCI)
    valid = 0
    for kind, formula in _HAND_DIMENSIONS.items():
        for k in range(1, 13):
            for n in range(1, 41):
                try:
                    spec = fam.FamilySpec(kind, k, n)
                except InvalidFamilyError:
                    continue
                valid += 1
                assert dim_x(spec) == formula(k, n), spec
    assert valid == 1155
