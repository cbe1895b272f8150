from dataclasses import replace
from fractions import Fraction

import pytest

from higherfano import families as fam
from higherfano.bundles import character_to_chern, chern_to_character, wedge2_character
from higherfano.catalog import AMPLE, NEF_ONLY
from higherfano.families import (
    NEITHER,
    POSITIVE,
    InvalidFamilyError,
    NoClosedFormError,
    NoPairError,
    chk_verdict,
    consistency_check,
    dim_x,
    minimal_pair,
    parse_spec,
    product_nonexample,
    tangent_character,
    threshold_oracle,
)
from higherfano.schubert import grassmannian_ring, tautological_chern


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
            assert grassmannian_ring(k, n).dimension == dim_x(fam.grass(k, n))


def test_tangent_character_examples():
    g = fam.grass(2, 5)
    ring = fam.ambient_ring(g)
    ch2 = tangent_character(g, cap=2).component(2)
    assert ch2 == Fraction(3, 2) * ring.sigma((2,)) + Fraction(1, 2) * ring.sigma((1, 1))

    og = fam.orthogonal_grass(2, 8)
    ring = fam.ambient_ring(og)
    ch2 = tangent_character(og, cap=2).component(2)
    assert ch2 == Fraction(1, 2) * ring.sigma((2,)) + Fraction(1, 2) * ring.sigma((1, 1))

    sg = fam.symplectic_grass(2, 6)
    ring = fam.ambient_ring(sg)
    ch2 = tangent_character(sg, cap=2).component(2)
    assert ch2 == Fraction(3, 2) * ring.sigma((2,)) - Fraction(1, 2) * ring.sigma((1, 1))


def test_tangent_character_ranks():
    for text in ["CI[9;3]", "G[2,5]", "GH[2,6]", "OG[2,8]", "SG[3,8]", "SGdeg[2,7]", "PP[2,3]"]:
        spec = parse_spec(text)
        assert tangent_character(spec, cap=2).rank == dim_x(spec)


def test_ci_tangent_components():
    spec = fam.ci(9, (3,))
    ring = fam.ambient_ring(spec)
    h = ring.hyperplane()
    ch = tangent_character(spec, cap=3)
    assert ch.component(1) == 7 * h
    assert ch.component(2) == Fraction(1, 2) * h**2
    assert ch.component(3) == Fraction(10 - 27, 6) * h**3


def test_verdict_examples():
    assert chk_verdict(fam.grass(2, 4), 2).status == POSITIVE
    assert chk_verdict(fam.grass(2, 7), 2).status == NEITHER
    assert chk_verdict(fam.ci(9, (3,)), 2).status == POSITIVE
    v = chk_verdict(fam.grass(2, 7), 2)
    assert dict(v.witnesses)["σ[1,1]"] == Fraction(-1, 2)


def test_verdict_rejects_bad_k():
    with pytest.raises(InvalidFamilyError):
        chk_verdict(fam.grass(2, 4), 1)
    with pytest.raises(InvalidFamilyError):
        chk_verdict(fam.ci(4, (2,)), 4)  # dim X = 3
    with pytest.raises(InvalidFamilyError):
        chk_verdict(fam.g2_fivefold(), 3)


def test_threshold_oracle():
    assert threshold_oracle(fam.orthogonal_grass(3, 11), 2) == POSITIVE
    assert threshold_oracle(fam.symplectic_grass(4, 8), 2) == POSITIVE
    assert threshold_oracle(fam.ci(10, (2, 2)), 3) == NEITHER  # 16 > 11
    assert threshold_oracle(fam.g2_fivefold(), 2) == POSITIVE
    with pytest.raises(NoClosedFormError):
        threshold_oracle(fam.grass(2, 5), 3)
    with pytest.raises(NoClosedFormError):
        threshold_oracle(fam.product_pn(2, 3), 2)


def test_ch3_verdict_computed_for_grassmannian():
    # machinery supports k = 3 on the ambient ring even without a closed form
    v = chk_verdict(fam.grass(2, 5), 3)
    assert set(dict(v.witnesses)) == {"σ[3]", "σ[2,1]"}


def test_minimal_pairs():
    assert minimal_pair(fam.grass(3, 7)).label == "P2xP3(1,1)"
    assert minimal_pair(fam.symplectic_grass(3, 12)).label == "P_P2(O2+O1^6)(OP1)"
    assert minimal_pair(fam.g2_fivefold()).label == "P1(O3)"
    assert minimal_pair(fam.orthogonal_grass(2, 8)).label == "P1xQ2(1,1,1)"
    # Lagrangian boundary: the bundle degenerates to (P^(k-1), O(2))
    p = minimal_pair(fam.symplectic_grass(4, 8))
    assert p.dim == 3 and p.L == (Fraction(2),)
    # the (1,1)-divisor in P^1 x P^1 is a conic
    conic = minimal_pair(fam.grass_hyperplane(2, 4))
    assert conic.dim == 1 and conic.L == (Fraction(2),)
    with pytest.raises(NoPairError):
        minimal_pair(fam.product_pn(2, 2))
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
            for maker in (fam.grass, fam.grass_hyperplane, fam.orthogonal_grass,
                          fam.symplectic_grass, fam.degenerate_symplectic_grass):
                try:
                    specs.append(maker(k, n))
                except InvalidFamilyError:
                    continue
    for n in range(2, 13):
        for degrees in fam.enumerate_fano_ci(n, 2):
            specs.append(fam.ci(n, degrees))
    specs.append(fam.g2_fivefold())
    for spec in specs:
        rep = consistency_check(spec)
        assert rep.agree, (spec.text(), rep)


def test_lagrangian_collapse_is_justified():
    # on G(k, 2k), both degree-2 classes multiply equally into the zero-locus
    # Euler class e(N) = c_top(wedge^2 of the dual subbundle)
    for k in (2, 3, 4):
        ring = grassmannian_ring(k, 2 * k)
        rank = k * (k - 1) // 2
        if rank == 0:
            continue
        sdual = chern_to_character(tautological_chern(ring, "sub-dual"), k, ring, cap=rank)
        w2 = wedge2_character(sdual)
        euler = character_to_chern(w2)[rank - 1]
        assert ring.sigma((2,)) * euler == ring.sigma((1, 1)) * euler, k


def test_de_jong_starr_examples():
    for k in range(2, 6):
        assert chk_verdict(fam.grass(k, 2 * k), 2).status == POSITIVE
        assert chk_verdict(fam.grass(k, 2 * k + 1), 2).status == POSITIVE


def test_product_nonexample():
    for a in range(1, 7):
        for b in range(1, 7):
            assert product_nonexample(a, b) == 0
    # contrast: pairing with a plane inside the first factor is positive
    spec = fam.product_pn(3, 4)
    ring = fam.ambient_ring(spec)
    ch2 = tangent_character(spec, cap=2).component(2)
    plane = ring.monomial("h1") * ring.monomial("h2") ** 4
    assert (ch2 * plane).integrate() == Fraction(4, 2)


def test_product_verdict_is_nef_only():
    assert chk_verdict(fam.product_pn(2, 3), 2).status == NEF_ONLY


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


def test_anticanonical_degrees():
    assert fam.anticanonical_line_degree(fam.grass(2, 5)) == 5
    assert fam.anticanonical_line_degree(fam.orthogonal_grass(2, 8)) == 5
    assert fam.anticanonical_line_degree(fam.symplectic_grass(3, 8)) == 6
    assert fam.anticanonical_line_degree(fam.grass_hyperplane(2, 6)) == 5
    assert fam.anticanonical_line_degree(fam.ci(9, (3,))) == 7
    assert fam.anticanonical_line_degree(fam.g2_fivefold()) == 3


def test_consistency_report_agreement():
    rep = consistency_check(fam.grass(2, 5))
    assert rep.agree and rep.twist_status == AMPLE and rep.pair_dim == rep.expected_dim == 3
    assert not replace(rep, pair_dim=rep.pair_dim + 1).agree
    assert not replace(rep, twist_status=NEF_ONLY).agree
    assert not replace(rep, oracle_status=NEITHER).agree
    # no closed form and no twist at k = 10: the ring verdict stands alone
    deep = consistency_check(fam.grass(3, 9), 10)
    assert deep.oracle_status == "" and deep.twist_status == "" and deep.pair_label == ""
    assert deep.pair_dim is None and deep.expected_dim is None and deep.agree
    # products report instead of raising: no oracle, no minimal pair
    prod = consistency_check(fam.product_pn(2, 3))
    assert prod.verdict.status == NEF_ONLY and prod.oracle_status == "" and prod.twist_status == ""
    assert prod.agree
    # CI at k = 3: ring and threshold, no twist
    ci3 = consistency_check(fam.ci(9, (3,)), 3)
    assert ci3.oracle_status == ci3.verdict.status == NEITHER and ci3.twist_status == "" and ci3.agree


def test_dim_h_reads_c1_from_the_verdict_character():
    for spec in (fam.grass(2, 5), fam.orthogonal_grass(2, 8), fam.symplectic_grass(3, 8),
                 fam.grass_hyperplane(2, 6), fam.ci(9, (3,))):
        rep = consistency_check(spec)
        assert rep.verdict.character.cap == 2
        assert rep.expected_dim == fam.anticanonical_line_degree(spec) - 2, spec.text()


def test_enumerate_fano_ci_rejects_negative_codimension():
    assert list(fam.enumerate_fano_ci(10, 0)) == [()]
    with pytest.raises(InvalidFamilyError):
        list(fam.enumerate_fano_ci(10, -1))


def test_g2_fact_record():
    v = chk_verdict(fam.g2_fivefold(), 2)
    assert v.status == POSITIVE and v.witnesses == ()
    rep = consistency_check(fam.g2_fivefold())
    assert rep.agree and rep.pair_dim == 1


def test_specs_are_validated_when_built():
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec(fam.GRASS, k=1, n=3)
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec("XX")
    with pytest.raises(InvalidFamilyError):
        fam.FamilySpec(fam.CI, n=4, degrees=(5,))
    assert fam.FamilySpec(fam.GRASS, k=2, n=5) == fam.grass(2, 5)


def test_ci_not_covered_by_lines_gets_a_row():
    for spec in (fam.ci(4, (2, 2)), fam.ci(3, (3,))):
        with pytest.raises(NoPairError):
            minimal_pair(spec)
        rep = consistency_check(spec)
        assert rep.verdict.status == rep.oracle_status == NEITHER
        assert rep.twist_status == "" and rep.pair_label == ""
        assert rep.pair_dim is None and rep.expected_dim is None
        assert rep.agree
