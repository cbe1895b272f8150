import hashlib
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higherfano import cli, schubert
from higherfano import families as fam
from higherfano.rings import GradedClass, ProjectiveSpaceRing
from higherfano.schubert import (
    GrassmannianRing,
    border_strips,
    conjugate,
    normalize_partition,
    o1_power_sum,
    partition_label,
    partitions_in_box,
    square_power_sum,
    tangent_power_sum,
)

from reference import (
    CharacterVector,
    adams,
    chern_to_character,
    complement,
    line_character,
    power_sum_character,
    sym2_character,
    tautological_chern,
    wedge2_character,
)


def plucker_degree(k: int, n: int) -> int:
    """Hook-style closed form for the degree of G(k, n) in its Pluecker embedding."""
    q = n - k
    num = factorial(k * q)
    for i in range(k):
        num = num * factorial(i) // factorial(q + i)
    return num


def test_partition_helpers():
    assert normalize_partition((3, 2, 0, 0)) == (3, 2)
    assert partition_label((2, 1)) == "σ[2,1]"
    assert partition_label(()) == "1"
    assert conjugate((3, 1)) == (2, 1, 1)
    assert len(partitions_in_box(2, 2, 2)) == 2  # (2) and (1,1)
    with pytest.raises(ValueError):
        normalize_partition((1, 2))


def test_ring_shapes():
    g24 = GrassmannianRing(2, 4)
    assert len(g24.basis()) == 6
    assert g24.dimension == 4
    g13 = GrassmannianRing(1, 3)  # this is P^2
    assert g13.basis() == ("1", "σ[1]", "σ[2]")
    g25 = GrassmannianRing(2, 5)
    assert g25.dimension == 6
    assert len(g25.basis()) == 10
    with pytest.raises(ValueError):
        GrassmannianRing(0, 4)
    with pytest.raises(ValueError):
        GrassmannianRing(4, 4)


def test_pieri_examples():
    g24 = GrassmannianRing(2, 4)
    s1 = g24.sigma((1,))
    assert g24.sigma((1,)) * s1 == g24.sigma((2,)) + g24.sigma((1, 1))
    assert g24.sigma((2, 1)) * s1 == g24.sigma((2, 2))
    assert (g24.sigma((2, 2)) * s1).is_zero()
    g25 = GrassmannianRing(2, 5)
    assert g25.sigma((2, 2)) * g25.sigma((1,)) == g25.sigma((3, 2))


def test_products():
    g24 = GrassmannianRing(2, 4)
    assert g24.sigma((1, 1)) * g24.sigma((1, 1)) == g24.sigma((2, 2))
    assert (g24.sigma((2,)) * g24.sigma((1, 1))).is_zero()
    s1 = g24.sigma((1,))
    assert (s1**4).integrate() == 2


def test_structure_constants_nonnegative_integers():
    for k in range(1, 4):
        for n in range(k + 1, 9):
            ring = GrassmannianRing(k, n)
            labels = ring.basis()
            for a in labels:
                for b in labels:
                    prod = ring.monomial(a) * ring.monomial(b)
                    for coeff in prod.terms.values():
                        assert coeff.denominator == 1 and coeff >= 0


def test_duality():
    for (k, n) in [(2, 4), (2, 5)]:
        ring = GrassmannianRing(k, n)
        for label in ring.basis():
            lam = ring.partition_of(label)
            comp = complement(ring, lam)
            assert (ring.sigma(lam) * ring.sigma(comp)).integrate() == 1
            d = ring.dimension - sum(lam)
            for mu_label in ring.basis(d):
                mu = ring.partition_of(mu_label)
                expected = 1 if mu == comp else 0
                assert (ring.sigma(lam) * ring.sigma(mu)).integrate() == expected


def test_dual_pairing_of_square():
    g24 = GrassmannianRing(2, 4)
    sq = g24.sigma((1,)) ** 2
    assert (sq * g24.sigma(complement(g24, (2,)))).integrate() == 1
    assert (sq * g24.sigma(complement(g24, (1, 1)))).integrate() == 1


def test_tautological_chern():
    g25 = GrassmannianRing(2, 5)
    q = tautological_chern(g25, "quotient")
    assert q == (g25.sigma((1,)), g25.sigma((2,)), g25.sigma((3,)))
    s = tautological_chern(g25, "sub-dual")
    assert s == (g25.sigma((1,)), g25.sigma((1, 1)))
    g14 = GrassmannianRing(1, 4)
    assert tautological_chern(g14, "quotient")[0] == g14.sigma((1,))
    with pytest.raises(ValueError):
        tautological_chern(g25, "sub")


def test_sdual_hook_rule_is_newton_on_its_chern_classes():
    # Newton's identities on c_i(S^dual) = sigma[1^i] are the reference for the hook rule
    rings = 0
    for n in range(2, 15):
        for k in range(1, n):
            ring = GrassmannianRing(k, n)
            cherns = tautological_chern(ring, "sub-dual")
            for cap in range(1, min(ring.dimension, 12) + 1):
                hooks = power_sum_character(ring, k, cap, lambda j: schubert._power_sum(ring, j))
                assert hooks == chern_to_character(cherns, k, ring, cap), (k, n, cap)
            rings += 1
    assert rings == 91


def test_o1_hook_rule_is_the_powers_of_sigma_1():
    # e^sigma_1 with its powers multiplied out by Pieri steps in the ring is the reference
    rings = 0
    for n in range(2, 13):
        for k in range(1, n):
            ring = GrassmannianRing(k, n)
            top = min(ring.dimension, 8)
            powers = line_character(ring.sigma((1,)), top)
            for cap in range(1, top + 1):
                hooks = power_sum_character(ring, 1, cap, lambda j: o1_power_sum(ring, j))
                assert hooks == CharacterVector(ring, 1, powers.components[:cap]), (k, n, cap)
            if ring.dimension <= 8:
                assert power_sum_character(ring, 1, None, lambda j: o1_power_sum(ring, j)) == powers
            rings += 1
    assert rings == 66


def test_border_strip_steps_are_ring_products_with_the_power_sums():
    # p_a = a! ch_a(S^dual) from Newton's identities, times sigma_mu in the ring, is the reference
    rings = 0
    for n in range(2, 10):
        for k in range(1, n):
            ring = GrassmannianRing(k, n)
            x = chern_to_character(tautological_chern(ring, "sub-dual"), k, ring)
            power_sums = [None] + [x.component(a) * factorial(a) for a in range(1, ring.dimension + 1)]
            for size in range(ring.dimension + 1):
                for mu in partitions_in_box(k, n - k, size):
                    for a in range(1, ring.dimension - size + 1):
                        strips = border_strips(mu, a, k, n - k)
                        step = GradedClass(ring, {partition_label(lam): sign for sign, lam in strips})
                        assert step == power_sums[a] * ring.sigma(mu), (k, n, mu, a)
            rings += 1
    assert rings == 36


def test_adams_square_table_is_the_ring_product():
    # x * psi^t(x) for x = ch(S^dual) from Newton's identities, multiplied in the ring,
    # is the reference for the table
    rings = 0
    for n in range(2, 15):
        for k in range(1, n):
            ring = GrassmannianRing(k, n)
            cherns = tautological_chern(ring, "sub-dual")
            for t in (-1, 1):
                for cap in range(1, min(ring.dimension, 9) + 1):
                    x = chern_to_character(cherns, k, ring, cap)
                    table = power_sum_character(
                        ring, k * k, cap, lambda j: schubert._adams_square(j, t, k, min(n - k, j))
                    )
                    assert table == x * adams(x, t), (k, n, t, cap)
            rings += 1
    assert rings == 91


def test_border_strips_are_canonical_shapes_in_the_box():
    # border_strips returns its shapes unvalidated, so each must already be canonical
    shapes = 0
    for rows in range(1, 6):
        for cols in range(1, 8):
            for size in range(rows * cols + 1):
                for mu in partitions_in_box(rows, cols, size):
                    for r in range(1, 11):
                        for _, shape in border_strips(mu, r, rows, cols):
                            assert shape == normalize_partition(shape), (mu, r, rows, cols, shape)
                            assert len(shape) <= rows and shape[:1] <= (cols,), (mu, r, rows, cols, shape)
                            assert sum(shape) == size + r, (mu, r, rows, cols, shape)
                            shapes += 1
    assert shapes > 0


def test_integer_tangent_is_newton():
    # ch(T_G) summed on integers against n*ch(S^dual) - ch(End S) from Newton's identities on
    # c_i(S^dual), multiplied in the ring
    rings = 0
    for n in range(2, 15):
        for k in range(1, n):
            ring = GrassmannianRing(k, n)
            cherns = tautological_chern(ring, "sub-dual")
            for cap in range(1, min(ring.dimension, 9) + 1):
                ch = power_sum_character(ring, ring.dimension, cap, lambda j: tangent_power_sum(ring, j))
                x = chern_to_character(cherns, k, ring, cap)
                assert ch == x * n - x * adams(x, -1), (k, n, cap)
            rings += 1
    assert rings == 91


def test_square_power_sums_are_sym2_and_wedge2_of_newton():
    # Sym^2 and Lambda^2 of ch(S^dual) from Newton's identities, squared in the ring, are the
    # reference for (the table's t = +1 entry +- 2^j p_j) / 2
    rings = 0
    for n in range(2, 15):
        for k in range(1, n):
            ring = GrassmannianRing(k, n)
            cap = min(ring.dimension, 9)
            x = chern_to_character(tautological_chern(ring, "sub-dual"), k, ring, cap)
            for sign, reference in ((1, sym2_character), (-1, wedge2_character)):
                rank = k * (k + sign) // 2
                square = power_sum_character(ring, rank, cap, lambda j: square_power_sum(ring, j, sign))
                assert square == reference(x), (k, n, sign)
            rings += 1
    assert rings == 91


def test_whitney_product_is_one():
    # c(S) c(Q) = 1 with c_i(S) = (-1)^i sigma_{1^i}
    for k in range(1, 5):
        for n in range(k + 1, 10):
            ring = GrassmannianRing(k, n)
            total = ring.zero()
            for m in range(1, ring.dimension + 1):
                part = ring.zero()
                for i in range(0, m + 1):
                    j = m - i
                    if i > k or j > n - k:
                        continue
                    cs = ring.sigma((1,) * i) if i else ring.unit()
                    cq = ring.sigma((j,)) if j else ring.unit()
                    part = part + (-1) ** i * cs * cq
                assert part.is_zero(), (k, n, m)


def test_plucker_degree_against_hook_formula():
    for k in range(1, 4):
        for n in range(k + 1, 9):
            ring = GrassmannianRing(k, n)
            s1 = ring.sigma((1,))
            assert (s1**ring.dimension).integrate() == plucker_degree(k, n)


def test_basis_count_is_binomial():
    for k in range(1, 4):
        for n in range(k + 1, 9):
            assert len(GrassmannianRing(k, n).basis()) == comb(n, k)


def test_out_of_box_partitions_are_rejected():
    g24 = GrassmannianRing(2, 4)
    # sigma_{1,1,1} does not exist on G(2,4): three rows in a 2x2 box
    with pytest.raises(ValueError, match="2x2 box"):
        g24.sigma((1, 1, 1)) * g24.sigma((1,))
    with pytest.raises(ValueError, match="2x2 box"):
        g24.sigma((3,)) * g24.sigma((1,))
    with pytest.raises(ValueError, match="2x2 box"):
        complement(g24, (3,))
    with pytest.raises(ValueError, match="2x2 box"):
        g24.sigma((1, 1, 1))


@given(rows=st.integers(0, 6), cols=st.integers(0, 6), data=st.data())
def test_partitions_in_box_matches_brute_force(rows, cols, data):
    size = data.draw(st.integers(-1, rows * cols + 1), label="size")
    # every weakly decreasing tuple of `rows` entries in 0..cols, zeros dropped
    brute = {
        tuple(x for x in reversed(c) if x)
        for c in combinations_with_replacement(range(cols + 1), rows)
        if sum(c) == size
    }
    # the basis lists each degree in this sorted order
    assert partitions_in_box(rows, cols, size) == sorted(brute)


def test_pieri_steps_are_stable_and_match_pieri_shapes():
    for k, n in [(2, 4), (2, 5), (3, 6), (3, 7)]:
        ring = GrassmannianRing(k, n)

        def rows(p):
            return p + (0,) * (k - len(p))

        for label in ring.basis():
            lam = ring.partition_of(label)
            for i in range(1, ring.cols + 1):
                step = tuple(schubert._horizontal_strips(lam, i, k, n - k))
                assert tuple(schubert._horizontal_strips(lam, i, k, n - k)) == step
                # horizontal strips by their definition: the shapes of |lam| + i
                # boxes whose rows interlace, mu_1 >= lam_1 >= mu_2 >= lam_2 ...
                strips = [
                    mu for mu in partitions_in_box(k, n - k, sum(lam) + i)
                    if all(m >= l for m, l in zip(rows(mu), rows(lam)))
                    and all(l >= m for l, m in zip(rows(lam), rows(mu)[1:]))
                ]
                assert sorted(step) == strips
                expected = GradedClass(ring, dict.fromkeys(map(partition_label, strips), 1))
                assert ring.sigma(lam) * ring.sigma((i,)) == expected


def test_grassmannian_duality_under_conjugation():
    # G(k,n) = G(n-k,n): sigma_lam maps to sigma_lam' term by term
    def rename(ring, label):
        return partition_label(conjugate(ring.partition_of(label)))

    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            ring, dual = GrassmannianRing(k, n), GrassmannianRing(n - k, n)
            labels = ring.basis()
            for a in labels:
                for b in labels:
                    prod = ring.mul_basis(a, b)
                    expected = dual.mul_basis(rename(ring, a), rename(ring, b))
                    assert {rename(ring, l): c for l, c in prod.items()} == dict(expected), (k, n, a, b)


def test_grassmannian_of_lines_is_projective_space():
    # G(1,n) = P^{n-1}: sigma_i maps to h^i, the one basis label in degree i
    for n in range(2, 10):
        ring, pn = GrassmannianRing(1, n), ProjectiveSpaceRing(n - 1)

        def rename(label):
            (power_label,) = pn.basis(ring.degree_of(label))
            return power_label

        for a in ring.basis():
            for b in ring.basis():
                prod = ring.mul_basis(a, b)
                expected = pn.mul_basis(rename(a), rename(b))
                assert {rename(l): c for l, c in prod.items()} == dict(expected), (n, a, b)


def test_labels_met_before_their_degree_is_built():
    built = GrassmannianRing(3, 7)
    built.basis()

    def fresh():
        return GrassmannianRing(3, 7)

    lazy = fresh()
    product = lazy.monomial("σ[2,1]") * lazy.sigma((1,))
    assert product.terms == (built.monomial("σ[2,1]") * built.sigma((1,))).terms
    for label in ("σ[4,4,4]", "σ[3,2]", "1"):
        assert fresh().partition_of(label) == built.partition_of(label)
    for a, b in [("σ[2,1]", "σ[3,1]"), ("σ[4,4]", "σ[1,1,1]"), ("σ[1]", "σ[4,4,3]")]:
        assert fresh().mul_basis(a, b) == built.mul_basis(a, b), (a, b)
    for bad in ("σ[5]", "σ[2, 1]"):
        with pytest.raises(ValueError) as on_built:
            built.monomial(bad)
        with pytest.raises(ValueError) as on_fresh:
            fresh().monomial(bad)
        assert str(on_fresh.value) == str(on_built.value) == f"unknown basis label {bad!r} in G(3,7)"
    # degrees built last to first still list their labels in sorted partition order
    backwards = fresh()
    for d in reversed(range(backwards.dimension + 1)):
        backwards.basis(d)
    assert backwards.basis() == built.basis() == tuple(
        partition_label(p) for d in range(13) for p in partitions_in_box(3, 4, d)
    )
    assert backwards.mul_basis("σ[2,1]", "σ[2,2]") == built.mul_basis("σ[2,1]", "σ[2,2]")


def test_a_ring_registers_only_the_degrees_it_is_given(monkeypatch):
    register, registered = schubert.GrassmannianRing._register, []

    def recording(ring, degree, pairs):
        registered.append(degree)
        register(ring, degree, pairs)

    monkeypatch.setattr(schubert.GrassmannianRing, "_register", recording)
    ring = schubert.GrassmannianRing(5, 15)
    # the 49 degrees between 0 and the point are built when first read, not registered empty
    assert registered == [0, 50]
    assert [d for d, labels in enumerate(ring._basis) if labels] == [0, 50]
    for n in range(2, 11):
        for k in range(1, min(4, n - 1) + 1):
            ring = GrassmannianRing(k, n)
            boxes = [partitions_in_box(k, n - k, d) for d in range(ring.dimension + 1)]
            assert [ring.basis(d) for d in range(len(boxes))] == [tuple(map(partition_label, b)) for b in boxes], (k, n)
            assert ring._key == {partition_label(p): p for b in boxes for p in b}, (k, n)
            assert ring._degree == {partition_label(p): d for d, b in enumerate(boxes) for p in b}, (k, n)


def test_unknown_labels_build_at_most_their_own_degree():
    for bad in ("σ[x]", "σ[2, 1]", "σ[1,2]", "σ[0]", "σ[99999999]", "σ[]"):
        ring = GrassmannianRing(10, 21)
        with pytest.raises(ValueError) as err:
            ring.monomial(bad)
        assert str(err.value) == f"unknown basis label {bad!r} in G(10,21)"
        built = [d for d, labels in enumerate(ring._basis) if labels]
        # degree 0 and the point class are there from the start; "σ[1,2]" reads as degree 3
        assert built[0] == 0 and built[-1] == ring.dimension and len(built) <= 3, (bad, built)


def all_products(ring, small, top):
    """ring's products of the basis labels of `small` whose degrees add up to at most top."""
    labels, degree = small.basis(), small.degree_of
    return {
        (a, b): dict(ring.mul_basis(a, b))
        for i, a in enumerate(labels) for b in labels[i:] if degree(a) + degree(b) <= top
    }


def reference_product(ring, a, b):
    """sigma_a * sigma_b by Jacobi-Trudi and Pieri steps in the ring's own k x (n-k) box, with no memo."""
    pa, pb = ring.partition_of(a), ring.partition_of(b)
    if len(pb) > len(pa):
        pa, pb = pb, pa
    out = {}
    for coeff, parts in schubert._jt_terms(pb):
        acc = {pa: coeff}
        for r in parts:
            nxt = {}
            for lam, c in acc.items():
                for mu in schubert._horizontal_strips(lam, r, ring.k, ring.cols):
                    nxt[mu] = nxt.get(mu, 0) + c
            acc = nxt
        for mu, c in acc.items():
            out[mu] = out.get(mu, 0) + c
    return {partition_label(mu): c for mu, c in out.items() if c}


def test_shared_products_match_an_empty_table():
    for n in range(2, 9):
        for k in range(1, min(4, n - 1) + 1):
            alone = GrassmannianRing(k, n)
            dim = alone.dimension
            expected = {pair: reference_product(alone, *pair) for pair in all_products(alone, alone, 2 * dim)}
            ring = GrassmannianRing(k, n)
            assert all_products(ring, alone, 2 * dim) == expected, (k, n)
            # a second pass reads every product from the ring's own memo
            memo = dict(ring._mul_cache)
            assert all_products(ring, alone, 2 * dim) == expected, (k, n)
            assert ring._mul_cache == memo and all(ring._mul_cache[key] is hit for key, hit in memo.items())


def test_a_product_builds_its_own_degree():
    # the product class registers its degree as it reads the product's labels
    ring = GrassmannianRing(3, 7)
    assert not ring._basis[4]
    product = ring.sigma((1,)) * ring.sigma((2, 1))
    assert {"σ[3,1]", "σ[2,2]", "σ[2,1,1]"} <= ring._degree.keys()
    assert product == GradedClass(ring, {"σ[3,1]": 1, "σ[2,2]": 1, "σ[2,1,1]": 1})


def test_each_grassmannian_memoises_its_own_products():
    # sigma[2,1] * sigma[1] has its terms in the 3 x 3 box, which G(3,7) and G(4,9)
    # both hold: the two rings compute equal products, each in its own box and memo
    small, large = GrassmannianRing(3, 7), GrassmannianRing(4, 9)
    product = small.mul_basis("σ[1]", "σ[2,1]")
    assert small.mul_basis("σ[2,1]", "σ[1]") is product
    assert large.mul_basis("σ[2,1]", "σ[1]") == product
    assert large.mul_basis("σ[2,1]", "σ[1]") is not product
    assert product == {"σ[3,1]": 1, "σ[2,2]": 1, "σ[2,1,1]": 1}


@pytest.mark.parametrize("k, n, k2, n2", [(2, 5, 2, 9), (2, 6, 5, 9), (3, 6, 4, 9), (3, 7, 5, 10), (4, 8, 4, 9)])
def test_products_are_truncations_of_larger_grassmannians(k, n, k2, n2):
    # Schubert classes outside the k x (n-k) box vanish on G(k, n), so its
    # products are those of G(k2, n2) restricted to that box
    small = GrassmannianRing(k, n)
    in_box = set(small.basis())
    for (a, b), prod in all_products(GrassmannianRing(k2, n2), small, 2 * small.dimension).items():
        assert {l: c for l, c in prod.items() if l in in_box} == reference_product(small, a, b), (a, b)


def test_census_grass_deep_makes_no_schubert_product(monkeypatch, capsys):
    Ring = schubert.GrassmannianRing
    mul_labels, products = Ring._mul_labels, []

    def counting(ring, *args):
        products.append(args)
        return mul_labels(ring, *args)

    register, registered = Ring._register, []

    def recording(ring, degree, pairs):
        registered.append("dim" if degree == ring.dimension else degree)
        register(ring, degree, pairs)

    monkeypatch.setattr(fam, "_grass_ring", lru_cache(maxsize=None)(GrassmannianRing))
    monkeypatch.setattr(Ring, "_mul_labels", counting)
    monkeypatch.setattr(Ring, "_register", recording)
    schubert._adams_square.cache_clear()
    argv = ["census", "G", "--k", "10", "--k-range", "3..5", "--n-range", "9..15", "--format", "csv"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "78617bfd3146783271a274e302febc78259f9fe476d214cafe834149a192b600"
    )
    # ch(End S) comes from the power-sum table, so the 20 rows multiply no two
    # Schubert classes, and rings of one rank k share the table's entries
    assert products == []
    assert schubert._adams_square.cache_info().hits > 0
    # each of the 20 rings registers degree 0 and its point when it is built, and
    # degree 10 when its row reads it: 678 registrations when a ring registered
    # every degree at construction, each lazy one as ()
    assert Counter(registered) == {0: 20, "dim": 20, 10: 20}
