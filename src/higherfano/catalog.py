"""Polarized-pair catalog: divisor/curve lattices, cones, and the twist test.

Each PolarizedPair stores a polarized variety (Y, L) through its numerical
lattice: a divisor basis, a curve basis, the intersection pairing between
them, the canonical class, the polarization, and generators of the nef and
Mori cones.  Every such lattice is integral, so its numbers are ints.
Ampleness is decided by pairing against the Mori generators (the nef cone is
dual to the Mori cone); no general positivity algorithm is involved, since
every catalog entry has a classical finite cone description.

The `structure` tag records how the pair was built (product, blowup, divisor
in a product, ...).  It is honest catalog data and it is needed: the pairs
P^m x Q^(m+1) and P(T_(P^(m+1))) carry identical lattices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import mul
from typing import Iterator, NamedTuple, Sequence

CATALOG_VERSION = "1"

AMPLE = "AMPLE"
NEF_ONLY = "NEF_ONLY"
NEITHER = "NEITHER"

Vector = tuple[int, ...]


class UnsupportedPairError(ValueError):
    """Requested parameters outside the range where the stored cone data is valid."""


class NoMatchError(ValueError):
    """classify_pair found no matching case; would contradict the classification."""


class PolarizedPair(NamedTuple):
    label: str
    dim: int
    divisor_basis: tuple[str, ...]
    curve_basis: tuple[str, ...]
    pairing: tuple[Vector, ...]  # rows indexed by divisors, columns by curves
    K: Vector
    L: Vector
    nef_generators: tuple[Vector, ...]
    mori_generators: tuple[Vector, ...]
    structure: str

    @property
    def picard_rank(self) -> int:
        return len(self.divisor_basis)

    def intersect(self, divisor: Sequence, curve: Sequence) -> int:
        return sum(d * sum(map(mul, row, curve)) for d, row in zip(divisor, self.pairing))

    def degrees_on_mori(self, divisor: Sequence) -> tuple[int, ...]:
        return tuple([self.intersect(divisor, r) for r in self.mori_generators])

    @property
    def pseudoindex(self) -> int:
        return min(self.degrees_on_mori([-x for x in self.K]))

    def is_ample(self, divisor: Sequence) -> bool:
        return tri_state(self.degrees_on_mori(divisor)) == AMPLE

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim,
            "picard_rank": self.picard_rank,
            "structure": self.structure,
            "divisor_basis": list(self.divisor_basis),
            "curve_basis": list(self.curve_basis),
            "pairing": [[str(x) for x in row] for row in self.pairing],
            "K": [str(x) for x in self.K],
            "L": [str(x) for x in self.L],
            "nef_generators": [[str(x) for x in v] for v in self.nef_generators],
            "mori_generators": [[str(x) for x in v] for v in self.mori_generators],
            "pseudoindex": str(self.pseudoindex),
        }


# -- operations ---------------------------------------------------------------


def tri_state(values: Sequence[Fraction]) -> str:
    """AMPLE if every value is positive, NEF_ONLY if every value is nonnegative, else NEITHER.

    The least value decides; an empty list has no nonpositive value, so it is AMPLE.
    """
    least = min(values, default=1)
    return AMPLE if least > 0 else NEF_ONLY if least == 0 else NEITHER


def twist_class(pair: PolarizedPair) -> Vector:
    """-2K - dim * L in divisor coordinates."""
    d = pair.dim
    return tuple([-2 * k - d * l for k, l in zip(pair.K, pair.L)])


def positivity_of_twist(pair: PolarizedPair) -> str:
    """AMPLE / NEF_ONLY / NEITHER for -2K - dim*L, by pairing with the Mori generators."""
    return tri_state(pair.degrees_on_mori(twist_class(pair)))


# -- constructors --------------------------------------------------------------


# pairing, nef and Mori generators of every rank-one pair
_RANK_ONE = ((1,),)


def pair_picard_one(label: str, dim: int, index: int, degree: int, structure: str) -> PolarizedPair:
    """Picard rank one: Pic = Z*h, -K = index*h, L = degree*h, lines span the Mori cone."""
    # positional, in field order: label, dim, bases, pairing, K, L, nef and Mori generators, structure
    return PolarizedPair(label, dim, ("h",), ("l",), _RANK_ONE, (-index,), (degree,), _RANK_ONE, _RANK_ONE, structure)


def pair_projective_space(d: int, polarization_degree: int = 1) -> PolarizedPair:
    """(P^d, O(m)): Picard rank one, lines generate the Mori cone."""
    if d < 1:
        raise UnsupportedPairError("projective space pair needs d >= 1")
    label = f"P{d}(O{polarization_degree})"
    return pair_picard_one(label, d, d + 1, polarization_degree, "projective_space")


def pair_quadric(d: int) -> PolarizedPair:
    """(Q^d, O(1)); Q^1 is the conic (P^1, O(2)) and Q^2 is (P^1 x P^1, O(1,1))."""
    if d < 1:
        raise UnsupportedPairError("quadric pair needs d >= 1")
    if d == 1:
        return pair_projective_space(1, polarization_degree=2)._replace(label="Q1(O1)")
    if d == 2:
        return pair_product(pair_projective_space(1), pair_projective_space(1))._replace(label="Q2(O1)")
    return pair_picard_one(f"Q{d}(O1)", d, d, 1, "quadric")


def pair_product(a: PolarizedPair, b: PolarizedPair) -> PolarizedPair:
    """Product polarized pair: lattices concatenate, cones multiply."""
    ra, rb = a.picard_rank, b.picard_rank
    ca, cb = len(a.curve_basis), len(b.curve_basis)

    def block(xs: Sequence[Vector], ys: Sequence[Vector], wx: int, wy: int) -> tuple[Vector, ...]:
        """a's vectors xs (of width wx) then b's ys (of width wy), each zero-padded to wx + wy."""
        return tuple(x + (0,) * wy for x in xs) + tuple((0,) * wx + y for y in ys)

    pol = ",".join(str(x) for x in a.L + b.L)
    core_a = a.label.split("(")[0]
    core_b = b.label.split("(")[0]
    return PolarizedPair(
        label=f"{core_a}x{core_b}({pol})",
        dim=a.dim + b.dim,
        divisor_basis=tuple(f"{x}.1" for x in a.divisor_basis) + tuple(f"{x}.2" for x in b.divisor_basis),
        curve_basis=tuple(f"{x}.1" for x in a.curve_basis) + tuple(f"{x}.2" for x in b.curve_basis),
        pairing=block(a.pairing, b.pairing, ca, cb),
        K=a.K + b.K,
        L=a.L + b.L,
        nef_generators=block(a.nef_generators, b.nef_generators, ra, rb),
        mori_generators=block(a.mori_generators, b.mori_generators, ca, cb),
        structure="product",
    )


def pair_linear_blowup(ambient_dim: int, center_dim: int) -> PolarizedPair:
    """Blowup of P^N along a linear P^s, polarized by 2H - E.

    It is P(O(2) + O(1)^(s+1)) over P^(N-s-1), and labelled so.  Divisor basis
    (H, E); curve basis (l, e) with l a general line and e a line in a fiber of
    the exceptional divisor; H.l = 1, E.e = -1.  Mori generators: e and the strict
    transform l - e of a line meeting the center.  Nef generators: H and H - E
    (the two contractions).
    """
    n, s = ambient_dim, center_dim
    if not 0 <= s <= n - 2:
        raise UnsupportedPairError("blowup center must have codimension >= 2")
    codim = n - s
    return PolarizedPair(
        label=f"P_P{codim - 1}(O2+O1^{s + 1})(OP1)",
        dim=n,
        divisor_basis=("H", "E"),
        curve_basis=("l", "e"),
        pairing=((1, 0), (0, -1)),
        K=(-(n + 1), codim - 1),
        L=(2, -1),
        nef_generators=((1, 0), (1, -1)),
        mori_generators=((1, -1), (0, 1)),
        structure="blowup",
    )


def pair_divisor_11(a: int, b: int, label: str | None = None) -> PolarizedPair:
    """Smooth divisor of type (1,1) in P^a x P^b with the restricted O(1,1).

    For a = b = 1 the divisor is a conic, i.e. (P^1, O(2)).
    """
    if a < 1 or b < 1:
        raise UnsupportedPairError("divisor pair needs positive-dimensional factors")
    if a == 1 and b == 1:
        return pair_projective_space(1, polarization_degree=2)._replace(label=label or "D11(P1xP1)")
    return PolarizedPair(
        label=label or f"D11(P{a}xP{b})",
        dim=a + b - 1,
        divisor_basis=("h1", "h2"),
        curve_basis=("l1", "l2"),
        pairing=((1, 0), (0, 1)),
        K=(-a, -b),
        L=(1, 1),
        nef_generators=((1, 0), (0, 1)),
        mori_generators=((1, 0), (0, 1)),
        structure="divisor_in_product",
    )


def pair_case(case: str, m: int) -> PolarizedPair:
    """The five exceptional pairs, parametrized by m >= 1.

    (a) P^m x P^m, O(1,1)              d = 2m
    (b) P^(m+1) x P^m, O(1,1)          d = 2m+1
    (c) P(O(2) + O(1)^m) over P^(m+1)  d = 2m+1  (blowup of P^(2m+1) along P^(m-1))
    (d) P^m x Q^(m+1), O(1,1)          d = 2m+1
    (e) P(T) over P^(m+1), O(1)        d = 2m+1  ((1,1)-divisor in P^(m+1) x P^(m+1))
    """
    if m < 1:
        raise UnsupportedPairError("exceptional pairs need m >= 1")
    if case == "a":
        return pair_product(pair_projective_space(m), pair_projective_space(m))
    if case == "b":
        return pair_product(pair_projective_space(m + 1), pair_projective_space(m))
    if case == "c":
        return pair_linear_blowup(2 * m + 1, m - 1)
    if case == "d":
        return pair_product(pair_projective_space(m), pair_quadric(m + 1))
    if case == "e":
        return pair_divisor_11(m + 1, m + 1, label=f"P_P{m+1}(T)(OP1)")
    raise ValueError(f"unknown case {case!r}")


# -- classification -------------------------------------------------------------


def _equivalent(p: PolarizedPair, q: PolarizedPair) -> bool:
    """Same lattice data up to permutations of the stored bases, same structure."""
    if (
        p.dim != q.dim
        or p.picard_rank != q.picard_rank
        or len(p.curve_basis) != len(q.curve_basis)
        or p.structure != q.structure
    ):
        return False
    rho, nc = p.picard_rank, len(p.curve_basis)
    for dp in permutations(range(rho)):
        if tuple(q.K[i] for i in dp) != p.K or tuple(q.L[i] for i in dp) != p.L:
            continue
        for cp in permutations(range(nc)):
            if any(
                q.pairing[dp[i]][cp[j]] != p.pairing[i][j]
                for i in range(rho)
                for j in range(nc)
            ):
                continue
            nef_q = {tuple(v[i] for i in dp) for v in q.nef_generators}
            mori_q = {tuple(v[j] for j in cp) for v in q.mori_generators}
            if nef_q == set(p.nef_generators) and mori_q == set(p.mori_generators):
                return True
    return False


def classify_pair(pair: PolarizedPair) -> tuple[str, int]:
    """Match a pair against the exceptional cases (a)-(e); returns (case, m).

    Preconditions: Picard rank >= 2 and an ample twist.  Raises NoMatchError
    if nothing matches (which would contradict the classification).
    """
    if pair.picard_rank < 2:
        raise ValueError("classification applies to Picard rank >= 2")
    if positivity_of_twist(pair) != AMPLE:
        raise ValueError("classification applies to pairs with ample twist")
    candidates: list[tuple[str, int]] = []
    if pair.dim % 2 == 0:
        candidates.append(("a", pair.dim // 2))
    else:
        m = (pair.dim - 1) // 2
        candidates += [("b", m), ("c", m), ("d", m), ("e", m)]
    for case, m in candidates:
        if m < 1:
            continue
        if _equivalent(pair, pair_case(case, m)):
            return case, m
    raise NoMatchError(f"pair {pair.label} matches none of the cases (a)-(e)")


# -- the static catalog ----------------------------------------------------------


def catalog_entries() -> tuple[PolarizedPair, ...]:
    """The versioned static catalog used by the verification suite."""
    pairs: list[PolarizedPair] = []
    for d in range(1, 9):
        pairs.append(pair_projective_space(d, 1))
        pairs.append(pair_projective_space(d, 2))
    pairs.append(pair_projective_space(1, 3))
    for d in range(3, 9):
        pairs.append(pair_quadric(d))
    for case in "abcde":
        for m in range(1, 7):
            pairs.append(pair_case(case, m))
    # minimal-family pairs of hyperplane sections of Grassmannians
    for n in range(4, 11):
        for k in range(2, n // 2 + 1):
            pairs.append(pair_divisor_11(k - 1, n - k - 1))
    # minimal-family pairs of orthogonal Grassmannians (quadric factor of dim >= 2)
    for n in range(8, 15):
        for k in range(2, (n - 1) // 2):
            if 2 * k + 2 < n and n - 2 * k - 2 >= 2:
                pairs.append(pair_product(pair_projective_space(k - 1), pair_quadric(n - 2 * k - 2)))
    # dedupe by label, preserving order
    seen: dict[str, PolarizedPair] = {}
    for p in pairs:
        seen.setdefault(p.label, p)
    return tuple(seen.values())


def catalog_to_json() -> str:
    """Serialize the static catalog (exact integers/rationals as strings)."""
    import json
    doc = {
        "catalog_version": CATALOG_VERSION,
        "pairs": [p.to_dict() for p in catalog_entries()],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# -- verification suite -----------------------------------------------------------


def _shown(v: Vector) -> str:
    """A lattice tuple as the report has always printed it: the repr of its Fractions."""
    return str(tuple(map(Fraction, v)))


def verify_catalog(m_max: int) -> Iterator[dict]:
    """The catalog's checkable statements, one {check, ok, detail} item at a time.

    Cases (a)-(e) for m <= m_max have ample twists and classify back to
    themselves; the extremal curves have L-degree 1 outside the stated
    exceptions; the twists of (P^1, O(3)) and (P^d, O(2)) are 1 and 2h; every
    entry has L and -K ample and, at Picard rank >= 2, pseudoindex <= (d+2)/2.
    """

    def item(name: str, ok: bool, detail: str = "") -> dict:
        return {"check": name, "ok": ok, "detail": detail}

    for case in "abcde":
        for m in range(1, m_max + 1):
            pair = pair_case(case, m)
            status = positivity_of_twist(pair)
            yield item(f"twist ample ({case}, m={m})", status == AMPLE, f"status={status}")
            try:
                found = classify_pair(pair)
            except ValueError as exc:
                yield item(f"classify ({case}, m={m})", False, str(exc))
            else:
                yield item(f"classify ({case}, m={m})", found == (case, m), f"found={found}")
    for pair in catalog_entries():
        if pair.picard_rank == 1 and pair.L[0] > 1:
            continue  # the stated exceptions (P^d, O(2)) and (P^1, O(3))
        degs = pair.degrees_on_mori(pair.L)
        yield item(f"L.R = 1 ({pair.label})", all(v == 1 for v in degs), f"degrees={_shown(degs)}")
    p1o3 = pair_projective_space(1, 3)
    yield item("twist of (P1, O3) = 1", twist_class(p1o3) == (1,), _shown(twist_class(p1o3)))
    for d in range(1, 9):
        pd = pair_projective_space(d, 2)
        yield item(f"twist of (P{d}, O2) = 2h", twist_class(pd) == (2,), _shown(twist_class(pd)))
    for pair in catalog_entries():
        yield item(f"L ample ({pair.label})", pair.is_ample(pair.L))
        yield item(f"-K ample ({pair.label})", pair.is_ample([-x for x in pair.K]))
        if pair.picard_rank >= 2:
            bound = pair.pseudoindex <= (pair.dim + 2) / 2
            yield item(f"pseudoindex bound ({pair.label})", bound, f"i={pair.pseudoindex}, d={pair.dim}")
