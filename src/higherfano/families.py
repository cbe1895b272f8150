"""The example families: ambient rings, tangent characters, positivity verdicts.

Each family kind builds its tangent character in a distinguished ambient ring
(a projective space, a product of projective spaces, or a Grassmannian) and
decides positivity of ch_k by pairing against the dual basis.  For the
zero-locus families cut out of a Grassmannian the pairings are the ambient
Schubert coefficients; that reduction is sound because the restricted dual
cycles stay effective and the curve-to-surface transfer from the minimal
family surjects onto the effective cone - facts recorded here per family,
never computed.

Canonical text forms: "CI[9;3]", "G[2,5]", "GH[2,6]", "OG[2,8]", "SG[3,12]",
"SGdeg[2,7]", "G2P", "PP[3,4]".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import catalog as cat
from .bundles import (
    CharacterVector,
    chern_to_character,
    line_character,
    sym2_character,
    trivial_character,
    wedge2_character,
)
from .catalog import PolarizedPair
from .rings import GradedClass, RingModel, product_ring, projective_space_ring
from .schubert import GrassmannianRing, grassmannian_ring, partition_label, tautological_chern

POSITIVE = "POSITIVE"
NEF_ONLY = "NEF_ONLY"
NEITHER = "NEITHER"

TWIST_TO_VERDICT = {cat.AMPLE: POSITIVE, cat.NEF_ONLY: NEF_ONLY, cat.NEITHER: NEITHER}

CI = "CI"
GRASS = "G"
GRASS_HYP = "GH"
OG = "OG"
SG = "SG"
SG_DEGENERATE = "SGdeg"
G2P = "G2P"
PRODUCT_PN = "PP"

_GRASS_KINDS = (GRASS, GRASS_HYP, OG, SG, SG_DEGENERATE)


class InvalidFamilyError(ValueError):
    pass


class NoClosedFormError(ValueError):
    """The source states no closed-form threshold for this kind/k combination."""


class NoPairError(ValueError):
    """The family has no stated polarized minimal pair."""


@dataclass(frozen=True)
class FamilySpec:
    """A parametric family; `k`/`n` hold (a, b) for the product kind."""

    kind: str
    k: int = 0
    n: int = 0
    degrees: tuple[int, ...] = ()

    def __post_init__(self):
        validate(self)

    def text(self) -> str:
        if self.kind == CI:
            return f"CI[{self.n};{','.join(str(d) for d in self.degrees)}]"
        if self.kind == G2P:
            return "G2P"
        return f"{self.kind}[{self.k},{self.n}]"

    def __str__(self) -> str:
        return self.text()


def ci(n: int, degrees: Sequence[int]) -> FamilySpec:
    return FamilySpec(CI, n=n, degrees=tuple(sorted((int(d) for d in degrees), reverse=True)))


def grass(k: int, n: int) -> FamilySpec:
    return FamilySpec(GRASS, k=k, n=n)


def grass_hyperplane(k: int, n: int) -> FamilySpec:
    return FamilySpec(GRASS_HYP, k=k, n=n)


def orthogonal_grass(k: int, n: int) -> FamilySpec:
    return FamilySpec(OG, k=k, n=n)


def symplectic_grass(k: int, n: int) -> FamilySpec:
    return FamilySpec(SG, k=k, n=n)


def degenerate_symplectic_grass(k: int, n: int) -> FamilySpec:
    return FamilySpec(SG_DEGENERATE, k=k, n=n)


def g2_fivefold() -> FamilySpec:
    return FamilySpec(G2P)


def product_pn(a: int, b: int) -> FamilySpec:
    return FamilySpec(PRODUCT_PN, k=a, n=b)


# the two-parameter kinds: kind -> constructor
KIND_MAKERS = {
    GRASS: grass,
    GRASS_HYP: grass_hyperplane,
    OG: orthogonal_grass,
    SG: symplectic_grass,
    SG_DEGENERATE: degenerate_symplectic_grass,
    PRODUCT_PN: product_pn,
}

_SPEC_RE = re.compile(r"^(CI|GH|G2P|G|OG|SGdeg|SG|PP)(?:\[([^\]]*)\])?$")


def parse_spec(text: str) -> FamilySpec:
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise InvalidFamilyError(f"cannot parse family spec {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind == G2P:
        if body not in (None, ""):
            raise InvalidFamilyError("G2P takes no parameters")
        return g2_fivefold()
    if body is None:
        raise InvalidFamilyError(f"{kind} needs parameters, e.g. {kind}[2,5]")
    if kind == CI:
        parts = body.split(";")
        if len(parts) != 2:
            raise InvalidFamilyError("CI spec looks like CI[n;d1,d2,...] (degrees may be empty)")
        n = int(parts[0])
        degrees = tuple(int(x) for x in parts[1].split(",") if x.strip() != "")
        return ci(n, degrees)
    nums = [int(x) for x in body.split(",")]
    if len(nums) != 2:
        raise InvalidFamilyError(f"{kind} takes two parameters")
    return KIND_MAKERS[kind](*nums)


def validate(spec: FamilySpec) -> FamilySpec:
    """Raise InvalidFamilyError unless spec names a family; FamilySpec runs it when built."""
    k, n = spec.k, spec.n
    if spec.kind == CI:
        if n < 1:
            raise InvalidFamilyError("CI needs n >= 1")
        if any(d < 1 for d in spec.degrees):
            raise InvalidFamilyError("CI degrees must be >= 1")
        if sum(spec.degrees) > n:
            raise InvalidFamilyError("not Fano: sum of degrees exceeds n")
    elif spec.kind == GRASS or spec.kind == GRASS_HYP:
        if not (2 <= k and 2 * k <= n):
            raise InvalidFamilyError(f"{spec.kind} needs 2 <= k <= n/2")
    elif spec.kind == OG:
        if not (2 <= k and 2 * k + 2 < n):
            raise InvalidFamilyError("OG needs 2 <= k < n/2 - 1")
    elif spec.kind == SG:
        if n % 2 != 0 or not (2 <= k and 2 * k <= n):
            raise InvalidFamilyError("SG needs n even and 2 <= k <= n/2")
    elif spec.kind == SG_DEGENERATE:
        if n % 2 != 1 or not (2 <= k and 2 * k < n):
            raise InvalidFamilyError("SGdeg needs n odd and 2 <= k < n/2")
    elif spec.kind == PRODUCT_PN:
        if k < 1 or n < 1:
            raise InvalidFamilyError("PP needs a, b >= 1")
    elif spec.kind != G2P:
        raise InvalidFamilyError(f"unknown family kind {spec.kind!r}")
    return spec


def dim_x(spec: FamilySpec) -> int:
    k, n = spec.k, spec.n
    if spec.kind == CI:
        return spec.n - len(spec.degrees)
    if spec.kind == GRASS:
        return k * (n - k)
    if spec.kind == GRASS_HYP:
        return k * (n - k) - 1
    if spec.kind == OG:
        return k * (2 * n - 3 * k - 1) // 2
    if spec.kind in (SG, SG_DEGENERATE):
        return k * (2 * n - 3 * k + 1) // 2
    if spec.kind == G2P:
        return 5
    return spec.k + spec.n  # PP


@lru_cache(maxsize=None)
def _pn_ring(n: int) -> RingModel:
    return projective_space_ring(n)


@lru_cache(maxsize=None)
def _grass_ring(k: int, n: int) -> GrassmannianRing:
    return grassmannian_ring(k, n)


@lru_cache(maxsize=None)
def _pp_ring(a: int, b: int) -> RingModel:
    return product_ring(projective_space_ring(a, gen="h1"), projective_space_ring(b, gen="h2"))


def ambient_ring(spec: FamilySpec) -> RingModel:
    if spec.kind == CI:
        return _pn_ring(spec.n)
    if spec.kind in _GRASS_KINDS:
        return _grass_ring(spec.k, spec.n)
    if spec.kind == PRODUCT_PN:
        return _pp_ring(spec.k, spec.n)
    raise InvalidFamilyError(f"{spec.kind} has no ring model")


def tangent_character(spec: FamilySpec, cap: int | None = None) -> CharacterVector:
    """ch(T_X), expressed in the distinguished ambient ring.

    For the zero-locus families the components are the ambient classes whose
    restrictions give ch(T_X): ch(T_G) minus the character of the normal
    bundle (Sym^2 of the dual subbundle, Lambda^2 of it, or the hyperplane
    line bundle).
    """
    ring = ambient_ring(spec)
    cap = ring.dimension if cap is None else min(cap, ring.dimension)
    if spec.kind == CI:
        h = ring.hyperplane()
        ch = line_character(h, cap) * (spec.n + 1) - trivial_character(ring, 1, cap)
        for d in spec.degrees:
            ch = ch - line_character(d * h, cap)
        return ch
    if spec.kind == PRODUCT_PN:
        h1, h2 = ring.monomial("h1"), ring.monomial("h2")
        one = trivial_character(ring, 1, cap)
        return (
            line_character(h1, cap) * (spec.k + 1)
            - one
            + line_character(h2, cap) * (spec.n + 1)
            - one
        )
    sdual = chern_to_character(tautological_chern(ring, "sub-dual"), spec.k, ring, cap)
    quot = chern_to_character(tautological_chern(ring, "quotient"), spec.n - spec.k, ring, cap)
    ch = sdual * quot
    if spec.kind == GRASS:
        return ch
    if spec.kind == GRASS_HYP:
        return ch - line_character(ring.sigma((1,)), cap)
    if spec.kind == OG:
        return ch - sym2_character(sdual)
    return ch - wedge2_character(sdual)  # SG and SGdeg


def anticanonical_line_degree(spec: FamilySpec) -> int:
    """-K_X paired with a minimal curve: the c_1 coefficient on the degree-1 basis."""
    if spec.kind == PRODUCT_PN:
        raise InvalidFamilyError("products have no distinguished minimal curve here")
    return _line_degree(spec, None if spec.kind == G2P else tangent_character(spec, cap=1))


def _line_degree(spec: FamilySpec, ch: CharacterVector | None) -> int:
    """anticanonical_line_degree with c_1 read from ch = ch(T_X) at any cap >= 1."""
    if spec.kind == G2P:
        return 3
    (label,) = ch.ring.basis(1)
    v = ch.component(1).coefficient(label)
    if v.denominator != 1:
        raise InvalidFamilyError("anticanonical degree is not integral")
    return int(v)


@dataclass(frozen=True)
class Verdict:
    """Tri-state positivity outcome with its witnessing pairings."""

    k: int
    status: str
    witnesses: tuple[tuple[str, Fraction], ...]
    cls: GradedClass | None  # ch_k; None for a fact record
    note: str = ""
    # ch(T_X) up to degree k, which cls was read from
    character: CharacterVector | None = field(default=None, repr=False, compare=False)


def chk_verdict(spec: FamilySpec, k: int) -> Verdict:
    """Positivity of ch_k decided by pairing against the dual basis.

    For the zero-locus families the pairings are the ambient Schubert
    coefficients (modeling note recorded on the verdict); for the Lagrangian
    boundary SG[k,2k] the two ambient degree-2 duals restrict to a single
    effective class (b_4 = 1), so the verdict uses the collapsed pairing.
    """
    if k < 2:
        raise InvalidFamilyError("verdicts are for k >= 2")
    if spec.kind == G2P:
        if k != 2:
            raise InvalidFamilyError("the G2 fivefold is a fact record for k = 2 only")
        return Verdict(2, POSITIVE, (), None, note="fact record: second character positive, b_4 = 1")
    if k > dim_x(spec):
        raise InvalidFamilyError(f"ch_{k} exceeds dim X = {dim_x(spec)}")
    ring = ambient_ring(spec)
    ch = tangent_character(spec, cap=k)
    cls = ch.component(k)
    note = ""
    if spec.kind == SG and spec.n == 2 * spec.k and k == 2:
        a = cls.coefficient(partition_label((2,)))
        b = cls.coefficient(partition_label((1, 1)))
        witnesses = ((f"{partition_label((2,))}+{partition_label((1, 1))}", a + b),)
        note = "Lagrangian boundary: b_4 = 1, both ambient duals restrict to one class"
    else:
        witnesses = tuple((label, cls.coefficient(label)) for label in ring.basis(k))
        if spec.kind in (GRASS_HYP, OG, SG, SG_DEGENERATE):
            note = "ambient Schubert coefficients; zero-locus modeling assumption"
    status = TWIST_TO_VERDICT[cat.tri_state([v for _, v in witnesses])]
    return Verdict(k, status, witnesses, cls, note=note, character=ch)


def threshold_oracle(spec: FamilySpec, k: int) -> str:
    """The closed-form verdict stated for the family, with no ring computation."""
    kk, n = spec.k, spec.n
    if spec.kind == CI:
        if k < 1 or k > dim_x(spec):
            raise NoClosedFormError("CI thresholds apply for 1 <= k <= dim X")
        s = sum(d**k for d in spec.degrees)
        if s <= n:
            return POSITIVE
        if s <= n + 1:
            return NEF_ONLY
        return NEITHER
    if k != 2:
        raise NoClosedFormError(f"no stated closed form for {spec.kind} at k = {k}")
    if spec.kind == GRASS:
        if n <= 2 * kk + 1:
            return POSITIVE
        if n <= 2 * kk + 2:
            return NEF_ONLY
        return NEITHER
    if spec.kind == GRASS_HYP:
        if n == 2 * kk:
            return POSITIVE
        if n == 2 * kk + 1:
            return NEF_ONLY
        return NEITHER
    if spec.kind == OG:
        if n == 3 * kk + 2:
            return POSITIVE
        if 3 * kk + 1 <= n <= 3 * kk + 3:
            return NEF_ONLY
        return NEITHER
    if spec.kind == SG:
        if n == 2 * kk or n == 3 * kk - 2:
            return POSITIVE
        if 3 * kk - 3 <= n <= 3 * kk - 1:
            return NEF_ONLY
        return NEITHER
    if spec.kind == SG_DEGENERATE:
        if n == 3 * kk - 2:
            return POSITIVE
        if 3 * kk - 3 <= n <= 3 * kk - 1:
            return NEF_ONLY
        return NEITHER
    if spec.kind == G2P:
        return POSITIVE
    raise NoClosedFormError("no stated tri-state closed form for products")


def minimal_pair(spec: FamilySpec) -> PolarizedPair:
    """The polarized minimal family of rational curves stated for the family."""
    k, n = spec.k, spec.n
    if spec.kind == CI:
        d = n - 1 - sum(spec.degrees)
        if d < 0:
            raise NoPairError("not covered by lines: dim H < 0")
        index = n - sum(x * (x + 1) // 2 for x in spec.degrees)
        return cat.pair_picard_one(f"lines({spec.text()})", d, index, 1, "complete_intersection")
    if spec.kind == GRASS:
        return cat.pair_product(cat.pair_projective_space(k - 1), cat.pair_projective_space(n - k - 1))
    if spec.kind == GRASS_HYP:
        return cat.pair_divisor_11(k - 1, n - k - 1)
    if spec.kind == OG:
        return cat.pair_product(cat.pair_projective_space(k - 1), cat.pair_quadric(n - 2 * k - 2))
    if spec.kind in (SG, SG_DEGENERATE):
        if n == 2 * k:
            return cat.pair_projective_space(k - 1, polarization_degree=2)
        return cat.pair_linear_blowup(
            n - k - 1, n - 2 * k - 1, label=f"P_P{k-1}(O2+O1^{n-2*k})(OP1)"
        )
    if spec.kind == G2P:
        return cat.pair_projective_space(1, polarization_degree=3)
    raise NoPairError("no stated minimal pair for products")


@dataclass(frozen=True)
class ConsistencyReport:
    """One check/census row.

    The oracle is "" where no closed form is stated.  Twist, pair and dims
    are ch_2 facts of the minimal family: ""/None at k != 2 and where no
    minimal pair is stated (products, complete intersections not covered by
    lines).
    """

    spec: FamilySpec
    verdict: Verdict
    oracle_status: str
    twist_status: str
    pair_label: str
    pair_dim: int | None
    expected_dim: int | None
    note: str

    @property
    def agree(self) -> bool:
        statuses = {self.verdict.status}
        if self.oracle_status:
            statuses.add(self.oracle_status)
        if self.twist_status:
            statuses.add(TWIST_TO_VERDICT[self.twist_status])
        return len(statuses) == 1 and self.pair_dim == self.expected_dim


def consistency_check(spec: FamilySpec, k: int = 2) -> ConsistencyReport:
    """Up to three independent verdicts on ch_k (ring, closed form, cone twist) plus dim H.

    Each path runs once; dim H reads c_1 from the verdict's own character.
    """
    verdict = chk_verdict(spec, k)
    try:
        oracle = threshold_oracle(spec, k)
    except NoClosedFormError:
        oracle = ""
    twist, label, pair_dim, expected = "", "", None, None
    if k == 2:
        try:
            pair = minimal_pair(spec)
        except NoPairError:
            pass
        else:
            twist, label, pair_dim = cat.positivity_of_twist(pair), pair.label, pair.dim
            expected = _line_degree(spec, verdict.character) - 2
    return ConsistencyReport(
        spec=spec,
        verdict=verdict,
        oracle_status=oracle,
        twist_status=twist,
        pair_label=label,
        pair_dim=pair_dim,
        expected_dim=expected,
        note=verdict.note,
    )


def product_nonexample(a: int, b: int) -> Fraction:
    """ch_2(P^a x P^b) paired with the surface class of P^1 x P^1; always zero."""
    spec = product_pn(a, b)
    ring = ambient_ring(spec)
    ch2 = tangent_character(spec, cap=2).component(2)
    h1, h2 = ring.monomial("h1"), ring.monomial("h2")
    surface = h1 ** (a - 1) * h2 ** (b - 1)
    return (ch2 * surface).integrate()


def bundle_nonexample_diagnostic(case: str, m: int) -> tuple[tuple[str, Fraction], ...]:
    """Best-effort witness search: ch_2 pairings on the bundle-type exceptional pairs.

    Builds the total space of case (c) P(O(2) + O(1)^m) or case (e) P(T) over
    P^(m+1), computes ch_2 of its tangent bundle, and pairs it against every
    monomial class of complementary dimension.  A nonpositive pairing exhibits
    failure of weak positivity (no specific witness is stated anywhere, so
    this is a diagnostic, not a certificate).
    """
    if m < 1:
        raise InvalidFamilyError("bundle diagnostics need m >= 1")
    from .bundles import character_to_chern, dual
    from .rings import projbundle_ring

    base = projective_space_ring(m + 1)
    h = base.hyperplane()
    rank = m + 1
    if case == "c":
        ch_e = line_character(2 * h) + line_character(h) * m
    elif case == "e":
        ch_e = line_character(h) * (m + 2) - trivial_character(base, 1)
    else:
        raise InvalidFamilyError("diagnostic covers the bundle cases 'c' and 'e'")
    # ch_e runs to the base's top degree, so it determines every c_i of E;
    # the products below align to the tangent's cap 2
    pb = projbundle_ring(base, character_to_chern(ch_e)[:rank], rank)
    h_pb = pb.from_base(h)
    edual = dual(ch_e)
    edual_up = CharacterVector(
        pb, edual.rank, [pb.from_base(edual.component(k)) for k in range(1, edual.cap + 1)]
    )
    one = trivial_character(pb, 1, cap=2)
    tangent = (
        line_character(h_pb, cap=2) * (m + 2)
        - one
        + edual_up * line_character(pb.xi(), cap=2)
        - one
    )
    ch2 = tangent.component(2)
    out = []
    for label in pb.basis(pb.dimension - 2):
        out.append((label, (ch2 * pb.monomial(label)).integrate()))
    return tuple(out)


def enumerate_fano_ci(n: int, max_c: int, min_degree: int = 2, include_empty: bool = True):
    """Degree tuples (nonincreasing) of Fano complete intersections covered by lines.

    Yields tuples with at most max_c entries, each >= min_degree, and
    sum <= n-1 so the family of lines is nonempty.
    """
    if max_c < 0:
        raise InvalidFamilyError(f"max codimension must be >= 0, got {max_c}")
    if include_empty:
        yield ()

    def rec(prefix: tuple[int, ...], budget: int, bound: int, slots: int):
        if slots == 0:
            return
        for d in range(min(bound, budget), min_degree - 1, -1):
            yield prefix + (d,)
            yield from rec(prefix + (d,), budget - d, d, slots - 1)

    yield from rec((), n - 1, n - 1, max_c)
