"""The example families: ambient rings, tangent characters, positivity verdicts.

Each family kind builds its tangent character in a distinguished ambient ring
(a projective space, a product of projective spaces, or a Grassmannian) and
decides positivity of ch_k by pairing against the dual basis.  For the
zero-locus families cut out of a Grassmannian the pairings are the ambient
Schubert coefficients; that reduction is sound because the restricted dual
cycles stay effective and the curve-to-surface transfer from the minimal
family surjects onto the effective cone - facts recorded here per family,
never computed.

Each Grassmannian kind is a row of ZERO_LOCI: X in G(k,n) is the zero locus of a
section of its normal bundle N, and the row holds N's summands, the (k, n) the
kind takes and that range in words.  Validation, dim X = k(n-k) - rank N,
ch(T_X) = ch(T_G) - ch(N) and the census kinds read it; the thresholds and
minimal pairs do not, so they still check it.

Canonical text forms: "CI[9;3]", "G[2,5]", "GH[2,6]", "OG[2,8]", "SG[3,12]",
"SGdeg[2,7]", "G2P", "PP[3,4]".
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple, Sequence

from . import catalog as cat
from . import schubert
from .bundles import power_sum_class
from .catalog import PolarizedPair
from .rings import ProductRing, ProjBundleRing, ProjectiveSpaceRing, RingModel, basis_size_error
from .schubert import GrassmannianRing, partition_label

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

# the zero-locus kinds X in G(k,n): kind -> (summands of the normal bundle N,
# whether the kind takes (k, n), that range in words).  G has no summand, GH has
# O(1), OG has Sym^2 S^dual, SG and SGdeg have Lambda^2 S^dual.
ZERO_LOCI = {
    GRASS: ((), lambda k, n: 2 <= k and 2 * k <= n, "2 <= k <= n/2"),
    GRASS_HYP: (("O(1)",), lambda k, n: 2 <= k and 2 * k <= n, "2 <= k <= n/2"),
    OG: (("Sym2",), lambda k, n: 2 <= k and 2 * k + 2 < n, "2 <= k < n/2 - 1"),
    SG: (("Wedge2",), lambda k, n: n % 2 == 0 and 2 <= k and 2 * k <= n, "n even and 2 <= k <= n/2"),
    SG_DEGENERATE: (("Wedge2",), lambda k, n: n % 2 == 1 and 2 <= k and 2 * k < n, "n odd and 2 <= k < n/2"),
}

# each normal summand on G(k,n): its rank, and j! ch_j of it on the ring as {label: int};
# O(1) takes hook lengths, Sym^2 and Lambda^2 the power-sum table at t = +1
_SUMMANDS = {
    "O(1)": (lambda k: 1, schubert.o1_power_sum),
    "Sym2": (lambda k: k * (k + 1) // 2, lambda ring, j: schubert.square_power_sum(ring, j, 1)),
    "Wedge2": (lambda k: k * (k - 1) // 2, lambda ring, j: schubert.square_power_sum(ring, j, -1)),
}


class InvalidFamilyError(ValueError):
    pass


class NoClosedFormError(ValueError):
    """The source states no closed-form threshold for this kind/k combination."""


class NoPairError(ValueError):
    """The family has no stated polarized minimal pair."""


class FamilySpec(namedtuple("FamilySpec", "kind k n degrees")):
    """A parametric family, validated whenever built; `k`/`n` hold (a, b) for PP."""

    __slots__ = ()

    def __new__(cls, kind: str, k: int = 0, n: int = 0, degrees: tuple[int, ...] = ()):
        return validate(super().__new__(cls, kind, k, n, degrees))

    def text(self) -> str:
        if self.kind == CI:
            return f"CI[{self.n};{','.join(map(str, self.degrees))}]"
        if self.kind == G2P:
            return "G2P"
        return f"{self.kind}[{self.k},{self.n}]"

    __str__ = text


def ci(n: int, degrees: Sequence[int]) -> FamilySpec:
    return FamilySpec(CI, n=n, degrees=tuple(sorted((int(d) for d in degrees), reverse=True)))


def integer(text: str) -> int:
    """A CLI integer (spec, range or flag): int(text), but ValueError for the "_" and non-ASCII digits int() reads."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _int(text: str, spec: str) -> int:
    try:
        return integer(text)
    except ValueError:
        raise InvalidFamilyError(f"cannot read {text!r} as an integer in family spec {spec!r}") from None


def parse_spec(text: str) -> FamilySpec:
    m = re.match(r"^(\w+)(?:\[([^\]]*)\])?$", text.strip())
    if not m or m.group(1) not in (CI, G2P, PRODUCT_PN, *ZERO_LOCI):
        raise InvalidFamilyError(f"cannot parse family spec {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind == G2P:
        if body not in (None, ""):
            raise InvalidFamilyError("G2P takes no parameters")
        return FamilySpec(G2P)
    if body is None:
        raise InvalidFamilyError(f"{kind} needs parameters, e.g. {kind}[2,5]")
    if kind == CI:
        parts = body.split(";")
        if len(parts) != 2:
            raise InvalidFamilyError("CI spec looks like CI[n;d1,d2,...] (degrees may be empty)")
        # "CI[n;]" is P^n itself; otherwise every comma-separated entry is a degree
        degrees = parts[1].split(",") if parts[1].strip() else ()
        return ci(_int(parts[0], text), [_int(d, text) for d in degrees])
    nums = [_int(x, text) for x in body.split(",")]
    if len(nums) != 2:
        raise InvalidFamilyError(f"{kind} takes two parameters")
    return FamilySpec(kind, *nums)


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
    elif spec.kind in ZERO_LOCI:
        _, takes, needs = ZERO_LOCI[spec.kind]
        if not takes(k, n):
            raise InvalidFamilyError(f"{spec.kind} needs {needs}")
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
    if spec.kind in ZERO_LOCI:
        return k * (n - k) - sum(_SUMMANDS[s][0](k) for s in ZERO_LOCI[spec.kind][0])
    if spec.kind == G2P:
        return 5
    return spec.k + spec.n  # PP


@lru_cache(maxsize=None)
def _pn_ring(n: int) -> RingModel:
    return ProjectiveSpaceRing(n)


@lru_cache(maxsize=None)
def _grass_ring(k: int, n: int) -> GrassmannianRing:
    return GrassmannianRing(k, n)


@lru_cache(maxsize=None)
def _pp_ring(a: int, b: int) -> RingModel:
    return ProductRing(ProjectiveSpaceRing(a, gen="h1"), ProjectiveSpaceRing(b, gen="h2"))


def check_ambient_bound(spec: FamilySpec) -> None:
    """ValueError if the spec's ambient ring has more than schubert.MAX_BASIS_LABELS labels.

    It builds no label, so a census can check every spec before its first row.
    """
    k, n, bound = spec.k, spec.n, schubert.MAX_BASIS_LABELS
    if spec.kind == CI:
        if n + 1 > bound:
            raise basis_size_error(f"P^{n}", f"{n}+1", n + 1, bound)
    elif spec.kind == PRODUCT_PN:
        if (k + 1) * (n + 1) > bound:
            raise basis_size_error(f"P^{k} x P^{n}", f"({k}+1)({n}+1)", (k + 1) * (n + 1), bound)
    elif spec.kind in ZERO_LOCI:
        schubert.check_basis_bound(k, n)


def _power_sums(spec: FamilySpec):
    """(ring, p): the ambient ring and p(j) = j! ch_j(T_X) on ints, so a caller reads only the degrees it needs.

    The one place a spec becomes its ring: each kind's branch builds the cached ring
    and its p together, after check_ambient_bound.  G2P has no ring; its callers
    answer it from the fact record first.

    - CI of degrees d_1..d_c in P^n: ch(T_X) = (n+1) e^h - 1 - sum_i e^(d_i h), so
      p(j) = (n+1 - sum_i d_i^j) h^j;
    - PP, P^a x P^b: the Euler sequence on each factor, p(j) = (a+1) h1^j + (b+1) h2^j,
      each term only while j is at most its factor's dimension;
    - the zero loci X in G(k,n): the components are the ambient classes whose
      restrictions give ch(T_X) = ch(T_G) - ch(N), so p(j) is
      schubert.tangent_power_sum (n times the signed hooks minus the power-sum table's
      t = -1 entry, for ch(End S)) minus the entry of each summand of N named in
      ZERO_LOCI (schubert.o1_power_sum, schubert.square_power_sum).
    """
    check_ambient_bound(spec)
    if spec.kind == CI:
        ring, n, degrees = _pn_ring(spec.n), spec.n, spec.degrees

        def p(j: int) -> dict[str, int]:
            return {ring.basis(j)[0]: n + 1 - sum(d**j for d in degrees)}
    elif spec.kind == PRODUCT_PN:
        ring = _pp_ring(spec.k, spec.n)
        factors = ((ring.left, spec.k), (ring.right, spec.n))

        def p(j: int) -> dict[str, int]:
            return {factor.basis(j)[0]: m + 1 for factor, m in factors if j <= m}
    else:
        ring = _grass_ring(spec.k, spec.n)
        summands = [_SUMMANDS[s][1] for s in ZERO_LOCI[spec.kind][0]]

        def p(j: int) -> dict[str, int]:
            acc = schubert.tangent_power_sum(ring, j)
            for summand in summands:
                for label, c in summand(ring, j).items():
                    acc[label] = acc.get(label, 0) - c
            return acc
    return ring, p


def anticanonical_line_degree(spec: FamilySpec) -> int:
    """-K_X paired with a minimal curve: the c_1 coefficient on the degree-1 basis."""
    if spec.kind == PRODUCT_PN:
        raise InvalidFamilyError("products have no distinguished minimal curve here")
    if spec.kind == G2P:
        return 3
    return _line_degree(*_power_sums(spec))


def _line_degree(ring: RingModel, p) -> int:
    """c_1 from the (ring, p) of _power_sums: p(1), as 1! = 1, on the one degree-1 label."""
    (label,) = ring.basis(1)
    v = p(1).get(label, 0)
    if not isinstance(v, int):
        raise InvalidFamilyError("anticanonical degree is not integral")
    return v


class Verdict(NamedTuple):
    """Tri-state positivity outcome with its witnessing pairings."""

    k: int
    status: str
    witnesses: tuple[tuple[str, Fraction], ...]
    note: str = ""


def check_verdict_index(k: int) -> None:
    """InvalidFamilyError unless ch_k is one a verdict decides, k >= 2."""
    if k < 2:
        raise InvalidFamilyError("verdicts are for k >= 2")


def chk_verdict(spec: FamilySpec, k: int) -> Verdict:
    """Positivity of ch_k, decided by pairing against the dual basis.

    The pairings are the coefficients of ch_k = p(k)/k!, p(k) from _power_sums:
    the status reads the signs of the integers p(k), which are those of ch_k as
    k! > 0, and each witness divides once.  For the zero-locus families the
    pairings are the ambient Schubert coefficients (modeling note recorded on the
    verdict); for the Lagrangian boundary SG[k,2k] the two ambient degree-2
    duals restrict to a single effective class (b_4 = 1), so the verdict uses
    the collapsed pairing.  ValueError if p(k) names a label outside degree k.
    """
    return _verdict_and_sums(spec, k)[0]


def _verdict_and_sums(spec: FamilySpec, k: int) -> tuple[Verdict, tuple | None]:
    """chk_verdict and the (ring, p) of _power_sums it read, None for the G2P fact record.

    A census row reads dim H from the same (ring, p), so each row reads the power sums once.
    """
    check_verdict_index(k)
    if spec.kind == G2P:
        if k != 2:
            raise InvalidFamilyError("the G2 fivefold is a fact record for k = 2 only")
        return Verdict(2, POSITIVE, (), note="fact record: second character positive, b_4 = 1"), None
    if k > dim_x(spec):
        raise InvalidFamilyError(f"ch_{k} exceeds dim X = {dim_x(spec)}")
    sums = ring, p = _power_sums(spec)
    p_k = p(k)
    basis = ring.basis(k)
    if not p_k.keys() <= set(basis):
        raise ValueError(f"p({k}) names labels outside degree {k} of {ring.name}: {sorted(p_k.keys() - set(basis))}")
    scale = factorial(k)
    note = ""
    if spec.kind == SG and spec.n == 2 * spec.k and k == 2:
        a, b = partition_label((2,)), partition_label((1, 1))
        pairings = [(f"{a}+{b}", p_k.get(a, 0) + p_k.get(b, 0))]
        note = "Lagrangian boundary: b_4 = 1, both ambient duals restrict to one class"
    else:
        pairings = [(label, p_k.get(label, 0)) for label in basis]
        if spec.kind in ZERO_LOCI and ZERO_LOCI[spec.kind][0]:
            note = "ambient Schubert coefficients; zero-locus modeling assumption"
    witnesses = tuple([(label, Fraction(v, scale)) for label, v in pairings])
    status = TWIST_TO_VERDICT[cat.tri_state([v for _, v in pairings])]
    return Verdict(k, status, witnesses, note), sums


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
    if spec.kind in (SG, SG_DEGENERATE):
        # one rule for both: they differ only at the Lagrangian n = 2k, and SGdeg's n is odd
        if n == 2 * kk or n == 3 * kk - 2:
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
        return cat.pair_linear_blowup(n - k - 1, n - 2 * k - 1)
    if spec.kind == G2P:
        return cat.pair_projective_space(1, polarization_degree=3)
    raise NoPairError("no stated minimal pair for products")


class ConsistencyReport(NamedTuple):
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

    Each path runs once, and the power sums are read once: the verdict reads p(k), and
    dim H reads c_1 as the integer p(1) of the same (ring, p).
    """
    verdict, sums = _verdict_and_sums(spec, k)
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
            expected = (anticanonical_line_degree(spec) if sums is None else _line_degree(*sums)) - 2
    return ConsistencyReport(spec, verdict, oracle, twist, label, pair_dim, expected)


def product_nonexample(a: int, b: int) -> Fraction:
    """ch_2(P^a x P^b) paired with the surface class of P^1 x P^1; always zero."""
    ring, p = _power_sums(FamilySpec(PRODUCT_PN, a, b))
    ch2 = power_sum_class(ring, 2, p(2))
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
    base = ProjectiveSpaceRing(m + 1)
    h = base.hyperplane()
    # E as line bundles O(D) with multiplicities; T = (m+2) O(h) - O by the Euler sequence
    if case == "c":
        lines = ((2 * h, 1), (h, m))
    elif case == "e":
        lines = ((h, m + 2), (base.zero(), -1))
    else:
        raise InvalidFamilyError("diagnostic covers the bundle cases 'c' and 'e'")
    # c(E) = prod (1 + D)^mult, to which a trivial summand (D = 0) contributes 1
    chern = base.unit()
    for d, mult in lines:
        if not d.is_zero():
            chern = chern * (1 + d) ** mult
    rank = m + 1
    pb = ProjBundleRing(base, [chern.degree_part(i) for i in range(1, rank + 1)], rank)
    xi = pb.xi()
    # T_P(E) = T of the base pulled back + E^dual (x) O(1) - 1, whose power sum p_2 is
    # (m+2) h^2 + sum mult (xi - D)^2
    p2 = (m + 2) * pb.from_base(h) ** 2
    for d, mult in lines:
        p2 = p2 + mult * (xi - pb.from_base(d)) ** 2
    ch2 = p2 * Fraction(1, 2)
    out = []
    for label in pb.basis(pb.dimension - 2):
        out.append((label, (ch2 * pb.monomial(label)).integrate()))
    return tuple(out)


def enumerate_fano_ci(n: int, max_c: int):
    """Degree tuples (nonincreasing) of Fano complete intersections covered by lines.

    Yields () (P^n itself), then the tuples with at most max_c entries, each
    >= 2, and sum <= n-1 so the family of lines is nonempty.
    """
    if max_c < 0:
        raise InvalidFamilyError(f"max codimension must be >= 0, got {max_c}")
    yield ()
    # depth first, each tuple before its extensions and the larger last degree first: the
    # stack holds (tuple, what is left of n - 1) with its next tuple on top
    stack = [((d,), n - 1 - d) for d in range(2, n)] if max_c else []
    while stack:
        degrees, budget = stack.pop()
        yield degrees
        if len(degrees) < max_c:
            stack.extend((degrees + (d,), budget - d) for d in range(2, min(degrees[-1], budget) + 1))
