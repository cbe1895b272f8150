"""Chern characters of a polarized minimal family of rational curves.

Engine for the family-side character formula

    ch_k(H) = sum_{j=0}^{k} A_j * l^j * t_{k+1-j}  -  l^k / k!,

where l is the polarization class, A_j the Todd coefficients, and t_j the
image of the ambient ch_j under the degree-lowering transfer (pull back along
evaluation, push down the universal P^1-bundle).  On classes proportional to
the j-th power of a divisor of fiber degree a, the transfer acts by
a^j * l^(j-1); that is the only case it is defined on here, and the only case
the complete-intersection families need.

The symbolic side re-derives the formula from scratch on two RingModels, so
GradedClass does all of their arithmetic.  Neither model has a point class.

UniversalModel is the total space of the universal P^1-bundle, truncated at
max_degree.  Its basis labels are monomials in l (degree 1, pulled back from
the family), the section class s (degree 1) and formal symbols e_j (degree j)
standing for the evaluation pullbacks of the ambient ch_j, such as "1",
"l^2*e_1*e_3" and "l^3*s".  The relations s^2 = -s*l and s*e_j = 0 leave
only the monomials l^a*e_J and l^a*s.  The ring depends on the truncation
alone and is shared; the ambient dimension n enters through tangent_pullback.

Pushforward down the bundle lands in FamilyModel, whose labels are l^a and
l^a*t_j with t_j of degree j-1 (such as "l^2*t_3"): pure powers of l push to
zero, q(l)*s pushes to q(l), and l^a*e_j pushes to l^a*t_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterator, Mapping, Sequence

from .bundles import line_character, todd_line
from .numeric import Rational, power_sum, todd_coeff
from .rings import GradedClass, RingModel, _pow_label, projective_space_ring

# -- symbolic universal-family model -----------------------------------------

# exponents of a monomial: (l-exponent, sorted symbol indices, s-exponent)
_Key = tuple[int, tuple[int, ...], int]


def _index_tuples(total: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of integers >= smallest that sum to total."""
    if total == 0:
        yield ()
    for first in range(smallest, total + 1):
        for rest in _index_tuples(total - first, first):
            yield (first, *rest)


class _MonomialModel(RingModel):
    """A truncated RingModel whose basis labels are monomials l^a * x_J * s^b."""

    def __init__(self, name: str, symbol: str, keys_by_degree: Sequence[Sequence[_Key]]):
        self._key: dict[str, _Key] = {}
        self._label: dict[_Key, str] = {}
        for keys in keys_by_degree:
            for key in keys:
                a, idx, b = key
                factors = [_pow_label("l", a)] + [f"{symbol}_{j}" for j in idx] + [_pow_label("s", b)]
                label = "*".join(f for f in factors if f != "1") or "1"
                self._key[label] = key
                self._label[key] = label
        basis = [[self._label[key] for key in keys] for keys in keys_by_degree]
        super().__init__(name, len(basis) - 1, basis, None)

    def _term(self, key: _Key, c: int = 1) -> dict[str, Fraction]:
        """The monomial `key` times c, or nothing above the truncation."""
        label = self._label.get(key)
        return {} if label is None else {label: Fraction(c)}

    def _generator(self, label: str) -> GradedClass:
        """A generator of the model, zero when it lies above the truncation."""
        return self.monomial(label) if label in self._key else self.zero()

    def ell(self) -> GradedClass:
        return self._generator("l")


class FamilyModel(_MonomialModel):
    """The family side: l^a and l^a*t_j (t_j of degree j-1), truncated at max_degree."""

    def __init__(self, max_degree: int):
        keys = [
            [(deg, (), 0)] + [(a, (deg - a + 1,), 0) for a in range(deg + 1)]
            for deg in range(max_degree + 1)
        ]
        super().__init__(f"H<{max_degree}>", "t", keys)

    def t(self, j: int) -> GradedClass:
        if j < 1:
            raise ValueError("t_j needs j >= 1")
        return self._generator(f"t_{j}")

    def _mul_labels(self, x, y):
        a1, t1, _ = self._key[x]
        a2, t2, _ = self._key[y]
        if t1 and t2:
            raise ValueError(f"the family model has no products of t-symbols: {x} * {y}")
        return self._term((a1 + a2, t1 + t2, 0))


class UniversalModel(_MonomialModel):
    """Total space of the universal family, truncated at max_degree, in normal form."""

    def __init__(self, max_degree: int):
        keys = [
            [(a, es, 0) for a in range(deg + 1) for es in _index_tuples(deg - a)]
            + ([(deg - 1, (), 1)] if deg else [])
            for deg in range(max_degree + 1)
        ]
        super().__init__(f"U<{max_degree}>", "e", keys)
        self.family = FamilyModel(max_degree - 1)

    def sigma(self) -> GradedClass:
        return self._generator("s")

    def e(self, j: int) -> GradedClass:
        if j < 1:
            raise ValueError("e_j needs j >= 1")
        return self._generator(f"e_{j}")

    def _mul_labels(self, x, y):
        a1, e1, s1 = self._key[x]
        a2, e2, s2 = self._key[y]
        a, es, s, c = a1 + a2, tuple(sorted(e1 + e2)), s1 + s2, 1
        if s == 2:  # s^2 = -s*l
            a, s, c = a + 1, 1, -1
        if s and es:  # s * e_j = 0
            return {}
        return self._term((a, es, s), c)

    # -- classes used in the derivation -----------------------------------

    def c1_relative_tangent(self) -> GradedClass:
        return 2 * self.sigma() + self.ell()

    def tangent_pullback(self, n: int, e1_substitution: GradedClass | None = None) -> GradedClass:
        """ev^* ch(T_X) = n + sum_j e_j, optionally with e_1 replaced."""
        out = self.scalar(n)
        start = 1
        if e1_substitution is not None:
            out = out + e1_substitution
            start = 2
        for j in range(start, self.dimension + 1):
            out = out + self.e(j)
        return out

    def z_class(self, n: int, e1_substitution: GradedClass | None = None) -> GradedClass:
        """(ev^* ch(T_X) - ch(T_pi)) * ch(O(-s))."""
        ch_tpi = line_character(self.c1_relative_tangent()).total()
        ch_o_minus_s = line_character(-self.sigma()).total()
        return (self.tangent_pullback(n, e1_substitution) - ch_tpi) * ch_o_minus_s

    def w_class(self, n: int, e1_substitution: GradedClass | None = None) -> GradedClass:
        """z_class times the Todd class of the relative tangent bundle."""
        return self.z_class(n, e1_substitution) * todd_line(self.c1_relative_tangent())


@lru_cache(maxsize=None)
def _universal_ring(max_degree: int) -> UniversalModel:
    return UniversalModel(max_degree)


def model_ring(n: int, d: int, k_max: int) -> UniversalModel:
    """Universal-family model truncated so ch_k is available for k <= k_max.

    The ring depends only on the truncation and is shared; pass n on to
    tangent_pullback, z_class and w_class.
    """
    if not 0 <= d <= n - 1:
        raise ValueError(f"need 0 <= d <= n-1, got n={n}, d={d}")
    return _universal_ring(k_max + 1)


def push_pi(x: GradedClass) -> GradedClass:
    """Pushforward down the universal P^1-bundle, into the family model.

    q(l)*s maps to q(l); pure powers of l map to 0; l^a*e_j maps to l^a*t_j.
    Products of two or more e-symbols have no expressible pushforward and are
    rejected (they never occur in the derivation).
    """
    fam = x.ring.family
    out: dict[str, Fraction] = {}
    for label, c in x.terms.items():
        a, es, s = x.ring._key[label]
        if len(es) > 1:
            raise ValueError(f"pushforward of a product of e-symbols is undefined: {label}")
        if s or es:  # distinct labels have distinct images
            out[fam._label[(a, es, 0)]] = c
    return GradedClass(fam, out)


# -- verification reports ------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    params: tuple
    ok: bool
    lhs: str = ""
    rhs: str = ""


@dataclass
class VerificationReport:
    label: str
    checks: list[Check] = field(default_factory=list)

    def record(self, name: str, params: tuple, lhs, rhs) -> None:
        ok = lhs == rhs
        self.checks.append(
            Check(name, params, ok, "" if ok else repr(lhs), "" if ok else repr(rhs))
        )

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]


def verify_claim31(n: int, d: int, k_max: int) -> VerificationReport:
    """Check the closed formulas for the graded pieces of the character cycle.

    Exercises, for all k <= k_max: the normal form of Z_k, Z_k*s, their
    pushforwards, Z_0 = n-1, and the auxiliary product and pushforward
    identities used along the way.
    """
    u = model_ring(n, d, k_max)
    fam = u.family
    sig, ell = u.sigma(), u.ell()
    lh = fam.ell()
    report = VerificationReport(f"claim31(n={n}, d={d}, k_max={k_max})")

    z = u.z_class(n)
    report.record("Z_0 = n-1", (n, d, 0), z.degree_part(0), u.scalar(n - 1))
    for k in range(1, k_max + 1):
        zk = z.degree_part(k)
        co = Fraction((n + 1) * (-1) ** k, factorial(k))
        rhs = u.e(k) + co * sig**k - ell**k * Fraction(1, factorial(k))
        report.record("Z_k", (n, d, k), zk, rhs)

        rhs_zs = co * sig ** (k + 1) - (sig * ell**k) * Fraction(1, factorial(k))
        report.record("Z_k*s", (n, d, k), zk * sig, rhs_zs)

        rhs_push = fam.t(k) - lh ** (k - 1) * Fraction(n + 1, factorial(k))
        report.record("push(Z_k)", (n, d, k), push_pi(zk), rhs_push)

        rhs_push_zs = lh**k * Fraction(n, factorial(k))
        report.record("push(Z_k*s)", (n, d, k), push_pi(zk * sig), rhs_push_zs)

    c1 = u.c1_relative_tangent()
    top = u.dimension
    for i in range(0, top + 1):
        for j in range(1, top - i + 1):
            report.record("(iv) l^i s^j", (n, d, i, j), ell**i * sig**j, (-1) ** i * sig ** (i + j))
            report.record("(v) c1^i s^j", (n, d, i, j), c1**i * sig**j, sig ** (i + j))
    for i in range(0, top + 1):
        rhs = ell**i if i % 2 == 0 else 2 * sig**i + ell**i
        report.record("(vi) c1^i", (n, d, i), c1**i, rhs)
    for k in range(1, top + 1):
        report.record(
            "(vii) push(s^k)", (n, d, k), push_pi(sig**k), (-1) ** (k - 1) * lh ** (k - 1)
        )
    for a in range(0, top):
        report.record("(viii) push(l^a)", (n, d, a), push_pi(ell**a), fam.zero())
    return report


def _character_formula(ell: GradedClass, t: Callable[[int], GradedClass], k: int) -> GradedClass:
    """sum_{j=0}^{k} A_j * l^j * t(k+1-j) - l^k / k!, reading t_j only where A_j != 0."""
    out = ell.ring.zero()
    for j in range(0, k + 1):
        aj = todd_coeff(j)
        if aj:
            out = out + aj * ell**j * t(k + 1 - j)
    return out - ell**k * Fraction(1, factorial(k))


def family_character_formula(fam: FamilyModel, k: int) -> GradedClass:
    """The family-side character formula in symbols: sum A_j l^j t_(k+1-j) - l^k/k!."""
    return _character_formula(fam.ell(), fam.t, k)


def verify_prop11_symbolic(n: int, d: int, k_max: int) -> VerificationReport:
    """Re-derive the family character formula from first principles.

    Expands the pushforward of the degree-(k+1) piece of the full
    character-times-Todd cycle and compares it with the closed formula, for
    each k <= k_max.  Then substitutes e_1 = (d+2)(s + l) (the evaluation
    pullback of the anticanonical class) and checks the k = 1, 2
    specializations, plus the coefficient -1/k! of the standalone l^k term.
    """
    u = model_ring(n, d, k_max)
    fam = u.family
    lh = fam.ell()
    report = VerificationReport(f"prop11_symbolic(n={n}, d={d}, k_max={k_max})")

    w = u.w_class(n)
    for k in range(1, k_max + 1):
        lhs = push_pi(w.degree_part(k + 1))
        rhs = family_character_formula(fam, k)
        report.record("ch_k(H) derivation", (n, d, k), lhs, rhs)
        report.record(
            "standalone l^k coefficient",
            (n, d, k),
            lhs.coefficient(_pow_label("l", k)),
            Fraction(-1, factorial(k)),
        )

    # substituting the anticanonical identity gives the k = 1, 2 closed forms
    sub = (d + 2) * (u.sigma() + u.ell())
    w_sub = u.w_class(n, e1_substitution=sub)
    if k_max >= 1:
        rhs1 = fam.t(2) + Fraction(d, 2) * lh
        report.record("c_1(H) specialization", (n, d, 1), push_pi(w_sub.degree_part(2)), rhs1)
    if k_max >= 2:
        rhs2 = fam.t(3) + Fraction(1, 2) * lh * fam.t(2) + Fraction(d - 4, 12) * lh**2
        report.record("ch_2(H) specialization", (n, d, 2), push_pi(w_sub.degree_part(3)), rhs2)
    return report


# -- concrete evaluation -------------------------------------------------------


def T_power(a: Rational, k: int, ell: GradedClass) -> GradedClass:
    """Transfer of the k-th power of a divisor with fiber degree a: a^k * l^(k-1)."""
    if k < 1:
        raise ValueError("the transfer acts on powers k >= 1")
    return Fraction(a) ** k * ell ** (k - 1)


@dataclass(frozen=True)
class MinimalFamilyInput:
    """Polarization class and transferred ambient characters for one family.

    t[j] is the image of the ambient ch_j under the degree-lowering transfer,
    homogeneous of degree j-1 in the family's ring; t[1] is the scalar d+2.
    """

    d: int
    ell: GradedClass
    t: Mapping[int, GradedClass]

    def __post_init__(self):
        ring = self.ell.ring
        if not self.ell.is_zero() and self.ell.homogeneous_degree() != 1:
            raise ValueError("polarization class must have degree 1")
        for j, tj in self.t.items():
            if tj.ring is not ring:
                raise ValueError("transfer images must share the polarization's ring")
            if not tj.is_zero() and tj.homogeneous_degree() != j - 1:
                raise ValueError(f"t_{j} must be homogeneous of degree {j - 1}")


class MissingTransferError(KeyError):
    """A required transferred class t_j was not supplied."""


def ch_Hx(inp: MinimalFamilyInput, k: int) -> GradedClass:
    """Evaluate the family character formula at concrete classes.

    ch_k(H) = sum_{j=0}^{k} A_j * l^j * t_{k+1-j} - l^k / k!.
    """
    if k < 1:
        raise ValueError("ch_k needs k >= 1")

    def t(j: int) -> GradedClass:
        if j not in inp.t:
            raise MissingTransferError(j)
        return inp.t[j]

    return _character_formula(inp.ell, t, k)


def ci_dimension_of_family(n: int, degrees: Sequence[int]) -> int:
    """dim H for lines on a complete intersection of the given type in P^n."""
    d = n - 1 - sum(degrees)
    if d < 0:
        raise ValueError(f"no lines through a general point: dim H = {d} < 0")
    return d


def ci_T_images(n: int, degrees: Sequence[int], k_max: int) -> MinimalFamilyInput:
    """Transferred ambient characters for lines on a complete intersection.

    The ambient ch_j is ((n+1) - sum_i d_i^j) h^j / j!; lines have fiber
    degree 1, so the transfer gives t_j = ((n+1) - sum_i d_i^j)/j! * l^(j-1).
    """
    degrees = tuple(int(x) for x in degrees)
    if any(x < 1 for x in degrees):
        raise ValueError("hypersurface degrees must be >= 1")
    d = ci_dimension_of_family(n, degrees)
    ring = projective_space_ring(d, gen="l")
    ell = ring.hyperplane()
    t: dict[int, GradedClass] = {}
    for j in range(1, k_max + 2):
        coeff = Fraction((n + 1) - sum(x**j for x in degrees), factorial(j))
        t[j] = coeff * T_power(1, j, ell)
    return MinimalFamilyInput(d=d, ell=ell, t=t)


def ci_family_character_direct(
    n: int, degrees: Sequence[int], k: int, ell: GradedClass | None = None
) -> GradedClass:
    """Independent oracle: ch_k of the family of lines on a complete intersection.

    The family is itself a complete intersection of type
    (1, 2, ..., d_1, ..., 1, 2, ..., d_c) in P^(n-1), so
    ch_k = (n - sum_i (1^k + 2^k + ... + d_i^k)) * l^k / k!.
    Pass `ell` to express the result against an existing polarization class.
    """
    degrees = tuple(int(x) for x in degrees)
    d = ci_dimension_of_family(n, degrees)
    if ell is None:
        ell = projective_space_ring(d, gen="l").hyperplane()
    coeff = Fraction(n) - sum(power_sum(x, k) for x in degrees)
    return coeff * Fraction(1, factorial(k)) * ell**k


def verify_prop11_ci(n: int, degrees: Sequence[int], k_max: int) -> VerificationReport:
    """Cross-validate the formula against the direct complete-intersection oracle."""
    degrees = tuple(int(x) for x in degrees)
    inp = ci_T_images(n, degrees, k_max)
    report = VerificationReport(f"prop11_ci(n={n}, degrees={degrees}, k_max={k_max})")
    report.record("t_1 = d+2", (n, degrees), inp.t[1], inp.ell.ring.scalar(inp.d + 2))
    for k in range(1, k_max + 1):
        lhs = ch_Hx(inp, k)
        rhs = ci_family_character_direct(n, degrees, k, ell=inp.ell)
        report.record("formula vs direct", (n, degrees, k), lhs, rhs)
    return report
