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
"l^2*e_3" and "l^3*s".  The relations s^2 = -s*l and s*e_j = 0 leave the
monomials l^a, l^a*e_j and l^a*s, so degree m holds m + 2 labels (1 in
degree 0).  A monomial carries at most one symbol: the derivation never
multiplies two, and such a product raises.  The ring depends on the truncation
alone and is shared; the ambient dimension n enters through tangent_pullback.

What reads no n is built once per ring: the powers of s, l and c_1(T_pi);
ch(T_pi), ch(O(-s)) and td(T_pi); the summand (sum_j e_j - ch(T_pi)) * ch(O(-s))
of the character cycle Z, so that z_class(n) only adds n * ch(O(-s)) to it;
the n-free parts e_k - l^k/k!, s*l^k/k! and t_k of the closed forms that
verify_claim31 compares Z with; and its identities (iv)-(viii).  Its checks on
Z read n but not d, and are built once per n, multiplying only by the scalars
that read n: (n+1)(-1)^k/k!, (n+1)/k! and n/k!.  A claim31 report holds these
shared checks and puts its (n, d) at the head of their params only when it is
read.

Pushforward down the bundle lands in FamilyModel, whose labels are l^a and
l^a*t_j with t_j of degree j-1 (such as "l^2*t_3"): pure powers of l push to
zero, q(l)*s pushes to q(l), and l^a*e_j pushes to l^a*t_j.  Both models
multiply monomials by one rule, in which s never occurs on the family side.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice
from math import factorial
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .bundles import exp_line, todd_line
from .families import ci, enumerate_fano_ci, minimal_pair
from .numeric import power_sum, todd_coeff
from .rings import DegreeError, GradedClass, ProjectiveSpaceRing, RingModel, _pow_label

# -- symbolic universal-family model -----------------------------------------

# exponents of a monomial l^a * x_j * s^b: (a, j, b), with j = 0 for no symbol
_Key = tuple[int, int, int]


class _MonomialModel(RingModel):
    """A truncated RingModel of monomials l^a * x_j * s^b, at most one x_j; `_keys(d)` lists degree d's (a, j, b)."""

    def __init__(self, name: str, symbol: str, max_degree: int):
        self.symbol = symbol
        super().__init__(name, max_degree, None)

    def _name(self, key: _Key) -> str:
        a, j, b = key
        factors = (_pow_label("l", a), f"{self.symbol}_{j}" if j else "1", _pow_label("s", b))
        return "*".join(f for f in factors if f != "1") or "1"

    def _build_degree(self, degree):
        return [(self._name(key), key) for key in self._keys(degree)]

    def _mul_labels(self, x, y):
        """l-exponents add; s^2 = -s*l, s*x_j = 0, and nothing above the truncation."""
        a1, j1, b1 = self._key[x]
        a2, j2, b2 = self._key[y]
        if j1 and j2:
            raise ValueError(f"{self.name} has no products of two symbols: {x} * {y}")
        a, j, b, c = a1 + a2, j1 + j2, b1 + b2, 1
        if b == 2:  # s^2 = -s*l
            a, b, c = a + 1, 1, -1
        if b and j or self._degree[x] + self._degree[y] > self.dimension:  # s * x_j = 0, or past the truncation
            return {}
        return {self._name((a, j, b)): c}

    def _generator(self, label: str) -> GradedClass:
        """A generator of the model, zero when it lies above the truncation."""
        return self.monomial(label) if self._has_label(label) else self.zero()

    def ell(self) -> GradedClass:
        return self._generator("l")


class FamilyModel(_MonomialModel):
    """The family side: l^a and l^a*t_j (t_j of degree j-1), truncated at max_degree."""

    def __init__(self, max_degree: int):
        super().__init__(f"H<{max_degree}>", "t", max_degree)

    def _keys(self, deg: int) -> list[_Key]:
        return [(deg, 0, 0)] + [(a, deg - a + 1, 0) for a in range(deg + 1)]

    def t(self, j: int) -> GradedClass:
        if j < 1:
            raise ValueError("t_j needs j >= 1")
        return self._generator(f"t_{j}")


class UniversalModel(_MonomialModel):
    """Total space of the universal family, truncated at max_degree, in normal form."""

    def __init__(self, max_degree: int):
        super().__init__(f"U<{max_degree}>", "e", max_degree)
        self.family = FamilyModel(max_degree - 1)
        self._claim31_by_n: dict[int, tuple[Check, ...]] = {}

    def _keys(self, deg: int) -> list[_Key]:
        return [(a, deg - a, 0) for a in range(deg)] + [(deg, 0, 0)] + ([(deg - 1, 0, 1)] if deg else [])

    def sigma(self) -> GradedClass:
        return self._generator("s")

    def e(self, j: int) -> GradedClass:
        if j < 1:
            raise ValueError("e_j needs j >= 1")
        return self._generator(f"e_{j}")

    # -- classes used in the derivation -----------------------------------

    def c1_relative_tangent(self) -> GradedClass:
        return 2 * self.sigma() + self.ell()

    def tangent_pullback(self, n: int) -> GradedClass:
        """ev^* ch(T_X) = n + sum_j e_j."""
        out = self.scalar(n)
        for j in range(1, self.dimension + 1):
            out = out + self.e(j)
        return out

    def z_class(self, n: int, e1_substitution: GradedClass | None = None) -> GradedClass:
        """(ev^* ch(T_X) - ch(T_pi)) * ch(O(-s)), optionally with e_1 replaced.

        This is n * ch(O(-s)) plus the n-free summand _z_n_free, built once per
        ring; replacing e_1 by a class x adds (x - e_1) * ch(O(-s)).
        """
        shift = n if e1_substitution is None else n + e1_substitution - self.e(1)
        return shift * self._ch_o_minus_s + self._z_n_free

    def w_class(self, n: int, e1_substitution: GradedClass | None = None) -> GradedClass:
        """z_class times the Todd class of the relative tangent bundle."""
        return self.z_class(n, e1_substitution) * self._todd_tpi

    # -- built once per ring ----------------------------------------------
    # the factors and summand of z_class and w_class that read no n, the
    # generators' powers, and what verify_claim31 compares that reads no n

    @cached_property
    def _ch_tpi(self) -> GradedClass:
        return exp_line(self.c1_relative_tangent())

    @cached_property
    def _ch_o_minus_s(self) -> GradedClass:
        return exp_line(-self.sigma())

    @cached_property
    def _todd_tpi(self) -> GradedClass:
        return todd_line(self.c1_relative_tangent())

    @cached_property
    def _z_n_free(self) -> GradedClass:
        """(sum_j e_j - ch(T_pi)) * ch(O(-s)): z_class(n) less n * ch(O(-s))."""
        return (self.tangent_pullback(0) - self._ch_tpi) * self._ch_o_minus_s

    @cached_property
    def powers(self) -> tuple[tuple[GradedClass, ...], ...]:
        """(s, l, c_1(T_pi) on U, l on the family): each one's powers up to its ring's dimension."""
        return tuple(
            x.powers(x.ring.dimension)
            for x in (self.sigma(), self.ell(), self.c1_relative_tangent(), self.family.ell())
        )

    @cached_property
    def claim31_identities(self) -> tuple[Check, ...]:
        """Identities (iv)-(viii) of verify_claim31, which read neither n nor d.

        Each check compares exactly the classes it names; its params lack the
        (n, d) prefix that each report adds.
        """
        S, L, C, LH = self.powers
        top = self.dimension
        checks = []
        for i in range(0, top + 1):
            for j in range(1, top - i + 1):
                checks.append(Check.compare("(iv) l^i s^j", (i, j), L[i] * S[j], (-1) ** i * S[i + j]))
                checks.append(Check.compare("(v) c1^i s^j", (i, j), C[i] * S[j], S[i + j]))
        for i in range(0, top + 1):
            rhs = L[i] if i % 2 == 0 else 2 * S[i] + L[i]
            checks.append(Check.compare("(vi) c1^i", (i,), C[i], rhs))
        for k in range(1, top + 1):
            rhs = (-1) ** (k - 1) * LH[k - 1]
            checks.append(Check.compare("(vii) push(s^k)", (k,), push_pi(S[k]), rhs))
        for a in range(0, top):
            checks.append(Check.compare("(viii) push(l^a)", (a,), push_pi(L[a]), self.family.zero()))
        return tuple(checks)

    def claim31_z_checks(self, n: int) -> tuple[Check, ...]:
        """The checks of verify_claim31 on Z = z_class(n), which read n but not d; once per n.

        Z_0 = n-1, then for each k up to the truncation's k_max the normal
        form of Z_k and Z_k*s and their pushforwards.  Like
        claim31_identities, params lack the (n, d) prefix that each report adds.
        """
        hit = self._claim31_by_n.get(n)
        if hit is not None:
            return hit
        S, _, _, LH = self.powers
        sig = S[1]
        z = self.z_class(n)
        checks = [Check.compare("Z_0 = n-1", (0,), z.degree_part(0), self.scalar(n - 1))]
        for k, (e_less_l, sl, t) in enumerate(self._claim31_n_free_forms, start=1):
            zk = z.degree_part(k)
            zks = zk * sig
            co = Fraction((n + 1) * (-1) ** k, factorial(k))
            checks += (
                Check.compare("Z_k", (k,), zk, co * S[k] + e_less_l),
                Check.compare("Z_k*s", (k,), zks, co * S[k + 1] - sl),
                Check.compare("push(Z_k)", (k,), push_pi(zk), t - LH[k - 1] * Fraction(n + 1, factorial(k))),
                Check.compare("push(Z_k*s)", (k,), push_pi(zks), LH[k] * Fraction(n, factorial(k))),
            )
        self._claim31_by_n[n] = hit = tuple(checks)
        return hit

    @cached_property
    def _claim31_n_free_forms(self) -> tuple[tuple[GradedClass, GradedClass, GradedClass], ...]:
        """For k = 1 .. k_max, (e_k - l^k/k!, s*l^k/k!, t_k): the n-free parts of claim31_z_checks' closed forms."""
        S, L, _, _ = self.powers
        forms = []
        for k in range(1, self.dimension):
            inv = Fraction(1, factorial(k))
            forms.append((self.e(k) - L[k] * inv, (S[1] * L[k]) * inv, self.family.t(k)))
        return tuple(forms)


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
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    return _universal_ring(k_max + 1)


def push_pi(x: GradedClass) -> GradedClass:
    """Pushforward down the universal P^1-bundle, into the family model.

    q(l)*s maps to q(l); pure powers of l map to 0; l^a*e_j maps to l^a*t_j.
    Every monomial of U is one of these, since U holds no product of two
    e-symbols.
    """
    fam = x.ring.family
    out: dict[str, Fraction] = {}
    for label, c in x.terms.items():
        a, j, s = x.ring._key[label]
        if s or j:  # distinct labels have distinct images
            out[fam._name((a, j, 0))] = c
    return GradedClass(fam, out)


# -- verification reports ------------------------------------------------------


class Check(NamedTuple):
    name: str
    params: tuple
    ok: bool
    lhs: str = ""
    rhs: str = ""

    @classmethod
    def compare(cls, name: str, params: tuple, lhs, rhs) -> "Check":
        """lhs == rhs as a check; the two sides are kept, as reprs, only when they differ."""
        ok = lhs == rhs
        return cls(name, params, ok, "" if ok else repr(lhs), "" if ok else repr(rhs))


class VerificationReport:
    """Checks under one label, with `prefix` put at the head of each check's params when read.

    The prefix lets many reports hold the same checks: a claim31 report holds
    its ring's checks for n and its ring's identities, and adds (n, d) to the
    params of the checks it hands out.
    """

    def __init__(self, label: str, checks: Sequence[Check] | None = None, prefix: tuple = ()):
        self.label = label
        self._checks = [] if checks is None else list(checks)
        self._prefix = prefix

    def record(self, name: str, params: tuple, lhs, rhs) -> None:
        self._checks.append(Check.compare(name, params, lhs, rhs))

    @property
    def checks(self) -> list[Check]:
        """Every check, with the prefix at the head of its params, as a new list."""
        return [c._replace(params=self._prefix + c.params) for c in self._checks]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self._checks)

    def item(self) -> dict:
        """The report as one {check, ok, detail} item; detail shows the first three failures."""
        fails = list(islice((c for c in self._checks if not c.ok), 3))
        detail = "; ".join(f"{c.name}{self._prefix + c.params}: {c.lhs} != {c.rhs}" for c in fails)
        return {"check": self.label, "ok": not fails, "detail": detail}


def verify_claim31(n: int, d: int, k_max: int) -> VerificationReport:
    """Check the closed formulas for the graded pieces of the character cycle.

    Exercises, for all k <= k_max: the normal form of Z_k, Z_k*s, their
    pushforwards, Z_0 = n-1, and the auxiliary product and pushforward
    identities used along the way.  The ring computes each check once per n
    (the Z checks) or once (the identities); d enters only the params, which
    the report heads with (n, d) when it is read.
    """
    u = model_ring(n, d, k_max)
    checks = u.claim31_z_checks(n) + u.claim31_identities
    return VerificationReport(f"claim31(n={n}, d={d}, k_max={k_max})", checks, prefix=(n, d))


def _character_formula(ell: GradedClass, t: Callable[[int], GradedClass], k: int) -> GradedClass:
    """sum_{j=0}^{k} A_j * l^j * t(k+1-j) - l^k / k!, reading t_j only where A_j != 0."""
    powers = ell.powers(k)
    out = ell.ring.zero()
    for j in range(0, k + 1):
        aj = todd_coeff(j)
        if aj:
            out = out + aj * powers[j] * t(k + 1 - j)
    return out - powers[k] * Fraction(1, factorial(k))


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


def T_power(a: Fraction, k: int, ell: GradedClass) -> GradedClass:
    """Transfer of the k-th power of a divisor with fiber degree a: a^k * l^(k-1)."""
    if k < 1:
        raise ValueError("the transfer acts on powers k >= 1")
    return Fraction(a) ** k * ell ** (k - 1)


class MinimalFamilyInput(namedtuple("MinimalFamilyInput", "d ell t")):
    """Polarization class and transferred ambient characters for one family.

    t[j] is the image of the ambient ch_j under the degree-lowering transfer,
    homogeneous of degree j-1 in the family's ring; t[1] is the scalar d+2.
    """

    __slots__ = ()

    def __new__(cls, d: int, ell: GradedClass, t: Mapping[int, GradedClass]):
        if not ell.is_homogeneous(1):
            raise DegreeError("polarization class must have degree 1")
        for j, tj in t.items():
            if tj.ring is not ell.ring:
                raise ValueError("transfer images must share the polarization's ring")
            if not tj.is_homogeneous(j - 1):
                raise DegreeError(f"t_{j} must be homogeneous of degree {j - 1}")
        return super().__new__(cls, d, ell, t)


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


def ci_T_images(n: int, degrees: Sequence[int], k_max: int) -> MinimalFamilyInput:
    """Transferred ambient characters for lines on a complete intersection.

    The ambient ch_j is ((n+1) - sum_i d_i^j) h^j / j!; lines have fiber
    degree 1, so the transfer gives t_j = ((n+1) - sum_i d_i^j)/j! * l^(j-1).
    """
    degrees = tuple(int(x) for x in degrees)
    if k_max < 0:
        raise ValueError(f"need k_max >= 0, got {k_max}")
    d = minimal_pair(ci(n, degrees)).dim
    ell = ProjectiveSpaceRing(d, gen="l").hyperplane()
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
    pair = minimal_pair(ci(n, degrees))  # NoPairError unless lines cover the family
    if ell is None:
        ell = ProjectiveSpaceRing(pair.dim, gen="l").hyperplane()
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


# -- verification suites -------------------------------------------------------
# each returns or yields the {check, ok, detail} items that `verify` prints


def symbolic_pairs(n_max: int, d_max: int) -> Iterator[tuple[int, int]]:
    """The (n, d) of a symbolic suite, one at a time: 1 <= n <= n_max, 0 <= d <= min(d_max, n-1)."""
    return ((n, d) for n in range(1, n_max + 1) for d in range(min(d_max, n - 1) + 1))


def symbolic_suite(check: Callable, n_max: int, d_max: int, k_max: int) -> Iterator[dict]:
    """Yields check(n, d, k_max)'s item for each of symbolic_pairs(n_max, d_max), one at a time.

    check is verify_claim31 or verify_prop11_symbolic.
    """
    return (check(n, d, k_max).item() for n, d in symbolic_pairs(n_max, d_max))


def prop11_ci_specs(n_max: int, max_c: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The (n, degrees) of prop11_ci_suite, one at a time: each Fano complete intersection in P^n, n <= n_max."""
    return ((n, degrees) for n in range(1, n_max + 1) for degrees in enumerate_fano_ci(n, max_c))


def prop11_ci_suite(n_max: int, max_c: int, k_max: int) -> Iterator[dict]:
    """Yields verify_prop11_ci on every Fano complete intersection covered by lines, n <= n_max."""
    return (verify_prop11_ci(n, degrees, k_max).item() for n, degrees in prop11_ci_specs(n_max, max_c))


def todd_identity_suite(k_max: int) -> Iterator[dict]:
    """sum_{j=1}^{k+1} A_{k+1-j} / j! = 1/k! for 1 <= k <= k_max: td(x) (e^x - 1) = x e^x, one item at a time."""
    for k in range(1, k_max + 1):
        lhs = sum(todd_coeff(k + 1 - j) / factorial(j) for j in range(1, k + 2))
        yield {"check": f"todd-identity(k={k})", "ok": lhs == Fraction(1, factorial(k)), "detail": f"lhs={lhs}"}
