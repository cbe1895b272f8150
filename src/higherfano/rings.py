"""Truncated graded-commutative ring models with exact rational coefficients.

A ring model fixes a finite labelled basis in each degree up to the variety's
dimension, plus a rule for multiplying two basis labels.  Products landing
above the dimension are silently dropped: only numerical classes are kept.
A model may build a degree's labels when that degree is first read and is
otherwise fixed; elements (GradedClass) are value-semantic.

Basis labels are canonical strings ("1", "h^2", "h1*h2", "xi^2*h", ...) so
that serialized reports are stable and diffable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence


class RingMismatchError(ValueError):
    """Raised when combining classes from different ring models."""


class DegreeError(ValueError):
    """Raised when a class has the wrong degree for an operation."""


def _pow_label(gen: str, e: int) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return gen
    return f"{gen}^{e}"


def _join_labels(a: str, b: str) -> str:
    if a == "1":
        return b
    if b == "1":
        return a
    return f"{a}*{b}"


# shared start value for sums: Fractions are immutable, and building a fresh
# Fraction(0) per term is a measurable share of a sum
_ZERO = Fraction(0)


def _over_common_denominator(terms: Mapping[str, Fraction]) -> tuple[int, list[tuple[str, int]]]:
    """(d, [(label, c*d)]) for d the lcm of the coefficients' denominators, so every c*d is an int."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(l, c.numerator * (d // c.denominator)) for l, c in terms.items()]


class GradedClass:
    """A finite rational combination of basis labels of one ring model."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "RingModel", terms: Mapping[str, Fraction]):
        self.ring = ring
        clean: dict[str, Fraction] = {}
        for label, c in terms.items():
            if type(c) is not Fraction:  # Fractions are immutable, so they are kept as given
                c = Fraction(c)
            if c:
                if label not in ring._degree and not ring._has_label(label):
                    raise ValueError(f"unknown basis label {label!r} in {ring.name}")
                clean[label] = c
        self.terms = clean

    # -- queries ---------------------------------------------------------

    def coefficient(self, label: str) -> Fraction:
        return self.terms.get(label, _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self.ring.degree_of(l) for l in self.terms}))

    def degree_part(self, k: int) -> "GradedClass":
        return GradedClass(
            self.ring,
            {l: c for l, c in self.terms.items() if self.ring.degree_of(l) == k},
        )

    def is_homogeneous(self, k: int) -> bool:
        """True when every term has degree k, so the zero class is homogeneous of every degree."""
        degree = self.ring._degree
        return all(degree[l] == k for l in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, None for 0, error if mixed."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"class is not homogeneous: degrees {degs}")
        return degs[0]

    def integrate(self) -> Fraction:
        if self.ring.point_label is None:
            raise ValueError(f"{self.ring.name} has no point class to integrate against")
        return self.coefficient(self.ring.point_label)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "GradedClass") -> None:
        if other.ring is not self.ring:
            raise RingMismatchError(
                f"cannot combine classes from {self.ring.name} and {other.ring.name}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check_ring(other)
        out = dict(self.terms)
        for l, c in other.terms.items():
            out[l] = out.get(l, _ZERO) + c
        return GradedClass(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.ring, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        # one pass, like __add__: self + (-other) would build a class for -other first
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check_ring(other)
        out = dict(self.terms)
        for l, c in other.terms.items():
            out[l] = out.get(l, _ZERO) - c
        return GradedClass(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return GradedClass(self.ring, {l: c * v for l, v in self.terms.items()})
        self._check_ring(other)
        # each factor as integer numerators over one denominator: the products accumulate
        # on integers (and on Fractions only where a structure constant is not integral),
        # and each output term divides once
        da, xs = _over_common_denominator(self.terms)
        db, ys = _over_common_denominator(other.terms)
        mul_basis = self.ring.mul_basis
        acc: dict[str, int | Fraction] = {}
        for a, ia in xs:
            for b, ib in ys:
                p = ia * ib
                for label, m in mul_basis(a, b).items():
                    acc[label] = acc.get(label, 0) + (p if m == 1 else p * m)
        d = da * db
        return GradedClass(self.ring, {l: Fraction(v, d) for l, v in acc.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def powers(self, top: int) -> tuple["GradedClass", ...]:
        """self^0 .. self^top, each the previous power times self."""
        out = [self.ring.unit()]
        for _ in range(top):
            out.append(out[-1] * self)
        return tuple(out)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined")
        return self.powers(e)[e]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for label in sorted(self.terms, key=lambda l: (self.ring.degree_of(l), l)):
            c = self.terms[label]
            if label == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(label)
            else:
                bits.append(f"({c})*{label}")
        return " + ".join(bits)


class RingModel:
    """Base class: a graded basis with a multiplication rule, truncated at `dimension`.

    `point_label` is None for truncated models with no fundamental class;
    integration on those raises.  A subclass defines `_mul_labels(a, b)`: a*b
    as {label: nonzero constant}, with integral constants as ints, which
    callers do not mutate.
    """

    def __init__(
        self, name: str, dimension: int, pairs_by_degree: Sequence[Sequence[tuple]], point_label: str | None
    ):
        self.name = name
        self.dimension = dimension
        # each label's key is what _mul_labels reads it as (an exponent, a pair of
        # factor labels, a partition, ...); a degree given no (label, key) pairs stays ()
        self._basis: list[tuple[str, ...]] = [()] * (dimension + 1)
        self._key: dict[str, object] = {}
        self._degree: dict[str, int] = {}
        for degree, pairs in enumerate(pairs_by_degree):
            if pairs:
                self._register(degree, pairs)
        self.point_label = point_label
        self._mul_cache: dict[tuple[str, str], dict[str, int | Fraction]] = {}
        if point_label is not None and self._degree.get(point_label) != dimension:
            raise ValueError("point class must be a basis label in top degree")

    # -- basis -----------------------------------------------------------

    def _register(self, degree: int, pairs: Sequence[tuple[str, object]]) -> None:
        """Record the (label, key) pairs of one degree, in basis order."""
        self._key.update(pairs)
        labels = tuple(label for label, _ in pairs)
        self._degree.update(dict.fromkeys(labels, degree))
        self._basis[degree] = labels

    def basis(self, degree: int | None = None) -> tuple[str, ...]:
        if degree is None:
            return tuple(l for d in range(self.dimension + 1) for l in self.basis(d))
        if degree < 0 or degree > self.dimension:
            return ()
        return self._basis[degree]

    def _has_label(self, label: str) -> bool:
        """True for a basis label; a ring that builds degrees lazily builds the label's degree first."""
        return label in self._key

    def degree_of(self, label: str) -> int:
        return self._degree[label]

    # -- element constructors ---------------------------------------------

    def monomial(self, label: str, coeff: Fraction = 1) -> GradedClass:
        return GradedClass(self, {label: Fraction(coeff)})

    def unit(self) -> GradedClass:
        return self.monomial("1")

    def zero(self) -> GradedClass:
        return GradedClass(self, {})

    def scalar(self, c: Fraction) -> GradedClass:
        return GradedClass(self, {"1": Fraction(c)})

    # -- multiplication ----------------------------------------------------

    def mul_basis(self, a: str, b: str) -> Mapping[str, int | Fraction]:
        """a*b as {label: structure constant}, memoised as _mul_labels returns it."""
        key = (a, b) if a <= b else (b, a)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = self._mul_labels(*key)
        return hit


class ProjectiveSpaceRing(RingModel):
    """Q[h]/(h^(n+1)): the Chow ring of P^n with its hyperplane generator."""

    def __init__(self, n: int, gen: str = "h"):
        if n < 0:
            raise ValueError("projective space dimension must be >= 0")
        self.n = n
        self.gen = gen
        pairs = [[(_pow_label(gen, e), e)] for e in range(n + 1)]
        super().__init__(f"P{n}<{gen}>", n, pairs, _pow_label(gen, n))

    def hyperplane(self) -> GradedClass:
        if self.n == 0:
            return self.zero()
        return self.monomial(self.gen)

    def _mul_labels(self, a, b):
        e = self._key[a] + self._key[b]
        if e > self.n:
            return {}
        return {_pow_label(self.gen, e): 1}


class ProductRing(RingModel):
    """Kunneth model for a product: basis labels are joins of factor labels."""

    def __init__(self, left: RingModel, right: RingModel):
        overlap = set(left.basis()) & set(right.basis()) - {"1"}
        if overlap:
            raise ValueError(f"factor label collision: {sorted(overlap)}; use distinct generators")
        self.left = left
        self.right = right
        dim = left.dimension + right.dimension
        pairs: list[list[tuple[str, tuple[str, str]]]] = [[] for _ in range(dim + 1)]
        for da in range(left.dimension + 1):
            for la in left.basis(da):
                for db in range(right.dimension + 1):
                    for lb in right.basis(db):
                        pairs[da + db].append((_join_labels(la, lb), (la, lb)))
        point = _join_labels(left.point_label, right.point_label)
        super().__init__(f"({left.name})x({right.name})", dim, pairs, point)

    def _mul_labels(self, a, b):
        la, ra = self._key[a]
        lb, rb = self._key[b]
        dl = self.left.mul_basis(la, lb)
        dr = self.right.mul_basis(ra, rb)
        out: dict[str, int | Fraction] = {}
        for u, cu in dl.items():
            for v, cv in dr.items():
                out[_join_labels(u, v)] = cu * cv
        return out


class ProjBundleRing(RingModel):
    """Chow ring of P(E) over a base model, via the Grothendieck relation.

    E is given by its Chern classes c_1..c_r on the base.  The tautological
    class xi satisfies the monic relation in the Chern roots of E,

        xi^r = c_1 xi^(r-1) - c_2 xi^(r-2) + ... + (-1)^(r-1) c_r,

    which is the convention making the section class of P(O + L^(-1)) square
    to minus itself times c_1(L).
    """

    gen = "xi"  # the tautological class's label

    def __init__(self, base: RingModel, chern_of_e: Sequence[GradedClass], rank: int):
        if rank < 2:
            raise ValueError("projective bundle needs rank >= 2")
        cherns = list(chern_of_e)
        if len(cherns) > rank:
            raise DegreeError("more Chern classes than the rank allows")
        check_graded(cherns, base, "c")
        while len(cherns) < rank:
            cherns.append(base.zero())
        self.base = base
        self.rank = rank
        self.cherns = tuple(cherns)
        dim = base.dimension + rank - 1
        pairs: list[list[tuple[str, tuple[str, int]]]] = [[] for _ in range(dim + 1)]
        for t in range(rank):
            xp = _pow_label(self.gen, t)
            for d in range(base.dimension + 1):
                for bl in base.basis(d):
                    pairs[d + t].append((_join_labels(bl, xp), (bl, t)))
        self._xi_normal: dict[int, tuple[GradedClass, ...]] = {}
        point = _join_labels(base.point_label, _pow_label(self.gen, rank - 1))
        super().__init__(f"P({base.name};r={rank})<{self.gen}>", dim, pairs, point)

    def from_base(self, x: GradedClass) -> GradedClass:
        if x.ring is not self.base:
            raise RingMismatchError("class does not live on the base")
        return GradedClass(self, {_join_labels(l, "1"): c for l, c in x.terms.items()})

    def xi(self) -> GradedClass:
        return self.monomial(_pow_label(self.gen, 1))

    def xi_power_normal(self, t: int) -> tuple[GradedClass, ...]:
        """xi^t as a vector of base classes over xi^0..xi^(r-1)."""
        hit = self._xi_normal.get(t)
        if hit is not None:
            return hit
        r = self.rank
        if t < r:
            vec = tuple(self.base.unit() if s == t else self.base.zero() for s in range(r))
        else:
            prev = self.xi_power_normal(t - 1)
            # xi * (sum_s a_s xi^s): shift, then reduce xi^r through the relation
            shifted = [self.base.zero()] + list(prev[: r - 1])
            top = prev[r - 1]
            if not top.is_zero():
                for i in range(1, r + 1):
                    ci = self.cherns[i - 1]
                    if not ci.is_zero():
                        shifted[r - i] = shifted[r - i] + (-1) ** (i + 1) * ci * top
            vec = tuple(shifted)
        self._xi_normal[t] = vec
        return vec

    def push_to_base(self, x: GradedClass) -> GradedClass:
        """Integration along the fibers: the xi^(r-1) coordinate of x in the basis b * xi^t, t < r."""
        if x.ring is not self:
            raise RingMismatchError("class does not live on this bundle")
        top = self.rank - 1
        out = {}
        for label, c in x.terms.items():
            bl, t = self._key[label]
            if t == top:
                out[bl] = c
        return GradedClass(self.base, out)

    def _mul_labels(self, a, b):
        la, ta = self._key[a]
        lb, tb = self._key[b]
        base_prod = self.base.mul_basis(la, lb)
        out: dict[str, Fraction] = {}
        for s, coef_class in enumerate(self.xi_power_normal(ta + tb)):
            if coef_class.is_zero():
                continue
            xp = _pow_label(self.gen, s)
            for u, cu in base_prod.items():
                prod = self.base.monomial(u, cu) * coef_class
                for v, cv in prod.terms.items():
                    label = _join_labels(v, xp)
                    out[label] = out.get(label, _ZERO) + cv
        return {l: c for l, c in out.items() if c}


# -- checks shared by the rings ----------------------------------------------


def check_graded(
    classes: Sequence[GradedClass], ring: RingModel, symbol: str
) -> tuple[GradedClass, ...]:
    """The classes as a tuple, after checking that the i-th (from 1) lives on ring in degree i.

    `symbol` names the sequence in the errors: "ch" gives "ch_2 must be homogeneous of degree 2".
    """
    for i, x in enumerate(classes, start=1):
        if x.ring is not ring:
            raise RingMismatchError(f"{symbol}_{i} lives on {x.ring.name}, not on {ring.name}")
        if not x.is_homogeneous(i):
            raise DegreeError(f"{symbol}_{i} must be homogeneous of degree {i}")
    return tuple(classes)


def basis_size_error(space: str, formula: str, count: int | None, bound: int, classes: str = "classes") -> ValueError:
    """The refusal of a basis of `count` labels (`formula` in the ring's parameters), past bound.

    A count of None is one known to exceed bound, left unevaluated: the message names only
    its formula.  A caller compares the count with the bound before building a ring, and
    formats the names only for the refusal it raises.
    """
    size = formula if count is None else f"{formula} = {count}"
    return ValueError(f"{space} has a basis of {size} {classes}, more than the {bound} this tool builds")

