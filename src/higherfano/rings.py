"""Truncated graded-commutative ring models with exact rational coefficients.

A ring model fixes a finite labelled basis in each degree up to the variety's
dimension, plus a rule for multiplying two basis labels.  Products landing
above the dimension are silently dropped: only numerical classes are kept.
Models are immutable after construction and safe to share across workers;
elements (GradedClass) are value-semantic.

Basis labels are canonical strings ("1", "h^2", "h1*h2", "xi^2*h", ...) so
that serialized reports are stable and diffable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .numeric import Rational


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


# shared start value for sums in products: Fractions are immutable, and
# building a fresh Fraction(0) per term is a measurable share of a product
_ZERO = Fraction(0)


class GradedClass:
    """A finite rational combination of basis labels of one ring model."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "RingModel", terms: Mapping[str, Rational]):
        self.ring = ring
        clean: dict[str, Fraction] = {}
        for label, c in terms.items():
            c = Fraction(c)
            if c:
                if label not in ring._degree:
                    raise ValueError(f"unknown basis label {label!r} in {ring.name}")
                clean[label] = c
        self.terms = clean

    # -- queries ---------------------------------------------------------

    def coefficient(self, label: str) -> Fraction:
        return self.terms.get(label, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({self.ring.degree_of(l) for l in self.terms}))

    def degree_part(self, k: int) -> "GradedClass":
        return GradedClass(
            self.ring,
            {l: c for l, c in self.terms.items() if self.ring.degree_of(l) == k},
        )

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
            out[l] = out.get(l, Fraction(0)) + c
        return GradedClass(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.ring, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return GradedClass(self.ring, {l: c * v for l, v in self.terms.items()})
        self._check_ring(other)
        out: dict[str, Fraction] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                cab = ca * cb
                for label, m in self.ring.mul_basis(a, b).items():
                    out[label] = out.get(label, _ZERO) + (cab if m == 1 else cab * m)
        return GradedClass(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined")
        out = self.ring.unit()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

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
    integration on those raises.
    """

    def __init__(
        self, name: str, dimension: int, basis_by_degree: Sequence[Sequence[str]], point_label: str | None
    ):
        self.name = name
        self.dimension = dimension
        self._basis = tuple(tuple(labels) for labels in basis_by_degree)
        self._degree = {l: d for d, labels in enumerate(self._basis) for l in labels}
        self.point_label = point_label
        self._mul_cache: dict[tuple[str, str], dict[str, Fraction]] = {}
        if point_label is not None and self._degree.get(point_label) != dimension:
            raise ValueError("point class must be a basis label in top degree")

    # -- basis -----------------------------------------------------------

    def basis(self, degree: int | None = None) -> tuple[str, ...]:
        if degree is None:
            return tuple(l for labels in self._basis for l in labels)
        if degree < 0 or degree > self.dimension:
            return ()
        return self._basis[degree]

    def degree_of(self, label: str) -> int:
        return self._degree[label]

    # -- element constructors ---------------------------------------------

    def monomial(self, label: str, coeff: Rational = 1) -> GradedClass:
        return GradedClass(self, {label: Fraction(coeff)})

    def unit(self) -> GradedClass:
        return self.monomial("1")

    def zero(self) -> GradedClass:
        return GradedClass(self, {})

    def scalar(self, c: Rational) -> GradedClass:
        return GradedClass(self, {"1": Fraction(c)})

    # -- multiplication ----------------------------------------------------

    def mul_basis(self, a: str, b: str) -> Mapping[str, Fraction]:
        key = (a, b) if a <= b else (b, a)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = dict(self._mul_labels(*key))
            self._mul_cache[key] = hit
        return hit

    def _mul_labels(self, a: str, b: str) -> Mapping[str, Fraction]:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}, dim {self.dimension}>"


class ProjectiveSpaceRing(RingModel):
    """Q[h]/(h^(n+1)): the Chow ring of P^n with its hyperplane generator."""

    def __init__(self, n: int, gen: str = "h"):
        if n < 0:
            raise ValueError("projective space dimension must be >= 0")
        self.n = n
        self.gen = gen
        basis = [[_pow_label(gen, e)] for e in range(n + 1)]
        super().__init__(f"P{n}<{gen}>", n, basis, _pow_label(gen, n))

    def hyperplane(self) -> GradedClass:
        if self.n == 0:
            return self.zero()
        return self.monomial(self.gen)

    def _mul_labels(self, a, b):
        e = self._degree[a] + self._degree[b]
        if e > self.n:
            return {}
        return {_pow_label(self.gen, e): Fraction(1)}


class ProductRing(RingModel):
    """Kunneth model for a product: basis labels are joins of factor labels."""

    def __init__(self, left: RingModel, right: RingModel):
        overlap = set(left.basis()) & set(right.basis()) - {"1"}
        if overlap:
            raise ValueError(f"factor label collision: {sorted(overlap)}; use distinct generators")
        self.left = left
        self.right = right
        dim = left.dimension + right.dimension
        split: dict[str, tuple[str, str]] = {}
        basis: list[list[str]] = [[] for _ in range(dim + 1)]
        for da in range(left.dimension + 1):
            for la in left.basis(da):
                for db in range(right.dimension + 1):
                    for lb in right.basis(db):
                        label = _join_labels(la, lb)
                        split[label] = (la, lb)
                        basis[da + db].append(label)
        self._split = split
        point = _join_labels(left.point_label, right.point_label)
        super().__init__(f"({left.name})x({right.name})", dim, basis, point)

    def inject(self, x: GradedClass, side: int) -> GradedClass:
        """Pull back a class from factor 0 (left) or 1 (right)."""
        factor = (self.left, self.right)[side]
        if x.ring is not factor:
            raise RingMismatchError("class does not live on that factor")
        out = {}
        for l, c in x.terms.items():
            label = _join_labels(l, "1") if side == 0 else _join_labels("1", l)
            out[label] = c
        return GradedClass(self, out)

    def _mul_labels(self, a, b):
        la, ra = self._split[a]
        lb, rb = self._split[b]
        dl = self.left.mul_basis(la, lb)
        dr = self.right.mul_basis(ra, rb)
        out: dict[str, Fraction] = {}
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

    def __init__(self, base: RingModel, chern_of_e: Sequence[GradedClass], rank: int, gen: str = "xi"):
        if rank < 2:
            raise ValueError("projective bundle needs rank >= 2")
        cherns = list(chern_of_e)
        if len(cherns) > rank:
            raise DegreeError("more Chern classes than the rank allows")
        for i, ci in enumerate(cherns, start=1):
            if ci.ring is not base:
                raise RingMismatchError("Chern classes must live on the base")
            if not ci.is_zero() and ci.homogeneous_degree() != i:
                raise DegreeError(f"c_{i} must be homogeneous of degree {i}")
        while len(cherns) < rank:
            cherns.append(base.zero())
        self.base = base
        self.rank = rank
        self.gen = gen
        self.cherns = tuple(cherns)
        dim = base.dimension + rank - 1
        pairs: dict[str, tuple[str, int]] = {}
        basis: list[list[str]] = [[] for _ in range(dim + 1)]
        for t in range(rank):
            xp = _pow_label(gen, t)
            for d in range(base.dimension + 1):
                for bl in base.basis(d):
                    label = _join_labels(bl, xp)
                    pairs[label] = (bl, t)
                    basis[d + t].append(label)
        self._pairs = pairs
        self._xi_normal: dict[int, tuple[GradedClass, ...]] = {}
        self._segre: dict[int, GradedClass] = {}
        point = _join_labels(base.point_label, _pow_label(gen, rank - 1))
        super().__init__(f"P({base.name};r={rank})<{gen}>", dim, basis, point)

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

    def segre(self, j: int) -> GradedClass:
        """Fiber integral of xi^(r-1+j), as a base class."""
        if j < 0:
            return self.base.zero()
        hit = self._segre.get(j)
        if hit is not None:
            return hit
        if j == 0:
            val = self.base.unit()
        else:
            val = self.base.zero()
            for i in range(1, min(j, self.rank) + 1):
                ci = self.cherns[i - 1]
                if not ci.is_zero():
                    val = val + (-1) ** (i + 1) * ci * self.segre(j - i)
        self._segre[j] = val
        return val

    def push_to_base(self, x: GradedClass) -> GradedClass:
        """Integration along the fibers: xi^(r-1) * (base class) maps to the base class."""
        if x.ring is not self:
            raise RingMismatchError("class does not live on this bundle")
        out = self.base.zero()
        for label, c in x.terms.items():
            bl, t = self._pairs[label]
            s = self.segre(t - (self.rank - 1))
            if not s.is_zero():
                out = out + c * self.base.monomial(bl) * s
        return out

    def _mul_labels(self, a, b):
        la, ta = self._pairs[a]
        lb, tb = self._pairs[b]
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
                    out[label] = out.get(label, Fraction(0)) + cv
        return out


# -- public constructors and operations -------------------------------------


def projective_space_ring(n: int, gen: str = "h") -> ProjectiveSpaceRing:
    """The Chow ring model of P^n (n = 0 gives the point ring)."""
    return ProjectiveSpaceRing(n, gen)


def product_ring(a: RingModel, b: RingModel) -> ProductRing:
    return ProductRing(a, b)


def projbundle_ring(base: RingModel, chern_of_e: Sequence[GradedClass], rank: int, gen: str = "xi") -> ProjBundleRing:
    return ProjBundleRing(base, chern_of_e, rank, gen)


def multiply(x: GradedClass, y: GradedClass) -> GradedClass:
    return x * y


def integrate(x: GradedClass) -> Fraction:
    """Coefficient of the point class (0 if absent)."""
    return x.integrate()
