"""Chern class <-> Chern character calculus over a ring model.

A CharacterVector is a truncated Chern character: a rational rank ch_0 plus
homogeneous components ch_1..ch_cap.  Virtual (non-integral) ranks are allowed
for differences of characters; the plethysm operations validate that their
input has a genuine bundle rank.  Sym^2 and Lambda^2 are expressed through the
Adams operation psi^t (which scales ch_k by t^k), so no Chern-root splitting
is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .numeric import Rational, todd_coeff
from .rings import DegreeError, GradedClass, RingMismatchError, RingModel


class CharacterVector:
    """Truncated Chern character: rank plus components ch_1..ch_cap."""

    __slots__ = ("ring", "rank", "components")

    def __init__(self, ring: RingModel, rank: Rational, components: Sequence[GradedClass]):
        self.ring = ring
        self.rank = Fraction(rank)
        comps = []
        for k, c in enumerate(components, start=1):
            if c.ring is not ring:
                raise RingMismatchError("all components must share one ring")
            if not c.is_zero() and c.homogeneous_degree() != k:
                raise DegreeError(f"ch_{k} must be homogeneous of degree {k}")
            comps.append(c)
        self.components = tuple(comps)

    @property
    def cap(self) -> int:
        return len(self.components)

    def component(self, k: int) -> GradedClass:
        """ch_k as a GradedClass (ch_0 is rank times the unit)."""
        if k == 0:
            return self.ring.scalar(self.rank)
        if 1 <= k <= self.cap:
            return self.components[k - 1]
        return self.ring.zero()

    def total(self) -> GradedClass:
        out = self.ring.scalar(self.rank)
        for c in self.components:
            out = out + c
        return out

    # -- arithmetic -------------------------------------------------------

    def _align(self, other: "CharacterVector") -> int:
        if not isinstance(other, CharacterVector):
            raise TypeError("expected a CharacterVector")
        if other.ring is not self.ring:
            raise RingMismatchError("characters live on different rings")
        return min(self.cap, other.cap)

    def __add__(self, other):
        cap = self._align(other)
        return CharacterVector(
            self.ring,
            self.rank + other.rank,
            [self.component(k) + other.component(k) for k in range(1, cap + 1)],
        )

    def __sub__(self, other):
        cap = self._align(other)
        return CharacterVector(
            self.ring,
            self.rank - other.rank,
            [self.component(k) - other.component(k) for k in range(1, cap + 1)],
        )

    def __neg__(self):
        return CharacterVector(self.ring, -self.rank, [-c for c in self.components])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CharacterVector(self.ring, self.rank * c, [x * c for x in self.components])
        cap = self._align(other)
        comps = []
        for k in range(1, cap + 1):
            acc = self.ring.zero()
            for i in range(0, k + 1):
                a = self.component(i)
                b = other.component(k - i)
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            comps.append(acc)
        return CharacterVector(self.ring, self.rank * other.rank, comps)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CharacterVector):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.rank == other.rank
            and self.components == other.components
        )

    def __repr__(self):
        return f"<ch rank={self.rank} + {list(self.components)!r}>"


# -- constructors ------------------------------------------------------------


def trivial_character(ring: RingModel, rank: Rational, cap: int | None = None) -> CharacterVector:
    cap = ring.dimension if cap is None else cap
    return CharacterVector(ring, rank, [ring.zero()] * cap)


def line_character(divisor: GradedClass, cap: int | None = None) -> CharacterVector:
    """ch(O(D)) = e^D for a degree-1 class D."""
    ring = divisor.ring
    if not divisor.is_zero() and divisor.homogeneous_degree() != 1:
        raise DegreeError("line bundle class must have degree 1")
    cap = ring.dimension if cap is None else cap
    comps = []
    power = ring.unit()
    for k in range(1, cap + 1):
        power = power * divisor
        comps.append(power * Fraction(1, factorial(k)))
    return CharacterVector(ring, 1, comps)


def chern_to_character(
    cherns: Sequence[GradedClass], rank: Rational, ring: RingModel, cap: int | None = None
) -> CharacterVector:
    """Character from Chern classes via Newton's identities on the Chern roots.

    p_k = c_1 p_(k-1) - c_2 p_(k-2) + ... + (-1)^(k-1) k c_k, and ch_k = p_k/k!.
    """
    cap = ring.dimension if cap is None else cap
    for i, ci in enumerate(cherns, start=1):
        if ci.ring is not ring:
            raise RingMismatchError("Chern classes must live on the given ring")
        if not ci.is_zero() and ci.homogeneous_degree() != i:
            raise DegreeError(f"c_{i} must be homogeneous of degree {i}")

    def c(i: int) -> GradedClass:
        return cherns[i - 1] if 1 <= i <= len(cherns) else ring.zero()

    p: list[GradedClass] = []
    for k in range(1, cap + 1):
        acc = (-1) ** (k - 1) * k * c(k)
        for i in range(1, k):
            acc = acc + (-1) ** (i - 1) * c(i) * p[k - i - 1]
        p.append(acc)
    return CharacterVector(ring, rank, [p[k - 1] * Fraction(1, factorial(k)) for k in range(1, cap + 1)])


def character_to_chern(x: CharacterVector) -> tuple[GradedClass, ...]:
    """Chern classes c_1..c_cap from a character (inverse Newton recursion)."""
    ring = x.ring
    p = [x.component(k) * factorial(k) for k in range(1, x.cap + 1)]
    e: list[GradedClass] = []
    for k in range(1, x.cap + 1):
        acc = p[k - 1]
        for i in range(1, k):
            acc = acc + (-1) ** i * e[i - 1] * p[k - i - 1]
        e.append(acc * Fraction((-1) ** (k - 1), k))
    return tuple(e)


# -- lambda-ring operations ---------------------------------------------------


def adams(x: CharacterVector, t: int) -> CharacterVector:
    """psi^t: scales ch_k by t^k, rank unchanged."""
    return CharacterVector(
        x.ring, x.rank, [Fraction(t) ** k * x.component(k) for k in range(1, x.cap + 1)]
    )


def dual(x: CharacterVector) -> CharacterVector:
    """psi^(-1): ch_k -> (-1)^k ch_k."""
    return adams(x, -1)


def tensor_line(x: CharacterVector, divisor: GradedClass) -> CharacterVector:
    """Twist by a line bundle: multiply componentwise by e^D."""
    return x * line_character(divisor, cap=x.cap)


def _require_bundle_rank(x: CharacterVector) -> None:
    if x.rank.denominator != 1 or x.rank < 0:
        raise ValueError(f"plethysm needs a genuine bundle (nonnegative integral rank), got {x.rank}")


def sym2_character(x: CharacterVector) -> CharacterVector:
    """ch(Sym^2 E) = (ch(E)^2 + psi^2 ch(E)) / 2."""
    _require_bundle_rank(x)
    return (x * x + adams(x, 2)) * Fraction(1, 2)


def wedge2_character(x: CharacterVector) -> CharacterVector:
    """ch(Lambda^2 E) = (ch(E)^2 - psi^2 ch(E)) / 2."""
    _require_bundle_rank(x)
    return (x * x - adams(x, 2)) * Fraction(1, 2)


def todd_line(divisor: GradedClass, cap: int | None = None) -> GradedClass:
    """Todd class of a line bundle with c_1 = D: sum_j A_j D^j."""
    ring = divisor.ring
    if not divisor.is_zero() and divisor.homogeneous_degree() != 1:
        raise DegreeError("Todd class of a line bundle needs a degree-1 class")
    cap = ring.dimension if cap is None else cap
    out = ring.unit()
    power = ring.unit()
    for j in range(1, cap + 1):
        power = power * divisor
        aj = todd_coeff(j)
        if aj:
            out = out + power * aj
    return out
