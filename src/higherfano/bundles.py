"""Chern class <-> Chern character calculus over a ring model.

A CharacterVector is a truncated Chern character: a rational rank ch_0 plus
homogeneous components ch_1..ch_cap.  Virtual (non-integral) ranks are allowed
for differences of characters; the plethysm operations validate that their
input has a genuine bundle rank.  Sym^2 and Lambda^2 are expressed through the
Adams operation psi^t (which scales ch_k by t^k), so no Chern-root splitting
is ever needed.

power_sum_class turns an integer power sum p_j = j! ch_j, a {label: int} of degree j, into
ch_j with one division by j! per label, and power_sum_character does so up to a cap; every
tangent character of the example families takes that route, a verdict only at the degrees
it reads, and the class operations here are the tests' references for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .numeric import Rational, todd_coeff
from .rings import DegreeError, GradedClass, RingMismatchError, RingModel, check_graded


class CharacterVector:
    """Truncated Chern character: rank plus components ch_1..ch_cap."""

    __slots__ = ("ring", "rank", "components")

    def __init__(self, ring: RingModel, rank: Rational, components: Sequence[GradedClass]):
        self.ring = ring
        self.rank = Fraction(rank)
        self.components = check_graded(components, ring, "ch")

    @property
    def cap(self) -> int:
        return len(self.components)

    def component(self, k: int) -> GradedClass:
        """ch_k as a GradedClass (ch_0 is rank times the unit); DegreeError above the cap."""
        if k > self.cap:
            raise DegreeError(f"ch_{k} is above this character's cap {self.cap}")
        if k == 0:
            return self.ring.scalar(self.rank)
        if k > 0:
            return self.components[k - 1]
        return self.ring.zero()

    def total(self) -> GradedClass:
        out = self.ring.scalar(self.rank)
        for c in self.components:
            out = out + c
        return out

    # -- arithmetic -------------------------------------------------------
    # componentwise, to the smaller of the two caps (zip stops at the shorter)

    def _check_operand(self, other: "CharacterVector") -> None:
        if not isinstance(other, CharacterVector):
            raise TypeError("expected a CharacterVector")
        if other.ring is not self.ring:
            raise RingMismatchError("characters live on different rings")

    def __add__(self, other):
        self._check_operand(other)
        return CharacterVector(
            self.ring, self.rank + other.rank, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other):
        self._check_operand(other)
        return CharacterVector(
            self.ring, self.rank - other.rank, [a - b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return CharacterVector(self.ring, -self.rank, [-c for c in self.components])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CharacterVector(self.ring, self.rank * c, [x * c for x in self.components])
        self._check_operand(other)
        # ch_k(xy) = x_0 y_k + x_k y_0 + sum_{0<i<k} x_i y_(k-i), the ranks x_0, y_0 as scalars
        x, y = self.components, other.components
        comps = []
        for k in range(1, min(len(x), len(y)) + 1):
            acc = x[k - 1] * other.rank + y[k - 1] * self.rank
            for i in range(1, k):
                if not x[i - 1].is_zero() and not y[k - i - 1].is_zero():
                    acc = acc + x[i - 1] * y[k - i - 1]
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
    if not divisor.is_homogeneous(1):
        raise DegreeError("line bundle class must have degree 1")
    cap = ring.dimension if cap is None else cap
    powers = divisor.powers(cap)
    return CharacterVector(ring, 1, [powers[k] * Fraction(1, factorial(k)) for k in range(1, cap + 1)])


def power_sum_class(ring: RingModel, j: int, p_j: dict[str, int]) -> GradedClass:
    """ch_j from p_j = j! ch_j, the j-th power sum of the Chern roots as a {label: int}: no class arithmetic."""
    # the degree is registered before the class reads its labels
    ring.basis(j)
    scale = factorial(j)
    return GradedClass(ring, {label: Fraction(c, scale) for label, c in p_j.items() if c})


def power_sum_character(ring: RingModel, rank: Rational, cap: int | None, power_sum) -> CharacterVector:
    """The character of the given rank with ch_j = power_sum_class(ring, j, power_sum(j)) for j <= cap."""
    cap = ring.dimension if cap is None else cap
    return CharacterVector(ring, rank, [power_sum_class(ring, j, power_sum(j)) for j in range(1, cap + 1)])


def euler_character(h: GradedClass, n: int, cap: int | None = None) -> CharacterVector:
    """ch(T_{P^n}) = (n+1)*e^h - 1 from the Euler sequence, for a hyperplane class h."""
    return line_character(h, cap) * (n + 1) - trivial_character(h.ring, 1, cap)


def chern_to_character(
    cherns: Sequence[GradedClass], rank: Rational, ring: RingModel, cap: int | None = None
) -> CharacterVector:
    """Character from Chern classes via Newton's identities on the Chern roots.

    p_k = c_1 p_(k-1) - c_2 p_(k-2) + ... + (-1)^(k-1) k c_k, and ch_k = p_k/k!.
    """
    cap = ring.dimension if cap is None else cap
    check_graded(cherns, ring, "c")

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
    p = [c * factorial(k) for k, c in enumerate(x.components, start=1)]
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
    t = Fraction(t)
    return CharacterVector(x.ring, x.rank, [t**k * c for k, c in enumerate(x.components, start=1)])


def dual(x: CharacterVector) -> CharacterVector:
    """psi^(-1): ch_k -> (-1)^k ch_k."""
    return adams(x, -1)


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
    if not divisor.is_homogeneous(1):
        raise DegreeError("Todd class of a line bundle needs a degree-1 class")
    cap = ring.dimension if cap is None else cap
    out = ring.unit()
    for j, power in enumerate(divisor.powers(cap)[1:], start=1):
        aj = todd_coeff(j)
        if aj:
            out = out + power * aj
    return out
