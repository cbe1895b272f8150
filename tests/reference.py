"""Reference constructions the tests check the package against.

The package reads every Chern character as integer power sums p_j = j! ch_j
(bundles.power_sum_class).  The class-side constructions here reach the same
characters another way, by class arithmetic in the ring, and serve as oracles:

A CharacterVector is a truncated Chern character: a rational rank ch_0 plus
homogeneous components ch_1..ch_cap.  Virtual (non-integral) ranks are allowed
for differences of characters; the plethysm operations validate that their
input has a genuine bundle rank.  Sym^2 and Lambda^2 are expressed through the
Adams operation psi^t (which scales ch_k by t^k), so no Chern-root splitting
is ever needed.  chern_to_character runs Newton's identities on the Chern
classes, character_to_chern inverts them.

tangent_character is ch(T_X) of a family up to a cap, each power sum of
families._power_sums divided once; bundle_nonexample_diagnostic is
families.bundle_nonexample_diagnostic built with characters on P(E): E's Chern
classes by inverse Newton, E^dual pulled back and multiplied by e^xi.

render_report renders a whole CLI report at once, from the list of its items;
the CLI writes each item as it is computed and must match it byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import factorial
from typing import Sequence

from higherfano.bundles import power_sum_class
from higherfano.cli import CSV_COLUMNS
from higherfano.families import FamilySpec, InvalidFamilyError, _power_sums, dim_x
from higherfano.rings import (DegreeError, GradedClass, ProjBundleRing, ProjectiveSpaceRing, RingMismatchError,
                              RingModel, check_graded)
from higherfano.schubert import GrassmannianRing


class CharacterVector:
    """Truncated Chern character: rank plus components ch_1..ch_cap."""

    __slots__ = ("ring", "rank", "components")

    def __init__(self, ring: RingModel, rank: Fraction, components: Sequence[GradedClass]):
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


def trivial_character(ring: RingModel, rank: Fraction, cap: int | None = None) -> CharacterVector:
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


def power_sum_character(ring: RingModel, rank: Fraction, cap: int | None, power_sum) -> CharacterVector:
    """The character of the given rank with ch_j = power_sum_class(ring, j, power_sum(j)) for j <= cap."""
    cap = ring.dimension if cap is None else cap
    return CharacterVector(ring, rank, [power_sum_class(ring, j, power_sum(j)) for j in range(1, cap + 1)])


def euler_character(h: GradedClass, n: int, cap: int | None = None) -> CharacterVector:
    """ch(T_{P^n}) = (n+1)*e^h - 1 from the Euler sequence, for a hyperplane class h."""
    return line_character(h, cap) * (n + 1) - trivial_character(h.ring, 1, cap)


def chern_to_character(
    cherns: Sequence[GradedClass], rank: Fraction, ring: RingModel, cap: int | None = None
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


# -- Grassmannian and family characters --------------------------------------


def tautological_chern(ring: GrassmannianRing, which: str) -> tuple[GradedClass, ...]:
    """Chern classes of the dual tautological subbundle or the quotient bundle.

    "sub-dual": c_i(S^dual) = sigma_{1^i}, rank k.
    "quotient": c_i(Q) = sigma_i, rank n-k.
    """
    if which == "quotient":
        return tuple(ring.sigma((i,)) for i in range(1, ring.cols + 1))
    if which == "sub-dual":
        return tuple(ring.sigma((1,) * i) for i in range(1, ring.k + 1))
    raise ValueError("which must be 'sub-dual' or 'quotient'")


def tangent_character(spec: FamilySpec, cap: int | None = None) -> CharacterVector:
    """ch(T_X) up to cap in the distinguished ambient ring: each p(j) of _power_sums divided by j! once."""
    ring, p = _power_sums(spec)
    cap = ring.dimension if cap is None else min(cap, ring.dimension)
    return power_sum_character(ring, dim_x(spec), cap, p)


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
    rank = m + 1
    if case == "c":
        ch_e = line_character(2 * h) + line_character(h) * m
    elif case == "e":
        ch_e = euler_character(h, m + 1)
    else:
        raise InvalidFamilyError("diagnostic covers the bundle cases 'c' and 'e'")
    # ch_e runs to the base's top degree, so it determines every c_i of E;
    # the products below align to the tangent's cap 2
    pb = ProjBundleRing(base, character_to_chern(ch_e)[:rank], rank)
    h_pb = pb.from_base(h)
    edual = dual(ch_e)
    edual_up = CharacterVector(
        pb, edual.rank, [pb.from_base(edual.component(k)) for k in range(1, edual.cap + 1)]
    )
    # T of the base pulled back, plus the relative Euler sequence E^dual (x) O(1) - 1
    tangent = (
        euler_character(h_pb, m + 1, 2)
        + edual_up * line_character(pb.xi(), cap=2)
        - trivial_character(pb, 1, cap=2)
    )
    ch2 = tangent.component(2)
    out = []
    for label in pb.basis(pb.dimension - 2):
        out.append((label, (ch2 * pb.monomial(label)).integrate()))
    return tuple(out)


def render_report(report: dict, fmt: str) -> str:
    """The whole report at once: its rows as CSV, or the report as indent-2 JSON."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for item in report["items"]:
            writer.writerow([item.get(col, "") for col in CSV_COLUMNS])
        return buf.getvalue()
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
