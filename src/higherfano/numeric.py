"""Exact rational arithmetic helpers: Bernoulli numbers, Todd coefficients, power sums.

Bernoulli numbers follow the generating function x/(e^x - 1) = sum_j B_j/j! x^j,
so B_1 = -1/2.  The opposite sign for B_1 is also common in the literature;
every formula downstream depends on this choice, so it is fixed here once.

All values are `fractions.Fraction` instances; nothing in this package ever
rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def bernoulli(j: int) -> Fraction:
    """Return B_j (B_1 = -1/2), memoized.

    For j >= 1, B_j solves sum_{l=0}^{j} C(j+1, l) B_l = 0.  The sum reads B_0 .. B_{j-1} in
    ascending order, each memoized before the next is read, so a cold call recurses two deep.
    """
    if j < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if j == 0:
        return Fraction(1)
    if j % 2 == 1 and j > 1:
        return Fraction(0)
    return Fraction(-sum(comb(j + 1, l) * bernoulli(l) for l in range(j)), j + 1)


def todd_coeff(j: int) -> Fraction:
    """Coefficient A_j of D^j in the Todd class of a line bundle with c_1 = D.

    A_j = (-1)^j B_j / j!, so A_0 = 1, A_1 = 1/2, A_2 = 1/12, A_3 = 0,
    A_4 = -1/720, and A_j = 0 for all odd j >= 3.
    """
    if j < 0:
        raise ValueError("Todd coefficient index must be nonnegative")
    return (-1) ** j * bernoulli(j) / factorial(j)


def power_sum(d: int, k: int) -> Fraction:
    """sum_{e=1}^{d} e^k, exactly."""
    if d < 1:
        raise ValueError("power_sum needs d >= 1")
    if k < 0:
        raise ValueError("power_sum needs k >= 0")
    return Fraction(sum(e**k for e in range(1, d + 1)))
