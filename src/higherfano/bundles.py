"""Chern characters as integer power sums, and the series of a line bundle.

A character is read as its power sums p_j = j! ch_j, the j-th power sums of the
Chern roots: power_sum_class turns a {label: int} of degree j into the class ch_j
with one division by j! per label.  A verdict needs no class: it reads the signs
of the integers p_k, which are those of ch_k as k! > 0, and divides once per
witness it prints (families.chk_verdict), so power_sum_class serves the product
non-example and the tests' oracles.

exp_line (ch(O(D)) = e^D) and todd_line (td(O(D))) are the two series
sum_j a_j D^j in a degree-1 class D, summed to the ring's dimension by one loop.
The truncated character with Newton's identities, Adams operations and Sym^2 /
Lambda^2 is not part of the package: tests/reference.py keeps it as the tests'
class-side oracle for the power sums.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable

from .numeric import todd_coeff
from .rings import DegreeError, GradedClass, RingModel


def power_sum_class(ring: RingModel, j: int, p_j: dict[str, int]) -> GradedClass:
    """ch_j from p_j = j! ch_j, the j-th power sum of the Chern roots as a {label: int}: no class arithmetic."""
    # the degree is registered before the class reads its labels
    ring.basis(j)
    scale = factorial(j)
    return GradedClass(ring, {label: Fraction(c, scale) for label, c in p_j.items() if c})


def _line_series(divisor: GradedClass, coeff: Callable[[int], Fraction]) -> GradedClass:
    """1 + sum_{j>=1} coeff(j) D^j to the ring's dimension; DegreeError unless D has degree 1."""
    if not divisor.is_homogeneous(1):
        raise DegreeError("a line bundle's class must have degree 1")
    ring = divisor.ring
    out = ring.unit()
    for j, power in enumerate(divisor.powers(ring.dimension)[1:], start=1):
        c = coeff(j)
        if c:
            out = out + power * c
    return out


def exp_line(divisor: GradedClass) -> GradedClass:
    """ch(O(D)) = e^D = sum_j D^j / j! for a degree-1 class D."""
    return _line_series(divisor, lambda j: Fraction(1, factorial(j)))


def todd_line(divisor: GradedClass) -> GradedClass:
    """Todd class of a line bundle with c_1 = D: sum_j A_j D^j."""
    return _line_series(divisor, todd_coeff)
