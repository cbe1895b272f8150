from fractions import Fraction
from math import comb, factorial

import pytest

from higherfano import numeric
from higherfano.numeric import bernoulli, power_sum, todd_coeff


KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_known_bernoulli_values():
    for j, v in KNOWN_BERNOULLI.items():
        assert bernoulli(j) == v


def test_odd_bernoulli_vanish():
    for j in range(3, 41, 2):
        assert bernoulli(j) == 0


def test_defining_recurrence():
    # sum_{l=0}^{m} B_l C(m+1, l) = 0 for all m >= 1
    for m in range(1, 41):
        assert sum(bernoulli(l) * comb(m + 1, l) for l in range(m + 1)) == 0


def test_table_accessor():
    # one call fills the memo table up to its index
    bernoulli(12)
    vals = numeric._bernoulli_table
    assert vals[0] == 1 and vals[1] == Fraction(-1, 2) and vals[12] == Fraction(-691, 2730)
    assert len(vals) >= 13
    assert [bernoulli(j) for j in range(13)] == vals[:13]


def test_todd_coefficients():
    assert todd_coeff(0) == 1
    assert todd_coeff(1) == Fraction(1, 2)
    assert todd_coeff(2) == Fraction(1, 12)
    assert todd_coeff(3) == 0
    assert todd_coeff(4) == Fraction(-1, 720)
    assert todd_coeff(7) == 0


def test_todd_vs_bernoulli():
    for j in range(31):
        assert todd_coeff(j) * factorial(j) == (-1) ** j * bernoulli(j)


def test_todd_sum_identity():
    # sum_{j=1}^{k+1} A_{k+1-j} / j! = 1/k!
    for k in range(1, 21):
        s = sum(todd_coeff(k + 1 - j) / factorial(j) for j in range(1, k + 2))
        assert s == Fraction(1, factorial(k))


def test_power_sum():
    assert power_sum(3, 2) == 14
    assert power_sum(1, 5) == 1
    assert power_sum(10, 3) == 3025
    assert power_sum(4, 0) == 4


def test_input_validation():
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        todd_coeff(-2)
    with pytest.raises(ValueError):
        power_sum(0, 2)
    with pytest.raises(ValueError):
        power_sum(3, -1)
