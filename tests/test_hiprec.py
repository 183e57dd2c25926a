import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qlogconvex.families import domb_number
from qlogconvex.hiprec import (
    ccl_constant_bounds,
    compare_products,
    fraction_to_decimal,
    fraction_to_scientific,
    log2_bounds,
    pi_bounds,
    sqrt3_bounds,
)

mpmath.mp.dps = 120


def _contains(lo: Fraction, hi: Fraction, value) -> bool:
    return (
        mpmath.mpf(lo.numerator) / lo.denominator
        <= value
        <= mpmath.mpf(hi.numerator) / hi.denominator
    )


@pytest.mark.parametrize("digits", [20, 40, 60])
def test_pi_bounds_enclose_pi(digits):
    lo, hi = pi_bounds(digits)
    assert lo < hi
    assert hi - lo < Fraction(1, 10**digits)
    assert _contains(lo, hi, mpmath.pi)


@pytest.mark.parametrize("digits", [20, 40, 60])
def test_sqrt3_bounds_enclose_sqrt3(digits):
    lo, hi = sqrt3_bounds(digits)
    assert hi - lo < Fraction(1, 10**digits)
    assert _contains(lo, hi, mpmath.sqrt(3))


@pytest.mark.parametrize("digits", [40, 50])
def test_constant_bounds_enclose_reference(digits):
    lo, hi = ccl_constant_bounds(digits)
    reference = 8 / (mpmath.sqrt(3) * mpmath.pi)
    assert hi - lo < Fraction(1, 10**digits)
    assert _contains(lo, hi, reference)


def test_bounds_reject_silly_precision():
    with pytest.raises(ValueError):
        pi_bounds(0)
    with pytest.raises(ValueError):
        sqrt3_bounds(-3)


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(11, 8), 6) == "1.375000"
    assert fraction_to_decimal(Fraction(-1, 3), 5) == "-0.33333"
    assert fraction_to_decimal(Fraction(0), 3) == "0.000"
    assert fraction_to_decimal(Fraction(22, 7), 10) == "3.1428571428"


def test_fraction_to_scientific():
    assert fraction_to_scientific(Fraction(2, 10**29)) == "2.0e-29"
    assert fraction_to_scientific(Fraction(1, 3)) == "3.4e-01"  # rounded up: still a bound
    assert fraction_to_scientific(Fraction(-1, 3)) == "-3.4e-01"
    assert fraction_to_scientific(Fraction(995, 1000)) == "1.0e+00"  # carry into a new digit
    assert fraction_to_scientific(Fraction(123456)) == "1.3e+05"
    assert fraction_to_scientific(Fraction(7)) == "7.0e+00"
    assert fraction_to_scientific(Fraction(0)) == "0.0e+00"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**60), st.integers(1, 10**60))
def test_fraction_to_scientific_is_the_tightest_upper_bound(num, den):
    value = Fraction(num, den)
    mantissa, exp = fraction_to_scientific(value).split("e")
    digits = int(mantissa.replace(".", ""))
    assert 10 <= digits <= 99
    unit = Fraction(10) ** (int(exp) - 1)
    assert value <= digits * unit < value + unit


def test_log2_bounds_edges():
    assert log2_bounds(1, 64) == (0, 0)
    for k in range(1, 80):
        lo, hi = log2_bounds(1 << k, 64)
        assert lo <= (k << 64) <= hi
    with pytest.raises(ValueError):
        log2_bounds(0, 64)


@given(st.integers(min_value=2, max_value=10**80), st.sampled_from([64, 96]))
@settings(max_examples=150)
def test_log2_bounds_contain_true_value(x, prec):
    lo, hi = log2_bounds(x, prec)
    true = mpmath.log(mpmath.mpf(x), 2) * mpmath.power(2, prec)
    assert lo <= true <= hi
    assert hi - lo <= 8  # enclosure stays tight


@given(
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2, max_value=10**6),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150)
def test_compare_products_matches_exact_powering(a, e, b, f):
    expected = (a**e > b**f) - (a**e < b**f)
    assert compare_products([(a, e)], [(b, f)]) == expected


def test_compare_products_equality_falls_back():
    assert compare_products([(8, 10)], [(2, 30)]) == 0
    assert compare_products([(6, 4), (10, 2)], [(60, 2), (6, 2)]) == 0


def test_compare_products_rejects_bad_entries():
    with pytest.raises(ValueError):
        compare_products([(0, 3)], [(2, 1)])
    with pytest.raises(ValueError):
        compare_products([(2, -1)], [(2, 1)])


def test_compare_products_same_with_the_log2_cache_cold_and_warm():
    # the comparisons of root_monotonicity_check, plus ties that escalate
    # to exact powering, each decided from a cleared cache and again warm
    numbers = [domb_number(n) for n in range(44)]
    cases = [([(numbers[n + 1], n)], [(numbers[n], n + 1)]) for n in range(1, 41)]
    cases += [([(numbers[n + 1], 2 * n * (n + 2))],
               [(numbers[n], (n + 1) * (n + 2)), (numbers[n + 2], n * (n + 1))])
              for n in range(1, 41)]
    cases += [([(8, 10)], [(2, 30)]), ([(6, 4), (10, 2)], [(60, 2), (6, 2)])]
    cold = []
    for lhs, rhs in cases:
        log2_bounds.cache_clear()
        cold.append(compare_products(lhs, rhs))
    warm = [compare_products(lhs, rhs) for lhs, rhs in cases for _ in range(2)]
    assert warm[0::2] == warm[1::2] == cold
    assert log2_bounds.cache_info().hits > 0
    for lhs, rhs in cases[:10] + cases[-2:]:
        left = math.prod(x**e for x, e in lhs)
        right = math.prod(x**e for x, e in rhs)
        assert compare_products(lhs, rhs) == (left > right) - (left < right)
    for x in numbers[-3:]:
        assert log2_bounds(x, 64) == log2_bounds.__wrapped__(x, 64)
