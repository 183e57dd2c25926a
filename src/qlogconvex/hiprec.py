"""Integer-only high-precision helpers: pi, sqrt(3), certified comparisons.

Everything here produces *enclosures* — integer or rational lower/upper
bounds with explicit error accounting — so downstream claims stay exact even
though the quantities themselves are irrational.

pi comes from Machin's formula 16*arctan(1/5) - 4*arctan(1/239) with the
arctan series evaluated in scaled integer arithmetic (each floor division
loses under one unit in the last place, and the alternating tail is bounded
by its first omitted term, so the total error is bounded by the term count).
sqrt(3) comes from ``math.isqrt``, which is exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

_GUARD_DIGITS = 12

# compare_products doubles its log2 precision from 64 bits up to this many,
# then settles the comparison by exact powering.
COMPARE_MAX_PREC = 256


def _arctan_inv_scaled(x: int, scale: int) -> tuple[int, int]:
    """(approximation of scale*arctan(1/x), number of series terms used)."""
    total = 0
    power = scale // x
    xsq = x * x
    k = 0
    while power:
        term = power // (2 * k + 1)
        if term == 0:
            break
        total += -term if k % 2 else term
        power //= xsq
        k += 1
    return total, k


def pi_bounds(digits: int) -> tuple[Fraction, Fraction]:
    """Fractions (lo, hi) with lo < pi < hi and hi - lo < 10^-digits."""
    if digits < 1:
        raise ValueError("need at least one digit")
    scale = 10 ** (digits + _GUARD_DIGITS)
    a5, k5 = _arctan_inv_scaled(5, scale)
    a239, k239 = _arctan_inv_scaled(239, scale)
    estimate = 16 * a5 - 4 * a239
    # each series: <= k+1 floor-division losses plus the alternating tail
    error = 16 * (k5 + 2) + 4 * (k239 + 2)
    return Fraction(estimate - error, scale), Fraction(estimate + error, scale)


def sqrt3_bounds(digits: int) -> tuple[Fraction, Fraction]:
    """Fractions (lo, hi) with lo <= sqrt(3) < hi and hi - lo = 10^-digits-ish."""
    if digits < 1:
        raise ValueError("need at least one digit")
    scale = 10 ** (digits + _GUARD_DIGITS)
    s = math.isqrt(3 * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def ccl_constant_bounds(digits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of 8 / (sqrt(3) * pi) good to at least ``digits`` digits."""
    plo, phi = pi_bounds(digits + 4)
    slo, shi = sqrt3_bounds(digits + 4)
    return Fraction(8) / (shi * phi), Fraction(8) / (slo * plo)


def fraction_to_decimal(value: Fraction, places: int) -> str:
    """Exact decimal rendering of a rational, truncated toward zero."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, rest = divmod(value.numerator, value.denominator)
    digits = rest * 10**places // value.denominator
    return f"{sign}{whole}.{str(digits).zfill(places)}"


def fraction_to_scientific(value: Fraction) -> str:
    """Scientific rendering of a rational to two significant digits, e.g. 2.0e-29.

    Exponent and mantissa come from integer arithmetic alone.  The
    magnitude is rounded up, so a rendered upper bound stays an upper
    bound: 1/3 gives 3.4e-01.
    """
    if value == 0:
        return "0.0e+00"
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    # 10^exp <= num/den < 10^(exp+1); the digit counts fix exp up to one
    exp = len(str(num)) - len(str(den))
    if num * 10 ** max(-exp, 0) < den * 10 ** max(exp, 0):
        exp -= 1
    # mantissa = ceil(|value| / 10^(exp-1)), in 10..100
    shift = exp - 1
    mantissa = -(-num * 10 ** max(-shift, 0) // (den * 10 ** max(shift, 0)))
    if mantissa == 100:  # rounding up carried into a new digit
        mantissa, exp = 10, exp + 1
    return f"{sign}{mantissa // 10}.{mantissa % 10}e{exp:+03d}"


# ---------------------------------------------------------------------------
# Certified comparison of products of integer powers via log2 enclosures.
# Avoids materializing numbers with millions of digits while staying exact:
# a comparison is only decided when the integer log bounds separate, and the
# (practically unreachable) undecided case falls back to exact powering.


@functools.lru_cache(maxsize=8)
def log2_bounds(x: int, prec: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^prec * log2(x) <= hi, for x >= 1.

    Digit-by-digit mantissa squaring with monotone rounding; the +/-2 slack
    absorbs the initial truncation and the bounded rounding drift (working
    precision carries 32 guard bits).  The result depends on (x, prec)
    alone, so the last few enclosures are kept: the root-ratio check
    compares D_n, D_{n+1} and D_{n+2} in a sliding window and reuses each
    one, and so do the n-th roots where they are compared at all, from the
    first failure of ratio growth on.
    """
    if x < 1:
        raise ValueError("log2 bounds need x >= 1")
    if x == 1:
        return 0, 0
    w = prec + 32
    e = x.bit_length() - 1
    if e >= w:
        mlo = x >> (e - w)
        mhi = mlo + 1
    else:
        mlo = mhi = x << (w - e)

    def frac_bits(m: int, round_up: bool) -> int:
        bits = 0
        for _ in range(prec):
            m = m * m
            m = (m + (1 << w) - 1) >> w if round_up else m >> w
            bits <<= 1
            if m >> (w + 1):
                bits |= 1
                m >>= 1
        return bits

    lo = (e << prec) + frac_bits(mlo, False) - 2
    hi = (e << prec) + frac_bits(mhi, True) + 2
    return lo, hi


def compare_products(lhs: list[tuple[int, int]], rhs: list[tuple[int, int]]) -> int:
    """Exact sign of prod(x^e for lhs) - prod(y^f for rhs); entries (base, exp).

    Bases must be >= 1 and exponents >= 0.  Decides through log2 enclosures
    at escalating precision; if the bounds never separate (e.g. the products
    are equal) the comparison is settled by exact powering.
    """
    for base, exp in lhs + rhs:
        if base < 1 or exp < 0:
            raise ValueError("bases must be >= 1 and exponents nonnegative")
    prec = 64
    while prec <= COMPARE_MAX_PREC:
        llo = lhi = rlo = rhi = 0
        for base, exp in lhs:
            lo, hi = log2_bounds(base, prec)
            llo += exp * lo
            lhi += exp * hi
        for base, exp in rhs:
            lo, hi = log2_bounds(base, prec)
            rlo += exp * lo
            rhi += exp * hi
        if llo > rhi:
            return 1
        if lhi < rlo:
            return -1
        prec *= 2
    left = right = 1
    for base, exp in lhs:
        left *= base**exp
    for base, exp in rhs:
        right *= base**exp
    return (left > right) - (left < right)
