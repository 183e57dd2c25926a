import pytest
from hypothesis import given, strategies as st

from qlogconvex.exactcore import BinomialCache, binom
from qlogconvex.families import _central_binomials


def pascal_triangle(rows):
    """Independent oracle: build the triangle row by row."""
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        triangle.append(row)
    return triangle


def test_binom_small_values():
    assert binom(4, 2) == 6
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    assert binom(0, 0) == 1


def test_binom_against_pascal_oracle():
    triangle = pascal_triangle(64)
    for n in range(65):
        for k in range(n + 1):
            assert binom(n, k) == triangle[n][k]
    assert binom(10, 5) == 252 == triangle[10][5]


def test_binom_pascal_and_symmetry_identities():
    for n in range(1, 65):
        for k in range(n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)
            assert binom(n, k) == binom(n, n - k)


def test_binom_rejects_negative_row():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_central_binom_weights_are_log_convex():
    central = _central_binomials(201)
    assert central == [binom(2 * k, k) for k in range(202)]
    for k in range(1, 201):
        assert central[k + 1] * central[k - 1] >= central[k] ** 2


def test_cache_grows_and_is_consistent():
    cache = BinomialCache()
    assert cache.get(6, 3) == 20
    assert len(cache) == 1
    assert cache.get(6, 3) == 20
    assert len(cache) == 1
    # Pascal identity across cached entries
    assert cache.get(7, 3) == cache.get(6, 2) + cache.get(6, 3)


rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


@given(rationals, rationals)
def test_rational_addition_round_trips(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda x: x != 0))
def test_rational_multiplication_round_trips(a, b):
    assert (a * b) / b == a

