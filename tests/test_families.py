import functools
import math
import random

import pytest

from qlogconvex import families
from qlogconvex.families import (
    DOMB_ARRAY,
    NARAYANA_ARRAY,
    TriangularArray,
    domb_number,
    family_coefficient,
    family_poly,
    get_array,
)
from qlogconvex.polynomials import Poly


@functools.lru_cache(maxsize=None)
def _comb_central(j):
    return math.comb(2 * j, j)


@functools.lru_cache(maxsize=None)
def direct_domb_number(n):
    """Independent oracle: raw summation with math.comb (the central
    binomials memoized, since math.comb(2j, j) dominates the cost)."""
    return sum(
        math.comb(n, k) ** 2 * _comb_central(k) * _comb_central(n - k)
        for k in range(n + 1)
    )


def test_array_entries_examples():
    assert get_array("domb_a")(1, 0) == 2
    assert get_array("domb_a")(3, 1) == 54
    assert get_array("domb_a")(2, 5) == 0
    assert get_array("narayana_a")(4, 2) == 36
    assert get_array("narayana_a")(4, -1) == 0


def test_array_rejects_negative_row_and_unknown_kind():
    with pytest.raises(ValueError):
        get_array("domb_a")(-1, 0)
    with pytest.raises(ValueError):
        get_array("bogus")(1, 0)


def test_family_poly_examples():
    assert family_poly("D", 1) == Poly([2, 2])
    assert family_poly("D", 2) == Poly([6, 16, 6])
    assert family_poly("W", 2) == Poly([1, 4, 1])
    assert family_poly("F", 2) == Poly([6, 8, 1])
    assert family_poly("V", 2) == Poly([1, 8, 6])


@pytest.mark.parametrize("tag", ["D", "W", "V", "F"])
def test_family_poly_rows_match_family_coefficient(tag):
    for n in range(81):
        assert family_poly(tag, n).coeffs == tuple(family_coefficient(tag, n, k)
                                                   for k in range(n + 1))


def test_family_poly_rejects_negative():
    with pytest.raises(ValueError):
        family_poly("D", -1)
    with pytest.raises(ValueError, match="unknown family tag"):
        family_poly("Q", 3)
    with pytest.raises(ValueError):
        domb_number(-1)


def row_domb_number(n):
    """Second oracle: the binomial row and the central binomials from their
    row recurrences, terms k and n - k paired (how D_n(1) was summed before
    ``domb_number`` stepped by the term ratio)."""
    central = families._central_binomials(n)
    row = families._binomial_row(n)
    half = sum(row[k] ** 2 * central[k] * central[n - k] for k in range((n + 1) // 2))
    middle = row[n // 2] ** 2 * central[n // 2] ** 2 if n % 2 == 0 else 0
    return 2 * half + middle


def test_domb_numbers():
    assert domb_number(0) == 1
    assert domb_number(2) == 28
    assert domb_number(3) == 256
    # n <= 563 is every Domb number the enlarged monotonicity sweep reads
    for n in range(564):
        assert domb_number(n) == direct_domb_number(n), n


def test_domb_numbers_by_the_recurrence_match_the_direct_sum():
    assert [families.domb_numbers(stop) for stop in range(4)] == [[], [1], [1, 4], [1, 4, 28]]
    numbers = families.domb_numbers(600)
    assert len(numbers) == 600
    for n, value in enumerate(numbers):
        assert value == direct_domb_number(n), n


def test_domb_numbers_check_their_last_value_against_the_term_sum(monkeypatch):
    term_sum = families.domb_number
    monkeypatch.setattr(families, "domb_number", lambda n: term_sum(n) + (n == 39))
    with pytest.raises(ArithmeticError, match="n=39"):
        families.domb_numbers(40)
    assert families.domb_numbers(39)[-1] == term_sum(38)


def test_domb_numbers_match_the_row_sum():
    for n in range(564):
        assert domb_number(n) == row_domb_number(n), n


@pytest.mark.parametrize("seed", range(3))
def test_triangular_array_rows_match_binomial_formula(seed):
    """Fresh arrays, every cell of rows 0..80 plus out-of-range k, in a random
    order, so a row is first filled from any of its cells."""
    formulas = {
        "domb_a": lambda n, k: math.comb(n, k) ** 2 * math.comb(2 * n - 2 * k, n - k),
        "narayana_a": lambda n, k: math.comb(n, k) ** 2,
    }
    cells = [(n, k) for n in range(81) for k in range(-2, n + 3)]
    for kind, formula in formulas.items():
        array = TriangularArray(kind)
        random.Random(seed).shuffle(cells)
        for n, k in cells:
            assert array(n, k) == (formula(n, k) if 0 <= k <= n else 0), (kind, n, k)
        fresh = TriangularArray(kind)
        for n in random.Random(seed).sample(range(81), 81):
            assert fresh.row(n) == tuple(formula(n, k) for k in range(n + 1)) == array.row(n)
        with pytest.raises(ValueError):
            fresh.row(-1)


@pytest.mark.parametrize("seed", range(2))
def test_central_binomials_grow_one_shared_list(monkeypatch, seed):
    """Requests in a shuffled order of n, from a fresh memo: each is the
    exact prefix, the memo ends as C(2j, j) for j <= 600, and changing a
    returned list leaves the memo alone."""
    monkeypatch.setattr(families, "_CENTRAL_BINOMIALS", [1])
    expected = [math.comb(2 * j, j) for j in range(601)]
    for n in random.Random(seed).sample(range(601), 601):
        served = families._central_binomials(n)
        assert served == expected[:n + 1], n
        served[-1] += 1
    assert families._CENTRAL_BINOMIALS == expected


def test_domb_number_equals_evaluation_at_one():
    for n in range(60):
        assert domb_number(n) == family_poly("D", n)(1)


def _assembly(array, n, weighted):
    """sum_k a(n,k) u_k q^k, with u_k = C(2k, k) if weighted, else u_k = 1."""
    return Poly([a * (_comb_central(k) if weighted else 1) for k, a in enumerate(array.row(n))])


def test_weighted_assembly_examples():
    assert _assembly(DOMB_ARRAY, 2, weighted=True) == family_poly("D", 2)
    assert _assembly(NARAYANA_ARRAY, 2, weighted=True) == Poly([1, 8, 6])
    assert _assembly(NARAYANA_ARRAY, 3, weighted=False) == Poly([1, 9, 9, 1])


def test_weighted_assembly_matches_families_up_to_150():
    for n in range(151):
        assert _assembly(DOMB_ARRAY, n, weighted=True) == family_poly("D", n)
        assert _assembly(NARAYANA_ARRAY, n, weighted=True) == family_poly("V", n)
        assert _assembly(NARAYANA_ARRAY, n, weighted=False) == family_poly("W", n)


def test_domb_self_reciprocity_and_symmetry_up_to_150():
    for n in range(151):
        coeffs = family_poly("D", n).coeffs
        assert len(coeffs) == n + 1 and coeffs == coeffs[::-1]
        assert family_poly("W", n).coeffs == family_poly("W", n).coeffs[::-1]
        f = family_poly("F", n).coeffs
        assert len(f) == n + 1 and (f == f[::-1]) == (n == 0)


def test_domb_numbers_positive_and_increasing_to_300():
    previous = 0
    for n in range(301):
        value = domb_number(n)
        assert value > previous
        previous = value



# --- the recurrences in n that the qlc sweep advances W and F by -----------------

@pytest.mark.parametrize("tag", ["W", "F"])
def test_row_recurrences_hold_on_rows_from_the_binomial_memo(tag):
    # rows from family_coefficient, not from _family_row's row recurrences
    start, recurrence = families.ROW_RECURRENCES[tag]
    rows = [Poly([family_coefficient(tag, m, k) for k in range(m + 1)]) for m in range(302)]
    for n in range(start, 301):
        c0, coeffs = recurrence(n)
        rhs = Poly()
        for j, a in enumerate(coeffs, start=1):
            rhs = rhs + Poly(a) * rows[n + 1 - j]
        assert rows[n + 1] * c0 == rhs, n


def test_w_recurrence_follows_from_legendre():
    # W_n(q) = (1-q)^n P_n((1+q)/(1-q)); multiplying Legendre's
    # (n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x) by (1-q)^(n+1) at
    # x = (1+q)/(1-q) gives the table's coefficients
    sympy = pytest.importorskip("sympy")
    q, x = sympy.symbols("q x")
    at = (1 + q) / (1 - q)

    def w(n):
        # sum_i c_i x^i at x = (1+q)/(1-q), times (1-q)^n, term by term
        coeffs = reversed(sympy.Poly(sympy.legendre(n, x), x).all_coeffs())
        plus, minus = sympy.Poly(1 + q, q), sympy.Poly(1 - q, q)
        return sum((plus ** i * minus ** (n - i) * c for i, c in enumerate(coeffs)),
                   sympy.Poly(0, q))

    start, recurrence = families.ROW_RECURRENCES["W"]
    for n in range(start, 25):
        assert sympy.expand((n + 1) * sympy.legendre(n + 1, x) - (2 * n + 1) * x * sympy.legendre(n, x)
                            + n * sympy.legendre(n - 1, x)) == 0
        legendre_a = [sympy.Poly(sympy.cancel(term), q) for term in
                      ((2 * n + 1) * at * (1 - q), -n * (1 - q) ** 2)]
        c0, coeffs = recurrence(n)
        assert c0 == n + 1
        assert [list(reversed(a.all_coeffs())) for a in legendre_a] == [list(a) for a in coeffs]
        assert list(reversed(w(n).all_coeffs())) == list(family_poly("W", n).coeffs)
