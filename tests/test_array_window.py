"""The triangular arrays keep a window of three rows.

Every reader of the Domb array takes rows n - 1, n and n + 1 at a time, so
the memo holds at most three rows, an ascending sweep still builds each row
once, and the memory a sweep holds is that of a few rows, not of all of them.
"""

import collections
import sys
import tracemalloc

import pytest

from qlogconvex.criteria import criterion_c2_sweep
from qlogconvex.families import (
    DOMB_ARRAY,
    NARAYANA_ARRAY,
    TriangularArray,
    _family_row,
    family_coefficient,
)
from qlogconvex.verification import factorization_sweep, verify_prop31


def test_sweeps_leave_at_most_three_rows():
    verify_prop31(200)
    assert len(DOMB_ARRAY._memo) <= 3
    factorization_sweep(30)
    assert len(DOMB_ARRAY._memo) <= 3


def _c2_sweeps(n_max):
    for n in range(1, n_max + 1):
        criterion_c2_sweep(DOMB_ARRAY, n)


# sweep, its n_max; each reads rows 0..n_max + 1
ASCENDING_SWEEPS = {
    "prop31": (verify_prop31, 40),
    "factorization": (factorization_sweep, 12),
    "c2": (_c2_sweeps, 40),
}


@pytest.mark.parametrize("name", sorted(ASCENDING_SWEEPS))
def test_ascending_sweeps_build_each_row_once(monkeypatch, name):
    sweep, n_max = ASCENDING_SWEEPS[name]
    built = collections.Counter()
    original = TriangularArray._row

    def spy(array, n):
        built[array.kind, n] += 1
        return original(array, n)

    monkeypatch.setattr(TriangularArray, "_row", spy)
    monkeypatch.setattr(DOMB_ARRAY, "_memo", {})
    sweep(n_max)
    assert built == {("domb_a", n): 1 for n in range(n_max + 2)}


@pytest.mark.parametrize("array, tag", [(DOMB_ARRAY, "F"), (NARAYANA_ARRAY, "W")])
def test_a_row_read_back_after_eviction_is_rebuilt_exactly(array, tag):
    first = array.row(10)
    for n in (20, 21, 22):
        array.row(n)
    assert 10 not in array._memo and len(array._memo) == 3
    again = array.row(10)
    expected = tuple(_family_row(tag, 10))
    assert again == first == expected
    assert again == tuple(family_coefficient(tag, 10, k) for k in range(11))
    assert [array(10, k) for k in range(-1, 12)] == [0, *expected, 0]


def test_prop31_holds_a_few_rows_not_all_of_them(monkeypatch):
    n_max = 240
    rows = [tuple(_family_row("F", n)) for n in range(n_max + 2)]
    all_rows = sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in rows)
    del rows
    monkeypatch.setattr(DOMB_ARRAY, "_memo", {})
    tracemalloc.start()
    try:
        verify_prop31(n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_rows / 3, (peak, all_rows)
