import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlogconvex import criteria, families
from qlogconvex.criteria import (
    _at_slot,
    _exact_quotient,
    _negative_ends,
    _qlc_recurrence_chunk,
    _slot_bytes,
    _slot_terms,
    criterion_c2_sweep,
    log_convex_check,
    op_L,
    q_log_convex_direct,
    qlc_ranges,
    root_monotonicity_check,
    single_crossing,
)
from qlogconvex.families import (
    DOMB_ARRAY,
    NARAYANA_ARRAY,
    ROW_RECURRENCES,
    domb_number,
)
from qlogconvex.polynomials import Poly, _kronecker_negative_ends, _kronecker_pack
from qlogconvex import proofpolys
from qlogconvex.verification import qlc_check

BOUNDARY_VALUES = {
    (1, 0): 4, (1, 1): 4,
    (2, 0): 8, (2, 1): 32, (2, 2): 24,
    (3, 0): 40, (3, 1): 320, (3, 2): 646, (3, 3): 152,
    (4, 0): 280, (4, 1): 3808, (4, 2): 14296, (4, 3): 7772, (4, 4): 860,
}


def test_operator_boundary_table():
    for (n, t), expected in BOUNDARY_VALUES.items():
        assert op_L(DOMB_ARRAY, n, t, 0) == expected


def test_operator_interior_value():
    assert op_L(DOMB_ARRAY, 2, 2, 1) == -20  # 54 + 54 - 2*8*8


def test_operator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        op_L(DOMB_ARRAY, 0, 0, 0)
    with pytest.raises(ValueError):
        op_L(DOMB_ARRAY, 2, 5, 0)
    with pytest.raises(ValueError):
        op_L(DOMB_ARRAY, 2, 2, 2)  # k > t/2


def test_single_crossing_examples():
    assert single_crossing([4, 2, -1]) is None
    assert single_crossing([5, 0, 3]) is None
    assert single_crossing([-1, 3]) == 1
    assert single_crossing([2, -1, 0, -4, 7, 9]) == 4  # the first positive after a negative


def test_single_crossing_zero_handling():
    assert single_crossing([4, 0, -1]) is None  # zero joins the prefix
    assert single_crossing([-1, 0, -2]) is None  # empty nonnegative prefix, zero in the tail
    assert single_crossing([0]) is None
    assert single_crossing([0, -1, 0, 2]) == 3
    with pytest.raises(ValueError):
        single_crossing([])


def _crossing_by_definition(values) -> int | None:
    """None when some k has values[:k+1] >= 0 and values[k+1:] <= 0, else the
    first positive value with a negative value before it."""
    if any(all(v >= 0 for v in values[:k + 1]) and all(v <= 0 for v in values[k + 1:])
           for k in range(-1, len(values))):
        return None
    return next(j for j, v in enumerate(values) if v > 0 and any(u < 0 for u in values[:j]))


@st.composite
def _sign_sequences(draw):
    """Short integer lists, half of them a nonnegative prefix and a
    nonpositive tail, some of those with one entry flipped in sign."""
    small = st.integers(min_value=-3, max_value=3)
    if draw(st.booleans()):
        return draw(st.lists(small, min_size=1, max_size=12))
    head = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=6))
    tail = draw(st.lists(st.integers(min_value=-3, max_value=0), max_size=6))
    values = head + tail or [0]
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(values) - 1))
        values[i] = -values[i]
    return values


@given(_sign_sequences())
@settings(max_examples=400, deadline=None)
def test_single_crossing_matches_its_definition(values):
    assert single_crossing(values) == _crossing_by_definition(values)


def test_c2_sweep_examples(monkeypatch):
    assert criterion_c2_sweep(DOMB_ARRAY, 2) is None
    assert [op_L(DOMB_ARRAY, 2, 2, k) for k in range(2)] == [24, -20]
    assert criterion_c2_sweep(DOMB_ARRAY, 1) is None
    assert op_L(DOMB_ARRAY, 4, 4, 0) == 860
    # an operator that turns from negative to positive from t = 3 on: the
    # sweep answers the first such t
    monkeypatch.setattr(criteria, "op_L", lambda a, n, t, k: (-1, 1)[k % 2] if t >= 3 else 1)
    assert criterion_c2_sweep(DOMB_ARRAY, 2) is None
    assert criterion_c2_sweep(DOMB_ARRAY, 5) == 3


def test_c2_sweep_passes_small_range():
    for n in range(1, 41):
        assert criterion_c2_sweep(DOMB_ARRAY, n) is None


def test_boundary_nonnegativity_up_to_150():
    for n in range(1, 151):
        for t in range(n + 1):
            assert op_L(DOMB_ARRAY, n, t, 0) >= 0


def test_sign_coincidence_with_psi():
    # operator sign equals psi sign except at (t, k) = (n, 0), where they flip
    for n in range(1, 31):
        for t in range(n + 1):
            psi = proofpolys.psi_poly(n, t)
            for k in range(t // 2 + 1):
                sign_l = (op_L(DOMB_ARRAY, n, t, k) > 0) - (op_L(DOMB_ARRAY, n, t, k) < 0)
                value = psi(k)
                sign_p = (value > 0) - (value < 0)
                if t == n and k == 0:
                    assert sign_l == -sign_p
                else:
                    assert sign_l == sign_p, (n, t, k)


def test_log_convex_check_examples():
    assert log_convex_check([1, 4, 28, 256]) is None
    assert log_convex_check([1, 2, 3]) == 1
    assert log_convex_check([1, 2, 6, 20]) is None
    assert log_convex_check([1, 2, 4, 8]) == 1  # equality fails
    assert log_convex_check([1, 2, 6, 18]) == 2


@st.composite
def _positive_sequences(draw):
    """Positive integer lists of 3 to 10 entries: random ones, and
    b^(i^2) c^i (strictly log-convex for b >= 2, geometric for b = 1) with
    possibly one entry moved by at most 2."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(min_value=1, max_value=40), min_size=3, max_size=10))
    b, c = draw(st.integers(min_value=1, max_value=3)), draw(st.integers(min_value=1, max_value=5))
    seq = [b ** (i * i) * c**i for i in range(draw(st.integers(min_value=3, max_value=10)))]
    i = draw(st.integers(min_value=0, max_value=len(seq) - 1))
    seq[i] = max(1, seq[i] + draw(st.integers(min_value=-2, max_value=2)))
    return seq


@given(_positive_sequences())
@settings(max_examples=400, deadline=None)
def test_log_convex_check_matches_a_scan_of_the_ratios(seq):
    # strict log-convexity is ratios a[i+1]/a[i] strictly increasing
    ratios = [Fraction(seq[i + 1], seq[i]) for i in range(len(seq) - 1)]
    first = next((i for i in range(1, len(seq) - 1) if ratios[i] <= ratios[i - 1]), None)
    assert log_convex_check(seq) == first


def test_log_convex_check_rejects_bad_input():
    with pytest.raises(ValueError):
        log_convex_check([1, 2])
    with pytest.raises(ValueError):
        log_convex_check([1, 0, 2])


def _defect(tag, n):
    """P_{n+1} P_{n-1} - P_n^2, from the rows where the qlc chunks read them
    (``criteria.family_poly``, which a test may tamper with)."""
    row = criteria.family_poly
    return row(tag, n + 1) * row(tag, n - 1) - row(tag, n) ** 2


def _ends(coeffs):
    negative = [i for i, c in enumerate(coeffs) if c < 0]
    return (negative[0], negative[-1]) if negative else (None, None)


def _direct_rows(tag, n_max):
    """(n, first, last negative defect index) for n = 1..n_max, from
    defects computed here."""
    return [(n, *_ends(_defect(tag, n).coeffs)) for n in range(1, n_max + 1)]


def test_qlc_direct_hand_computed_defects():
    assert _defect("D", 1) == Poly([2, 8, 2])
    assert _defect("V", 1) == Poly([0, 4, 2])
    assert _defect("W", 1) == Poly([0, 2])
    assert [q_log_convex_direct(tag, 1) for tag in ("D", "V", "W")] == [[(1, None, None)]] * 3


def test_qlc_direct_rejects_bad_bound():
    for n_max, lo in ((0, 1), (5, 0), (5, 6)):
        with pytest.raises(ValueError):
            q_log_convex_direct("D", n_max, lo)


def test_qlc_direct_parallel_matches_serial():
    # the pooled D ranges send back indices, not defects
    _record, pooled = qlc_check("D", 8, jobs=2)
    assert pooled == _direct_rows("D", 8)


@settings(max_examples=200, deadline=None)
@given(n_max=st.integers(1, 400), parts=st.integers(1, 8))
def test_qlc_ranges_cut_equal_shares_of_n_squared(n_max, parts):
    ranges = qlc_ranges(n_max, parts)
    assert len(ranges) == min(n_max, parts)
    assert ranges[0][0] == 1 and ranges[-1][1] == n_max
    assert all(lo <= hi for lo, hi in ranges)
    assert all(prev[1] + 1 == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
    share = sum(n**2 for n in range(1, n_max + 1)) / len(ranges)
    assert all(abs(sum(n**2 for n in range(lo, hi + 1)) - share) <= n_max**2 for lo, hi in ranges)


@pytest.mark.parametrize("n_max, jobs", [(1, 2), (5, 2), (150, 2), (150, 3)])
def test_qlc_ranges_for_recurrences_give_one_range_per_worker_at_n_squared(n_max, jobs):
    ranges = qlc_ranges(n_max, jobs)
    assert ranges[0][0] == 1 and ranges[-1][1] == n_max
    assert all(prev[1] + 1 == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
    assert len(ranges) == min(n_max, jobs)
    share = sum(n**2 for n in range(1, n_max + 1)) / len(ranges)
    assert all(sum(n**2 for n in range(lo, hi + 1)) < share + hi**2 for lo, hi in ranges)


@pytest.mark.parametrize("n_max, jobs, expected", [
    (1, 2, [(1, 1)]),
    (5, 2, [(1, 4), (5, 5)]),
    (150, 2, [(1, 119), (120, 150)]),
    (150, 3, [(1, 104), (105, 131), (132, 150)]),
    (40, 8, [(1, 20), (21, 26), (27, 29), (30, 32), (33, 35), (36, 37), (38, 39), (40, 40)]),
], ids=["1-2", "5-2", "150-2", "150-3", "40-8"])
def test_qlc_ranges_tile_the_range_with_balanced_cost(n_max, jobs, expected):
    # the cuts of the plans that the tests and the benchmark's pooled run read
    assert qlc_ranges(n_max, jobs) == expected


def test_qlc_chunks_agree_with_one_serial_chunk():
    defects = [(-1, 0, 3), (2, -5, 0, -1, 4), (1, 2), ()]
    ends = [(0, 0), (1, 3), (None, None), (None, None)]
    assert [_negative_ends(d) for d in defects] == ends
    for size in (1, 2, 9):
        assert [_kronecker_negative_ends(_kronecker_pack(d, size), len(d), size)
                for d in defects] == ends
    for tag in ("V", "F"):
        whole = q_log_convex_direct(tag, 30)
        assert whole == _direct_rows(tag, 30)
        for parts in (2, 3, 8):
            pieces = [row for lo, hi in qlc_ranges(30, parts)
                      for row in q_log_convex_direct(tag, hi, lo)]
            assert pieces == whole



# --- W and F defects advanced by their recurrences in n -----------------------------

@pytest.mark.parametrize("tag", ["W", "F"])
@pytest.mark.parametrize("n_max", [1, 2, 3, 60, 160])
def test_recurrence_rows_match_the_direct_products(tag, n_max):
    assert _qlc_recurrence_chunk((tag, 1, n_max)) == _direct_rows(tag, n_max)


@pytest.mark.parametrize("tag", ["W", "F"])
def test_recurrence_ranges_seeded_at_lo_agree_with_one_run(tag):
    whole = _qlc_recurrence_chunk((tag, 1, 40))
    for lo in range(1, 41):
        for hi in (lo, min(lo + 1, 40), min(lo + 4, 40), 40):
            assert _qlc_recurrence_chunk((tag, lo, hi)) == whole[lo - 1:hi], (lo, hi)
    for parts in (2, 3, 8):
        pooled = [row for lo, hi in qlc_ranges(40, parts)
                  for row in _qlc_recurrence_chunk((tag, lo, hi))]
        assert pooled == whole


def _at_slot_by_definition(coeffs, values, shift):
    """sum_j sum_i a_j[i] values[j] 2^(shift i)."""
    return sum((a[i] * v) << (shift * i) for a, v in zip(coeffs, values) for i in range(len(a)))


@pytest.mark.parametrize("coeffs", [
    (),
    ((0,),),
    ((1, 0, 0),),  # the top power has no nonzero term, yet shifts
    ((0, 0, 5), (3,), (0,), (-2, 0, 0, 7)),
    ((4, -1), (0, 0, 0, -9), (0, 6)),
    *(ROW_RECURRENCES[tag][1](n)[1] for tag in ("W", "F") for n in (1, 2, 3, 40, 159, 200)),
])
def test_at_slot_matches_the_sum_of_shifted_terms(coeffs):
    rng = random.Random(len(coeffs))
    for shift in (8, 64, 656):
        for _ in range(4):
            values = [rng.randint(-(1 << 2000), 1 << 2000) for _ in coeffs]
            assert _at_slot(_slot_terms(coeffs), values, shift) == \
                _at_slot_by_definition(coeffs, values, shift)
    terms = _slot_terms(coeffs)
    # one term per nonzero coefficient, none for a zero
    assert sum(map(len, terms)) == sum(c != 0 for a in coeffs for c in a)


def test_slot_bytes_leaves_a_spare_bit_in_the_fewest_bytes():
    for bits in range(1, 300):
        for bound in (1 << (bits - 1), (1 << bits) - 1):
            size = _slot_bytes(bound)
            assert 8 * size - 1 > bits
            assert 8 * (size - 1) - 1 <= bits


def test_exact_quotient_refuses_a_remainder():
    assert _exact_quotient(-12, 4) == -3
    assert _exact_quotient(3 << 500, 3) == 1 << 500
    for value, divisor in ((7, 2), (-7, 2), ((1 << 500) + 1, 3)):
        with pytest.raises(ArithmeticError):
            _exact_quotient(value, divisor)


def _tamper_rows(monkeypatch, tag, m, k, factor):
    """Scale coefficient k (taken modulo the row length) of ``tag``'s row m
    where the qlc chunks read it; ``families._family_row`` stays as it is."""
    original = families.family_poly

    def tampered(family, row_m):
        row = list(original(family, row_m).coeffs)
        if (family, row_m) == (tag, m):
            row[k % len(row)] *= factor
        return Poly(row)

    monkeypatch.setattr(criteria, "family_poly", tampered)


TAMPER_N_MAX = 24


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(["W", "F"]),
       m=st.sampled_from([0, 1, 2, 3, 4, 13, TAMPER_N_MAX + 1]),
       k=st.integers(0, 30),
       factor=st.sampled_from([2, 3, 10**6, 2**200]))
def test_tampered_rows_match_the_direct_products(tag, m, k, factor):
    # row 0, the rows below and at each recurrence's first n, an interior row
    # and the last row read; a factor of 2^200 makes the tampered row set the slot
    with pytest.MonkeyPatch.context() as monkeypatch:
        _tamper_rows(monkeypatch, tag, m, k, factor)
        direct = _direct_rows(tag, TAMPER_N_MAX)
        assert _qlc_recurrence_chunk((tag, 1, TAMPER_N_MAX)) == direct
        for parts in (2, 3):
            for lo, hi in qlc_ranges(TAMPER_N_MAX, parts):
                assert _qlc_recurrence_chunk((tag, lo, hi)) == direct[lo - 1:hi]


@pytest.mark.parametrize("tag", ["W", "F"])
@pytest.mark.parametrize("which", ["c0", "a"])
def test_a_wrong_recurrence_reseeds_every_step(monkeypatch, tag, which):
    start, recurrence = ROW_RECURRENCES[tag]

    def off_by_one(n):
        c0, coeffs = recurrence(n)
        if which == "c0":
            return c0 + 1, coeffs
        return c0, ((coeffs[0][0] + 1,) + coeffs[0][1:],) + coeffs[1:]

    divisions = []
    monkeypatch.setitem(ROW_RECURRENCES, tag, (start, off_by_one))
    monkeypatch.setattr(criteria, "_exact_quotient",
                        lambda value, divisor: divisions.append(divisor) or value // divisor)
    assert _qlc_recurrence_chunk((tag, 1, 30)) == _direct_rows(tag, 30)
    assert divisions == []  # no step advanced by the wrong recurrence

    monkeypatch.setitem(ROW_RECURRENCES, tag, (start, recurrence))
    assert _qlc_recurrence_chunk((tag, 1, 30)) == _direct_rows(tag, 30)
    assert divisions  # the true one does advance


def _schoolbook_rows(tag, n_max):
    """(n, first, last negative defect index) for n = 1..n_max, each defect
    multiplied out by a schoolbook loop over the rows the qlc chunks read,
    with no ``Poly`` arithmetic in between."""
    rows = [criteria.family_poly(tag, m).coeffs for m in range(n_max + 2)]

    def product(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    out = []
    for n in range(1, n_max + 1):
        outer, square = product(rows[n + 1], rows[n - 1]), product(rows[n], rows[n])
        outer += [0] * (len(square) - len(outer))
        square += [0] * (len(outer) - len(square))
        out.append((n, *_ends([x - y for x, y in zip(outer, square)])))
    return out


@pytest.mark.parametrize("tag", ["D", "W", "V", "F"])
@pytest.mark.parametrize("tamper", [None, (13, 4, 3)])
def test_every_qlc_engine_gives_the_schoolbook_rows(monkeypatch, tag, tamper):
    # untampered every row passes; with row 13 tripled at coefficient 4 the
    # defects that read it turn negative, and each engine must say where
    n_max = 40
    if tamper is not None:
        _tamper_rows(monkeypatch, tag, *tamper)
    expected = _schoolbook_rows(tag, n_max)
    failing = [n for n, first, _last in expected if first is not None]
    assert failing == ([] if tamper is None else [13])
    assert q_log_convex_direct(tag, n_max) == expected
    for jobs in (2, 3):
        assert [row for lo, hi in qlc_ranges(n_max, jobs)
                for row in q_log_convex_direct(tag, hi, lo)] == expected
    if tag in ROW_RECURRENCES:
        assert _qlc_recurrence_chunk((tag, 1, n_max)) == expected
        assert [row for lo, hi in qlc_ranges(n_max, 2)
                for row in _qlc_recurrence_chunk((tag, lo, hi))] == expected


def test_defects_survive_pickling():
    defect = _defect("W", 6)
    assert pickle.loads(pickle.dumps(defect)) == defect


def test_qlc_at_one_implies_number_log_convexity():
    assert q_log_convex_direct("D", 30) == [(n, None, None) for n in range(1, 31)]
    # evaluating the defect at q = 1 gives the log-convexity gap of the numbers
    for n in range(1, 31):
        gap = domb_number(n + 1) * domb_number(n - 1) - domb_number(n) ** 2
        assert _defect("D", n)(1) == gap >= 0
    assert log_convex_check([domb_number(n) for n in range(32)]) is None


def test_monotonicity_examples():
    d = [domb_number(n) for n in range(5)]
    assert d == [1, 4, 28, 256, 2716]
    ratios = [Fraction(d[n + 1], d[n]) for n in range(3)]
    assert ratios == [Fraction(4), Fraction(7), Fraction(64, 7)]
    assert ratios == sorted(ratios)
    assert d[2] ** 1 > d[1] ** 2  # 28 > 16
    assert d[2] ** 6 == 481890304 > 268435456 == d[1] ** 6 * d[3] ** 2


def test_monotonicity_report_small_range():
    assert root_monotonicity_check(25, 15) == (None, None, None)


def _root_monotonicity_reference(numbers: list, n_max: int, root_ratio_n_max: int) -> tuple:
    """root_monotonicity_check's three answers by direct loops over every n,
    in exact powers: ratio growth, every n-th root from n = 1, root ratios."""
    ratio = next((n for n in range(n_max)
                  if numbers[n] * numbers[n + 2] <= numbers[n + 1] ** 2), None)
    root = next((n for n in range(1, n_max + 1)
                 if numbers[n + 1] ** n <= numbers[n] ** (n + 1)), None)
    root_ratio = next((n for n in range(1, root_ratio_n_max + 1)
                       if numbers[n + 1] ** (2 * n * (n + 2))
                       <= numbers[n] ** ((n + 1) * (n + 2)) * numbers[n + 2] ** (n * (n + 1))),
                      None)
    return ratio, root, root_ratio


@pytest.mark.parametrize("tamper, expected, nth_root_compares", [
    ({}, (None, None, None), 0),
    ({30: lambda d: 2 * d}, (29, 30, None), 1),  # the n-th root fails where ratio growth does
    ({30: lambda d: d + d // 20}, (29, None, None), 31),  # ratio growth alone fails
    ({40: lambda d: d // 3}, (38, 39, None), 1),
    ({0: lambda d: 2}, (None, None, None), 60),  # D_0 = 2: no lemma, every n compared
    # D_0 = 2 and D_1 = 6 keep log D convex, yet D_2^(1/2) < D_1
    ({0: lambda d: 2, 1: lambda d: 6}, (None, 1, 1), 1),
])
def test_monotonicity_matches_the_direct_loops_around_a_tampered_domb_number(
        monkeypatch, tamper, expected, nth_root_compares):
    # with D_0 = 1 the n-th roots are compared only from the first failure
    # of ratio growth; the answers are those of the loops over every n
    n_max, root_ratio_n_max = 60, 20
    original = families.domb_numbers

    def tampered(stop):
        numbers = original(stop)
        for n, change in tamper.items():
            numbers[n] = change(numbers[n])
        return numbers

    compares = []
    compare = criteria.compare_products
    monkeypatch.setattr(criteria, "domb_numbers", tampered)
    monkeypatch.setattr(criteria, "compare_products",
                        lambda lhs, rhs: compares.append(len(lhs + rhs)) or compare(lhs, rhs))
    numbers = tampered(n_max + 3)
    assert _root_monotonicity_reference(numbers, n_max, root_ratio_n_max) == expected
    assert root_monotonicity_check(n_max, root_ratio_n_max) == expected
    assert compares.count(2) == nth_root_compares  # the root ratios compare three powers


def test_monotonicity_rejects_tiny_bound():
    with pytest.raises(ValueError):
        root_monotonicity_check(1, 1)
