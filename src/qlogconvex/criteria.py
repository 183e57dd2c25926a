"""Log-convexity and q-log-convexity checkers and the triangular-array operators.

The central object is the bilinear operator on a triangular array a(n, k)

    L_t(a(n,k)) = a(n+1,k) a(n-1,t-k) + a(n-1,k) a(n+1,t-k) - 2 a(n,k) a(n,t-k)

whose sign pattern over k = 0..floor(t/2) decides whether the weighted
assembly of the array stays q-log-convex.

q-log-convexity is checked on the defects P_{n+1} P_{n-1} - P_n^2 in two
ways, and both give one row per n, (n, first negative, last negative defect
coefficient index), with (n, None, None) for a defect that has no negative
coefficient; no defect outlives its row.  ``q_log_convex_direct`` (and
``_qlc_chunk``) multiplies both products out for every n, for any family;
it serves D's records.  ``_qlc_recurrence_chunk`` serves the W and F
records: it carries the products from n to n + 1 by the family's recurrence
in n (``families.ROW_RECURRENCES``) at one packed point, which is linear in
the size of the numbers per step instead of one big multiply, and falls
back to direct products wherever the recurrence is not checked to hold on
the rows read.  It never unpacks a defect: with 2^(8s - 1) added to each
s-byte slot, a slot's top bit is clear exactly where the defect coefficient
is negative (``_kronecker_negative_ends``), which is exact because the slot
keeps every coefficient below 2^(8s - 2) in absolute value.  Both
``check qlc`` and the certificate reach them through
``verification._qlc_claim``, serially or from the results of a pooled run's
one map (``verification._qlc_tasks`` lists the ranges).
"""

from __future__ import annotations

from typing import Sequence

from .families import ROW_RECURRENCES, TriangularArray, domb_numbers, family_poly
from .hiprec import compare_products
from .polynomials import _kronecker_negative_ends, _kronecker_pack


def single_crossing(values: Sequence[int]) -> int | None:
    """None if ``values`` is a nonnegative prefix followed by a nonpositive
    tail, zeros fitting either sign; else the index of the first positive
    value that follows a negative one.
    """
    if len(values) == 0:
        raise ValueError("single_crossing needs a nonempty sequence")
    first_negative = next((i for i, v in enumerate(values) if v < 0), len(values))
    return next((j for j in range(first_negative + 1, len(values)) if values[j] > 0), None)


def log_convex_check(seq: Sequence[int]) -> int | None:
    """Verify a[n-1]*a[n+1] > a[n]^2 for every interior n.

    Returns None on success, else the first failing interior index.
    """
    if len(seq) < 3:
        raise ValueError("log-convexity needs at least three entries")
    if any(v <= 0 for v in seq):
        raise ValueError("log-convexity check requires positive entries")
    for i in range(1, len(seq) - 1):
        if seq[i - 1] * seq[i + 1] <= seq[i] * seq[i]:
            return i
    return None


def _check_operator_args(n: int, t: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"operator needs n >= 1, got {n}")
    if t < 0 or t > 2 * n:
        raise ValueError(f"operator needs 0 <= t <= 2n, got t={t} for n={n}")
    if k < 0 or 2 * k > t:
        raise ValueError(f"operator needs 0 <= k <= t/2, got k={k} for t={t}")


def op_L(a: TriangularArray, n: int, t: int, k: int) -> int:
    """L_t(a(n,k)); out-of-range array entries contribute zero."""
    _check_operator_args(n, t, k)
    return (
        a(n + 1, k) * a(n - 1, t - k)
        + a(n - 1, k) * a(n + 1, t - k)
        - 2 * a(n, k) * a(n, t - k)
    )


def criterion_c2_sweep(a: TriangularArray, n: int) -> int | None:
    """None if [L_t(a(n,k))]_k crosses zero once (``single_crossing``) for
    each t in 0..n, the hypothesis range of the self-reciprocal criterion
    (the operator itself is defined up to 2n); else the first t that does
    not.
    """
    return next((t for t in range(n + 1)
                 if single_crossing([op_L(a, n, t, k) for k in range(t // 2 + 1)]) is not None),
                None)


def _negative_ends(coeffs: Sequence[int]) -> tuple[int | None, int | None]:
    """The first and last index of a negative coefficient, or (None, None)."""
    negative = [i for i, c in enumerate(coeffs) if c < 0]
    return (negative[0], negative[-1]) if negative else (None, None)


def qlc_ranges(n_max: int, jobs: int, per_job: int = 4,
               power: int = 3) -> list[tuple[int, int]]:
    """Split 1..n_max into about per_job * jobs contiguous ranges of about
    equal cost, n costing n^power; a range ends where the running cost
    first reaches its share of the total.

    The defaults are D's: its defect at n multiplies polynomials of degree
    n whose coefficients have O(n) bits, about n^3, and several ranges per
    worker keep the workers evenly busy.  A W or F range of
    ``_qlc_recurrence_chunk`` costs about n^2 per step plus a few direct
    products at its first rows, which every extra range pays again, so
    those take one range per worker at n^2 (``per_job=1, power=2``): with
    two workers on two cores that halved the pooled W and F time at
    n_max = 150 against D's split, 0.13 s against 0.22 s.
    """
    count = min(n_max, per_job * jobs)
    total = sum(n**power for n in range(1, n_max + 1))
    ranges, lo, cost = [], 1, 0
    for n in range(1, n_max + 1):
        cost += n**power
        if cost * count >= total * (len(ranges) + 1):
            ranges.append((lo, n))
            lo = n + 1
    return ranges


def _qlc_chunk(task: tuple[str, int, int]) -> list[tuple[int, int | None, int | None]]:
    """(n, first, last negative defect index) for one family and n = lo..hi,
    each defect P_{n+1} P_{n-1} - P_n^2 multiplied out by ``Poly.__mul__``.

    Each row lo-1..hi+1 is built once, as the sweep reaches it, and only
    the three that the current defect reads are held; a defect is dropped
    once its two indices are read, so a chunk holds no more than one.
    """
    tag, lo, hi = task
    below, here = family_poly(tag, lo - 1), family_poly(tag, lo)
    rows = []
    for n in range(lo, hi + 1):
        above = family_poly(tag, n + 1)
        rows.append((n, *_negative_ends((above * below - here * here).coeffs)))
        below, here = here, above
    return rows


def _slot_bytes(bound: int) -> int:
    """The fewest bytes s with 8 s - 1 > bound.bit_length(), so that a slot of
    8 s bits holds every integer of absolute value at most ``bound``, with a
    bit to spare."""
    return (bound.bit_length() + 1) // 8 + 1


def _slot_terms(coeffs: tuple) -> list[list[tuple[int, int]]]:
    """The a_j of ``coeffs``, each given by its integer coefficients
    ascending in q, as ``_at_slot`` reads them: for each power i of q,
    highest first, the pairs (j, a_j[i]) with a_j[i] nonzero."""
    return [[(j, a[i]) for j, a in enumerate(coeffs) if i < len(a) and a[i]]
            for i in range(max(map(len, coeffs), default=0) - 1, -1, -1)]


def _at_slot(terms: list[list[tuple[int, int]]], values: list[int], shift: int) -> int:
    """sum_j a_j(X) values[j] at X = 2^shift, the a_j given as ``_slot_terms``:
    by Horner in X, one small multiple added in per nonzero a_j[i]."""
    total = 0
    for power in terms:
        total <<= shift
        for j, c in power:
            total += c * values[j]
    return total


def _exact_quotient(value: int, divisor: int) -> int:
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise ArithmeticError(f"recurrence step leaves remainder {remainder} "
                              f"on division by {divisor}")
    return quotient


def _qlc_recurrence_chunk(task: tuple[str, int, int]) -> list[tuple[int, int | None, int | None]]:
    """(n, first, last negative defect index) for n = lo..hi of a family in
    ``ROW_RECURRENCES`` (W and F), as ``_qlc_chunk`` reads them, with the
    products advanced by the family's recurrence instead of multiplied out.

    Every row lo-1..hi+1 is packed at one X = 2^w, and the products
    p(a, b) = P_a(X) P_b(X) of rows less than r apart are carried along.  If
    c0 P_{n+1} = sum_j a_j P_{n+1-j} at X, multiplying by P_{n+1-d}(X) gives

        c0 p(n+1, n+1-d) = sum_j a_j(X) p(n+1-j, n+1-d)   for d = 1..r,
        c0 p(n+1, n+1)   = sum_j a_j(X) p(n+1, n+1-j),

    so each new product costs a few small multiples, shifts and one exact
    division by c0 (a remainder raises ``ArithmeticError``).  That premise is
    checked at X for every row it advances to; below the recurrence's first
    n, at the first rows of the range and wherever the check fails (a
    tampered row), the products are multiplied directly instead.  Either way
    each p is exactly P_a(X) P_b(X).  Each step builds the nonzero
    a_j[i] once (``_slot_terms``), and ``_at_slot`` adds only their
    multiples.  The slot w has w - 1 above the bit length of
    (|c0| + sum_j |a_j|_1) max|P|, so the premise at X is the polynomial
    identity, and of 2 max(len P) max|P|^2, which bounds every defect
    coefficient, both maxima taken over the rows read.  So every defect
    coefficient lies below 2^(w - 2) in absolute value, and its sign is read
    from the packed defect P_{n+1}(X) P_{n-1}(X) - P_n(X)^2 exactly: with
    2^(w - 1) added to each slot, no carry crosses a slot and a slot's top
    bit is clear exactly when its coefficient is negative
    (``_kronecker_negative_ends``).
    """
    tag, lo, hi = task
    start, recurrence = ROW_RECURRENCES[tag]
    rows = [family_poly(tag, m).coeffs for m in range(lo - 1, hi + 2)]  # rows[m - lo + 1] is row m
    r = len(recurrence(start)[1])
    # the step from n to n + 1 reads rows n..n+1-r, so it needs n + 1 - r >= lo - 1
    steps = {n: recurrence(n) for n in range(max(start, lo - 2 + r), hi + 1)}
    reach = max(r - 1, 2)  # the widest product a later step or defect reads
    top = max(max(map(abs, row), default=0) for row in rows)
    norm = max((abs(c0) + sum(abs(c) for a in coeffs for c in a)
                for c0, coeffs in steps.values()), default=0)
    size = _slot_bytes(max(norm * top, 2 * max(map(len, rows)) * top * top))
    shift = 8 * size

    packed: dict[int, int] = {}  # m -> P_m(X), for the last r rows
    products: dict[tuple[int, int], int] = {}  # (a, b), a >= b -> P_a(X) P_b(X)
    out = []
    for m in range(lo - 1, hi + 2):
        packed[m] = value = _kronecker_pack(rows[m - lo + 1], size)
        c0, coeffs = steps.get(m - 1, (0, ()))
        terms = _slot_terms(coeffs)
        if terms and c0 * value == _at_slot(terms, [packed[m - j] for j in range(1, r + 1)],
                                            shift):
            for d in range(r, 0, -1):
                values = [products[m - min(j, d), m - max(j, d)] for j in range(1, r + 1)]
                products[m, m - d] = _exact_quotient(_at_slot(terms, values, shift), c0)
            values = [products[m, m - j] for j in range(1, r + 1)]
            products[m, m] = _exact_quotient(_at_slot(terms, values, shift), c0)
        else:
            for d in range(min(reach, m - lo + 1) + 1):
                products[m, m - d] = value * packed[m - d]
        if m > lo:
            above, here, below = rows[m - lo + 1], rows[m - lo], rows[m - lo - 1]
            count = max(len(above) + len(below), 2 * len(here), 2) - 1
            out.append((m - 1, *_kronecker_negative_ends(
                products[m, m - 2] - products[m - 1, m - 1], count, size)))
        # row m - r and its products are read by no later step
        packed.pop(m - r, None)
        for a in range(m - r, m + 1):
            products.pop((a, m - r), None)
    return out


def q_log_convex_direct(tag: str, n_max: int) -> list[tuple[int, int | None, int | None]]:
    """(n, first, last negative defect index) for n = 1..n_max, from the
    defects multiplied out (``_qlc_chunk``).

    The family passes iff every row is (n, None, None).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return _qlc_chunk((tag, 1, n_max))


def root_monotonicity_check(n_max: int, root_ratio_n_max: int
                            ) -> tuple[int | None, int | None, int | None]:
    """Evidence checks: D_{n+1}/D_n increasing, D_n^{1/n} increasing,
    D_{n+1}^{1/(n+1)} / D_n^{1/n} decreasing, each answered by the first n
    where it fails, or None.

    These are desk-scale observations, not proofs, decided by exact integer
    comparisons: ratio growth by cross-multiplication, the n-th-root and
    root-ratio parts by certified log2 enclosures with an exact-powering
    fallback.  The root-ratio part is cubic in the exponents, so it runs
    over its own (smaller) range.

    Ratio growth settles the n-th roots up to its first failure.  If
    D_0 = 1 and D_{k-1} D_{k+1} > D_k^2 for k = 1..m, the increments
    d_k = log D_k - log D_{k-1} strictly increase for k = 1..m + 1, so for
    n <= m, n d_{n+1} > d_1 + ... + d_n = log D_n, which is
    D_{n+1}^n > D_n^(n+1).  So the n-th roots are compared only from the
    first k where D_{k-1} D_{k+1} > D_k^2 fails, not at all when it holds
    to n_max, and from n = 1 when D_0 is not 1; the first n-th-root failure
    is the same.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    numbers = domb_numbers(max(n_max, root_ratio_n_max) + 3)

    # D_{n+2}/D_{n+1} > D_{n+1}/D_n for n < n_max is strict log-convexity at
    # the interior indices n + 1
    interior_fail = log_convex_check(numbers[:n_max + 2])
    ratio_fail = None if interior_fail is None else interior_fail - 1

    # by the lemma above, ratio growth settles every n below interior_fail
    first = 1 if numbers[0] != 1 else interior_fail or n_max + 1
    nth_root_fail = None
    for n in range(first, n_max + 1):
        # D_{n+1}^{1/(n+1)} > D_n^{1/n}  <=>  D_{n+1}^n > D_n^{n+1}
        if compare_products([(numbers[n + 1], n)], [(numbers[n], n + 1)]) != 1:
            nth_root_fail = n
            break

    root_ratio_fail = None
    for n in range(1, root_ratio_n_max + 1):
        lhs = [(numbers[n + 1], 2 * n * (n + 2))]
        rhs = [(numbers[n], (n + 1) * (n + 2)), (numbers[n + 2], n * (n + 1))]
        if compare_products(lhs, rhs) != 1:
            root_ratio_fail = n
            break

    return ratio_fail, nth_root_fail, root_ratio_fail
