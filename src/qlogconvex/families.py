"""Combinatorial polynomial families and their triangular coefficient arrays.

Four families, each row built from the binomial row C(n, k) and the central
binomials C(2j, j) (each row is O(n) exact multiplications):

    D_n(q) = sum_k C(n,k)^2 C(2k,k) C(2n-2k,n-k) q^k   (Domb polynomials)
    W_n(q) = sum_k C(n,k)^2 q^k                        (Narayana, type B)
    V_n(q) = sum_k C(n,k)^2 C(2k,k) q^k
    f_n(q) = sum_k C(n,k)^2 C(2n-2k,n-k) q^k

D_n(1) is the n-th Domb number.  Family rows and the rows of the
triangular arrays are built along the row, by the multiplicative recurrences

    C(n,k+1) = C(n,k) (n-k) / (k+1),    C(2j,j) = C(2j-2,j-1) 2(2j-1) / j,

whose divisions are exact; they bypass the binomial memo, which only
``family_coefficient`` (single entries) and the prefactor columns
C(n,j)^2 C(2n-2j,n-j), one per row n, of
``verification.factorization_check`` still read.  The central binomials
are kept in one list that only grows, so each C(2j, j) is computed once per
process.  A Domb number needs no row: ``domb_number`` steps from
C(2n, n) through the ratio of consecutive terms of D_n(1), one exact
big-by-small multiplication and division per term.  A list of them,
``domb_numbers``, comes from their three-term recurrence in n, one step per
number, and its last entry is checked against ``domb_number``.

A triangular array keeps at most three rows, the width of the convexity
operators' stencil: every reader takes rows n - 1, n and n + 1 at a time,
so an ascending sweep still builds each row once, while the memory held
stays that of three rows instead of growing with the cube of the largest n.

W and F also satisfy linear recurrences in n with polynomial coefficients
in q (``ROW_RECURRENCES``).  The rows are not built from them; the
q-log-convexity sweep uses them to advance its defect products from n to
n + 1, and checks them on every row it reads.
"""

from __future__ import annotations

import math

from .exactcore import binom
from .polynomials import Poly

ARRAY_KINDS = ("domb_a", "narayana_a")
FAMILY_TAGS = ("D", "W", "V", "F")


# C(2j, j) for j = 0, 1, ...; it only grows, so every request is a prefix
_CENTRAL_BINOMIALS = [1]


def _central_binomials(n: int) -> list[int]:
    """[C(2j, j) for j in 0..n], by C(2j,j) = C(2j-2,j-1) 2(2j-1) / j.

    The values are extended in ``_CENTRAL_BINOMIALS`` as far as the largest
    n asked for and served as a fresh prefix list.
    """
    central = _CENTRAL_BINOMIALS
    for j in range(len(central), n + 1):
        central.append(central[-1] * (4 * j - 2) // j)
    return central[:n + 1]


def _binomial_row(n: int) -> list[int]:
    """[C(n, k) for k in 0..n], by C(n,k+1) = C(n,k) (n-k) / (k+1)."""
    out = [1]
    for k in range(n):
        out.append(out[-1] * (n - k) // (k + 1))
    return out


class TriangularArray:
    """Memoized accessor for a triangular coefficient array a(n, k).

    Values outside 0 <= k <= n are zero; that convention makes the
    convexity operators total, since they look up a(n +/- 1, t - k) with
    t - k possibly out of range.  The first lookup in row n fills the
    whole row from the row recurrences of C(n, k) and C(2j, j), so each
    entry costs a few small multiplications and exact divisions; the memo
    maps n to the row, which ``row(n)`` returns whole.

    The memo holds at most ``WINDOW`` = 3 rows: a new row evicts the one
    farthest from it.  A sweep that reads rows n - 1, n and n + 1 for
    n going up (or down) one at a time builds each row once; one that
    jumps back rebuilds the rows it left.  A row handed out stays valid
    after its eviction, since rows are immutable tuples.
    """

    __slots__ = ("kind", "_memo")

    WINDOW = 3  # the operators read rows n - 1, n and n + 1

    def __init__(self, kind: str):
        if kind not in ARRAY_KINDS:
            raise ValueError(f"unknown array kind {kind!r}")
        self.kind = kind
        self._memo: dict[int, tuple[int, ...]] = {}

    def __call__(self, n: int, k: int) -> int:
        if n < 0:
            raise ValueError(f"array row must be nonnegative, got n={n}")
        if k < 0 or k > n:
            return 0
        return (self._memo.get(n) or self.row(n))[k]

    def row(self, n: int) -> tuple[int, ...]:
        """The whole row (a(n, 0), ..., a(n, n)), from the same memo."""
        if n < 0:
            raise ValueError(f"array row must be nonnegative, got n={n}")
        memo = self._memo
        row = memo.get(n)
        if row is None:
            row = self._row(n)
            if len(memo) >= self.WINDOW:
                del memo[max(memo, key=lambda m: abs(m - n))]
            memo[n] = row
        return row

    def _row(self, n: int) -> tuple[int, ...]:
        # a(n, k) is the coefficient of q^k in f_n (domb_a) or W_n (narayana_a)
        return tuple(_family_row("F" if self.kind == "domb_a" else "W", n))

    def __repr__(self) -> str:
        return f"TriangularArray({self.kind!r})"


DOMB_ARRAY = TriangularArray("domb_a")
NARAYANA_ARRAY = TriangularArray("narayana_a")


def get_array(kind: str) -> TriangularArray:
    if kind == "domb_a":
        return DOMB_ARRAY
    if kind == "narayana_a":
        return NARAYANA_ARRAY
    raise ValueError(f"unknown array kind {kind!r}")


def family_coefficient(tag: str, n: int, k: int) -> int:
    if n < 0:
        raise ValueError(f"family index must be nonnegative, got n={n}")
    if k < 0 or k > n:
        return 0
    sq = binom(n, k) ** 2
    if tag == "D":
        return sq * binom(2 * k, k) * binom(2 * n - 2 * k, n - k)
    if tag == "W":
        return sq
    if tag == "V":
        return sq * binom(2 * k, k)
    if tag == "F":
        return sq * binom(2 * n - 2 * k, n - k)
    raise ValueError(f"unknown family tag {tag!r}")


def _family_row(tag: str, n: int) -> list[int]:
    """[family_coefficient(tag, n, k) for k in 0..n], from the row recurrences."""
    squares = [c * c for c in _binomial_row(n)]
    if tag == "W":
        return squares
    central = _central_binomials(n)
    if tag == "D":
        return [sq * central[k] * central[n - k] for k, sq in enumerate(squares)]
    if tag == "V":
        return [sq * central[k] for k, sq in enumerate(squares)]
    if tag == "F":
        return [sq * central[n - k] for k, sq in enumerate(squares)]
    raise ValueError(f"unknown family tag {tag!r}")


def _w_recurrence(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(n+1) W_{n+1} = (2n+1)(1+q) W_n - n(1-q)^2 W_{n-1}, for n >= 1: the
    Legendre three-term recurrence through W_n(q) = (1-q)^n P_n((1+q)/(1-q))."""
    return n + 1, ((2 * n + 1, 2 * n + 1), (-n, 2 * n, -n))


def _f_recurrence(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """For n >= 2,

        (n+1)^2 (4n-3) F_{n+1}
            = [(32n^3+8n^2-12n-6) + (12n^3+3n^2-6n-3) q] F_n
            - [(64n^3-48n^2+4) + (4n-2) q + (12n^3-9n^2-2n+1) q^2] F_{n-1}
            + (n-1)^2 (4n+1) q (q-4)^2 F_{n-2}.

    Found by solving for its coefficients; creative telescoping proves such
    recurrences (Petkovsek, Wilf and Zeilberger, A = B, 1996).
    """
    tail = (n - 1) ** 2 * (4 * n + 1)  # times q (q - 4)^2 = 16 q - 8 q^2 + q^3
    return ((n + 1) ** 2 * (4 * n - 3),
            ((32 * n**3 + 8 * n**2 - 12 * n - 6, 12 * n**3 + 3 * n**2 - 6 * n - 3),
             (-(64 * n**3 - 48 * n**2 + 4), 2 - 4 * n, -(12 * n**3 - 9 * n**2 - 2 * n + 1)),
             (0, 16 * tail, -8 * tail, tail)))


# tag -> (first n, n -> (c0, (a_1, ..., a_r))) with
#   c0 P_{n+1}(q) = a_1(q) P_n(q) + ... + a_r(q) P_{n+1-r}(q)   for n >= first,
# each a_j given by its integer coefficients ascending in q
ROW_RECURRENCES = {"W": (1, _w_recurrence), "F": (2, _f_recurrence)}


def family_poly(tag: str, n: int) -> Poly:
    """Degree-n member of the chosen family, exact coefficients."""
    if n < 0:
        raise ValueError(f"family index must be nonnegative, got n={n}")
    return Poly(_family_row(tag, n))


def domb_number(n: int) -> int:
    """D_n(1) = sum_k T_k with T_k = C(n,k)^2 C(2k,k) C(2n-2k,n-k).

    The terms come from T_0 = C(2n, n) by their ratio

        T_{k+1} = T_k (n-k)^3 (2k+1) / ((k+1)^3 (2n-2k-1)),

    each division exact since every T_k is an integer, so a step is one
    big-by-small multiplication and division.  Terms k and n - k are
    equal: the sum over k < n/2 is doubled and the middle term added when
    n is even.
    """
    if n < 0:
        raise ValueError(f"Domb index must be nonnegative, got n={n}")
    term = math.comb(2 * n, n)
    half = 0
    for k in range((n + 1) // 2):
        half += term
        term = term * ((n - k) ** 3 * (2 * k + 1)) // ((k + 1) ** 3 * (2 * n - 2 * k - 1))
    # term is now T_{(n+1)//2}, the middle term when n is even
    return 2 * half + (term if n % 2 == 0 else 0)


def domb_numbers(stop: int) -> list[int]:
    """[D_0(1), ..., D_{stop-1}(1)], by the three-term recurrence (OEIS A002895)

        n^3 D_n = 2(2n-1)(5n^2-5n+2) D_{n-1} - 64(n-1)^3 D_{n-2},   n >= 2,

    from D_0 = 1 and D_1 = 4: one big-by-small step per number.  Each
    division must be exact and the last value must equal ``domb_number``'s
    term sum; otherwise ``ArithmeticError`` is raised.
    """
    numbers = [1, 4][:max(stop, 0)]
    for n in range(2, stop):
        value, rem = divmod(2 * (2 * n - 1) * (5 * n * n - 5 * n + 2) * numbers[-1]
                            - 64 * (n - 1) ** 3 * numbers[-2], n ** 3)
        if rem:
            raise ArithmeticError(f"Domb recurrence leaves remainder {rem} at n={n}")
        numbers.append(value)
    if numbers and numbers[-1] != domb_number(stop - 1):
        raise ArithmeticError(f"Domb recurrence disagrees with the term sum at n={stop - 1}")
    return numbers
