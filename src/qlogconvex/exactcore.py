"""Shared binomial memoization over exact integers.

Python ints are arbitrary precision, so the carrier type comes straight from
the standard library.  What this module pins down are the conventions the
rest of the package relies on: out-of-range binomials are zero and the
cache only grows.
"""

from __future__ import annotations

import math


class BinomialCache:
    """Memo table for C(n, k) with the out-of-range-zero convention.

    Inserts are idempotent, so the table may be shared by concurrent
    workers; correctness does not depend on insertion order.  Entries are
    never evicted.
    """

    def __init__(self) -> None:
        self._table: dict[tuple[int, int], int] = {}

    def get(self, n: int, k: int) -> int:
        if n < 0:
            raise ValueError(f"binomial row index must be nonnegative, got n={n}")
        if k < 0 or k > n:
            return 0
        key = (n, k)
        value = self._table.get(key)
        if value is None:
            value = math.comb(n, k)
            self._table[key] = value
        return value

    def __len__(self) -> int:
        return len(self._table)


SHARED_BINOMIALS = BinomialCache()


def binom(n: int, k: int) -> int:
    """C(n, k), zero for k < 0 or k > n; negative n is a domain error."""
    return SHARED_BINOMIALS.get(n, k)
