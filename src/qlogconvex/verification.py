"""Machine verification sweeps and the certificate they produce.

Each checkable statement becomes a claim record; the orchestrator gathers
records from every sweep into a single certificate whose verdict is the
conjunction of all outcomes.  Partial failures are captured in the record
list, never dropped, and two runs with the same configuration produce
byte-identical certificates except for the timestamp.

A deliberate honesty rule: the underlying theorems are statements about all
n, and a certificate only ever asserts the finite instances it actually
checked plus the grid-certified polynomial identities (which are genuine
proofs, by the degree-bound argument: a polynomial identity of degree d in a
parameter that holds at more than d integer points holds identically).
Those identities are one table, ``GRID_IDENTITIES``: each row is an n grid,
a t grid or None, and a function that returns the failures at one grid
point; the record's grid label is read from the ranges.  The row functions
look the ``proofpolys`` builders and endpoint-form tables up when they run,
so a builder replaced at run time is the one checked, here and in the sweeps.
The nine identities run as one row (``_grid_row``) in every run, serial or
pooled, and share its builds, so each builder runs once per grid point,
psi and its cofactors at each (n, t) and theta, xi and eta at each n,
whichever identities read the result.

The sweeps are listed once, in ``SWEEPS``, costliest first, and each
computes only inside its rows, which it reads through ``_map_rows``: claim
1, V's reversal check, the series and the monotonicity evidence are
one-item rows.  With ``parallelism`` above 1 the orchestrator imports
``multiprocessing`` (a serial run never loads it), opens a single pool and
runs the sweeps twice (``_pooled``).  The first pass plans the map: each
sweep records its (row, items) and reads no rows, so the pass computes
nothing.  Each recorded sweep is cut into ``CHUNKS_PER_WORKER`` contiguous
chunks per worker, ascending in n within a chunk and the last chunk first,
and the chunks of every sweep go through one ``pool.map``, with no barrier
between sweeps.  The q-log-convexity defects of D, W and F are items of
contiguous n-ranges of about equal cost (W and F advanced by their
recurrences in n, one range per worker, each seeded at its first rows),
each sending back only the first and last negative index per n.  V's
defects are F's read backwards, since V_n(q) = q^n F_n(1/q), so qlc_V is
decided from F's indices and a row that checks that each V row is the F
row reversed.  The second pass runs the sweeps in the parent as they run
serially, each reading its rows from the map's results.  The rows are the
same private functions the serial run calls, the records are sorted before
they are assembled, and a row that raises in a worker is raised again in
its sweep in row order, so serial and pooled certificates have the same
claims and verdict; their ``parameters`` differ only in ``parallelism``,
and the timestamps differ.  If the map itself raises, every sweep gets an
error record.  The pool uses the fork start method, so the workers are
copies of the parent as it is when the run starts and see any function
replaced before the run began.  ``check qlc`` reads ``qlc_check``, which
gives one family's qlc record and rows the same way, in a pool and a map
of its own.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from fractions import Fraction
from typing import NamedTuple

from . import __version__, proofpolys
from .criteria import (
    _qlc_chunk,
    _qlc_recurrence_chunk,
    op_L,
    q_log_convex_direct,
    qlc_ranges,
    root_monotonicity_check,
    single_crossing,
)
from .exactcore import binom
from .families import DOMB_ARRAY, ROW_RECURRENCES, domb_numbers, family_poly
from .hiprec import ccl_constant_bounds, fraction_to_decimal
from .polynomials import (
    IntervalSign,
    Poly,
    sign_constant_on,
    sturm_count_roots,
    values_at_integers,
)

SERIES_TOLERANCE_TEXT = "1e-28"  # as the certificate and the series command print it
SERIES_TOLERANCE = Fraction(SERIES_TOLERANCE_TEXT)

# Explicit boundary operator values L_t(a(n,0)) for n = 1..4, checked verbatim.
BOUNDARY_TABLE = {
    1: (4, 4),
    2: (8, 32, 24),
    3: (40, 320, 646, 152),
    4: (280, 3808, 14296, 7772, 860),
}

# The nine (n, t) pairs where a positive psi2(0) is ruled out directly.
CLAIM1_PAIRS = ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3))


class ClaimRecord(NamedTuple):
    """One verified (or failed) claim; all values kept as decimal strings."""

    claim: str
    params: dict[str, str]
    outcome: str  # "pass" | "fail"
    witness: dict[str, str] = {}  # one dict shared by the records given none

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def _record(claim: str, params: dict, failures: list[str]) -> ClaimRecord:
    str_params = {k: str(v) for k, v in params.items()}
    if failures:
        return ClaimRecord(claim, str_params, "fail", {"first_failure": failures[0],
                                                       "failure_count": str(len(failures))})
    return ClaimRecord(claim, str_params, "pass", {})


def _error_record(claim: str, exc: Exception) -> ClaimRecord:
    return ClaimRecord(claim, {"error": type(exc).__name__}, "fail", {"message": str(exc)})


def _pool(jobs: int):
    """A fork ``multiprocessing.Pool`` of ``jobs`` workers.

    Open it when the run starts, not at import: the workers are forked from
    the parent as it is then, small and with any replaced function in place.
    The start method is pinned, since that copy is what the pooled rows rely
    on and fork is not the default everywhere (Python 3.14 starts Linux
    workers from a fork server).  ``multiprocessing`` is imported here too,
    so a serial run never loads it.
    """
    import multiprocessing

    return multiprocessing.get_context("fork").Pool(jobs)


# Contiguous chunks per worker that each sweep of a pooled run is cut into.
# Fewer chunks send fewer tasks and rebuild fewer array rows at chunk edges;
# more leave smaller tasks to even out the workers before the one barrier.
# Measured with `verify-paper --jobs 2` at default bounds on 2 cores: 1, 2,
# 3, 4 and 6 chunks gave wall medians within the noise of each other
# (0.62-0.71 s over 10 alternating runs each, against 0.77 s with one map
# per sweep and one row per task), and with 2 the two workers' last tasks
# ended within 2 ms of each other in each of 3 timed runs.
CHUNKS_PER_WORKER = 2


def _chunks(items: list, count: int) -> list[list]:
    """``items`` cut into min(count, len(items)) contiguous chunks in order,
    none empty, whose lengths differ by at most one."""
    count = min(count, len(items))
    return [items[i * len(items) // count:(i + 1) * len(items) // count]
            for i in range(count)]


def _run_chunk(task: tuple) -> list[tuple[bool, object]]:
    """(True, row(item)) for each item of a task (row, items) in order, up to
    the first row that raises, which gives (False, its exception) and ends
    the chunk: ``_map_rows`` raises it before it would read a later item."""
    row, items = task
    outcomes = []
    for item in items:
        try:
            outcomes.append((True, row(item)))
        except Exception as exc:  # raised again by _map_rows, in item order
            outcomes.append((False, exc))
            break
    return outcomes


def _run_batch(jobs: int, tasks: list[tuple]) -> dict:
    """Every task (row, items) through one ``pool.map`` in a pool of ``jobs``
    workers, one task at a time in list order, as {(row, item): (ok, value)}.
    When the map itself raises (a worker died, or a result could not be
    pickled back), every item holds (False, that exception), so every
    pooled sweep raises it."""
    with _pool(jobs) as pool:
        try:
            outcomes = pool.map(_run_chunk, tasks, chunksize=1)
        except Exception as exc:  # every pooled sweep gets its own error record
            outcomes = [[(False, exc)] * len(items) for _row, items in tasks]
    return {(row, item): outcome for (row, items), chunk in zip(tasks, outcomes)
            for item, outcome in zip(items, chunk)}


def _map_rows(batch, row, items) -> list:
    """``[row(item) for item in items]``, planned or read in a pooled run.

    A pooled run (``_pooled``) runs its sweeps twice.  In the first pass
    ``batch`` is a list, the plan: the sweep's (row, items) is appended to
    it and no row is computed.  In the second it is the result of the one
    ``pool.map`` of the plan (``_run_batch``), and the rows are read from
    it; a row that raised in a worker is raised here, the first in item
    order, as the serial loop would raise it.
    """
    if batch is None:
        return [row(item) for item in items]
    if isinstance(batch, list):
        batch.append((row, list(items)))
        return []
    results = []
    for item in items:
        ok, value = batch[row, item]
        if not ok:
            raise value
        results.append(value)
    return results


def _pooled(run, jobs: int):
    """``run(batch)`` for a ``run`` that reads every row through
    ``_map_rows``: ``run(None)`` when ``jobs`` is 1.  Else ``run`` plans with
    an empty list, each planned sweep is cut into ``CHUNKS_PER_WORKER``
    contiguous chunks per worker, ascending in n so that the Domb array's
    three-row window builds each row once, the last chunk first since a
    row's cost grows with n, and ``run`` reads the rows of one map of every
    chunk in plan order (``_run_batch``)."""
    if jobs <= 1:
        return run(None)
    plan: list = []
    run(plan)
    count = CHUNKS_PER_WORKER * jobs
    return run(_run_batch(jobs, [(row, chunk) for row, items in plan
                                 for chunk in _chunks(items, count)[::-1]]))


class Certificate(NamedTuple):
    """Machine-readable record of a verification run."""

    version: str
    parameters: dict[str, str]
    claims: tuple[ClaimRecord, ...]
    verdict: str
    timestamp: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "parameters": dict(self.parameters),
            "claims": [c._asdict() for c in self.claims],
            "verdict": self.verdict,
            "timestamp": self.timestamp,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        claims = tuple(
            ClaimRecord(c["claim"], dict(c["params"]), c["outcome"], dict(c["witness"]))
            for c in data["claims"]
        )
        return cls(data["version"], dict(data["parameters"]), claims,
                   data["verdict"], data["timestamp"])

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))


class VerificationConfig(NamedTuple):
    """Bounds of a full verification run."""

    n_max_direct: int = 150
    n_max_factorization: int = 60
    n_max_sturm: int = 100
    series_N: int = 100
    series_digits: int = 40
    parallelism: int = 1
    n_max_monotonicity: int = 300
    n_max_root_ratio: int = 120

    def validate(self) -> None:
        for name, value in self._asdict().items():
            if name != "series_digits" and value < 1:
                flag = "jobs" if name == "parallelism" else name.replace("_", "-")
                raise ValueError(f"--{flag} must be >= 1, got {value}")
        check_series_digits(self.series_digits)

    def as_parameters(self) -> dict[str, str]:
        out = {k: str(v) for k, v in self._asdict().items()}
        out["series_tolerance"] = SERIES_TOLERANCE_TEXT
        return out


# --- series ------------------------------------------------------------------

def _enclosure_half_width(digits: int) -> Fraction:
    lo, hi = ccl_constant_bounds(digits)
    return (hi - lo) / 2


def check_series_digits(digits: int) -> None:
    """Reject a digit count with which the series claim can only fail.

    The claim's distance bound is the distance to the far end of the
    constant's enclosure, so it is never below the enclosure's half-width;
    when that half-width reaches SERIES_TOLERANCE no N can pass.
    """
    if digits < 1 or _enclosure_half_width(digits) >= SERIES_TOLERANCE:
        fewest = next(d for d in itertools.count(1)
                      if _enclosure_half_width(d) < SERIES_TOLERANCE)
        raise ValueError(
            f"series digits {digits} give an enclosure of 8/(sqrt(3) pi) at least twice "
            f"the series tolerance {SERIES_TOLERANCE_TEXT} wide, so the series claim can "
            f"only fail; use at least {fewest}")


def chan_partial_sum(N: int) -> Fraction:
    """Exact partial sum of sum_n (5n+1) D_n(1) / 64^n."""
    if N < 0:
        raise ValueError("partial sum needs N >= 0")
    numerator = sum((5 * n + 1) * d * 64 ** (N - n) for n, d in enumerate(domb_numbers(N + 1)))
    return Fraction(numerator, 64**N)


def series_check(N: int, digits: int) -> tuple[Fraction, Fraction, Fraction, Fraction, bool]:
    """The partial sum to N, the enclosure lo, hi of 8/(sqrt(3) pi) to
    ``digits`` digits, the distance bound, and whether that bound is below
    SERIES_TOLERANCE.

    The distance is bounded above by the distance to the far end of the
    constant's enclosure, so a pass is exact even though the limit is
    irrational.
    """
    partial = chan_partial_sum(N)
    lo, hi = ccl_constant_bounds(digits)
    distance_bound = max(abs(partial - lo), abs(partial - hi))
    return partial, lo, hi, distance_bound, distance_bound < SERIES_TOLERANCE


def series_claim(N: int, digits: int) -> ClaimRecord:
    """|partial sum - 8/(sqrt(3) pi)| < SERIES_TOLERANCE, with a rigorous enclosure."""
    partial, lo, hi, distance_bound, passed = series_check(N, digits)
    params = {"N": N, "digits": digits, "tolerance": SERIES_TOLERANCE_TEXT}
    witness = {
        "partial_sum": fraction_to_decimal(partial, digits),
        "constant_low": fraction_to_decimal(lo, digits),
        "constant_high": fraction_to_decimal(hi, digits),
        "distance_bound": fraction_to_decimal(distance_bound, digits),
    }
    outcome = "pass" if passed else "fail"
    return ClaimRecord("series", {k: str(v) for k, v in params.items()}, outcome, witness)


# --- factorization -----------------------------------------------------------

class FactorizationCheck(NamedTuple):
    """Both sides of the operator factorization at one failing (n, t, k) cell."""

    n: int
    t: int
    k: int
    lhs: int
    rhs: int


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def factorization_check(n: int) -> list[FactorizationCheck]:
    """The cells (t, k) of row n, 0 <= t <= n and 0 <= k <= t/2, where
    L_t(a(n,k)) * denominator differs from binomial prefactor * psi(n,t)(k);
    empty when the row holds.

    Everything that depends on n alone is read once: the array rows n-1
    (padded with a(n-1, n) = 0), n and n+1, the prefactor column
    P(j) = C(n,j)^2 C(2n-2j, n-j) and the denominator column
    d(j) = (n-j+1)^3 (2n-2j-1), so that with j = t - k the prefactor is
    P(k) P(j) and the denominator n^2 d(k) d(j).  The factors of d are odd or
    positive and never vanish; d(n) = -1 is the lone negative one, at t = n,
    k = 0, which is exactly where the signs of L and psi flip.  So the
    identity also fixes the sign of L, and no sign test can fail on its own:
    P(k) P(j) > 0 and n^2 > 0, d(k) > 0 for k <= n/2, and d(j) < 0 only at
    t = n, k = 0, so where both sides agree L has the sign of psi, flipped
    at that one cell.  psi(n, t) is built once per t, looked up when the
    row runs, and its values at k = 0..t/2 come from one forward-difference
    table.  A ``FactorizationCheck`` is made only for a failing cell.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"factorization row needs an integer n >= 1, got {n!r}")
    below = DOMB_ARRAY.row(n - 1) + (0,)
    here = DOMB_ARRAY.row(n)
    above = DOMB_ARRAY.row(n + 1)
    prefactor = [binom(n, j) ** 2 * binom(2 * n - 2 * j, n - j) for j in range(n + 1)]
    denominator = [(n - j + 1) ** 3 * (2 * n - 2 * j - 1) for j in range(n + 1)]
    n_squared = n * n
    failures = []
    for t in range(n + 1):
        psi_at = values_at_integers(proofpolys.psi_poly(n, t), t // 2 + 1)
        for k, psi_value in enumerate(psi_at):
            j = t - k
            L = above[k] * below[j] + below[k] * above[j] - 2 * here[k] * here[j]
            lhs = L * n_squared * denominator[k] * denominator[j]
            rhs = prefactor[k] * prefactor[j] * psi_value
            if lhs != rhs:
                failures.append(FactorizationCheck(n, t, k, lhs, rhs))
    return failures


def _factorization_row(n: int) -> tuple[int, list[str]]:
    return n, [f"identity failure at (n={n}, t={c.t}, k={c.k}): lhs={c.lhs}, rhs={c.rhs}"
               for c in factorization_check(n)]


def factorization_sweep(n_max: int, batch=None) -> list[ClaimRecord]:
    """Exact factorization identity, which fixes the sign coincidence, for
    all cells up to n_max.

    One record per n, from ``factorization_check(n)``, which checks the
    whole row at once.  The rows are read from a pooled run's ``batch``
    when one is given, else computed in this process.
    """
    rows = _map_rows(batch, _factorization_row, range(1, n_max + 1))
    return [_record("factorization", {"n": n, "t_range": f"0..{n}"}, failures)
            for n, failures in rows]


# --- boundary nonnegativity (k = 0) ------------------------------------------

def verify_prop31(n_max: int, batch=None) -> list[ClaimRecord]:
    """L_t(a(n,0)) >= 0: explicit table for n <= 4, sign analysis beyond.

    Every row n >= 1 certifies the sign of each L_t(a(n,0)), t = 0..n,
    through a bracket with small multipliers (``_boundary_brackets``).
    For n >= 5 the record also certifies theta(t) > 0 at all integers
    t < n, the sign of each row of ``proofpolys.THETA_ENDPOINT_FORMS``
    (theta and its derivatives at 0, 1, n/2 and n-1, and theta(n) < 0),
    and Sturm counts on (0, n-1): exactly one root for theta'''' and
    theta''', two for theta'' and theta'.
    """
    rows = _map_rows(batch, _prop31_row, range(1, n_max + 1))
    table_failures = [failure for failures, _record in rows for failure in failures]
    return [_record("prop31", {"part": "table", "n": 0}, table_failures)] + [
        record for _failures, record in rows]


def _boundary_table_failures(n: int) -> list[str]:
    """The failure for row n of ``BOUNDARY_TABLE``, if any; none beyond it."""
    expected_row = BOUNDARY_TABLE.get(n)
    if expected_row is None:
        return []
    actual = tuple(op_L(DOMB_ARRAY, n, t, 0) for t in range(n + 1))
    return [f"boundary row n={n}: {actual} != {expected_row}"] if actual != expected_row else []


def _boundary_brackets(n: int) -> list[int] | None:
    """For n >= 1, [B_t for t in 0..n] with c_n L_t(a(n,0)) = a(n,0) B_t and
    c_n = 2(n+1)(2n-1) > 0, or None when the rows read break the premise.

    The premise is that the k = 0 column steps like a(m,0) = C(2m,m) on the
    rows n - 1, n and n + 1 read here: (n+1) a(n+1,0) = 2(2n+1) a(n,0),
    2(2n-1) a(n-1,0) = n a(n,0) and a(n,0) > 0.  Put into
    L_t(a(n,0)) = a(n+1,0) a(n-1,t) + a(n-1,0) a(n+1,t) - 2 a(n,0) a(n,t),
    it gives

        B_t = 4(2n+1)(2n-1) a(n-1,t) + n(n+1) a(n+1,t) - 4(n+1)(2n-1) a(n,t),

    which has the sign of L_t(a(n,0)) and costs three big-by-small products
    where the operator takes three big-by-big ones.
    """
    below, here, above = DOMB_ARRAY.row(n - 1), DOMB_ARRAY.row(n), DOMB_ARRAY.row(n + 1)
    if not (here[0] > 0 and (n + 1) * above[0] == 2 * (2 * n + 1) * here[0]
            and 2 * (2 * n - 1) * below[0] == n * here[0]):
        return None
    below += (0,)  # a(n-1, n) lies outside the array
    low, middle, high = 4 * (2 * n + 1) * (2 * n - 1), 4 * (n + 1) * (2 * n - 1), n * (n + 1)
    return [low * b + high * a - middle * h for b, h, a in zip(below, here, above)]


def _prop31_row(n: int) -> tuple[list[str], ClaimRecord]:
    """One n of Proposition 3.1: the failures of row n of ``BOUNDARY_TABLE``,
    checked here because they read the same array rows, so an ascending
    sweep builds every array row once; and the record: the signs of
    L_t(a(n,0)) for t = 0..n, read from ``_boundary_brackets``, and for
    n >= 5 theta's signs at t = 0..n-1, read from one forward-difference
    table, the signs of its endpoint rows and its Sturm root counts."""
    table_failures = _boundary_table_failures(n)
    brackets = _boundary_brackets(n)
    if brackets is None:
        failures = [f"k = 0 column premise failed at n={n}: a(m,0) for m = {n - 1}..{n + 1} "
                    f"does not step like C(2m,m)"]
    else:
        failures = [f"operator negative at (n={n}, t={t}, k=0)"
                    for t, value in enumerate(brackets) if value < 0]
    if n >= 5:
        bundle = proofpolys.build_theta(n)
        failures += [f"theta({t}) not positive at n={n}"
                     for t, value in enumerate(values_at_integers(bundle.theta, n))
                     if not value > 0]
        failures += _form_failures(bundle.forms, n)
        th1, th2, th3, th4 = bundle.derivatives
        failures += [f"{name} root count failed at n={n}"
                     for poly, roots, name in ((th4, 1, "theta''''"), (th3, 1, "theta'''"),
                                               (th2, 2, "theta''"), (th1, 2, "theta'"))
                     if sturm_count_roots(poly, 0, n - 1) != roots]
    record = _record("prop31", {"part": "theta" if n >= 5 else "operator", "n": n}, failures)
    return table_failures, record


def _form_failures(values: list, n: int) -> list[str]:
    """The failures at n of endpoint rows (label, value, closed value, sign,
    min n) from ``proofpolys.endpoint_values``: a value that differs from its
    closed form, and from min n on, a value without the row's sign (a zero
    fails)."""
    failures = []
    for label, value, closed, sign, min_n in values:
        if value != closed:
            failures.append(f"{label} form mismatch at n={n}")
        if n >= min_n and _sign(value) != (1 if sign == "+" else -1):
            failures.append(f"{label} sign claim failed at n={n}")
    return failures


# --- interior crossing for t < n ----------------------------------------------

def verify_prop32(n_max: int, batch=None) -> list[ClaimRecord]:
    """Single crossing of psi(n,t) at integer points for 0 <= t <= n - 1.

    Also certifies the midpoint values that drive the argument: psi1(t/2)
    and psi3(t/2) strictly positive, psi2(t/2) strictly negative, each
    matching its closed form (including the dedicated n = 2 and n = 3
    shapes of the psi1 form).  Each t first checks the derivative cascade
    of its cofactors; a t whose cascade breaks lists the breaks in place of
    its other checks.  Rows start at n = 2.
    """
    return _map_rows(batch, _prop32_row, range(2, n_max + 1))


def _prop32_row(n: int) -> ClaimRecord:
    failures = []
    for t in range(n):
        bundle = proofpolys.build_psi(n, t)
        if breaks := _cascade_failures(n, t, bundle):
            failures += breaks
            continue
        psi_at = values_at_integers(bundle.psi, t // 2 + 1)
        if not psi_at[0] >= 0:
            failures.append(f"psi(0) negative at (n={n}, t={t})")
        values = psi_at[1:]
        if values and single_crossing(values) is not None:
            failures.append(f"crossing pattern broken at (n={n}, t={t})")
        for name, value, sign, missed in _midpoint_values(
                n, t, bundle.psi1, bundle.psi2, bundle.psi3):
            failures += missed
            if not (value > 0 if sign > 0 else value < 0):
                word = "positive" if sign > 0 else "negative"
                failures.append(f"{name} midpoint not {word} at (n={n}, t={t})")
    return _record("prop32", {"n": n, "t_range": f"0..{n - 1}"}, failures)


def _midpoint_values(n: int, t: int, psi1: Poly, psi2: Poly, psi3: Poly) -> list:
    """psi1, psi2 and psi3 at their axis x = t/2, as (name, value, sign,
    missed): sign is the one prop32 asserts for 0 <= t < n, and missed holds
    a message for each closed form the value differs from.  psi1 has its
    own shapes at n = 2 and n = 3."""
    mid = t // 2 if t % 2 == 0 else Fraction(t, 2)
    values = []
    for name, poly, sign, closed in (("psi1", psi1, 1, proofpolys.psi1_half_closed),
                                     ("psi2", psi2, -1, proofpolys.psi2_half_closed),
                                     ("psi3", psi3, 1, proofpolys.psi3_half_closed)):
        value = poly(mid)
        missed = [f"{name} midpoint form fails at (n={n}, t={t})"] if value != closed(n, t) else []
        values.append((name, value, sign, missed))
    _name, p1, _sign, missed1 = values[0]
    if n == 2 and p1 != proofpolys.psi1_half_closed_n2(t):
        missed1.append(f"psi1 midpoint n=2 form fails at t={t}")
    if n == 3 and p1 != proofpolys.psi1_half_closed_n3(t):
        missed1.append(f"psi1 midpoint n=3 form fails at t={t}")
    return values


# --- crossing on the diagonal t = n --------------------------------------------

def verify_prop33(n_max: int, batch=None) -> list[ClaimRecord]:
    """Single crossing of psi(n,n) at integer points k >= 1, with endpoint signs.

    Every displayed endpoint value is matched against its closed form for
    all n; the strict positivity of psi(n,n)(1) is asserted from n = 3 on,
    since the value at n = 2 is -80 (the all-nonpositive value list there
    still satisfies the crossing shape with an empty positive prefix).
    Rows start at n = 2.
    """
    return _map_rows(batch, _prop33_row, range(2, n_max + 1))


def _prop33_row(n: int) -> ClaimRecord:
    """prop33 at n: the cascade and the specialization of the t = n
    expansions; when both hold, their endpoint rows and the crossing."""
    bundle = proofpolys.build_psi_nn(n)
    if breaks := (_cascade_failures(n, n, bundle, "psi_nn")
                  + _specialization_failures(n, bundle)):
        return _record("prop33", {"n": n}, breaks)
    chains = {"psi_nn_poly": [bundle.psi], "psi1_nn_poly": [bundle.psi1],
              "psi2_nn_poly": [bundle.psi2], "psi3_nn_poly": [bundle.psi3]}
    failures = _form_failures(
        proofpolys.endpoint_values(proofpolys.NN_ENDPOINT_FORMS, n, chains), n)
    values = [bundle.psi(k) for k in range(1, n // 2 + 1)]
    if values and single_crossing(values) is not None:
        failures.append(f"diagonal crossing pattern broken at n={n}")
    return _record("prop33", {"n": n}, failures)


# --- the xi / eta negativity claims --------------------------------------------

def verify_claims(n_max: int, batch=None) -> list[ClaimRecord]:
    """The three negativity claims that force psi1(0) < 0 when psi2(0) > 0.

    Claim 1 rules out n = 2, 3, 4 by direct evaluation at nine pairs;
    Claim 2 certifies xi < 0 on [3n/4, n-1]; Claim 3 certifies eta < 0 on
    [0, 3n/4].  Interval negativity is certified by an exact root count (no
    sampling): Descartes' rule finds no sign variation on either interval at
    n = 4..360, so no Sturm chain is built there.  The endpoint evaluations
    are exact and checked against the displayed closed forms, and each n
    checks the x = 0 extractions xi = psi1(0)/(n+1)^2, eta = psi2(0)/(n+1).
    """
    return (_map_rows(batch, _claim1_row, [CLAIM1_PAIRS])
            + _map_rows(batch, _claims23_row, range(4, n_max + 1)))


def _claim1_row(pairs: tuple) -> ClaimRecord:
    """Claim 1: psi2(0), which has the sign of eta(t), is negative at each
    pair (n, t)."""
    failures = [f"psi2(0) not negative at (n={n}, t={t})"
                for n, t in pairs if proofpolys.eta_poly(n)(t) >= 0]
    return _record("claims123", {"part": "claim1", "n": 0}, failures)


def _claims23_row(n: int) -> ClaimRecord:
    """Claims 2 and 3 at n: the order-0 rows of ``XI_ETA_ENDPOINT_FORMS``,
    xi(n-1), xi(3n/4), eta(0) and eta(3n/4), which are the ends of the two
    sign intervals; then the intervals, the eta'' axis, and the extractions
    at t = 0..8, which see a psi1 or psi2 wrong at one n past the grid."""
    xi = proofpolys.xi_poly(n)
    eta = proofpolys.eta_poly(n)
    ends = [form for form in proofpolys.XI_ETA_ENDPOINT_FORMS if form[2] == 0]
    failures = _form_failures(
        proofpolys.endpoint_values(ends, n, {"xi_poly": [xi], "eta_poly": [eta]}), n)
    three_quarters = 3 * n // 4 if n % 4 == 0 else Fraction(3 * n, 4)
    # at n = 4 the xi interval is the point 3, whose sign the xi(n-1) row asserts
    if n > 4 and sign_constant_on(xi, three_quarters, n - 1) is not IntervalSign.NEGATIVE:
        failures.append(f"xi not negative on [3n/4, n-1] at n={n}")
    if sign_constant_on(eta, 0, three_quarters) is not IntervalSign.NEGATIVE:
        failures.append(f"eta not negative on [0, 3n/4] at n={n}")
    eta2 = eta.derivative().derivative()
    axis = -Fraction(eta2.coefficient(1), 2 * eta2.coefficient(2))
    if axis != -(Fraction(n) - Fraction(3, 4)):
        failures.append(f"eta'' axis mismatch at n={n}")
    for t in range(9):
        failures += _extraction_failures("xi", n, t, xi) + _extraction_failures("eta", n, t, eta)
    return _record("claims123", {"part": "claims23", "n": n}, failures)


# --- grid-certified polynomial identities --------------------------------------

# Expanded degree bounds of the identities: degree <= 8 in n, <= 6 in t.
# Grids of 17 n-values and 18 t-values therefore prove the identities.
_GRID_N = range(1, 18)
_GRID_T = range(0, 18)
_FORM_GRID_N = range(1, 21)

# The failure functions of ``GRID_IDENTITIES`` take a memo of builds and one
# grid point, (n, t) or (n,).  They read every polynomial through ``_built``,
# which looks its builder up in ``proofpolys`` when it builds, and every table
# in ``proofpolys`` when they run.  The per-n rows pass the first three
# checkers what they have built already.


def _cascade_failures(n: int, t: int, polys: tuple, stem: str = "psi") -> list[str]:
    """The cascade breaks of polys = (psi, .., psi3)."""
    return [f"{stem}{level}' cascade fails at (n={n}, t={t})"
            for level in proofpolys.cascade_breaks(polys, t)]


def _specialization_failures(n: int, expanded: tuple, general: tuple | None = None) -> list[str]:
    return [f"psi{level} specialization fails at n={n}"
            for level in proofpolys.specialization_breaks(n, expanded, general)]


# extraction of ``proofpolys.EXTRACTIONS`` -> its failure, with {} for the point
_EXTRACTION_MESSAGES = {"xi": "xi extraction fails at {}", "eta": "eta extraction fails at {}",
                        "theta": "psi(0) != (n+1)^2 theta(t) at {}"}


def _extraction_failures(name: str, n: int, t: int, in_t: Poly, at: Poly | None = None) -> list[str]:
    """The extraction ``name`` at (n, t), as ``proofpolys.extraction_holds``."""
    if proofpolys.extraction_holds(name, n, t, in_t, at):
        return []
    return [_EXTRACTION_MESSAGES[name].format(f"(n={n}, t={t})")]


def _built(builds: dict, builder: str, *point) -> Poly:
    """The ``proofpolys`` builder ``builder`` at ``point``, built once per memo."""
    key = (builder, *point)
    poly = builds.get(key)
    if poly is None:
        poly = builds[key] = getattr(proofpolys, builder)(*point)
    return poly


_PSI = ("psi_poly", "psi1_poly", "psi2_poly", "psi3_poly")
_PSI_NN = ("psi_nn_poly", "psi1_nn_poly", "psi2_nn_poly", "psi3_nn_poly")


def _grid_cascade(builds: dict, n: int, t: int) -> list[str]:
    return _cascade_failures(n, t, tuple(_built(builds, b, n, t) for b in _PSI))


def _grid_specialization(builds: dict, n: int) -> list[str]:
    return _specialization_failures(n, tuple(_built(builds, b, n) for b in _PSI_NN),
                                    tuple(_built(builds, b, n, n) for b in _PSI))


def _grid_extraction(name: str, builds: dict, n: int, t: int) -> list[str]:
    in_t, _power, at = proofpolys.EXTRACTIONS[name]
    return _extraction_failures(name, n, t, _built(builds, in_t, n), _built(builds, at, n, t))


def _midpoint_failures(builds: dict, n: int, t: int) -> list[str]:
    polys = (_built(builds, b, n, t) for b in _PSI[1:])
    return [miss for _name, _value, _sign, missed in _midpoint_values(n, t, *polys)
            for miss in missed]


def _endpoint_form_failures(table: str, builds: dict, n: int) -> list[str]:
    forms = getattr(proofpolys, table)
    chains = {builder: [_built(builds, builder, n)] for builder in {form[1] for form in forms}}
    return [f"{label} fails at n={n}"
            for label, value, closed, _sign, _min_n in proofpolys.endpoint_values(forms, n, chains)
            if value != closed]


# identity -> (n grid, t grid or None, failures at one grid point)
GRID_IDENTITIES = {
    "cascade": (_GRID_N, _GRID_T, _grid_cascade),
    "specialization": (_GRID_N, None, _grid_specialization),
    "xi_extraction": (_GRID_N, _GRID_T, functools.partial(_grid_extraction, "xi")),
    "eta_extraction": (_GRID_N, _GRID_T, functools.partial(_grid_extraction, "eta")),
    "theta_link": (_GRID_N, _GRID_T, functools.partial(_grid_extraction, "theta")),
    "midpoint_forms": (_FORM_GRID_N, _GRID_T, _midpoint_failures),
    "theta_endpoint_forms": (_FORM_GRID_N, None,
                             functools.partial(_endpoint_form_failures, "THETA_ENDPOINT_FORMS")),
    "xi_eta_endpoint_forms": (_FORM_GRID_N, None,
                              functools.partial(_endpoint_form_failures, "XI_ETA_ENDPOINT_FORMS")),
    "nn_endpoint_forms": (_FORM_GRID_N, None,
                          functools.partial(_endpoint_form_failures, "NN_ENDPOINT_FORMS")),
}


def identity_grid_check(identity: str, builds: dict | None = None) -> ClaimRecord:
    """Certify one parametric identity by exhaustive exact checks on a grid.

    The grids strictly exceed the expanded degree bound in each parameter,
    so a clean sweep constitutes a proof of the identity, not merely
    evidence.  Failures report the first offending grid point.  ``builds``
    is the memo of the polynomials built at the grid points (``_built``),
    which the identities of one sweep share; without one the identity
    builds its own.
    """
    if identity not in GRID_IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    ns, ts, failures_at = GRID_IDENTITIES[identity]
    if builds is None:
        builds = {}
    grid = f"n={ns[0]}..{ns[-1]}"
    if ts is None:
        points = [(n,) for n in ns]
    else:
        grid += f", t={ts[0]}..{ts[-1]}"
        points = itertools.product(ns, ts)
    failures = [failure for point in points for failure in failures_at(builds, *point)]
    return _record("cascade", {"identity": identity, "grid": grid}, failures)


def _grid_row(identities: tuple[str, ...]) -> list[ClaimRecord]:
    """The records of the grid identities ``identities``, which share one
    memo of builds; the sweep passes all of them, in one row."""
    # The pool pickles this function by name; identity_grid_check is looked
    # up when the task runs, so a wrapper put in its place is still called.
    builds: dict = {}
    return [identity_grid_check(identity, builds) for identity in identities]


# --- q-log-convexity and monotonicity claims ------------------------------------

def _qlc_tasks(tag: str, n_max: int, jobs: int) -> tuple:
    """The row function and the tasks (tag, lo, hi) of family ``tag``'s
    defects for ``jobs`` workers: contiguous n-ranges of about equal cost,
    four per worker for D, one per worker for W and F (one range 1..n_max
    when ``jobs`` is 1), as ``criteria.qlc_ranges`` cuts them."""
    if tag in ROW_RECURRENCES:
        return _qlc_recurrence_chunk, [(tag, lo, hi) for lo, hi
                                       in qlc_ranges(n_max, jobs, per_job=1, power=2)]
    return _qlc_chunk, [(tag, lo, hi) for lo, hi in qlc_ranges(n_max, jobs)]


def _qlc_claim(tag: str, n_max: int, jobs: int, batch=None,
               f_rows=None) -> tuple[ClaimRecord, list[tuple[int, int | None, int | None]]]:
    """One family's q-log-convexity record for n = 1..n_max, and its rows
    (n, first negative, last negative defect coefficient index), the one
    row shape every engine gives.

    D multiplies its defects out and keeps only those two indices of each:
    through ``q_log_convex_direct`` when ``jobs`` is 1, else in contiguous
    n-ranges of ``criteria._qlc_chunk``.  W and F, which have recurrences
    in n (``families.ROW_RECURRENCES``), advance their defect products by
    them in ``criteria._qlc_recurrence_chunk``: one range 1..n_max when
    ``jobs`` is 1, else one range per worker, each seeded directly.
    ``_qlc_tasks`` lists the ranges, and ``_map_rows`` computes, plans or
    reads them as ``batch`` says, so the rows depend on ``jobs`` alone.

    V is not multiplied out; it reads ``f_rows``, the rows of F, through the
    lemma: if V_m(q) = q^m F_m(1/q) for m = n-1, n and n+1, then

        V_{n+1} V_{n-1} - V_n^2 = q^(2n) (F_{n+1} F_{n-1} - F_n^2)(1/q),

    so V's defect coefficient i is F's coefficient 2n - i (F's defect may
    end in zeros, which Poly strips; the map is 2n - i, not from the end),
    and V's first negative index is 2n minus F's last.  The premise is
    checked exactly for every m in 0..n_max+1, in one row
    (``_unmirrored_rows``): F's row m has degree m and V's row m is it
    reversed.  A row that fails the check fails the record, and no defect
    is read through it.
    """
    if tag == "V":
        # a planning pass reads no rows, and the union of none is empty
        unmirrored = set().union(*_map_rows(batch, _unmirrored_rows, [n_max]))
        failures = [f"row {m} of V is not row {m} of F reversed" for m in unmirrored]
        rows = [(n, None if last is None else 2 * n - last,
                 None if first is None else 2 * n - first)
                for n, first, last in f_rows if unmirrored.isdisjoint((n - 1, n, n + 1))]
    else:
        failures = []
        if jobs <= 1 and tag not in ROW_RECURRENCES:
            rows = q_log_convex_direct(tag, n_max)
        else:
            row, tasks = _qlc_tasks(tag, n_max, jobs)
            rows = [r for chunk in _map_rows(batch, row, tasks) for r in chunk]
    failures += [f"negative defect coefficient {first} at n={n}"
                 for n, first, _last in rows if first is not None]
    return _record(f"qlc_{tag}", {"family": tag, "n_max": n_max}, failures), rows


def qlc_check(tag: str, n_max: int,
              jobs: int) -> tuple[ClaimRecord, list[tuple[int, int | None, int | None]]]:
    """The ``qlc_<tag>`` record of a certificate with ``n_max_direct`` =
    ``n_max`` and ``parallelism`` = ``jobs``, and its rows (n, first
    negative, last negative defect coefficient index), from ``_qlc_claim``.
    With ``jobs`` above 1 the family's rows go through one ``pool.map`` in
    a pool of its own, planned as a pooled run's are (``_pooled``).  V
    reads F's rows, as ``_qlc_f_and_v`` does.
    """
    def claim(batch):
        f_rows = _qlc_claim("F", n_max, jobs, batch)[1] if tag == "V" else None
        return _qlc_claim(tag, n_max, jobs, batch, f_rows)

    return _pooled(claim, jobs)


def _unmirrored_rows(n_max: int) -> set[int]:
    """The m in 0..n_max+1 where F's row m is not of degree m, or V's row m
    is not F's row m reversed."""
    unmirrored = set()
    for m in range(n_max + 2):
        f = family_poly("F", m).coeffs
        if len(f) != m + 1 or family_poly("V", m).coeffs != f[::-1]:
            unmirrored.add(m)
    return unmirrored


def _qlc_f_and_v(config: VerificationConfig, batch) -> list[ClaimRecord]:
    """The qlc_F and qlc_V records from one set of F defect products.

    An exception in F's products fails both records; one in V's reversal
    check fails V alone.
    """
    n_max, jobs = config.n_max_direct, config.parallelism
    try:
        f_record, f_rows = _qlc_claim("F", n_max, jobs, batch)
    except Exception as exc:  # V rests on these products too
        return [_error_record("qlc_F", exc), _error_record("qlc_V", exc)]
    try:
        v_record, _rows = _qlc_claim("V", n_max, jobs, batch, f_rows)
    except Exception as exc:
        v_record = _error_record("qlc_V", exc)
    return [f_record, v_record]


def _monotonicity_claim(n_max: int, root_ratio_n_max: int) -> ClaimRecord:
    failures = [f"{part} fails at n={n}" for part, n in zip(
        ("ratio growth", "nth-root growth", "root-ratio decrease"),
        root_monotonicity_check(n_max, root_ratio_n_max)) if n is not None]
    return _record("monotonicity",
                   {"n_max": n_max, "root_ratio_n_max": root_ratio_n_max}, failures)


# The pool pickles a row by name, and these two look their claim up when the
# row runs, so a wrapper put in its place is still called, as in _grid_row.

def _monotonicity_row(bounds: tuple[int, int]) -> ClaimRecord:
    return _monotonicity_claim(*bounds)


def _series_row(bounds: tuple[int, int]) -> ClaimRecord:
    return series_claim(*bounds)


# --- orchestration ---------------------------------------------------------------

def _sort_key(record: ClaimRecord):
    n = record.params.get("n", "")
    return (
        record.claim,
        record.params.get("part", ""),
        record.params.get("identity", ""),
        int(n) if n.lstrip("-").isdigit() else -1,
        sorted(record.params.items()),
    )


# Every sweep, costliest first (in-process timings at default bounds), so that
# cheap rows fill the tail of a pooled run's map: the claim id of its error
# record, and a function of the run's config and batch that returns its
# records, computing only in its rows (``_map_rows``).  Degenerate bounds
# leave a sweep empty rather than failing the certificate: a sweep whose
# bound is below its first n has no rows, and monotonicity, whose check
# raises below n = 2, is skipped there.
SWEEPS = (
    ("qlc_D", lambda c, batch: [_qlc_claim("D", c.n_max_direct, c.parallelism, batch)[0]]),
    ("prop32", lambda c, batch: verify_prop32(c.n_max_factorization, batch)),
    ("qlc_F", _qlc_f_and_v),  # and qlc_V, read from F's defects
    ("factorization", lambda c, batch: factorization_sweep(c.n_max_factorization, batch)),
    ("qlc_W", lambda c, batch: [_qlc_claim("W", c.n_max_direct, c.parallelism, batch)[0]]),
    ("prop31", lambda c, batch: verify_prop31(c.n_max_sturm, batch)),
    ("claims123", lambda c, batch: verify_claims(c.n_max_sturm, batch)),
    ("cascade", lambda c, batch: [record for records in _map_rows(
        batch, _grid_row, [tuple(GRID_IDENTITIES)]) for record in records]),
    ("prop33", lambda c, batch: verify_prop33(c.n_max_factorization, batch)),
    ("monotonicity", lambda c, batch: _map_rows(
        batch, _monotonicity_row, [(c.n_max_monotonicity, c.n_max_root_ratio)])
        if c.n_max_monotonicity >= 2 else []),
    ("series", lambda c, batch: _map_rows(batch, _series_row, [(c.series_N, c.series_digits)])),
)


def run_full_verification(config: VerificationConfig | None = None) -> Certificate:
    """Run every sweep and assemble the certificate.

    Unexpected exceptions inside a sweep become failing claim records; the
    overall verdict is "pass" exactly when every record passed.  With
    ``parallelism`` above 1 one pool of that many workers computes the rows
    of every sweep in one map, planned by running the sweeps (``_pooled``).
    """
    config = config or VerificationConfig()
    config.validate()

    def run_sweeps(batch) -> list[ClaimRecord]:
        claims: list[ClaimRecord] = []
        for claim_id, sweep in SWEEPS:
            try:
                claims.extend(sweep(config, batch))
            except Exception as exc:  # a failed sweep must surface, never vanish
                claims.append(_error_record(claim_id, exc))
        return claims

    claims = _pooled(run_sweeps, config.parallelism)
    claims.sort(key=_sort_key)
    verdict = "pass" if all(c.passed for c in claims) else "fail"
    return Certificate(
        version=__version__,
        parameters=config.as_parameters(),
        claims=tuple(claims),
        verdict=verdict,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    )
