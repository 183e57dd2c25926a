"""Acceptance sweep: every stated criterion at its stated bound and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) together with its runtime.
"""

import json
import time
from fractions import Fraction

from qlogconvex.criteria import (
    criterion_c2_sweep,
    op_L,
    q_log_convex_direct,
    root_monotonicity_check,
)
from qlogconvex.families import DOMB_ARRAY
from qlogconvex.polynomials import IntervalSign, Poly, sign_constant_on, sturm_count_roots
from qlogconvex import proofpolys
from qlogconvex.verification import (
    CLAIM1_PAIRS,
    SERIES_TOLERANCE,
    VerificationConfig,
    chan_partial_sum,
    factorization_sweep,
    identity_grid_check,
    run_full_verification,
    series_claim,
)


def _report(criterion, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} in {elapsed:.2f}s (limit {limit}s){suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"
    assert elapsed < limit, f"criterion {criterion} exceeded its runtime limit"


def test_criterion_01_boundary_operator_table():
    start = time.perf_counter()
    expected = [4, 4, 8, 32, 24, 40, 320, 646, 152, 280, 3808, 14296, 7772, 860]
    actual = [op_L(DOMB_ARRAY, n, t, 0) for n in range(1, 5) for t in range(n + 1)]
    _report("01 boundary-table", actual == expected, time.perf_counter() - start, 1)


def test_criterion_02_domb_q_log_convexity_to_200():
    start = time.perf_counter()
    rows = q_log_convex_direct("D", 200)
    ok = rows == [(n, None, None) for n in range(1, 201)]
    _report("02 qlc-domb-200", ok, time.perf_counter() - start, 60)


def test_criterion_03_other_families_to_150():
    start = time.perf_counter()
    ok = all(
        q_log_convex_direct(tag, 150) == [(n, None, None) for n in range(1, 151)]
        for tag in ("W", "V", "F")
    )
    _report("03 qlc-WVF-150", ok, time.perf_counter() - start, 60)


def test_criterion_04_factorization_identity_to_60():
    start = time.perf_counter()
    records = factorization_sweep(60)
    ok = len(records) == 60 and all(r.passed for r in records)
    _report("04 factorization-60", ok, time.perf_counter() - start, 120)


def test_criterion_05_cascade_and_specialization_grids():
    start = time.perf_counter()
    ok = all(
        identity_grid_check(identity).passed
        for identity in ("cascade", "specialization", "xi_extraction",
                         "eta_extraction", "theta_link")
    )
    _report("05 identity-grids", ok, time.perf_counter() - start, 30)


def test_criterion_06_endpoint_closed_forms():
    start = time.perf_counter()
    ok = all(
        identity_grid_check(identity).passed
        for identity in ("theta_endpoint_forms", "xi_eta_endpoint_forms",
                         "midpoint_forms", "nn_endpoint_forms")
    )
    _report("06 endpoint-forms", ok, time.perf_counter() - start, 30)


def test_criterion_07_sturm_scaffolding_to_100():
    start = time.perf_counter()
    failures = []
    for n in range(5, 101):
        theta4 = proofpolys.theta_poly(n).derivative().derivative().derivative().derivative()
        if sturm_count_roots(theta4, 0, n - 1) != 1:
            failures.append(f"theta'''' count at n={n}")
    for n in range(4, 101):
        xi = proofpolys.xi_poly(n)
        lo, hi = Fraction(3 * n, 4), Fraction(n - 1)
        if lo == hi:
            if not xi(lo) < 0:
                failures.append(f"xi at n={n}")
        elif sign_constant_on(xi, lo, hi) is not IntervalSign.NEGATIVE:
            failures.append(f"xi at n={n}")
        eta = proofpolys.eta_poly(n)
        if sign_constant_on(eta, 0, Fraction(3 * n, 4)) is not IntervalSign.NEGATIVE:
            failures.append(f"eta at n={n}")
    for n, t in CLAIM1_PAIRS:
        if not proofpolys.eta_poly(n)(t) < 0:
            failures.append(f"claim1 pair ({n}, {t})")
    _report("07 sturm-scaffolding", not failures, time.perf_counter() - start, 120,
            failures[0] if failures else "")


def test_criterion_08_single_crossing_to_150():
    start = time.perf_counter()
    ok = all(criterion_c2_sweep(DOMB_ARRAY, n) is None for n in range(2, 151))
    _report("08 crossing-150", ok, time.perf_counter() - start, 120)


def test_criterion_09_series_tolerance():
    start = time.perf_counter()
    record = series_claim(100, 40)
    bound = Fraction(record.witness["distance_bound"])
    ok = record.passed and bound < SERIES_TOLERANCE == Fraction(1, 10**28)
    detail = f"distance bound {record.witness['distance_bound']}"
    _report("09 series", ok, time.perf_counter() - start, 5, detail)
    assert chan_partial_sum(1) == Fraction(11, 8)


def test_criterion_10_monotonicity_evidence():
    start = time.perf_counter()
    failures = root_monotonicity_check(300, 120)
    _report("10 monotonicity", failures == (None, None, None), time.perf_counter() - start, 60)


def test_criterion_11_determinism_and_fault_injection(monkeypatch):
    start = time.perf_counter()
    config = dict(n_max_direct=10, n_max_factorization=8, n_max_sturm=8,
                  series_N=100, n_max_monotonicity=10, n_max_root_ratio=6)
    first = run_full_verification(VerificationConfig(**config))
    second = run_full_verification(VerificationConfig(**config))
    a, b = first.to_dict(), second.to_dict()
    ts_a, ts_b = a.pop("timestamp"), b.pop("timestamp")
    deterministic = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert first.verdict == "pass"

    original = proofpolys.psi1_poly

    def tampered(n, t):
        poly = original(n, t)
        if (n, t) == (6, 3):
            coeffs = list(poly.coeffs)
            coeffs[1] -= 1
            return Poly(coeffs)
        return poly

    monkeypatch.setattr(proofpolys, "psi1_poly", tampered)
    tampered_cert = run_full_verification(VerificationConfig(**config))
    flipped = tampered_cert.verdict == "fail"
    pinpointed = any(
        "n=6" in str(c.witness) and "t=3" in str(c.witness)
        for c in tampered_cert.claims if not c.passed
    )
    ok = deterministic and flipped and pinpointed
    detail = f"deterministic={deterministic}, flipped={flipped}, pinpointed={pinpointed}"
    _report("11 certificate", ok, time.perf_counter() - start, 120, detail)


def test_full_default_verification_passes():
    start = time.perf_counter()
    certificate = run_full_verification(VerificationConfig())
    failures = [c for c in certificate.claims if not c.passed]
    _report("full default-config run", certificate.passed,
            time.perf_counter() - start, 300,
            str(failures[0].params) if failures else "")
