import collections
import json
import math
import multiprocessing
import multiprocessing.pool
import pickle
import re
from datetime import datetime, timezone
from fractions import Fraction

import pytest

from qlogconvex.polynomials import Poly
from qlogconvex import criteria, families, hiprec, polynomials, proofpolys
from qlogconvex.verification import (
    BOUNDARY_TABLE,
    CLAIM1_PAIRS,
    Certificate,
    ClaimRecord,
    GRID_IDENTITIES,
    SERIES_TOLERANCE,
    VerificationConfig,
    _factorization_row,
    chan_partial_sum,
    check_series_digits,
    factorization_check,
    factorization_sweep,
    identity_grid_check,
    run_full_verification,
    series_claim,
    verify_claims,
    verify_prop31,
    verify_prop32,
    verify_prop33,
)
from qlogconvex import cli, verification
from qlogconvex.criteria import op_L
from qlogconvex.hiprec import ccl_constant_bounds
from qlogconvex.families import DOMB_ARRAY, TriangularArray

SMALL_CONFIG = dict(
    n_max_direct=12,
    n_max_factorization=8,
    n_max_sturm=10,
    series_N=100,
    series_digits=40,
    n_max_monotonicity=12,
    n_max_root_ratio=8,
)


def test_boundary_table_is_the_published_list():
    flat = [v for row in BOUNDARY_TABLE.values() for v in row]
    assert flat == [4, 4, 8, 32, 24, 40, 320, 646, 152, 280, 3808, 14296, 7772, 860]
    for n, row in BOUNDARY_TABLE.items():
        assert row == tuple(op_L(DOMB_ARRAY, n, t, 0) for t in range(n + 1))


def _corrupt_psi(monkeypatch, cell):
    """Make proofpolys.psi_poly wrong by one in the constant term at one (n, t)."""
    original = proofpolys.psi_poly

    def tampered(n, t):
        poly = original(n, t)
        return poly + Poly([1]) if (n, t) == cell else poly

    monkeypatch.setattr(proofpolys, "psi_poly", tampered)


def _prefactor(n, t, k):
    """C(n,k)^2 C(2n-2k,n-k) C(n,t-k)^2 C(2n-2t+2k,n-t+k), from math.comb."""
    j = t - k
    return (math.comb(n, k) ** 2 * math.comb(2 * n - 2 * k, n - k)
            * math.comb(n, j) ** 2 * math.comb(2 * n - 2 * j, n - j))


def _denominator(n, t, k):
    return (n**2 * (n - k + 1) ** 3 * (n - t + k + 1) ** 3
            * (2 * n - 2 * k - 1) * (2 * n - 2 * t + 2 * k - 1))


def _row_cells(n):
    return [(t, k) for t in range(n + 1) for k in range(t // 2 + 1)]


def test_factorization_hand_checked_cell(monkeypatch):
    assert factorization_check(2) == []
    assert op_L(DOMB_ARRAY, 2, 2, 1) * _denominator(2, 2, 1) == -5120
    assert _prefactor(2, 2, 1) * proofpolys.psi_poly(2, 2)(1) == -5120
    _corrupt_psi(monkeypatch, (2, 2))
    cells = factorization_check(2)
    assert [(c.t, c.k, c.lhs, c.rhs) for c in cells][-1] == (2, 1, -5120, -5120 + 64)


def test_factorization_trivial_cell(monkeypatch):
    assert factorization_check(1) == []
    assert op_L(DOMB_ARRAY, 1, 0, 0) == 4
    _corrupt_psi(monkeypatch, (1, 0))
    [cell] = factorization_check(1)
    assert (cell.t, cell.k, cell.lhs) == (0, 0, 4 * _denominator(1, 0, 0))
    assert cell.lhs != cell.rhs and (cell.lhs > 0) == (cell.rhs > 0)


def test_factorization_excluded_cell_flips_sign():
    n = 5
    # the t = n, k = 0 cell holds with L and psi of opposite signs
    assert factorization_check(n) == []
    assert _denominator(n, n, 0) < 0  # (2n - 2t + 2k - 1) = -1 there
    assert op_L(DOMB_ARRAY, n, n, 0) > 0
    assert proofpolys.psi_poly(n, n)(0) < 0


@pytest.mark.parametrize("tamper", [None, Poly([1])])
def test_factorization_row_matches_per_cell_checks(monkeypatch, tamper):
    # with psi shifted by one at every (n, t) every cell fails, so the row
    # returns each: its rhs is the math.comb prefactor times the true
    # psi(k) + 1, and the row reports it in the message it always had
    original = proofpolys.psi_poly
    if tamper is not None:
        monkeypatch.setattr(proofpolys, "psi_poly", lambda n, t: original(n, t) + tamper)
    for n in range(1, 13):
        cells = factorization_check(n)
        assert _factorization_row(n) == (n, [
            f"identity failure at (n={n}, t={c.t}, k={c.k}): lhs={c.lhs}, rhs={c.rhs}"
            for c in cells])
        if tamper is None:
            assert cells == []
            continue
        assert len(cells) == sum(t // 2 + 1 for t in range(n + 1))
        assert [(c.n, c.t, c.k) for c in cells] == [(n, t, k) for t, k in _row_cells(n)]
        for c in cells:
            assert c.rhs == _prefactor(n, c.t, c.k) * (original(n, c.t)(c.k) + 1), (n, c.t, c.k)
            assert c.lhs != c.rhs


def test_tampered_psi_fails_its_factorization_record(monkeypatch):
    n, t = 23, 9
    _corrupt_psi(monkeypatch, (n, t))
    certificate = run_full_verification(VerificationConfig(**{**SMALL_CONFIG,
                                                              "n_max_factorization": 24}))
    assert certificate.verdict == "fail"
    failing = [c for c in certificate.claims if c.claim == "factorization" and not c.passed]
    assert [c.params["n"] for c in failing] == [str(n)]
    assert failing[0].witness["first_failure"].startswith(f"identity failure at (n={n}, t={t}, k=0)")
    assert failing[0].witness["failure_count"] == str(t // 2 + 1)


def test_factorization_check_reads_the_operator_of_every_admissible_cell(monkeypatch):
    # op_L is the reference for L_t(a(n,k)), also at t = n, where row n - 1
    # is read one past its end; psi shifted by one makes every cell fail,
    # so the row returns the lhs of each
    original = proofpolys.psi_poly
    monkeypatch.setattr(proofpolys, "psi_poly", lambda n, t: original(n, t) + Poly([1]))
    for n in range(1, 13):
        cells = factorization_check(n)
        assert [(c.t, c.k) for c in cells] == _row_cells(n)
        for c in cells:
            assert c.lhs == op_L(DOMB_ARRAY, n, c.t, c.k) * _denominator(n, c.t, c.k), (n, c.t, c.k)
    for n in (0, -1, 1.0, "3"):
        with pytest.raises(ValueError, match="factorization row needs an integer n >= 1"):
            factorization_check(n)


@pytest.mark.parametrize("n, t, k", [(1, 2, 0), (3, 5, 1), (3, 6, 2), (12, 20, 7)])
def test_factorization_check_rejects_cells_beyond_the_prefactor(monkeypatch, n, t, k):
    # t - k > n: C(n, t - k) in the prefactor has no row, so row n builds
    # psi(n, t) only for t <= n and returns no such cell, even when every
    # cell it checks fails
    built = []
    original = proofpolys.psi_poly

    def recording(m, s):
        built.append((m, s))
        return original(m, s) + Poly([1])

    monkeypatch.setattr(proofpolys, "psi_poly", recording)
    cells = factorization_check(n)
    assert built == [(n, s) for s in range(n + 1)]
    assert len(cells) == len(_row_cells(n))
    assert (t, k) not in [(c.t, c.k) for c in cells]
    assert all(c.t - c.k <= n for c in cells)


def _seed_array_rows(monkeypatch, rows):
    """Have the Domb array build ``rows[m]`` in place of its row m, from a
    cold memo.  The rows go in where the array builds them, not into its
    memo, whose three-row window would evict them and build the true rows."""
    original = TriangularArray._row

    def seeded(array, m):
        return rows[m] if array is DOMB_ARRAY and m in rows else original(array, m)

    monkeypatch.setattr(TriangularArray, "_row", seeded)
    monkeypatch.setattr(DOMB_ARRAY, "_memo", {})


def test_tampered_array_row_fails_the_factorization_records_that_read_it(monkeypatch):
    # row 7 is read as a(n+1, .), a(n, .) and a(n-1, .) by the records
    # n = 6, 7 and 8; every cell with k = 3 or t - k = 3 breaks, and the
    # t = n cells of n = 8 read the padded a(7, 8) = 0 next to it
    n = 7
    row = list(DOMB_ARRAY.row(n))
    row[3] *= 10**6
    _seed_array_rows(monkeypatch, {n: tuple(row)})
    failing = [r for r in factorization_sweep(10) if not r.passed]
    assert [(r.params["n"], r.witness["failure_count"]) for r in failing] == [
        ("6", "4"), ("7", "5"), ("8", "6")]
    assert [r.witness["first_failure"].split(":")[0] for r in failing] == [
        f"identity failure at (n={m}, t=3, k=0)" for m in (6, 7, 8)]


def test_factorization_sweep_small():
    records = factorization_sweep(10)
    assert len(records) == 10
    assert all(r.passed for r in records)


def test_factorization_sweep_parallel_matches_serial():
    pooled = verification._pooled(lambda batch: factorization_sweep(6, batch), 2)
    assert pooled == factorization_sweep(6)


def test_verify_prop31_small():
    records = verify_prop31(10)
    assert all(r.passed for r in records)
    parts = {r.params["part"] for r in records}
    assert parts == {"table", "operator", "theta"}


def test_tampered_array_row_fails_the_same_prop31_record(monkeypatch):
    # a(7, 3) and a(7, 7) inflated make L_t(a(7, 0)) = ... - 2 a(7, 0) a(7, t)
    # negative at t = 3 and at the last column t = n; rows 6 and 8 read the
    # same row as a(n+1, .) and a(n-1, .), which stay positive terms
    n = 7
    row = list(DOMB_ARRAY.row(n))
    for t in (3, n):
        row[t] *= 10**6
    _seed_array_rows(monkeypatch, {n: tuple(row)})
    assert [t for t in range(n + 1) if op_L(DOMB_ARRAY, n, t, 0) < 0] == [3, n]
    failing = [r for r in verify_prop31(10) if not r.passed]
    assert [(r.params["part"], r.params["n"]) for r in failing] == [("theta", str(n))]
    assert failing[0].witness == {"first_failure": f"operator negative at (n={n}, t=3, k=0)",
                                  "failure_count": "2"}


def test_k0_brackets_scale_to_the_operator():
    # C(2n, n) B_t = c_n L_t(a(n, 0)) with c_n = 2(n+1)(2n-1), exactly
    for n in range(1, 151):
        c_n = 2 * (n + 1) * (2 * n - 1)
        brackets = verification._boundary_brackets(n)
        assert len(brackets) == n + 1
        for t, bracket in enumerate(brackets):
            assert bracket * math.comb(2 * n, n) == c_n * op_L(DOMB_ARRAY, n, t, 0), (n, t)


@pytest.mark.parametrize("m", [3, 7])
def test_tampered_k0_entry_fails_every_prop31_record_that_reads_it(monkeypatch, m):
    # row m is read by the records n = m - 1, m and m + 1, each of whose
    # premise ties a(m, 0) to a neighbour; a(3, 0) is also in the table
    row = list(DOMB_ARRAY.row(m))
    row[0] *= 2
    _seed_array_rows(monkeypatch, {m: tuple(row)})
    failing = [r for r in verify_prop31(10) if not r.passed]
    table = [("table", "0")] if m <= 4 else []
    assert [(r.params["part"], r.params["n"]) for r in failing] == table + [
        ("theta" if n >= 5 else "operator", str(n)) for n in (m - 1, m, m + 1)]
    for record, n in zip(failing[len(table):], (m - 1, m, m + 1)):
        assert record.witness == {
            "first_failure": f"k = 0 column premise failed at n={n}: a(m,0) for "
                             f"m = {n - 1}..{n + 1} does not step like C(2m,m)",
            "failure_count": "1"}


def test_negated_k0_column_fails_the_premise_where_the_ratios_still_hold(monkeypatch):
    # a(6, 0), a(7, 0) and a(8, 0) all negated keep both ratios of record 7,
    # while L_t(a(7, 0)) turns negative; the premise asks a(n, 0) > 0 too
    rows = {}
    for m in (6, 7, 8):
        row = list(DOMB_ARRAY.row(m))
        row[0] = -row[0]
        rows[m] = tuple(row)
    _seed_array_rows(monkeypatch, rows)
    assert op_L(DOMB_ARRAY, 7, 3, 0) < 0
    failing = [r for r in verify_prop31(10) if not r.passed]
    assert [r.params["n"] for r in failing] == ["5", "6", "7", "8", "9"]
    assert all(r.witness["first_failure"].startswith("k = 0 column premise failed")
               for r in failing)


def test_tampered_interior_entry_fails_the_operator_records_that_read_it(monkeypatch):
    # a(8, 4) made negative is a(n+1, 4) for n = 7 and a(n-1, 4) for n = 9,
    # where it enters L_4(a(n, 0)) with a positive weight; for n = 8 it is
    # a(n, 4), whose term -2 a(8, 0) a(8, 4) only grows
    row = list(DOMB_ARRAY.row(8))
    row[4] *= -10**6
    _seed_array_rows(monkeypatch, {8: tuple(row)})
    assert [n for n in (7, 8, 9) if op_L(DOMB_ARRAY, n, 4, 0) < 0] == [7, 9]
    failing = [r for r in verify_prop31(10) if not r.passed]
    assert [r.params["n"] for r in failing] == ["7", "9"]
    assert [r.witness for r in failing] == [
        {"first_failure": f"operator negative at (n={n}, t=4, k=0)", "failure_count": "1"}
        for n in (7, 9)]


def test_prop31_lists_its_operator_failures_and_claims23_owns_the_xi_extraction(monkeypatch):
    # row 7 tampered as in the test above, and xi's constant coefficient off
    # by one at n = 7: prop31, which never reads xi, lists exactly its two
    # operator failures, and the claims 2-3 record at n = 7, which rests on
    # the xi extraction, lists its breaks after its own endpoint failures
    n = 7
    row = list(DOMB_ARRAY.row(n))
    for t in (3, n):
        row[t] *= 10**6
    _seed_array_rows(monkeypatch, {n: tuple(row)})
    original_xi = proofpolys.xi_poly
    monkeypatch.setattr(proofpolys, "xi_poly",
                        lambda m: original_xi(m) + Poly([1]) if m == n else original_xi(m))
    listed = {}
    original_record = verification._record

    def spy(claim, params, failures):
        listed[claim, params.get("part"), params.get("n")] = list(failures)
        return original_record(claim, params, failures)

    monkeypatch.setattr(verification, "_record", spy)
    failing = [r for r in verify_prop31(10) if not r.passed]
    assert [(r.params["part"], r.params["n"]) for r in failing] == [("theta", str(n))]
    assert failing[0].witness == {"first_failure": f"operator negative at (n={n}, t=3, k=0)",
                                  "failure_count": "2"}
    assert listed["prop31", "theta", n] == [
        f"operator negative at (n={n}, t=3, k=0)", f"operator negative at (n={n}, t={n}, k=0)"]
    failing = [r for r in verify_claims(10) if not r.passed]
    assert [(r.params["part"], r.params["n"]) for r in failing] == [("claims23", str(n))]
    assert listed["claims123", "claims23", n] == [
        f"xi(n-1) form mismatch at n={n}", f"xi(3n/4) form mismatch at n={n}",
        *(f"xi extraction fails at (n={n}, t={t})" for t in range(9))]


@pytest.mark.parametrize("index", range(7))
def test_theta_coefficient_bumped_by_one_fails_prop31(monkeypatch, index):
    n = 9
    original = proofpolys.theta_poly
    coeffs = list(original(n).coeffs)
    coeffs[index] += 1
    monkeypatch.setattr(proofpolys, "theta_poly",
                        lambda m: Poly(coeffs) if m == n else original(m))
    failing = [r for r in verify_prop31(10) if not r.passed]
    assert [(r.params["part"], r.params["n"]) for r in failing] == [("theta", str(n))]


def test_theta_signs_are_read_from_the_difference_table(monkeypatch):
    # theta(9) shifted down by its smallest positive value, at t = 8, fails
    # the sign sweep at exactly t = 8, first; the endpoint rows are read
    # from the same shifted chain, so the four order-0 rows miss their
    # closed forms, and theta(n-1) = theta(8), now zero, also its sign
    n = 9
    original = proofpolys.build_theta

    def shifted(m):
        bundle = original(m)
        if m != n:
            return bundle
        return bundle._replace(theta=bundle.theta - Poly([bundle.theta(8)]))

    monkeypatch.setattr(proofpolys, "build_theta", shifted)
    lines, record = {}, verification._record
    monkeypatch.setattr(verification, "_record", lambda claim, params, failures:
                        lines.update({params["n"]: failures}) or record(claim, params, failures))
    failing = [r for r in verify_prop31(10) if not r.passed]
    assert [r.params["n"] for r in failing] == [str(n)]
    assert failing[0].witness == {"first_failure": f"theta(8) not positive at n={n}",
                                  "failure_count": "6"}
    assert lines[n] == [f"theta(8) not positive at n={n}"] + [
        f"{label} at n={n}" for label in (
            "theta(0) form mismatch", "theta(1) form mismatch", "theta(n-1) form mismatch",
            "theta(n-1) sign claim failed", "theta(n) form mismatch")]


def _flip_sign(monkeypatch, table: str, label: str) -> None:
    """Give the row ``label`` of the endpoint-form table ``table`` the other sign."""
    rows = getattr(proofpolys, table)
    assert label in [row[0] for row in rows]
    monkeypatch.setattr(proofpolys, table, tuple(
        row[:5] + ({"+": "-", "-": "+"}[row[5]],) + row[6:] if row[0] == label else row
        for row in rows))


@pytest.mark.parametrize("table, label, sweep, first_n", [
    ("THETA_ENDPOINT_FORMS", "theta''''(0)", verify_prop31, 5),
    ("XI_ETA_ENDPOINT_FORMS", "eta(3n/4)", verify_claims, 4),
    # min n 4: the claims 2-3 records at n = 4..7 read xi(3n/4)'s sign too
    ("XI_ETA_ENDPOINT_FORMS", "xi(3n/4)", verify_claims, 4),
    ("NN_ENDPOINT_FORMS", "psi_nn(1)", verify_prop33, 3),
])
def test_a_flipped_sign_column_fails_the_sweep_that_reads_it(monkeypatch, table, label, sweep,
                                                             first_n):
    _flip_sign(monkeypatch, table, label)
    failing = [r for r in sweep(8) if not r.passed]
    assert [(r.params["n"], r.witness) for r in failing] == [
        (str(n), {"first_failure": f"{label} sign claim failed at n={n}", "failure_count": "1"})
        for n in range(first_n, 9)]


def test_verify_prop32_small():
    records = verify_prop32(10)
    assert len(records) == 9
    assert all(r.passed for r in records)
    # the displayed instance: psi1 positive at the axis for (n, t) = (4, 3)
    assert proofpolys.psi1_poly(4, 3)(Fraction(3, 2)) > 0


def test_verify_prop33_small():
    records = verify_prop33(10)
    assert all(r.passed for r in records)
    # n = 2 passes through its documented exception
    n2 = [r for r in records if r.params["n"] == "2"]
    assert len(n2) == 1 and n2[0].passed


def test_verify_claims_small():
    records = verify_claims(12)
    assert all(r.passed for r in records)
    assert records[0].params["part"] == "claim1"
    assert len(CLAIM1_PAIRS) == 9
    for n, t in CLAIM1_PAIRS:
        assert proofpolys.eta_poly(n)(t) < 0


def test_midpoint_values_are_in_the_ring_of_the_axis():
    for n in range(1, 13):
        for t in range(n + 1):
            polys = (proofpolys.psi1_poly(n, t), proofpolys.psi2_poly(n, t),
                     proofpolys.psi3_poly(n, t))
            rows = verification._midpoint_values(n, t, *polys)
            for (name, value, _sign, missed), poly in zip(rows, polys):
                assert value == poly(Fraction(t, 2)), (name, n, t)
                assert type(value) is (int if t % 2 == 0 else Fraction), (name, n, t)
                assert missed == [], (name, n, t)


@pytest.mark.parametrize("identity", GRID_IDENTITIES)
def test_identity_grid_checks_pass(identity):
    record = identity_grid_check(identity)
    assert record.passed, record.witness
    assert record.claim == "cascade"


def test_identity_grid_rejects_unknown():
    with pytest.raises(ValueError):
        identity_grid_check("nonsense")


def test_chan_partial_sums():
    assert chan_partial_sum(0) == 1
    assert chan_partial_sum(1) == Fraction(11, 8)
    with pytest.raises(ValueError):
        chan_partial_sum(-1)


def test_chan_partial_sums_match_the_per_n_sum():
    for N in range(41):
        assert chan_partial_sum(N) == sum(
            Fraction((5 * n + 1) * families.domb_number(n), 64**n) for n in range(N + 1)), N


def test_domb_number_off_at_the_top_index_fails_monotonicity(monkeypatch):
    term_sum = families.domb_number
    # the sweep reads D_0..D_top with top = max(n_max, root_ratio_n_max) + 2
    top = max(SMALL_CONFIG["n_max_monotonicity"], SMALL_CONFIG["n_max_root_ratio"]) + 2
    monkeypatch.setattr(families, "domb_number", lambda n: term_sum(n) + (n == top))
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    failing = [c for c in certificate.claims if not c.passed]
    assert [(c.claim, c.params) for c in failing] == [("monotonicity",
                                                       {"error": "ArithmeticError"})]
    assert certificate.verdict == "fail"


def test_series_claim_passes_at_n100():
    record = series_claim(100, 40)
    assert record.passed
    bound = Fraction(record.witness["distance_bound"])
    assert bound < SERIES_TOLERANCE


def test_series_claim_fails_at_n1():
    record = series_claim(1, 40)
    assert not record.passed
    assert record.witness["partial_sum"].startswith("1.375")


def test_degenerate_bounds_give_valid_certificate():
    config = VerificationConfig(
        n_max_direct=1, n_max_factorization=1, n_max_sturm=1, series_N=1,
        n_max_monotonicity=1, n_max_root_ratio=1,
    )
    certificate = run_full_verification(config)
    claim_ids = {c.claim for c in certificate.claims}
    assert "prop32" not in claim_ids and "monotonicity" not in claim_ids
    # nothing errored: the only failure is the (honestly) unconverged series
    failing = [c for c in certificate.claims if not c.passed]
    assert [c.claim for c in failing] == ["series"]
    assert not any("error" in c.params for c in certificate.claims)
    assert Certificate.loads(certificate.dumps()) == certificate


def test_sweeps_below_their_first_n_have_no_rows():
    table = verify_prop31(0)
    assert [r.params for r in table] == [{"part": "table", "n": "0"}] and table[0].passed
    assert verify_prop32(1) == [] and verify_prop33(1) == []
    assert verify_prop32(-3) == [] and verify_prop33(0) == []
    claim1 = verify_claims(3)
    assert [r.params for r in claim1] == [{"part": "claim1", "n": "0"}] and claim1[0].passed
    assert factorization_sweep(0) == []


def test_config_validation():
    VerificationConfig().validate()
    with pytest.raises(ValueError):
        VerificationConfig(n_max_direct=0).validate()
    with pytest.raises(ValueError):
        VerificationConfig(series_digits=5).validate()
    with pytest.raises(ValueError):
        VerificationConfig(series_digits=0).validate()


def test_series_digits_limit_follows_the_enclosure_width():
    for digits in range(1, 25):
        lo, hi = ccl_constant_bounds(digits)
        can_pass = (hi - lo) / 2 < SERIES_TOLERANCE
        config = VerificationConfig(series_digits=digits)
        if can_pass:
            check_series_digits(digits)
            config.validate()
        else:
            with pytest.raises(ValueError, match="can only fail"):
                check_series_digits(digits)
            with pytest.raises(ValueError, match="can only fail"):
                config.validate()
    # the first accepted digit count is also the first with which the claim passes at N = 100
    assert not series_claim(100, 14).passed
    assert series_claim(100, 15).passed


def test_certificate_round_trip():
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    assert certificate.passed
    text = certificate.dumps()
    assert Certificate.loads(text) == certificate
    # numbers live as decimal strings in the serialized document
    data = json.loads(text)
    assert data["parameters"]["n_max_direct"] == "12"


def test_records_survive_json_and_pickle():
    certificate = run_full_verification(VerificationConfig(**{**SMALL_CONFIG, "series_N": 1}))
    assert not certificate.passed
    loaded = Certificate.loads(certificate.dumps())
    assert loaded == certificate
    assert all(type(record) is ClaimRecord for record in loaded.claims)
    # pool workers send their records back pickled
    failing = next(record for record in certificate.claims if not record.passed)
    passing = next(record for record in certificate.claims if record.passed)
    assert failing.witness and not passing.witness
    for record in (failing, passing):
        assert pickle.loads(pickle.dumps(record)) == record


def test_timestamp_is_utc_to_the_second():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    stamp = run_full_verification(VerificationConfig(**SMALL_CONFIG)).timestamp
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert before <= datetime.fromisoformat(stamp) <= after


def test_passing_records_do_not_share_a_witness():
    first, second = (verification._record("series", {"N": n}, []) for n in (1, 2))
    assert first.witness == second.witness == {}
    assert first.witness is not second.witness


def test_certificate_verdict_reflects_failures():
    failing = ClaimRecord("series", {"N": "1"}, "fail", {"reason": "tolerance"})
    passing = ClaimRecord("series", {"N": "100"}, "pass")
    assert not failing.passed and passing.passed


def test_certificate_determinism():
    first = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    second = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    a, b = first.to_dict(), second.to_dict()
    a.pop("timestamp"), b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fault_injection_flips_verdict(monkeypatch):
    original = proofpolys.psi1_poly

    def tampered(n, t):
        poly = original(n, t)
        if (n, t) == (7, 4):
            coeffs = list(poly.coeffs)
            coeffs[2] += 1
            return Poly(coeffs)
        return poly

    monkeypatch.setattr(proofpolys, "psi1_poly", tampered)
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    assert certificate.verdict == "fail"
    failing = [c for c in certificate.claims if not c.passed]
    assert failing
    pinpointed = [c for c in failing if "n=7" in str(c.witness) and "t=4" in str(c.witness)]
    assert pinpointed, [c.witness for c in failing]


@pytest.mark.parametrize("columns", [(7,), (7, 33)])
def test_tampered_domb_row_fails_qlc_d_on_either_product_path(monkeypatch, columns):
    # D_40 doubled at k = 7 alone is no longer symmetric, so its square leaves
    # the palindromic product; doubled at k and n - k it stays symmetric and
    # on that path.  Either way qlc_D fails with one record: row 40 no longer
    # sums to D_40(1), and the defect at n = 40 turns negative at index 8.
    n = 40
    original_row = families._family_row

    def tampered(tag, m):
        row = original_row(tag, m)
        if (tag, m) == ("D", n):
            for k in columns:
                row[k] *= 2
        return row

    monkeypatch.setattr(families, "_family_row", tampered)
    palindromic = []
    original_mul = polynomials._palindromic_mul
    monkeypatch.setattr(polynomials, "_palindromic_mul",
                        lambda a, b, bits: palindromic.append((a, b)) or original_mul(a, b, bits))
    certificate = run_full_verification(VerificationConfig(**{**SMALL_CONFIG, "n_max_direct": 48}))
    assert [c for c in certificate.claims if not c.passed] == [ClaimRecord(
        "qlc_D", {"family": "D", "n_max": "48"}, "fail",
        {"first_failure": f"row {n} of D does not sum to D_{n}(1)", "failure_count": "2"})]
    row = families.family_poly("D", n).coeffs
    assert ((row, row) in palindromic) == (len(columns) == 2)
    _record, rows = verification.qlc_check("D", 48, 1)
    assert [(m, first) for m, first, _last in rows if first is not None] == [(n, 8)]


def _raise_row(monkeypatch, family, n, k):
    """The family's row n raised by one at coefficient k where ``families``
    builds it, so every reader of the row sees it."""
    original_row = families._family_row

    def tampered(tag, m):
        row = original_row(tag, m)
        if (tag, m) == (family, n):
            row[k] += 1
        return row

    monkeypatch.setattr(families, "_family_row", tampered)


def _raise_d_row(monkeypatch, n, k):
    _raise_row(monkeypatch, "D", n, k)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_a_d_row_off_by_one_fails_qlc_d_alone(monkeypatch, parallelism):
    # every defect that reads D_9 stays nonnegative, so only the row sum sees it
    _raise_d_row(monkeypatch, 9, 3)
    assert verification.qlc_check("D", 20, 1)[1] == [(m, None, None) for m in range(1, 21)]
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG,
                                                           parallelism=parallelism))
    assert [c for c in certificate.claims if not c.passed] == [ClaimRecord(
        "qlc_D", {"family": "D", "n_max": "12"}, "fail",
        {"first_failure": "row 9 of D does not sum to D_9(1)", "failure_count": "1"})]


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_qlc_fails_a_d_row_off_by_one(capsys, monkeypatch, jobs):
    _raise_d_row(monkeypatch, 9, 3)
    code, out = _check_qlc(capsys, "D", 20, jobs)
    assert code == cli.EXIT_VERIFICATION_FAILURE
    assert json.loads(out) == {"check": "qlc", "family": "D", "n_max": "20", "result": "fail",
                               "first_witness": "row 9 of D does not sum to D_9(1)"}


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_qlc_fails_a_w_row_off_by_one(capsys, monkeypatch, jobs):
    _raise_row(monkeypatch, "W", 70, 3)
    code, out = _check_qlc(capsys, "W", 80, jobs)
    assert code == cli.EXIT_VERIFICATION_FAILURE
    assert json.loads(out) == {"check": "qlc", "family": "W", "n_max": "80", "result": "fail",
                               "first_witness": "row 70 of W does not sum to W_70(1)"}


def test_unsummed_rows_lists_each_d_row_off_its_domb_number(monkeypatch):
    assert verification._unsummed_rows(("D", 30)) == []
    for n, k in ((0, 0), (9, 3), (31, 30)):
        _raise_d_row(monkeypatch, n, k)
    assert verification._unsummed_rows(("D", 30)) == [0, 9, 31]


# (family, row n) raised by one at coefficient 3 -> (the records of the
# default certificate that fail, the first failure of the first of them).
# D and W rows are held to their sums at 1; an F or a V row breaks qlc_V's
# check that V's row is F's reversed, and no other record reads row 120.
ROW_TAMPERS = {
    ("D", 9): (["qlc_D"], "row 9 of D does not sum to D_9(1)"),
    ("W", 70): (["qlc_W"], "row 70 of W does not sum to W_70(1)"),
    ("F", 120): (["qlc_V"], "row 120 of V is not row 120 of F reversed"),
    ("V", 120): (["qlc_V"], "row 120 of V is not row 120 of F reversed"),
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("family, n", list(ROW_TAMPERS))
def test_a_family_row_off_by_one_fails_its_qlc_records(monkeypatch, family, n, parallelism):
    _raise_row(monkeypatch, family, n, 3)
    certificate = run_full_verification(VerificationConfig(parallelism=parallelism))
    failed = [c for c in certificate.claims if not c.passed]
    claims, first_failure = ROW_TAMPERS[family, n]
    assert [c.claim for c in failed] == claims
    assert failed[0].witness["first_failure"] == first_failure


def test_eta_bump_inside_the_interval_fails_claim3(monkeypatch):
    """K t (4t - 3n) vanishes at both ends of [0, 3n/4], so within the claims
    sweep the endpoint forms and the eta'' axis still hold; of the claim's
    own checks only the interval check, an exact root count, sees that eta
    turns positive inside.  (Its eta extraction check sees the bump at
    t = 1..8.)"""
    n = 19  # above the eta_extraction grid identity (n <= 17)
    original = proofpolys.eta_poly
    eta = original(n)
    K = -(math.ceil(abs(eta(Fraction(3 * n, 8)))) + 1)
    bumped = eta + Poly([0, -3 * n * K, 4 * K])
    assert bumped(0) == eta(0) and bumped(Fraction(3 * n, 4)) == eta(Fraction(3 * n, 4))
    assert bumped(Fraction(3 * n, 8)) > 0
    monkeypatch.setattr(proofpolys, "eta_poly", lambda m: bumped if m == n else original(m))

    failing = [r for r in verify_claims(n) if not r.passed]
    assert [r.params for r in failing] == [{"part": "claims23", "n": str(n)}]
    assert failing[0].witness["first_failure"] == f"eta not negative on [0, 3n/4] at n={n}"
    assert failing[0].witness["failure_count"] == "9"

    certificate = run_full_verification(VerificationConfig(**{**SMALL_CONFIG, "n_max_sturm": n}))
    assert certificate.verdict == "fail"
    failed = [c for c in certificate.claims if not c.passed]
    assert failing[0] in failed
    assert "prop31" not in {c.claim for c in failed}  # prop31 never reads eta


def test_every_polynomial_built_has_int_coefficients(monkeypatch):
    # the integer contract of ``polynomials``: a serial certificate and the
    # qlc check of every family build no coefficient of another type
    types = collections.Counter()
    init = Poly.__init__

    def spy(self, coeffs=()):
        init(self, coeffs)
        types.update(map(type, self.coeffs))

    monkeypatch.setattr(Poly, "__init__", spy)
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG)).passed
    for tag in ("D", "W", "V", "F"):
        assert verification.qlc_check(tag, 40, 1)[0].passed
    assert set(types) == {int} and types[int] > 0


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("builder", sorted(name for name in vars(proofpolys)
                                            if name.endswith("_poly")))
def test_a_rational_coefficient_fails_closed(monkeypatch, builder, index):
    # half a unit on one coefficient at one n leaves the integers: whether a
    # kernel raises on it or computes on with it, the certificate fails
    n = 7
    original = getattr(proofpolys, builder)

    def tampered(m, *t):
        poly = original(m, *t)
        if m != n:
            return poly
        coeffs = list(poly.coeffs)
        coeffs[index] += Fraction(1, 2)
        return Poly(coeffs)

    monkeypatch.setattr(proofpolys, builder, tampered)
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    assert certificate.verdict == "fail"
    assert [c for c in certificate.claims if not c.passed]


def test_run_captures_executor_errors(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("sweep blew up")

    monkeypatch.setattr("qlogconvex.verification.verify_prop32", explode)
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    assert certificate.verdict == "fail"
    errors = [c for c in certificate.claims if c.params.get("error") == "RuntimeError"]
    assert errors and errors[0].witness["message"] == "sweep blew up"


def test_pooled_run_matches_serial():
    serial = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    pooled = run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2))
    assert serial.passed
    assert pooled.claims == serial.claims


def test_pooled_certificate_differs_from_serial_only_in_parallelism_and_timestamp():
    serial, pooled = (run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=jobs))
                      for jobs in (1, 2))
    dicts = [certificate.to_dict() for certificate in (serial, pooled)]
    assert [d["parameters"]["parallelism"] for d in dicts] == ["1", "2"]
    for d in dicts:
        del d["timestamp"], d["parameters"]["parallelism"]
    assert dicts[0] == dicts[1]


def test_one_pool_per_run(monkeypatch):
    opened = []
    real_context = multiprocessing.get_context

    def counting_context(method=None):
        context = real_context(method)

        class Counting:
            @staticmethod
            def Pool(*args, **kwargs):
                opened.append((method, args))
                return context.Pool(*args, **kwargs)

        return Counting

    monkeypatch.setattr(multiprocessing, "get_context", counting_context)
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2)).passed
    assert opened == [("fork", (2,))]
    opened.clear()
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG)).passed
    assert opened == []


def test_tampered_psi1_fails_the_same_records_pooled(monkeypatch):
    """The pool is forked inside the run, so it sees a replacement made before it."""
    original = proofpolys.psi1_poly

    def tampered(n, t):
        poly = original(n, t)
        return Poly((poly.coeffs[0] + 1,) + poly.coeffs[1:]) if (n, t) == (7, 3) else poly

    monkeypatch.setattr(proofpolys, "psi1_poly", tampered)
    serial = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    pooled = run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2))
    assert serial.verdict == pooled.verdict == "fail"
    failing = [c for c in serial.claims if not c.passed]
    assert failing and [c for c in pooled.claims if not c.passed] == failing


def test_pooled_row_errors_match_serial(monkeypatch):
    """Rows that raise at two n give the serial run's single error record,
    from the smaller n, although the pool runs the larger n first."""
    original = proofpolys.build_psi

    def flaky(n, t):
        if n in (5, 7):
            raise RuntimeError(f"row {n} blew up")
        return original(n, t)

    monkeypatch.setattr(proofpolys, "build_psi", flaky)
    serial = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    pooled = run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2))
    assert pooled.claims == serial.claims
    errors = [c for c in serial.claims if "error" in c.params]
    assert errors == [ClaimRecord("prop32", {"error": "RuntimeError"}, "fail",
                                  {"message": "row 5 blew up"})]


def test_pooled_certificate_with_recurrence_ranges_matches_serial():
    # at n_max_direct = 60 the pooled W and F ranges reseed at their first
    # rows, in the middle of the serial run's single range
    config = {**SMALL_CONFIG, "n_max_direct": 60}
    serial, pooled = (run_full_verification(VerificationConfig(**config, parallelism=jobs))
                      for jobs in (1, 2))
    assert pooled.claims == serial.claims
    assert serial.verdict == "pass"


# --- the pooled plan: every row in one map --------------------------------------

def _count_maps(monkeypatch):
    maps = []
    real_map = multiprocessing.pool.Pool.map

    def counting_map(self, *args, **kwargs):
        maps.append(len(args[1]))
        return real_map(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map", counting_map)
    return maps


@pytest.mark.parametrize("run", [
    lambda jobs: run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=jobs)),
    lambda jobs: verification.qlc_check("D", 20, jobs),
    lambda jobs: verification.qlc_check("V", 20, jobs),
], ids=["verify-paper", "qlc-D", "qlc-V"])
def test_a_pooled_run_makes_one_map_and_a_serial_run_none(monkeypatch, run):
    maps = _count_maps(monkeypatch)
    run(2)
    assert len(maps) == 1 and maps[0] > 1
    maps.clear()
    run(1)
    assert maps == []


@pytest.mark.parametrize("length, count", [(0, 4), (1, 4), (3, 4), (4, 4), (59, 4), (100, 6)])
def test_chunks_cover_every_item_once_contiguous_and_in_order(length, count):
    items = list(range(10, 10 + length))
    chunks = verification._chunks(items, count)
    assert len(chunks) == min(length, count)
    assert all(chunks) and [item for chunk in chunks for item in chunk] == items
    assert max(map(len, chunks), default=0) - min(map(len, chunks), default=0) <= 1


# every function that a pooled run sends through its map
ROW_NAMES = ("_prop31_row", "_prop32_row", "_prop33_row", "_claim1_row", "_claims23_row",
             "_factorization_row", "_grid_row", "_qlc_direct_row", "_qlc_recurrence_chunk",
             "_unsummed_rows", "_unmirrored_rows", "_monotonicity_row", "_series_row")


def _spy(monkeypatch, owner, name, calls, phase=("run",)):
    """Replace ``owner.name`` by a pass-through that appends (phase[0], name,
    args) to ``calls``."""
    original = getattr(owner, name)

    def spied(*args):
        calls.append((phase[0], name, args))
        return original(*args)

    spied.__name__ = name
    monkeypatch.setattr(owner, name, spied)


def _plan_only(monkeypatch, phase=None):
    """Replace a pooled run's one map: the tasks it would send are appended
    to the list returned, and the rows are then computed in this process,
    as with no pool (batch None)."""
    tasks = []

    def run_batch(jobs, planned):
        tasks.extend(planned)
        if phase is not None:
            phase[0] = "read"

    monkeypatch.setattr(verification, "_run_batch", run_batch)
    return tasks


def test_the_plan_is_the_serial_row_calls_and_computes_nothing(monkeypatch):
    """A pooled run plans its map by running its sweeps with a list as the
    batch.  That pass calls no row, builds no polynomial, family row, Domb
    array row or Domb number and encloses no constant; and it plans, as a
    multiset, the row calls that the same sweeps make with no pool."""
    phase, calls = ["validate"], []
    real_validate = VerificationConfig.validate

    def validate(config):
        real_validate(config)
        phase[0] = "plan"

    monkeypatch.setattr(VerificationConfig, "validate", validate)
    tasks = _plan_only(monkeypatch, phase)
    builders = [name for name in dir(proofpolys)
                if name.endswith(("_poly", "_polys")) or name.startswith("build_")]
    assert len(builders) == 16
    for owner, names in ((verification, ROW_NAMES), (proofpolys, builders),
                         (families, ["family_poly", "domb_numbers"]),
                         (criteria, ["family_poly", "domb_numbers"]),
                         (verification, ["family_poly", "domb_numbers", "ccl_constant_bounds"]),
                         (hiprec, ["ccl_constant_bounds"]), (TriangularArray, ["row"])):
        for name in names:
            _spy(monkeypatch, owner, name, calls, phase)
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2)).passed
    assert phase == ["read"]
    assert [call for call in calls if call[0] == "plan"] == []
    planned = collections.Counter((row.__name__, item) for row, items in tasks for item in items)
    assert {name for name, _item in planned} == set(ROW_NAMES)
    assert planned == collections.Counter((name, args[0]) for when, name, args in calls
                                          if when == "read" and name in ROW_NAMES)


@pytest.mark.parametrize("tag, engine", [("D", "_qlc_direct_row"),
                                         ("W", "_qlc_recurrence_chunk"),
                                         ("F", "_qlc_recurrence_chunk")])
def test_a_serial_qlc_claim_maps_one_range(monkeypatch, tag, engine):
    mapped, original = [], verification._map_rows

    def spied(batch, row, items):
        mapped.append((row.__name__, list(items)))
        return original(batch, row, items)

    monkeypatch.setattr(verification, "_map_rows", spied)
    record, rows = verification._qlc_claim(tag, 30, 1)
    assert record.passed and len(rows) == 30
    assert [(row, items) for row, items in mapped if row != "_unsummed_rows"] == [
        (engine, [(tag, 1, 30)])]
    assert [row for row, _items in mapped].count("_unsummed_rows") == (tag in ("D", "W"))


def test_the_pooled_plan_runs_the_nine_grid_identities_as_one_task(monkeypatch):
    tasks = _plan_only(monkeypatch)
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2)).passed
    assert [items for row, items in tasks if row is verification._grid_row] == [
        [tuple(GRID_IDENTITIES)]]


def test_the_parent_of_a_pooled_run_computes_no_tail(monkeypatch):
    """The series, the monotonicity evidence and V's reversal check are rows
    of the one map.  The spies are in place when the pool forks, so each
    worker calls its own copy and records in its own list, which the parent
    never sees: what the parent's list holds, the parent called."""
    calls = []
    for owner, name in ((verification, "root_monotonicity_check"),
                        (verification, "chan_partial_sum"), (verification, "family_poly"),
                        (criteria, "family_poly"), (families, "family_poly")):
        _spy(monkeypatch, owner, name, calls)
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG)).passed
    assert {name for _when, name, _args in calls} == {
        "root_monotonicity_check", "chan_partial_sum", "family_poly"}
    calls.clear()
    assert run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2)).passed
    assert calls == []


def test_a_row_error_in_the_last_chunk_matches_serial(monkeypatch):
    """The last n of prop32 and of the factorization raise in the chunks the
    pool runs first; each sweep still gives the serial run's error record."""
    original_psi, original_check = proofpolys.build_psi, verification.factorization_check

    def flaky_psi(n, t):
        if n == 8:
            raise RuntimeError(f"psi row {n} blew up")
        return original_psi(n, t)

    def flaky_check(n):
        if n >= 7:
            raise ArithmeticError(f"factorization row {n} blew up")
        return original_check(n)

    monkeypatch.setattr(proofpolys, "build_psi", flaky_psi)
    monkeypatch.setattr(verification, "factorization_check", flaky_check)
    serial, pooled = (run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=jobs))
                      for jobs in (1, 2))
    assert pooled.claims == serial.claims
    assert [c for c in serial.claims if "error" in c.params] == [
        ClaimRecord("factorization", {"error": "ArithmeticError"}, "fail",
                    {"message": "factorization row 7 blew up"}),
        ClaimRecord("prop32", {"error": "RuntimeError"}, "fail",
                    {"message": "psi row 8 blew up"})]


def test_a_map_that_raises_gives_every_pooled_sweep_an_error_record(monkeypatch):
    class LocalError(Exception):
        """Defined here, so a worker cannot pickle it back and the map raises."""

    def explode(n, t):
        raise LocalError("not sent back")

    monkeypatch.setattr(proofpolys, "build_psi", explode)
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=2))
    assert certificate.verdict == "fail"
    errors = [c for c in certificate.claims if not c.passed]
    assert [c.claim for c in errors] == sorted([
        "prop31", "prop32", "prop33", "claims123", "factorization", "cascade",
        "qlc_D", "qlc_W", "qlc_F", "qlc_V", "monotonicity", "series"])
    assert {c.params["error"] for c in errors} == {"MaybeEncodingError"}
    assert [c.claim for c in certificate.claims if c.passed] == []

# --- qlc_V read from F's defects through V_n(q) = q^n F_n(1/q) -------------------

def _defect(tag, n):
    """P_{n+1} P_{n-1} - P_n^2, from the rows where the qlc sweeps read them
    (``criteria.family_poly``, which a test may tamper with)."""
    row = criteria.family_poly
    return row(tag, n + 1) * row(tag, n - 1) - row(tag, n) ** 2


def _direct_rows(tag, n_max):
    """(n, first, last negative defect index) for n = 1..n_max, from
    defects computed here."""
    rows = []
    for n in range(1, n_max + 1):
        negative = [i for i, c in enumerate(_defect(tag, n).coeffs) if c < 0]
        rows.append((n, negative[0], negative[-1]) if negative else (n, None, None))
    return rows


def test_v_defect_is_the_f_defect_reversed():
    # F's defect ends in a zero coefficient that Poly strips, so it is
    # padded to the 2n + 1 coefficients of degree 2n before it is reversed
    for n in range(1, 41):
        f = _defect("F", n).coeffs
        padded = f + (0,) * (2 * n + 1 - len(f))
        assert _defect("V", n) == Poly(padded[::-1])


def _tamper_family_rows(monkeypatch, change):
    """Route the qlc sweeps' family rows through ``change(tag, m, row)``.

    The rows are replaced where the qlc code reads them, not in
    ``families._family_row``, which also fills the Domb array's memo.
    """
    original = families.family_poly

    def tampered(tag, m):
        row = list(original(tag, m).coeffs)
        change(tag, m, row)
        return Poly(row)

    monkeypatch.setattr(criteria, "family_poly", tampered)
    monkeypatch.setattr(verification, "family_poly", tampered)


def _mirrored_tamper(monkeypatch, bumps):
    """Triple F_m's coefficient k and V_m's coefficient m - k for each (m, k),
    so the rows still mirror but the defects around m turn negative."""
    def change(tag, m, row):
        for bumped_m, k in bumps:
            if m == bumped_m and tag in ("F", "V"):
                row[k if tag == "F" else m - k] *= 3

    _tamper_family_rows(monkeypatch, change)


@pytest.mark.parametrize("bumps", [[(9, 0)], [(9, 9)], [(14, 4)], [(6, 3), (17, 12)]])
def test_derived_v_failures_match_the_direct_products(monkeypatch, bumps):
    _mirrored_tamper(monkeypatch, bumps)
    n_max = 20
    f_record, f_rows = verification._qlc_claim("F", n_max, 1)
    v_record, v_rows = verification._qlc_claim("V", n_max, 1, None, f_rows)
    direct = _direct_rows("V", n_max)
    assert v_rows == direct
    bad = [(n, first) for n, first, _last in direct if first is not None]
    assert bad and not f_record.passed
    assert v_record.witness == {
        "first_failure": f"negative defect coefficient {bad[0][1]} at n={bad[0][0]}",
        "failure_count": str(len(bad))}


def _failing_qlc(monkeypatch, tag, m, k, factor):
    """The failing records of a serial and a 2-worker pooled run, with family
    ``tag``'s row m scaled by ``factor`` at coefficient k."""
    def change(family, row_m, row):
        if (family, row_m) == (tag, m):
            row[k] *= factor

    _tamper_family_rows(monkeypatch, change)
    serial, pooled = (run_full_verification(VerificationConfig(**SMALL_CONFIG, parallelism=jobs))
                      for jobs in (1, 2))
    assert pooled.claims == serial.claims
    return [c for c in serial.claims if not c.passed]


def test_tampered_v_row_fails_qlc_v_alone(monkeypatch):
    # V's row 6 no longer mirrors F's, so nothing certifies the V defects
    # that read it, whatever their signs; F's records stand
    assert _failing_qlc(monkeypatch, "V", 6, 2, 2) == [ClaimRecord(
        "qlc_V", {"family": "V", "n_max": "12"}, "fail",
        {"first_failure": "row 6 of V is not row 6 of F reversed", "failure_count": "1"})]


def test_tampered_f_row_fails_qlc_f_and_qlc_v(monkeypatch):
    failing = _failing_qlc(monkeypatch, "F", 6, 3, 3)
    assert [(c.claim, c.witness["first_failure"]) for c in failing] == [
        ("qlc_F", "negative defect coefficient 3 at n=6"),
        ("qlc_V", "row 6 of V is not row 6 of F reversed")]


@pytest.mark.parametrize("parallelism", [1, 2])
def test_an_error_in_f_products_fails_both_records(monkeypatch, parallelism):
    def flaky(tag, m, row):
        if (tag, m) == ("F", 9):
            raise RuntimeError("F row 9 blew up")

    _tamper_family_rows(monkeypatch, flaky)
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG,
                                                           parallelism=parallelism))
    errors = [c for c in certificate.claims if "error" in c.params]
    assert errors == [ClaimRecord(claim, {"error": "RuntimeError"}, "fail",
                                  {"message": "F row 9 blew up"})
                      for claim in ("qlc_F", "qlc_V")]


def test_an_error_in_the_reversal_check_fails_qlc_v_alone(monkeypatch):
    def explode(n_max):
        raise RuntimeError("reversal check blew up")

    monkeypatch.setattr(verification, "_unmirrored_rows", explode)
    certificate = run_full_verification(VerificationConfig(**SMALL_CONFIG))
    assert [c for c in certificate.claims if not c.passed] == [ClaimRecord(
        "qlc_V", {"error": "RuntimeError"}, "fail", {"message": "reversal check blew up"})]
    assert [c.passed for c in certificate.claims if c.claim == "qlc_F"] == [True]


# --- check qlc reads the qlc records ------------------------------------------

def _direct_qlc_summary(tag, n_max):
    """``check qlc --format json``'s bytes, built from the direct products."""
    bad = [(n, first) for n, first, _last in _direct_rows(tag, n_max) if first is not None]
    summary = {"check": "qlc", "family": tag, "n_max": str(n_max),
               "result": "fail" if bad else "pass"}
    if bad:
        summary["first_witness"] = f"n={bad[0][0]}, coefficient {bad[0][1]}"
    return json.dumps(summary, indent=2) + "\n"


def _check_qlc(capsys, tag, n_max, jobs):
    code = cli.main(["check", "qlc", "--family", tag, "--n-max", str(n_max),
                     "--jobs", str(jobs), "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("tag", ["D", "W", "V", "F"])
def test_check_qlc_serial_and_pooled_match_the_direct_products(capsys, tag):
    outputs = {jobs: _check_qlc(capsys, tag, 40, jobs) for jobs in (1, 2)}
    assert outputs[1] == outputs[2] == (cli.EXIT_OK, _direct_qlc_summary(tag, 40))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("tag, mirrored, bumps", [
    ("F", False, [(9, 3)]), ("F", False, [(9, 7)]), ("F", True, [(14, 4)]),
    ("V", True, [(9, 0)]), ("V", True, [(6, 3), (17, 12)])])
def test_check_qlc_on_tampered_rows_gives_the_direct_witness(capsys, monkeypatch,
                                                             tag, mirrored, bumps, jobs):
    # F's row m tripled at coefficient k, alone or with V's row m in mirror
    def triple_f(family, m, row):
        for bumped_m, k in bumps:
            if (family, m) == ("F", bumped_m):
                row[k] *= 3

    if mirrored:
        _mirrored_tamper(monkeypatch, bumps)
    else:
        _tamper_family_rows(monkeypatch, triple_f)
    expected = _direct_qlc_summary(tag, 20)
    assert '"result": "fail"' in expected
    assert _check_qlc(capsys, tag, 20, jobs) == (cli.EXIT_VERIFICATION_FAILURE, expected)


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_qlc_fails_a_v_row_that_is_not_f_reversed(capsys, monkeypatch, jobs):
    # V's row 6 off by one at coefficient 2: its direct defects stay
    # nonnegative, but no F defect certifies them
    def change(tag, m, row):
        if (tag, m) == ("V", 6):
            row[2] += 1

    _tamper_family_rows(monkeypatch, change)
    assert '"result": "pass"' in _direct_qlc_summary("V", 20)
    code, out = _check_qlc(capsys, "V", 20, jobs)
    assert code == cli.EXIT_VERIFICATION_FAILURE
    assert json.loads(out) == {"check": "qlc", "family": "V", "n_max": "20", "result": "fail",
                               "first_witness": "row 6 of V is not row 6 of F reversed"}


def test_monotonicity_and_check_logconvex_name_the_same_failing_position(capsys, monkeypatch):
    # D_30 doubled breaks strict log-convexity at the interior index 30, which
    # the ratio claim D_{n+2}/D_{n+1} > D_{n+1}/D_n names as n = 29
    original = families.domb_numbers

    def tampered(stop):
        numbers = original(stop)
        if stop > 30:
            numbers[30] *= 2
        return numbers

    monkeypatch.setattr(criteria, "domb_numbers", tampered)
    monkeypatch.setattr(cli, "domb_numbers", tampered)
    record = verification._monotonicity_claim(40, 10)
    assert record.witness["first_failure"] == "ratio growth fails at n=29"
    assert cli.main(["check", "logconvex", "--n-max", "40", "--format", "json"]) == \
        cli.EXIT_VERIFICATION_FAILURE
    assert json.loads(capsys.readouterr().out)["first_witness"] == "index 30"
