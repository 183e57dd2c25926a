"""Which grid-certified identities catch a fault in the polynomials they prove.

Each builder in ``proofpolys`` is replaced in turn by one whose constant
coefficient is off by one at a single n, and each endpoint-form table gets
one closed form off by one.  The grid records must see the replacement: they
look their builders and tables up in ``proofpolys`` when they run.  And the
sweeps that read the endpoint-form tables build each polynomial once.  The
messages of the per-n rows and of the identity records are pinned word for
word, since both read the one checker of each identity, and a fault past
the grid's n range fails the per-n record whose claim rests on the identity.
"""

import collections

import pytest

from qlogconvex import proofpolys, verification
from qlogconvex.polynomials import Poly
from qlogconvex.verification import (
    GRID_IDENTITIES,
    identity_grid_check,
    verify_claims,
    verify_prop31,
    verify_prop32,
    verify_prop33,
)

BUMPED_N = 9

# builder -> the grid records a bump of its constant coefficient at n = 9 fails
CATCHES = {
    "theta_poly": {"theta_link", "theta_endpoint_forms"},
    "xi_poly": {"xi_extraction", "xi_eta_endpoint_forms"},
    "eta_poly": {"eta_extraction", "xi_eta_endpoint_forms"},
    "psi_poly": {"specialization", "theta_link"},
    "psi1_poly": {"cascade", "specialization", "xi_extraction", "midpoint_forms"},
    "psi2_poly": {"cascade", "specialization", "eta_extraction", "midpoint_forms"},
    "psi3_poly": {"cascade", "specialization", "midpoint_forms"},
    **{f"psi{i}_nn_poly": {"specialization", "nn_endpoint_forms"} for i in ("", "1", "2", "3")},
}


def _bump(monkeypatch, builder: str, index: int, at: int = BUMPED_N) -> None:
    """Put 1 on coefficient ``index`` of ``builder``'s polynomials at n = ``at``."""
    original = getattr(proofpolys, builder)

    def bumped(n, *t):
        poly = original(n, *t)
        if n != at:
            return poly
        coeffs = list(poly.coeffs)
        coeffs[index] += 1
        return Poly(coeffs)

    monkeypatch.setattr(proofpolys, builder, bumped)


def _grid_failures(identities) -> dict:
    """identity -> (first failure, failure count) of each failing record."""
    failures = {}
    for identity in identities:
        record = identity_grid_check(identity)
        if not record.passed:
            failures[identity] = (record.witness["first_failure"],
                                  record.witness["failure_count"])
    return failures


@pytest.mark.parametrize("builder", sorted(CATCHES))
def test_a_bumped_builder_fails_exactly_the_grid_records_that_read_it(monkeypatch, builder):
    _bump(monkeypatch, builder, 0)
    failures = _grid_failures(GRID_IDENTITIES)
    assert set(failures) == CATCHES[builder]
    assert _messages(failures) == PINNED_MESSAGES[builder, 0]


def _bump_first_closed_form(monkeypatch, table: str) -> str:
    """Put 1 on the first closed form of ``table`` at n = 9; return its label.
    The closed form is the third field from the end of every row."""
    first, *rest = getattr(proofpolys, table)
    closed = first[-3]
    row = first[:-3] + (lambda n: closed(n) + (n == BUMPED_N),) + first[-2:]
    monkeypatch.setattr(proofpolys, table, (row, *rest))
    return first[0]


def _failing(records) -> list:
    return [(r.claim, r.params, r.witness) for r in records if not r.passed]


def test_a_bumped_theta_form_fails_its_grid_record_and_prop31(monkeypatch):
    label = _bump_first_closed_form(monkeypatch, "THETA_ENDPOINT_FORMS")
    assert label == "theta(0)"
    assert _failing([identity_grid_check("theta_endpoint_forms")]) == [(
        "cascade", {"identity": "theta_endpoint_forms", "grid": "n=1..20"},
        {"first_failure": "theta(0) form mismatch at n=9", "failure_count": "1"})]
    assert _failing(verify_prop31(BUMPED_N)) == [(
        "prop31", {"part": "theta", "n": "9"},
        {"first_failure": "theta(0) form mismatch at n=9", "failure_count": "1"})]


def test_a_bumped_xi_eta_form_fails_its_grid_record_and_claims23(monkeypatch):
    label = _bump_first_closed_form(monkeypatch, "XI_ETA_ENDPOINT_FORMS")
    assert label == "xi(n-1)"
    assert _failing([identity_grid_check("xi_eta_endpoint_forms")]) == [(
        "cascade", {"identity": "xi_eta_endpoint_forms", "grid": "n=1..20"},
        {"first_failure": "xi(n-1) form mismatch at n=9", "failure_count": "1"})]
    assert _failing(verify_claims(BUMPED_N)) == [(
        "claims123", {"part": "claims23", "n": "9"},
        {"first_failure": "xi(n-1) form mismatch at n=9", "failure_count": "1"})]


def test_a_bumped_nn_form_fails_its_grid_record_and_prop33(monkeypatch):
    label = _bump_first_closed_form(monkeypatch, "NN_ENDPOINT_FORMS")
    assert label == "psi_nn3(0)"
    assert _failing([identity_grid_check("nn_endpoint_forms")]) == [(
        "cascade", {"identity": "nn_endpoint_forms", "grid": "n=1..20"},
        {"first_failure": "psi_nn3(0) form mismatch at n=9", "failure_count": "1"})]
    assert _failing(verify_prop33(BUMPED_N)) == [(
        "prop33", {"n": "9"},
        {"first_failure": "psi_nn3(0) form mismatch at n=9", "failure_count": "1"})]


# the builders the endpoint-form tables name
FORM_BUILDERS = ("theta_poly", "xi_poly", "eta_poly",
                 "psi_nn_poly", "psi1_nn_poly", "psi2_nn_poly", "psi3_nn_poly")


@pytest.mark.parametrize("reader, builds", [
    (proofpolys.build_theta, {"theta_poly": 1}),
    (verification._claims23_row, {"xi_poly": 1, "eta_poly": 1}),
    (verification._prop33_row, {f"psi{i}_nn_poly": 1 for i in ("", "1", "2", "3")}),
])
def test_the_endpoint_form_readers_build_each_polynomial_once(monkeypatch, reader, builds):
    built = collections.Counter()
    for name in FORM_BUILDERS:
        original = getattr(proofpolys, name)
        monkeypatch.setattr(proofpolys, name,
                            lambda n, name=name, original=original: built.update([name])
                            or original(n))
    reader(BUMPED_N)
    assert built == builds


# The messages of the per-n rows and of the identity grid records, word for
# word.  (builder, coefficient bumped by 1 at n = 9) -> (the first failure
# and failure count of prop33's record at n = 9, those of the claims 2-3
# record at n = 9, and each failing record among the cascade, the
# specialization and the three extractions, with its first failure and
# failure count); None where the per-n record passes.
PINNED_MESSAGES = {
    ("psi_nn_poly", 0): (
        ("psi specialization fails at n=9", "1"), None,
        {"specialization": ("psi specialization fails at n=9", "1")}),
    ("psi_nn_poly", 1): (
        ("psi_nn' cascade fails at (n=9, t=9)", "2"), None,
        {"specialization": ("psi specialization fails at n=9", "1")}),
    ("psi1_nn_poly", 0): (
        ("psi_nn' cascade fails at (n=9, t=9)", "2"), None,
        {"specialization": ("psi1 specialization fails at n=9", "1")}),
    ("psi1_nn_poly", 1): (
        ("psi_nn' cascade fails at (n=9, t=9)", "3"), None,
        {"specialization": ("psi1 specialization fails at n=9", "1")}),
    ("psi2_nn_poly", 0): (
        ("psi_nn1' cascade fails at (n=9, t=9)", "2"), None,
        {"specialization": ("psi2 specialization fails at n=9", "1")}),
    ("psi2_nn_poly", 1): (
        ("psi_nn1' cascade fails at (n=9, t=9)", "3"), None,
        {"specialization": ("psi2 specialization fails at n=9", "1")}),
    ("psi3_nn_poly", 0): (
        ("psi_nn2' cascade fails at (n=9, t=9)", "2"), None,
        {"specialization": ("psi3 specialization fails at n=9", "1")}),
    ("psi3_nn_poly", 1): (
        ("psi_nn2' cascade fails at (n=9, t=9)", "2"), None,
        {"specialization": ("psi3 specialization fails at n=9", "1")}),
    ("psi_poly", 0): (
        ("psi specialization fails at n=9", "1"), None,
        {"specialization": ("psi specialization fails at n=9", "1"),
         "theta_link": ("psi(0) != (n+1)^2 theta(t) at (n=9, t=0)", "18")}),
    ("psi_poly", 1): (
        ("psi specialization fails at n=9", "1"), None,
        {"cascade": ("psi' cascade fails at (n=9, t=0)", "18"),
         "specialization": ("psi specialization fails at n=9", "1")}),
    ("psi1_poly", 0): (
        ("psi1 specialization fails at n=9", "1"),
        ("xi extraction fails at (n=9, t=0)", "9"),
        {"cascade": ("psi' cascade fails at (n=9, t=0)", "18"),
         "specialization": ("psi1 specialization fails at n=9", "1"),
         "xi_extraction": ("xi extraction fails at (n=9, t=0)", "18")}),
    ("psi1_poly", 1): (
        ("psi1 specialization fails at n=9", "1"), None,
        {"cascade": ("psi' cascade fails at (n=9, t=0)", "36"),
         "specialization": ("psi1 specialization fails at n=9", "1")}),
    ("psi2_poly", 0): (
        ("psi2 specialization fails at n=9", "1"),
        ("eta extraction fails at (n=9, t=0)", "9"),
        {"cascade": ("psi1' cascade fails at (n=9, t=0)", "18"),
         "specialization": ("psi2 specialization fails at n=9", "1"),
         "eta_extraction": ("eta extraction fails at (n=9, t=0)", "18")}),
    ("psi2_poly", 1): (
        ("psi2 specialization fails at n=9", "1"), None,
        {"cascade": ("psi1' cascade fails at (n=9, t=0)", "36"),
         "specialization": ("psi2 specialization fails at n=9", "1")}),
    ("psi3_poly", 0): (
        ("psi3 specialization fails at n=9", "1"), None,
        {"cascade": ("psi2' cascade fails at (n=9, t=0)", "18"),
         "specialization": ("psi3 specialization fails at n=9", "1")}),
    ("psi3_poly", 1): (
        ("psi3 specialization fails at n=9", "1"), None,
        {"cascade": ("psi2' cascade fails at (n=9, t=0)", "18"),
         "specialization": ("psi3 specialization fails at n=9", "1")}),
    # xi and eta: the claims 2-3 record lists its two endpoint mismatches,
    # then an extraction break at each t = 0..8 the bump moves
    ("xi_poly", 0): (None, ("xi(n-1) form mismatch at n=9", "11"),
                     {"xi_extraction": ("xi extraction fails at (n=9, t=0)", "18")}),
    ("xi_poly", 1): (None, ("xi(n-1) form mismatch at n=9", "10"),
                     {"xi_extraction": ("xi extraction fails at (n=9, t=1)", "17")}),
    ("eta_poly", 0): (None, ("eta(0) form mismatch at n=9", "11"),
                      {"eta_extraction": ("eta extraction fails at (n=9, t=0)", "18")}),
    ("eta_poly", 1): (None, ("eta(3n/4) form mismatch at n=9", "9"),
                      {"eta_extraction": ("eta extraction fails at (n=9, t=1)", "17")}),
    ("theta_poly", 0): (None, None,
                        {"theta_link": ("psi(0) != (n+1)^2 theta(t) at (n=9, t=0)", "18")}),
    ("theta_poly", 1): (None, None,
                        {"theta_link": ("psi(0) != (n+1)^2 theta(t) at (n=9, t=1)", "17")}),
}

PINNED_RECORDS = ("cascade", "specialization", "xi_extraction", "eta_extraction", "theta_link")


def _witness(row):
    """(first failure, failure count) of the record ``row`` gives at n = 9,
    or None when it passes."""
    record = row(BUMPED_N)
    return None if record.passed else (record.witness["first_failure"],
                                       record.witness["failure_count"])


def _messages(failures: dict) -> tuple:
    """The pinned messages of a fault, given its failing grid records."""
    return (_witness(verification._prop33_row), _witness(verification._claims23_row),
            {identity: failures[identity] for identity in PINNED_RECORDS
             if identity in failures})


@pytest.mark.parametrize("builder", sorted(CATCHES))
def test_the_bundle_and_grid_messages_of_a_bumped_builder(monkeypatch, builder):
    # coefficient 0 is pinned by the test of the records a bump fails
    _bump(monkeypatch, builder, 1)
    assert _messages(_grid_failures(PINNED_RECORDS)) == PINNED_MESSAGES[builder, 1]


# A psi1 or psi2 wrong at one n past both the grid (n <= 17) and prop32's
# range fails the claims 2-3 record at that n, which rests on its x = 0
# extraction, and not prop31, which never reads it.
@pytest.mark.parametrize("builder, extracted", [("psi1_poly", "xi"), ("psi2_poly", "eta")])
def test_a_cofactor_wrong_past_the_grid_fails_the_claim_that_rests_on_it(monkeypatch, builder,
                                                                        extracted):
    n = 70
    _bump(monkeypatch, builder, 0, at=n)
    assert _failing(verify_claims(80)) == [(
        "claims123", {"part": "claims23", "n": str(n)},
        {"first_failure": f"{extracted} extraction fails at (n={n}, t=0)", "failure_count": "9"})]
    assert _failing(verify_prop31(80)) == []
    level = "" if builder == "psi1_poly" else "1"
    assert _failing(verify_prop32(72)) == [(
        "prop32", {"n": str(n), "t_range": f"0..{n - 1}"},
        {"first_failure": f"psi{level}' cascade fails at (n={n}, t=0)", "failure_count": str(n)})]


GRID_BUILDERS = ("psi_poly", "psi1_poly", "psi2_poly", "psi3_poly",
                 "theta_poly", "xi_poly", "eta_poly")


def test_the_serial_grid_sweep_builds_each_polynomial_once_per_grid_point(monkeypatch):
    built = collections.Counter()
    for name in GRID_BUILDERS:
        original = getattr(proofpolys, name)
        monkeypatch.setattr(proofpolys, name,
                            lambda *point, name=name, original=original:
                            built.update([(name, *point)]) or original(*point))
    checked = collections.Counter()
    original_check = verification.identity_grid_check
    monkeypatch.setattr(verification, "identity_grid_check",
                        lambda identity, builds: checked.update([identity])
                        or original_check(identity, builds))
    records = verification._grid_row(tuple(GRID_IDENTITIES))
    assert all(record.passed for record in records)
    assert checked == collections.Counter(list(GRID_IDENTITIES))
    assert max(built.values()) == 1
    # psi on the 17 x 18 grid, its cofactors also on the midpoint grid's
    # 20 x 18, and the polynomials in t once for each of the 20 n
    assert collections.Counter(name for name, *_point in built) == {
        "psi_poly": 306, "psi1_poly": 360, "psi2_poly": 360, "psi3_poly": 360,
        "theta_poly": 20, "xi_poly": 20, "eta_poly": 20}
