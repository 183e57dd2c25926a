"""Which grid-certified identities catch a fault in the polynomials they prove.

Each builder in ``proofpolys`` is replaced in turn by one whose constant
coefficient is off by one at a single n, and each endpoint-form table gets
one closed form off by one.  The grid records must see the replacement: they
look their builders and tables up in ``proofpolys`` when they run.  And the
sweeps that read the endpoint-form tables build each polynomial once.
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


def _failing_grid_records() -> set:
    return {identity for identity in GRID_IDENTITIES
            if not identity_grid_check(identity).passed}


@pytest.mark.parametrize("builder", sorted(CATCHES))
def test_a_bumped_builder_fails_exactly_the_grid_records_that_read_it(monkeypatch, builder):
    original = getattr(proofpolys, builder)

    def bumped(n, *t):
        poly = original(n, *t)
        return Poly((poly.coeffs[0] + 1,) + poly.coeffs[1:]) if n == BUMPED_N else poly

    monkeypatch.setattr(proofpolys, builder, bumped)
    assert _failing_grid_records() == CATCHES[builder]


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
        {"first_failure": "theta(0) fails at n=9", "failure_count": "1"})]
    value = proofpolys.theta_poly(BUMPED_N)(0)
    assert _failing(verify_prop31(BUMPED_N)) == [(
        "prop31", {"part": "theta", "n": "9"},
        {"first_failure": f"theta endpoint theta(0) mismatch at n=9: {value} != {value + 1}",
         "failure_count": "1"})]


def test_a_bumped_xi_eta_form_fails_its_grid_record_and_claims23(monkeypatch):
    label = _bump_first_closed_form(monkeypatch, "XI_ETA_ENDPOINT_FORMS")
    assert label == "xi(n-1)"
    assert _failing([identity_grid_check("xi_eta_endpoint_forms")]) == [(
        "cascade", {"identity": "xi_eta_endpoint_forms", "grid": "n=1..20"},
        {"first_failure": "xi(n-1) fails at n=9", "failure_count": "1"})]
    assert _failing(verify_claims(BUMPED_N)) == [(
        "claims123", {"part": "claims23", "n": "9"},
        {"first_failure": "xi(n-1) form mismatch at n=9", "failure_count": "1"})]


def test_a_bumped_nn_form_fails_its_grid_record_and_prop33(monkeypatch):
    label = _bump_first_closed_form(monkeypatch, "NN_ENDPOINT_FORMS")
    assert label == "psi_nn3(0)"
    assert _failing([identity_grid_check("nn_endpoint_forms")]) == [(
        "cascade", {"identity": "nn_endpoint_forms", "grid": "n=1..20"},
        {"first_failure": "psi_nn3(0) fails at n=9", "failure_count": "1"})]
    assert _failing(verify_prop33(BUMPED_N)) == [(
        "prop33", {"n": "9"},
        {"first_failure": "psi_nn3(0) form mismatch at n=9", "failure_count": "1"})]


# the builders the endpoint-form tables name
FORM_BUILDERS = ("theta_poly", "xi_poly", "eta_poly",
                 "psi_nn_poly", "psi1_nn_poly", "psi2_nn_poly", "psi3_nn_poly")


@pytest.mark.parametrize("reader, builds", [
    (proofpolys.build_theta, {"theta_poly": 1, "xi_poly": 1, "eta_poly": 1}),
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
