from fractions import Fraction

import pytest

from qlogconvex.polynomials import Poly, ZERO
from qlogconvex import proofpolys
from qlogconvex.proofpolys import (
    NN_ENDPOINT_FORMS,
    THETA_ENDPOINT_FORMS,
    XI_ETA_ENDPOINT_FORMS,
    build_psi,
    build_psi_nn,
    build_theta,
    cascade_breaks,
    eta_poly,
    psi1_half_closed,
    psi1_half_closed_n2,
    psi1_half_closed_n3,
    psi1_poly,
    psi2_half_closed,
    psi2_poly,
    psi3_half_closed,
    psi3_poly,
    psi_nn_poly,
    psi_poly,
    specialization_breaks,
    theta_poly,
    xi_poly,
)


def test_psi_known_value():
    assert psi_poly(2, 2)(1) == -80
    assert build_psi(2, 2).psi(1) == -80


def test_psi_degree_structure():
    bundle = build_psi(6, 4)
    assert bundle.psi.degree == 8
    assert bundle.psi1.degree == 6
    assert bundle.psi2.degree == 4
    assert bundle.psi3.degree == 2


def test_cascade_explicitly_zero():
    psi, psi1 = psi_poly(5, 3), psi1_poly(5, 3)
    assert psi.derivative() - Poly([-3, 2]) * psi1 == ZERO
    psi2 = psi2_poly(5, 3)
    assert psi1.derivative() - Poly([-6, 4]) * psi2 == ZERO
    psi3 = psi3_poly(5, 3)
    assert psi2.derivative() - Poly([-18, 12]) * psi3 == ZERO


def test_psi_derivative_vanishes_at_axis():
    # psi' carries the factor (2x - t), so the slope at x = t/2 is zero
    for n, t in ((4, 2), (7, 5), (9, 9)):
        assert psi_poly(n, t).derivative()(Fraction(t, 2)) == 0


def test_build_psi_validates_ranges():
    with pytest.raises(ValueError):
        build_psi(0, 0)
    with pytest.raises(ValueError):
        build_psi(3, 4)
    with pytest.raises(ValueError):
        build_psi(3, -1)


def test_build_psi_over_grid():
    for n in range(1, 11):
        for t in range(n + 1):
            assert cascade_breaks(build_psi(n, t), t) == [], (n, t)


def _psi_from_poly_products(n, t):
    """psi built as Poly products, the way psi_poly built it before its
    factors were multiplied out on integer lists."""
    a, b = Poly([n, -1]), Poly([n + 1, -1])
    c, d = Poly([n - t, 1]), Poly([n - t + 1, 1])
    e_plus, e_minus = Poly([2 * n - 2 * t + 1, 2]), Poly([2 * n - 2 * t - 1, 2])
    f_minus, f_plus = Poly([2 * n - 1, -2]), Poly([2 * n + 1, -2])
    return ((n + 1) ** 2 * (a**3 * b**3 * e_plus * e_minus)
            + (n + 1) ** 2 * (c**3 * d**3 * f_minus * f_plus)
            + (-2 * n**2) * (b**3 * d**3 * f_minus * e_minus))


def test_psi_poly_matches_poly_product_form():
    # any integer pair: the grid identities use t > n, and nothing rejects n < 1
    for n in range(-4, 26):
        for t in range(-4, 31):
            assert psi_poly(n, t) == _psi_from_poly_products(n, t), (n, t)


def _linear_product(scale, factors) -> list:
    """Coefficients of scale * prod (c0 + c1 x) over the (c0, c1) factors."""
    p = [scale]
    for c0, c1 in factors:
        p = proofpolys._times_linear(p, c0, c1)
    return p


def _psi_from_lists(n, t) -> list:
    """psi's product form multiplied out factor by factor on coefficient
    lists, for integers or sympy symbols: the reference of psi_poly's
    Kronecker substitution."""
    term1, term2, term3 = (_linear_product(scale, (f, f, f, g, g, g, h, k))
                           for scale, (f, g), (h, k) in proofpolys._psi_terms(n, t))
    return [u + v + w for u, v, w in zip(term1, term2, term3)]


def test_psi_kronecker_path_matches_list_path():
    # t > n and n <= 0 included: the grid identities evaluate psi there
    for n in range(-4, 81):
        for t in range(-4, 81):
            assert psi_poly(n, t) == Poly(_psi_from_lists(n, t)), (n, t)


@pytest.mark.parametrize("n, t", [(10**6, 0), (10**6, 3), (10**6, 10**6), (10**6, 2 * 10**6),
                                  (-(10**6), 5), (3, 10**9), (10**40, 10**39 + 7),
                                  (-(10**40), -(10**40) + 1)])
def test_psi_kronecker_path_matches_at_large_pairs(n, t):
    # slots of many bytes, and of both signs of every factor
    assert psi_poly(n, t) == Poly(_psi_from_lists(n, t))


def test_tampered_transcription_is_caught(monkeypatch):
    # (builder, cell, coefficient bumped, the suffixes of the derivatives
    # whose cascade identity breaks): a cofactor's slip breaks the identity
    # above it, and the one below it unless the slip is in its constant term
    cases = (
        ("psi1_poly", (4, 2), 0, [""]),
        ("psi1_poly", (4, 2), 6, ["", "1"]),
        ("psi1_poly", (5, 0), 2, ["", "1"]),
        ("psi2_poly", (6, 3), 1, ["1", "2"]),
    )
    for builder, cell, index, breaks in cases:
        original = getattr(proofpolys, builder)

        def tampered(n, t, original=original, index=index):
            coeffs = list(original(n, t).coeffs)
            coeffs[index] += 1
            return Poly(coeffs)

        with monkeypatch.context() as patch:
            patch.setattr(proofpolys, builder, tampered)
            assert cascade_breaks(build_psi(*cell), cell[1]) == breaks, (builder, cell, index)


def test_grid_premise_and_cascade_symbolically():
    """The product form of psi expanded in (n, t, x) by sympy: the degree
    bounds the grid proofs rest on, the list expansion that psi_poly is held
    to at integers, and two of the identities the grids certify, proved as
    polynomial identities rather than on a grid."""
    sympy = pytest.importorskip("sympy")
    n, t, x = sympy.symbols("n t x")
    psi = sympy.expand(
        (n + 1) ** 2 * (n - x) ** 3 * (n - x + 1) ** 3
        * (2 * n - 2 * t + 2 * x + 1) * (2 * n - 2 * t + 2 * x - 1)
        + (n + 1) ** 2 * (n - t + x) ** 3 * (n - t + x + 1) ** 3
        * (2 * n - 2 * x - 1) * (2 * n - 2 * x + 1)
        - 2 * n**2 * (n - x + 1) ** 3 * (n - t + x + 1) ** 3
        * (2 * n - 2 * x - 1) * (2 * n - 2 * t + 2 * x - 1))

    def in_x(coeffs):
        return sum(c * x**i for i, c in enumerate(coeffs))

    assert sympy.degree(psi, n) == 8
    assert sympy.degree(psi, t) == 6
    assert sympy.expand(in_x(_psi_from_lists(n, t)) - psi) == 0
    assert sympy.expand(sympy.diff(psi, x) - (2 * x - t) * in_x(psi1_poly(n, t).coeffs)) == 0
    theta_t = sum(c * t**i for i, c in enumerate(theta_poly(n).coeffs))
    assert sympy.expand(psi.subs(x, 0) - (n + 1) ** 2 * theta_t) == 0


# The cofactors in their displayed forms, each power of n and t raised where
# it is read: the reference that the builders, which compute each power
# once, must equal coefficient for coefficient.


def _displayed_psi1(n, t):
    """First derivative cofactor: psi' = (2x - t) * psi1."""
    c6 = 32 * (2 * n + 1)
    c5 = -96 * (2 * n + 1) * t
    c4 = 6 * (
        32 * n**4 - 8 * n**3 * (4 * t - 11) + 4 * n**2 * (2 * t - 7) * (t - 4)
        + 2 * n * (24 * t**2 - 26 * t + 29) + 24 * t**2 - 18 * t + 11
    )
    c3 = -4 * t * (
        96 * n**4 - 24 * n**3 * (4 * t - 11) + 12 * n**2 * (2 * t - 7) * (t - 4)
        + 2 * n * (32 * t**2 - 78 * t + 87) + 32 * t**2 - 54 * t + 33
    )
    c2 = -2 * (
        128 * n**6 - 16 * n**5 * (16 * t - 25) + 4 * n**4 * (12 * t**2 - 170 * t + 125)
        + 2 * n**3 * (2 * t - 1) * (20 * t**2 + 16 * t - 167)
        - n**2 * (28 * t**4 - 160 * t**3 + 159 * t**2 + 341 * t - 134)
        - 2 * n * (28 * t**4 - 82 * t**3 + 72 * t**2 + 38 * t - 17)
        - 28 * t**4 + 66 * t**3 - 36 * t**2 - 11 * t + 6
    )
    c1 = 2 * t * (n + 1) * (
        128 * n**5 - 16 * n**4 * (16 * t - 17) + 4 * n**3 * (36 * t**2 - 106 * t + 57)
        - 2 * n**2 * (8 * t**3 - 72 * t**2 + 138 * t - 53)
        - n * (4 * t**4 + 4 * t**3 - 33 * t**2 + 65 * t - 28)
        - 4 * t**4 + 12 * t**3 - 3 * t**2 - 11 * t + 6
    )
    c0 = (n + 1) ** 2 * (
        64 * n**6 - 16 * n**5 * (12 * t - 5) + 8 * n**4 * (22 * t**2 - 21 * t - 3)
        - 8 * n**3 * (4 * t**3 - 6 * t**2 - 9 * t + 7)
        - 2 * n**2 * (12 * t**4 - 32 * t**3 + 51 * t**2 - 45 * t + 11)
        + 2 * n * (t - 1) * (4 * t**4 - 8 * t**3 + 19 * t**2 - 15 * t + 3)
        - 6 * t**4 + 15 * t**3 - 12 * t**2 + 3 * t
    )
    return Poly([c0, c1, c2, c3, c4, c5, c6])


def _displayed_psi2(n, t):
    """Second derivative cofactor: psi1' = 2 (2x - t) * psi2."""
    c4 = 48 * (2 * n + 1)
    c3 = -96 * t * (2 * n + 1)
    c2 = 6 * (
        32 * n**4 - 8 * n**3 * (4 * t - 11) + 4 * n**2 * (2 * t - 7) * (t - 4)
        + 2 * n * (16 * t**2 - 26 * t + 29) + 16 * t**2 - 18 * t + 11
    )
    c1 = -6 * t * (
        32 * n**4 - 8 * n**3 * (4 * t - 11) + 4 * n**2 * (2 * t - 7) * (t - 4)
        + 2 * n * (8 * t**2 - 26 * t + 29) + 8 * t**2 - 18 * t + 11
    )
    c0 = -(n + 1) * (
        128 * n**5 - 16 * n**4 * (16 * t - 17) + 4 * n**3 * (36 * t**2 - 106 * t + 57)
        - 2 * n**2 * (8 * t**3 - 72 * t**2 + 138 * t - 53)
        - (4 * t**4 + 4 * t**3 - 33 * t**2 + 65 * t - 28) * n
        - 4 * t**4 + 12 * t**3 - 3 * t**2 - 11 * t + 6
    )
    return Poly([c0, c1, c2, c3, c4])


def _displayed_psi3(n, t):
    """Third derivative cofactor: psi2' = 6 (2x - t) * psi3 (a quadratic)."""
    c2 = 16 * (2 * n + 1)
    c1 = -16 * t * (2 * n + 1)
    c0 = (
        32 * n**4 - 8 * n**3 * (4 * t - 11) + 4 * n**2 * (2 * t - 7) * (t - 4)
        + 2 * n * (8 * t**2 - 26 * t + 29) + 8 * t**2 - 18 * t + 11
    )
    return Poly([c0, c1, c2])


DISPLAYED_COFACTORS = ((psi1_poly, _displayed_psi1), (psi2_poly, _displayed_psi2),
                       (psi3_poly, _displayed_psi3))


def test_cofactor_builders_equal_their_displayed_forms_symbolically():
    sympy = pytest.importorskip("sympy")
    n, t = sympy.symbols("n t")
    for built, displayed in DISPLAYED_COFACTORS:
        new, old = built(n, t).coeffs, displayed(n, t).coeffs
        assert len(new) == len(old), built.__name__
        for i, (a, b) in enumerate(zip(new, old)):
            assert sympy.expand(a - b) == 0, (built.__name__, i)


def test_cofactor_builders_equal_their_displayed_forms_at_integers():
    for built, displayed in DISPLAYED_COFACTORS:
        for n in range(-5, 61):
            for t in range(-5, 61):
                assert built(n, t) == displayed(n, t), (built.__name__, n, t)


def test_theta_bundle_known_values():
    bundle = build_theta(5)
    assert bundle.theta(0) == 2 * 25 * 9 * 216 == 97200
    assert bundle.theta(5) == -24300
    th4 = bundle.derivatives[3]
    axis = -Fraction(th4.coefficient(1), 2 * th4.coefficient(2))
    assert axis == Fraction(11, 2)  # n + 1/2, outside [0, n-1]


def test_theta_endpoint_forms_small_grid():
    for n in range(1, 21):
        theta = theta_poly(n)
        chain = [theta]
        for _ in range(4):
            chain.append(chain[-1].derivative())
        for label, _builder, order, point, closed, _sign, _min_n in THETA_ENDPOINT_FORMS:
            assert chain[order](Fraction(point(n))) == Fraction(closed(n)), (label, n)


def test_theta_endpoint_signs_where_asserted():
    for n in range(1, 41):
        theta = theta_poly(n)
        chain = [theta]
        for _ in range(4):
            chain.append(chain[-1].derivative())
        for label, _builder, order, point, closed, sign, min_n in THETA_ENDPOINT_FORMS:
            if n >= min_n:
                value = chain[order](Fraction(point(n)))
                assert (value > 0) == (sign == "+"), (label, n)
                assert value != 0


def test_theta_rejects_bad_n():
    with pytest.raises(ValueError):
        build_theta(0)


def test_xi_eta_extraction_samples():
    for n in (1, 4, 9, 16):
        xi, eta = xi_poly(n), eta_poly(n)
        for t in range(8):
            assert (n + 1) ** 2 * xi(t) == psi1_poly(n, t)(0)
            assert (n + 1) * eta(t) == psi2_poly(n, t)(0)


def test_xi_eta_endpoint_forms_small_grid():
    for n in range(1, 21):
        for label, builder, order, point, closed, _sign, _min_n in XI_ETA_ENDPOINT_FORMS:
            poly = getattr(proofpolys, builder)(n)
            for _ in range(order):
                poly = poly.derivative()
            assert poly(Fraction(point(n))) == Fraction(closed(n)), (label, n)


def test_midpoint_closed_forms():
    for n in range(1, 13):
        for t in range(13):
            mid = Fraction(t, 2)
            assert psi1_poly(n, t)(mid) == psi1_half_closed(n, t)
            assert psi2_poly(n, t)(mid) == psi2_half_closed(n, t)
            assert psi3_poly(n, t)(mid) == psi3_half_closed(n, t)
    for t in range(6):
        assert psi1_half_closed_n2(t) == psi1_poly(2, t)(Fraction(t, 2))
        assert psi1_half_closed_n3(t) == psi1_poly(3, t)(Fraction(t, 2))


def test_psi3_midpoint_positive_wide_range():
    for n in range(1, 101):
        for t in range(n + 1):
            assert psi3_half_closed(n, t) > 0


def test_nn_bundle_known_values():
    bundle = build_psi_nn(2)
    assert bundle.psi(0) == -4 * 12 * 27 == -1296
    assert bundle.psi(1) == -80  # the lone failing instance of the sign claim
    assert psi_nn_poly(3)(1) == 624 > 0


def test_nn_specialization_matches_general_form():
    for n in range(1, 11):
        assert psi_nn_poly(n) == psi_poly(n, n)
        bundle = build_psi_nn(n)
        assert cascade_breaks(bundle, n) == specialization_breaks(n, bundle) == [], n


def test_nn_endpoint_forms_small_grid():
    for n in range(1, 21):
        for label, builder, _order, point, closed, sign, min_n in NN_ENDPOINT_FORMS:
            value = getattr(proofpolys, builder)(n)(Fraction(point(n)))
            assert value == Fraction(closed(n)), (label, n)
            if n >= min_n:
                assert (value > 0) == (sign == "+"), (label, n)


@pytest.mark.parametrize("forms", [THETA_ENDPOINT_FORMS, XI_ETA_ENDPOINT_FORMS, NN_ENDPOINT_FORMS],
                         ids=["theta", "xi_eta", "nn"])
def test_endpoint_values_are_in_the_ring_of_their_point(forms):
    for n in range(1, 61):
        rows = proofpolys.endpoint_values(forms, n, {})
        for (label, builder, order, point, closed, _sign, _min_n), row in zip(forms, rows):
            poly = getattr(proofpolys, builder)(n)
            for _ in range(order):
                poly = poly.derivative()
            x = Fraction(point(n))
            _label, value, closed_value, _sign, _min_n = row
            assert value == poly(x), (label, n)
            assert type(value) is (int if x.denominator == 1 else Fraction), (label, n)
            assert closed_value == closed(n), (label, n)
