"""The sign-analysis polynomials behind the Domb q-log-convexity proof.

For the Domb triangular array, L_t(a(n,k)) factors as a positive binomial
prefactor times psi(n,t)(k) divided by a known integer, so the crossing
behaviour of the operator reduces to sign analysis of the degree-8
polynomial psi.  Its derivative telescopes through three cofactors,

    psi'  = (2x - t)   * psi1,
    psi1' = 2 (2x - t) * psi2,
    psi2' = 6 (2x - t) * psi3,

and the k = 0 boundary is governed by a sextic theta with
psi(n,t)(0) = (n+1)^2 theta(t).  Two auxiliary polynomials in t collect the
x = 0 values of the first two cofactors: xi = psi1(0)/(n+1)^2 and
eta = psi2(0)/(n+1).

Every polynomial here is transcribed as an explicit coefficient expansion,
and this module only builds them and tabulates their closed forms at
interval endpoints and midpoints.  ``verification`` cross-validates them
three ways: the derivative cascade above, the closed forms, and the
operator factorization identity.  A slip in any one table is caught by the
others.

psi itself is built from its product form: three terms, each a scale times
eight linear factors in x.  Every factor is evaluated at X = 2^(8 size),
each term is one product of Python ints, and the nine coefficients are read
back from the slots of the summed value (Kronecker substitution, Harvey
2009, arXiv:0712.4046).  The slot bound is sum over the terms of
|scale| prod (|c0| + |c1|), which no coefficient of psi exceeds in absolute
value, plus a sign bit, in whole bytes.  The test suite multiplies the
factors out one at a time on coefficient lists, with sympy symbols for n
and t as well as integers, and holds psi_poly to that expansion.

The cofactors psi1, psi2 and psi3 keep the grouping of their displayed
coefficient expansions, but compute each power of n and t once and read it
wherever the display raises it.  The test suite keeps the displayed bodies
and holds each builder to them: identical under sympy with symbolic n and
t, and equal at every integer pair in -5..60.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .polynomials import Poly, _kronecker_unpack


def _psi_terms(n, t) -> tuple:
    """psi's product form as three (scale, (f, g), (h, k)), each term standing
    for scale * f^3 g^3 h k and each factor (c0, c1) for c0 + c1 x."""
    a = (n, -1)                    # n - x
    b = (n + 1, -1)                # n - x + 1
    c = (n - t, 1)                 # n - t + x
    d = (n - t + 1, 1)             # n - t + x + 1
    e_plus = (2 * n - 2 * t + 1, 2)   # 2n - 2t + 2x + 1
    e_minus = (2 * n - 2 * t - 1, 2)  # 2n - 2t + 2x - 1
    f_minus = (2 * n - 1, -2)         # 2n - 2x - 1
    f_plus = (2 * n + 1, -2)          # 2n - 2x + 1
    nsq1 = (n + 1) ** 2
    return ((nsq1, (a, b), (e_plus, e_minus)),
            (nsq1, (c, d), (f_minus, f_plus)),
            (-2 * n**2, (b, d), (f_minus, e_minus)))


def psi_poly(n: int, t: int) -> Poly:
    """The degree-8 sign polynomial, built from its defining product form.

    Accepts any pair of ints; callers enforce contract ranges.  As a
    polynomial identity in (n, t, x) everything downstream holds for all
    integers, which is what the grid certifications exploit.  Each term's
    value at X = 2^(8 size) is a product of Python ints, and the slots of
    the summed value are the nine coefficients (Kronecker substitution).
    Every coefficient is at most sum |scale| prod (|c0| + |c1|) in absolute
    value; size is that bound's bits plus a sign bit, in whole bytes, so no
    slot overflows.
    """
    terms = _psi_terms(n, t)
    bound = 0
    for scale, (f, g), (h, k) in terms:
        fg = (abs(f[0]) + abs(f[1])) * (abs(g[0]) + abs(g[1]))
        bound += abs(scale) * fg * fg * fg * (abs(h[0]) + abs(h[1])) * (abs(k[0]) + abs(k[1]))
    size = bound.bit_length() // 8 + 1
    shift = 8 * size
    value = 0
    for scale, (f, g), (h, k) in terms:
        fg = ((f[1] << shift) + f[0]) * ((g[1] << shift) + g[0])
        value += scale * fg * fg * fg * ((h[1] << shift) + h[0]) * ((k[1] << shift) + k[0])
    return Poly(_kronecker_unpack(value, 9, size))


def psi1_poly(n: int, t: int) -> Poly:
    """First derivative cofactor: psi' = (2x - t) * psi1."""
    n2, t2 = n * n, t * t
    n3, t3 = n2 * n, t2 * t
    n4, t4 = n3 * n, t3 * t
    n5 = n4 * n
    n6 = n5 * n
    c6 = 32 * (2 * n + 1)
    c5 = -96 * (2 * n + 1) * t
    c4 = 6 * (
        32 * n4 - 8 * n3 * (4 * t - 11) + 4 * n2 * (2 * t - 7) * (t - 4)
        + 2 * n * (24 * t2 - 26 * t + 29) + 24 * t2 - 18 * t + 11
    )
    c3 = -4 * t * (
        96 * n4 - 24 * n3 * (4 * t - 11) + 12 * n2 * (2 * t - 7) * (t - 4)
        + 2 * n * (32 * t2 - 78 * t + 87) + 32 * t2 - 54 * t + 33
    )
    c2 = -2 * (
        128 * n6 - 16 * n5 * (16 * t - 25) + 4 * n4 * (12 * t2 - 170 * t + 125)
        + 2 * n3 * (2 * t - 1) * (20 * t2 + 16 * t - 167)
        - n2 * (28 * t4 - 160 * t3 + 159 * t2 + 341 * t - 134)
        - 2 * n * (28 * t4 - 82 * t3 + 72 * t2 + 38 * t - 17)
        - 28 * t4 + 66 * t3 - 36 * t2 - 11 * t + 6
    )
    c1 = 2 * t * (n + 1) * (
        128 * n5 - 16 * n4 * (16 * t - 17) + 4 * n3 * (36 * t2 - 106 * t + 57)
        - 2 * n2 * (8 * t3 - 72 * t2 + 138 * t - 53)
        - n * (4 * t4 + 4 * t3 - 33 * t2 + 65 * t - 28)
        - 4 * t4 + 12 * t3 - 3 * t2 - 11 * t + 6
    )
    c0 = (n + 1) ** 2 * (
        64 * n6 - 16 * n5 * (12 * t - 5) + 8 * n4 * (22 * t2 - 21 * t - 3)
        - 8 * n3 * (4 * t3 - 6 * t2 - 9 * t + 7)
        - 2 * n2 * (12 * t4 - 32 * t3 + 51 * t2 - 45 * t + 11)
        + 2 * n * (t - 1) * (4 * t4 - 8 * t3 + 19 * t2 - 15 * t + 3)
        - 6 * t4 + 15 * t3 - 12 * t2 + 3 * t
    )
    return Poly((c0, c1, c2, c3, c4, c5, c6))


def psi2_poly(n: int, t: int) -> Poly:
    """Second derivative cofactor: psi1' = 2 (2x - t) * psi2."""
    n2, t2 = n * n, t * t
    n3, t3 = n2 * n, t2 * t
    n4, t4 = n3 * n, t3 * t
    n5 = n4 * n
    c4 = 48 * (2 * n + 1)
    c3 = -96 * t * (2 * n + 1)
    c2 = 6 * (
        32 * n4 - 8 * n3 * (4 * t - 11) + 4 * n2 * (2 * t - 7) * (t - 4)
        + 2 * n * (16 * t2 - 26 * t + 29) + 16 * t2 - 18 * t + 11
    )
    c1 = -6 * t * (
        32 * n4 - 8 * n3 * (4 * t - 11) + 4 * n2 * (2 * t - 7) * (t - 4)
        + 2 * n * (8 * t2 - 26 * t + 29) + 8 * t2 - 18 * t + 11
    )
    c0 = -(n + 1) * (
        128 * n5 - 16 * n4 * (16 * t - 17) + 4 * n3 * (36 * t2 - 106 * t + 57)
        - 2 * n2 * (8 * t3 - 72 * t2 + 138 * t - 53)
        - (4 * t4 + 4 * t3 - 33 * t2 + 65 * t - 28) * n
        - 4 * t4 + 12 * t3 - 3 * t2 - 11 * t + 6
    )
    return Poly((c0, c1, c2, c3, c4))


def psi3_poly(n: int, t: int) -> Poly:
    """Third derivative cofactor: psi2' = 6 (2x - t) * psi3 (a quadratic)."""
    n2, t2 = n * n, t * t
    n3 = n2 * n
    n4 = n3 * n
    c2 = 16 * (2 * n + 1)
    c1 = -16 * t * (2 * n + 1)
    c0 = (
        32 * n4 - 8 * n3 * (4 * t - 11) + 4 * n2 * (2 * t - 7) * (t - 4)
        + 2 * n * (8 * t2 - 26 * t + 29) + 8 * t2 - 18 * t + 11
    )
    return Poly((c0, c1, c2))


def theta_poly(n: int) -> Poly:
    """Boundary sextic: psi(n,t)(0) = (n+1)^2 * theta(t), driving k = 0 signs."""
    return Poly([
        2 * n**2 * (2 * n - 1) * (n + 1) ** 3,
        -(n**2) * (8 * n**2 + 12 * n - 5) * (n + 1) ** 2,
        n * (4 * n + 1) * (n + 1) * (4 * n**3 + 7 * n**2 + 3 * n - 3),
        -(2 * n - 1) * (24 * n**4 + 54 * n**3 + 44 * n**2 + 14 * n + 1),
        (2 * n - 1) * (26 * n**3 + 41 * n**2 + 21 * n + 3),
        -3 * (2 * n - 1) * (2 * n + 1) ** 2,
        (2 * n - 1) * (2 * n + 1),
    ])


def xi_poly(n: int) -> Poly:
    """psi1 at x = 0 as a polynomial in t, divided by (n+1)^2 (a quintic)."""
    return Poly([
        2 * n * (n + 1) * (32 * n**4 + 8 * n**3 - 20 * n**2 - 8 * n - 3),
        -3 * (64 * n**5 + 56 * n**4 - 24 * n**3 - 30 * n**2 - 12 * n - 1),
        2 * (88 * n**4 + 24 * n**3 - 51 * n**2 - 34 * n - 6),
        -(32 * n**3 - 64 * n**2 - 54 * n - 15),
        -6 * (2 * n + 1) ** 2,
        8 * n,
    ])


def eta_poly(n: int) -> Poly:
    """psi2 at x = 0 as a polynomial in t, divided by (n+1) (a quartic)."""
    return Poly([
        -2 * (n + 1) * (64 * n**4 + 72 * n**3 + 42 * n**2 + 11 * n + 3),
        256 * n**4 + 424 * n**3 + 276 * n**2 + 65 * n + 11,
        -3 * (48 * n**3 + 48 * n**2 + 11 * n - 1),
        4 * (n + 1) * (4 * n - 3),
        4 * (n + 1),
    ])


# --- the t = n specialization ----------------------------------------------

def psi_nn_poly(n: int) -> Poly:
    """Expanded form of psi(n, n), degree 8."""
    return Poly([
        -(n**2) * (n**3 + 2 * n**2 - 3 * n + 2) * (n + 1) ** 3,
        n**2 * (6 * n**3 + 19 * n**2 - 2 * n + 3) * (n + 1) ** 2,
        n * (n + 1) * (4 * n**6 + 16 * n**5 - 3 * n**4 - 63 * n**3 - 34 * n**2 - 7 * n - 3),
        -2 * n * (12 * n**6 + 64 * n**5 + 87 * n**4 + 5 * n**3 - 44 * n**2 - 23 * n - 6),
        52 * n**6 + 300 * n**5 + 435 * n**4 + 205 * n**3 + 11 * n**2 - 23 * n - 6,
        -2 * n * (24 * n**4 + 164 * n**3 + 220 * n**2 + 120 * n + 33),
        2 * (8 * n**4 + 92 * n**3 + 92 * n**2 + 40 * n + 11),
        -32 * n * (2 * n + 1),
        8 * (2 * n + 1),
    ])


def psi1_nn_poly(n: int) -> Poly:
    return Poly([
        -n * (6 * n**3 + 19 * n**2 - 2 * n + 3) * (n + 1) ** 2,
        -2 * n * (n + 1) * (4 * n**5 + 16 * n**4 + 3 * n**3 - 38 * n**2 - 17 * n - 6),
        2 * (28 * n**6 + 152 * n**5 + 223 * n**4 + 85 * n**3 - 22 * n**2 - 23 * n - 6),
        -4 * n * (24 * n**4 + 148 * n**3 + 212 * n**2 + 120 * n + 33),
        6 * (8 * n**4 + 76 * n**3 + 84 * n**2 + 40 * n + 11),
        -96 * n * (2 * n + 1),
        32 * (2 * n + 1),
    ])


def psi2_nn_poly(n: int) -> Poly:
    return Poly([
        (n + 1) * (4 * n**5 + 16 * n**4 + 3 * n**3 - 38 * n**2 - 17 * n - 6),
        -6 * n * (8 * n**4 + 44 * n**3 + 68 * n**2 + 40 * n + 11),
        6 * (8 * n**4 + 60 * n**3 + 76 * n**2 + 40 * n + 11),
        -96 * n * (2 * n + 1),
        48 * (2 * n + 1),
    ])


def psi3_nn_poly(n: int) -> Poly:
    return Poly([
        8 * n**4 + 44 * n**3 + 68 * n**2 + 40 * n + 11,
        -16 * n * (2 * n + 1),
        16 * (2 * n + 1),
    ])


# --- closed forms at midpoints and endpoints --------------------------------

def psi1_half_closed(n: int, t: int) -> Fraction:
    """Grouped closed form of psi1 evaluated at the axis x = t/2."""
    u = 2 * n - t
    bracket = (
        4 * u**5 * (2 * n**2 + 2 * n + 1)
        + 2 * u**4 * (10 * n**2 - 2 * n - 1)
        + u**3 * (20 * n**2 - 46 * n - 23)
        + 10 * u**2 * (2 * n**2 - 6 * n - 3)
        + 4 * u * (14 * n**2 - 6 * n - 3)
        + 56 * n**2
    )
    return Fraction(bracket * (2 * n - t + 2), 8)


def psi1_half_closed_n2(t: int) -> Fraction:
    """n = 2 instance of the midpoint form, kept as its own factored shape."""
    u = 4 - t
    bracket = 52 * u**5 + 70 * u**4 - 35 * u**3 - 70 * u**2 + 880 - 164 * t
    return Fraction(bracket * (6 - t), 8)


def psi1_half_closed_n3(t: int) -> Fraction:
    """n = 3 instance of the midpoint form."""
    u = 6 - t
    bracket = 100 * u**5 + 166 * u**4 + 19 * u**3 - 30 * u**2 - 420 * t + 3024
    return Fraction(bracket * (8 - t), 8)


def psi2_half_closed(n: int, t: int) -> Fraction:
    """Closed form of psi2 at x = t/2, collected in powers of (n - t)."""
    v = n - t
    twice = (
        -2 * (8 * n**2 + 10 * n + 5) * v**4
        - 2 * (32 * n**3 + 70 * n**2 + 50 * n + 15) * v**3
        - (96 * n**4 + 300 * n**3 + 330 * n**2 + 144 * n + 27) * v**2
        - 2 * (32 * n**5 + 130 * n**4 + 200 * n**3 + 152 * n**2 + 49 * n + 11) * v
        - (16 * n**6 + 80 * n**5 + 160 * n**4 + 190 * n**3 + 143 * n**2 + 46 * n + 12)
    )
    return Fraction(twice, 2)


def psi3_half_closed(n: int, t: int) -> int:
    """Closed form of psi3 at its axis x = t/2 (always a positive integer)."""
    v = n - t
    return (
        (8 * n**2 + 8 * n + 4) * v**2
        + (16 * n**3 + 44 * n**2 + 44 * n + 18) * v
        + 8 * n**4 + 36 * n**3 + 64 * n**2 + 40 * n + 11
    )


def half(value: int) -> Fraction:
    return Fraction(value, 2)


_theta, _xi, _eta = "theta_poly", "xi_poly", "eta_poly"
_nn, _nn1, _nn2, _nn3 = (f"psi{i}_nn_poly" for i in ("", "1", "2", "3"))

# Endpoint closed forms, in three tables of one shape: each row is
# (label, builder, derivative order, point, closed form, sign, min n).  The
# builder is the name of a function of this module, looked up when the row is
# evaluated, never bound at import.  The sign ("+" or "-") is that of the
# displayed inequality, and these columns are the only statement of it: the
# sweeps assert it from min n on through ``verification._form_failures``,
# the one checker of these tables, which also matches each value against its
# closed form.  prop31 reads every theta row for n >= 5, prop33 every t = n
# row, and claims 2-3 the four order-0 xi/eta rows, the ends of their sign
# intervals.  The six derivative rows of xi and eta are asserted per n by no
# sweep; the root counts on those intervals, which Descartes' rule decides
# with no sign variation, prove what they only support.  The grid records of
# ``verification.GRID_IDENTITIES`` prove every row's closed form for all n.
#
# theta and its derivatives in t.
THETA_ENDPOINT_FORMS: tuple = (
    ("theta(0)", _theta, 0, lambda n: 0, lambda n: 2 * n**2 * (2 * n - 1) * (n + 1) ** 3, "+", 1),
    ("theta(1)", _theta, 0, lambda n: 1, lambda n: 2 * n**3 * (2 * n - 1) * (3 * n**2 - 3 * n - 2), "+", 5),
    ("theta(n-1)", _theta, 0, lambda n: n - 1,
     lambda n: (3 * n**2 + 3 * n - 2) * (n**4 + 2 * n**3 - 9 * n**2 + 6 * n + 4), "+", 5),
    ("theta(n)", _theta, 0, lambda n: n, lambda n: -(n**2) * (n + 1) * (n**3 + 2 * n**2 - 3 * n + 2), "-", 1),
    ("theta'(0)", _theta, 1, lambda n: 0, lambda n: -(n**2) * (n + 1) ** 2 * (8 * n**2 + 12 * n - 5), "-", 1),
    ("theta'(1)", _theta, 1, lambda n: 1,
     lambda n: n**2 * (8 * n**2 - 4 * n - 3) * (3 * n**2 - 8 * n + 1), "+", 5),
    ("theta'(n-1)", _theta, 1, lambda n: n - 1,
     lambda n: -8 * n**6 - 24 * n**5 + 88 * n**4 + 48 * n**3 - 200 * n**2 + 36, "-", 5),
    ("theta''(0)", _theta, 2, lambda n: 0,
     lambda n: 2 * n * (4 * n + 1) * (n + 1) * (4 * n**3 + 7 * n**2 + 3 * n - 3), "+", 1),
    ("theta''(n/2)", _theta, 2, lambda n: Fraction(n, 2),
     lambda n: -Fraction(n * (68 * n**5 + 144 * n**4 - 129 * n**3 - 244 * n**2 - 24 * n + 24), 8), "-", 5),
    ("theta''(n-1)", _theta, 2, lambda n: n - 1,
     lambda n: 8 * n**6 + 24 * n**5 - 216 * n**4 - 112 * n**3 + 648 * n**2 - 132, "+", 5),
    ("theta'''(0)", _theta, 3, lambda n: 0,
     lambda n: -6 * (2 * n - 1) * (24 * n**4 + 54 * n**3 + 44 * n**2 + 14 * n + 1), "-", 1),
    ("theta'''(n-1)", _theta, 3, lambda n: n - 1,
     lambda n: 6 * (2 * n - 1) * (26 * n**3 + 26 * n**2 - 126 * n - 63), "+", 5),
    ("theta''''(0)", _theta, 4, lambda n: 0,
     lambda n: 24 * (2 * n - 1) * (26 * n**3 + 41 * n**2 + 21 * n + 3), "+", 1),
    ("theta''''(n-1)", _theta, 4, lambda n: n - 1,
     lambda n: -24 * (2 * n - 1) * (4 * n**3 + 4 * n**2 - 66 * n - 33), "-", 5),
)

# xi, eta and their t-derivatives.
XI_ETA_ENDPOINT_FORMS: tuple = (
    ("xi(n-1)", _xi, 0, lambda n: n - 1,
     lambda n: -8 * n**5 - 14 * n**4 + 119 * n**3 + 75 * n**2 - 100 * n - 36, "-", 4),
    ("xi(3n/4)", _xi, 0, lambda n: Fraction(3 * n, 4),
     lambda n: -Fraction(n * (25 * n**5 - 52 * n**4 + 831 * n**3 + 2614 * n**2 + 224 * n + 480), 128), "-", 4),
    ("xi'(3n/4)", _xi, 1, lambda n: Fraction(3 * n, 4),
     lambda n: -Fraction(315, 32) * n**5 - Fraction(57, 2) * n**4 + Fraction(213, 16) * n**2 + 18 * n + 3, "-", 8),
    ("xi'(n-1)", _xi, 1, lambda n: n - 1,
     lambda n: 8 * n**5 - 8 * n**4 - 330 * n**3 - 209 * n**2 + 284 * n + 96, "+", 8),
    ("xi''(n-1)", _xi, 2, lambda n: n - 1,
     lambda n: 32 * n**4 + 480 * n**3 + 432 * n**2 - 674 * n - 186, "+", 8),
    ("xi'''(n-1)", _xi, 3, lambda n: n - 1,
     lambda n: -288 * n**3 - 576 * n**2 + 1236 * n + 234, "-", 8),
    ("eta(0)", _eta, 0, lambda n: 0,
     lambda n: -2 * (n + 1) * (64 * n**4 + 72 * n**3 + 42 * n**2 + 11 * n + 3), "-", 4),
    ("eta(3n/4)", _eta, 0, lambda n: Fraction(3 * n, 4),
     lambda n: -Fraction(575 * n**5 + 2051 * n**4 + 2856 * n**3 + 3556 * n**2 + 1264 * n + 384, 64),
     "-", 4),
    ("eta'(3n/4)", _eta, 1, lambda n: Fraction(3 * n, 4),
     lambda n: Fraction(n + 1, 4) * (295 * n**3 + 591 * n**2 + 234 * n + 44), "+", 4),
    ("eta''(3n/4)", _eta, 2, lambda n: Fraction(3 * n, 4),
     lambda n: -189 * n**3 - 243 * n**2 - 120 * n + 6, "-", 4),
)

# The t = n family.  The displayed positivity of psi(n,n)(1) genuinely fails
# at n = 2 (the value is -80), so its sign is asserted from n = 3 on; the
# closed form itself is an identity for all n.
NN_ENDPOINT_FORMS: tuple = (
    ("psi_nn3(0)", _nn3, 0, lambda n: 0,
     lambda n: 8 * n**4 + 44 * n**3 + 68 * n**2 + 40 * n + 11, "+", 2),
    ("psi_nn3(n/2)", _nn3, 0, lambda n: Fraction(n, 2),
     lambda n: 8 * n**4 + 36 * n**3 + 64 * n**2 + 40 * n + 11, "+", 2),
    ("psi_nn2(0)", _nn2, 0, lambda n: 0,
     lambda n: 4 * n**6 + 20 * n**5 + 19 * n**4 - 35 * n**3 - 55 * n**2 - 23 * n - 6, "+", 2),
    ("psi_nn2(n/2)", _nn2, 0, lambda n: Fraction(n, 2),
     lambda n: (-8 * n**6 - 40 * n**5 - 80 * n**4 - 95 * n**3 - half(143 * n**2) - 23 * n - 6), "-", 2),
    ("psi_nn1(0)", _nn1, 0, lambda n: 0,
     lambda n: -6 * n**6 - 31 * n**5 - 42 * n**4 - 18 * n**3 - 4 * n**2 - 3 * n, "-", 2),
    ("psi_nn1(n/2)", _nn1, 0, lambda n: Fraction(n, 2),
     lambda n: (n**8 + half(11 * n**7) + half(19 * n**6) + half(3 * n**5)
                - Fraction(83 * n**4, 8) - half(13 * n**3) - n**2 - 3 * n), "+", 2),
    ("psi_nn(0)", _nn, 0, lambda n: 0,
     lambda n: -(n**2) * (n**3 + 2 * n**2 - 3 * n + 2) * (n + 1) ** 3, "-", 2),
    ("psi_nn(1)", _nn, 0, lambda n: 1,
     lambda n: (n**6 * (3 * n**2 - 3 * n - 38) + 3 * n**2 * (18 * n**3 - n - 24)
                + 35 * n**4 - 16 * n + 24), "+", 3),
    ("psi_nn(n/2)", _nn, 0, lambda n: Fraction(n, 2),
     lambda n: -Fraction(n**2 * (n - 1) * (2 * n**3 + 3 * n**2 - 5 * n - 8) * (n + 2) ** 3, 32), "-", 2),
)


# --- bundles, which only build: ``verification`` checks them ----------------

def psi_polys(n: int, t: int) -> tuple[Poly, Poly, Poly, Poly]:
    return psi_poly(n, t), psi1_poly(n, t), psi2_poly(n, t), psi3_poly(n, t)


def psi_nn_polys(n: int) -> tuple[Poly, Poly, Poly, Poly]:
    return psi_nn_poly(n), psi1_nn_poly(n), psi2_nn_poly(n), psi3_nn_poly(n)


class PsiBundle(NamedTuple):
    """psi and its three derivative cofactors for one (n, t) cell; from
    ``build_psi_nn`` the t = n expansions."""

    psi: Poly
    psi1: Poly
    psi2: Poly
    psi3: Poly


def build_psi(n: int, t: int) -> PsiBundle:
    """psi(n, t) and its three cofactors, for n >= 1 and 0 <= t <= n."""
    if n < 1:
        raise ValueError(f"bundle needs n >= 1, got {n}")
    if t < 0 or t > n:
        raise ValueError(f"bundle needs 0 <= t <= n, got t={t}")
    return PsiBundle(*psi_polys(n, t))


def build_psi_nn(n: int) -> PsiBundle:
    """The t = n expansions psi_nn, .., psi3_nn at n >= 1."""
    if n < 1:
        raise ValueError(f"bundle needs n >= 1, got {n}")
    return PsiBundle(*psi_nn_polys(n))


class ThetaBundle(NamedTuple):
    """theta and its derivatives in t to order four."""

    theta: Poly
    derivatives: tuple[Poly, Poly, Poly, Poly]


def build_theta(n: int) -> ThetaBundle:
    """theta for one n >= 1 and its four derivatives, the chain whose values
    at the rows of ``THETA_ENDPOINT_FORMS`` prop31 compares and whose signs
    it reads (``verification._form_failures``)."""
    if n < 1:
        raise ValueError(f"theta needs n >= 1, got {n}")
    chain = [theta_poly(n)]
    for _ in range(4):
        chain.append(chain[-1].derivative())
    return ThetaBundle(chain[0], tuple(chain[1:]))
