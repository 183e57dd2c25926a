import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qlogconvex import polynomials
from qlogconvex.polynomials import (
    IntervalSign,
    Poly,
    ZERO,
    descartes_bound,
    divmod_poly,
    sign_constant_on,
    sturm_chain,
    sturm_count_roots,
    values_at_integers,
)
from qlogconvex.criteria import _negative_ends
from qlogconvex.families import FAMILY_TAGS, family_poly
from qlogconvex import proofpolys
from qlogconvex.proofpolys import eta_poly, theta_poly


def test_canonical_form_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).is_zero
    assert Poly().degree == -1
    assert Poly([5]).degree == 0


def _strip_list_reference(coeffs: list) -> tuple:
    """The canonical form as Poly built it once, by copying the input to a
    list and that list's prefix to a tuple, kept here as the reference."""
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


_coefficients = st.one_of(st.integers(min_value=-10**30, max_value=10**30), st.just(0))


def _generated(coeffs):
    return (c for c in coeffs)


@given(st.lists(_coefficients, max_size=12), st.integers(min_value=0, max_value=6),
       st.sampled_from([list, tuple, _generated]))
@example([], 0, list)
@example([], 3, _generated)
@example([0, 0], 2, tuple)
@settings(max_examples=300)
def test_poly_keeps_the_canonical_form_of_the_list_copy(coeffs, zeros, container):
    padded = coeffs + [0] * zeros
    built = Poly(container(padded))
    assert built.coeffs == _strip_list_reference(list(padded))
    assert type(built.coeffs) is tuple


def test_ring_operation_examples():
    one_plus_q = Poly([1, 1])
    assert one_plus_q * one_plus_q == Poly([1, 2, 1])
    p = Poly([3, -1, 7])
    assert p - p == ZERO
    d1 = Poly([2, 2])
    assert d1 * d1 == Poly([4, 8, 4])


def test_product_degree_is_additive():
    p, q = Poly([1, 2, 3]), Poly([-4, 0, 0, 5])
    assert (p * q).degree == p.degree + q.degree


def test_scalar_and_power():
    assert Poly([1, 1]) * 3 == Poly([3, 3])
    assert Poly([1, 1]) ** 2 == Poly([1, 2, 1])
    assert Poly([1, 1]) ** 0 == Poly([1])


def test_derivative_examples():
    assert Poly([-2, 0, 1]).derivative() == Poly([0, 2])
    assert Poly([7]).derivative() == ZERO
    # boundary sextic at n=5: slope at 0 is -n^2 (n+1)^2 (8n^2 + 12n - 5)
    theta5 = theta_poly(5)
    assert theta5.derivative()(0) == -(5**2) * (6**2) * (8 * 25 + 60 - 5) == -229500


def test_derivative_drops_degree_by_one():
    p = Poly([3, 0, 0, 9])
    assert p.derivative().degree == p.degree - 1


def test_eval_examples():
    assert Poly([-2, 0, 1])(Fraction(3, 2)) == Fraction(1, 4)
    assert Poly([11, 5, 3])(0) == 11
    # theta(n) = -n^2 (n+1) (n^3 + 2n^2 - 3n + 2) at n=5
    assert theta_poly(5)(5) == -25 * 6 * 162 == -24300


def test_divmod_round_trip():
    f = Poly([1, -3, 0, 2, 5])
    for g, expected_scale in ((Poly([2, 0, 1]), 1), (Poly([2, 0, 3]), 9)):
        q, r, scale = divmod_poly(f, g)
        assert all(type(c) is int for c in q.coeffs + r.coeffs + (scale,))
        assert scale == expected_scale
        assert q * g + r == scale * f
        assert r.degree < g.degree


def test_divmod_refuses_a_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divmod_poly(Poly([1, 1]), ZERO)


def test_squarefree_part():
    # the Fraction reference kept below, which the Sturm chain tests read
    p = Poly([1, 1]) ** 3 * Poly([-2, 1])
    sf = _ref_squarefree(list(p.coeffs))
    assert sf == [Fraction(-2), Fraction(-1), Fraction(1)]  # monic (x+1)(x-2)


def test_values_at_integers_match_horner_on_theta():
    for n in range(1, 401):
        theta = theta_poly(n)
        assert values_at_integers(theta, n + 1) == [theta(t) for t in range(n + 1)], n


@given(st.lists(st.integers(min_value=-10**12, max_value=10**12), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=25))
@example([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 3)  # fewer seeds than deg + 1
@example([0, 0, 0, 1], 1)
@example([0], 4)  # the zero polynomial
@example([7], 0)
@settings(max_examples=200, deadline=None)
def test_values_at_integers_match_horner(coeffs, stop):
    p = Poly(coeffs)
    assert values_at_integers(p, stop) == [p(x) for x in range(stop)]


def test_sturm_chain_shape():
    chain = sturm_chain(Poly([-2, 0, 1]))
    degrees = [p.degree for p in chain]
    assert degrees == sorted(degrees, reverse=True)
    assert chain[-1].degree == 0 and not chain[-1].is_zero


def test_sturm_count_examples():
    assert sturm_count_roots(Poly([-2, 0, 1]), 0, 2) == 1
    assert sturm_count_roots(Poly([1, -2, 1]), 0, 2) == 1  # (x-1)^2, distinct count
    assert sturm_count_roots(Poly([1, 0, 1]), -10, 10) == 0


def test_sturm_half_open_convention():
    # x (x - 2): root at the left endpoint is excluded, at the right included
    p = Poly([0, -2, 1])
    assert sturm_count_roots(p, 0, 2) == 1
    assert sturm_count_roots(p, -1, 2) == 2
    assert sturm_count_roots(p, -1, Fraction(3, 2)) == 1


def test_sturm_rejects_bad_input():
    with pytest.raises(ValueError):
        sturm_count_roots(ZERO, 0, 1)
    with pytest.raises(ValueError):
        sturm_count_roots(Poly([1, 1]), 1, 1)


def test_a_float_endpoint_is_refused():
    # the float 0.3 is not 3/10 but its binary value, 5404319552844595/2^54,
    # just below it: read as that value, (0, 0.3] would miss the root 3/10
    # of 10 x - 3.  So every interval kernel refuses a point that is neither
    # an int nor a Fraction.
    p = Poly([-3, 10])
    assert sturm_count_roots(p, 0, Fraction(3, 10)) == 1
    for kernel in (sturm_count_roots, descartes_bound, sign_constant_on):
        for a, b in ((0, 0.3), (0.1, 1), (0, 1.0), (Fraction(0), 1.5)):
            with pytest.raises(TypeError, match="must be an int or a Fraction, not float"):
                kernel(p, a, b)


def test_deflating_a_non_root_raises():
    with pytest.raises(ArithmeticError, match="cannot deflate"):
        polynomials._deflate_root(Poly([1, 1]), Fraction(1))
    assert polynomials._deflate_root(Poly([-1, 0, 1]), Fraction(1)) == Poly([1, 1])
    # 6x^2 - x - 2 = (2x + 1)(3x - 2) deflates at 2/3; at 1/3 the division
    # by 3x - 1 is inexact at its second step
    p = Poly([-2, -1, 6])
    assert polynomials._deflate_root(p, Fraction(2, 3)) == Poly([1, 2])
    with pytest.raises(ArithmeticError, match=r"cannot deflate a root at 1/3: .* is -5/3 there"):
        polynomials._deflate_root(p, Fraction(1, 3))
    # 2x + 1 divides by 2x - 3 exactly, leaving the nonzero remainder 4
    with pytest.raises(ArithmeticError, match=r"cannot deflate a root at 3/2: .* is 4 there"):
        polynomials._deflate_root(Poly([1, 2]), Fraction(3, 2))


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=8)
       .filter(any),
       st.fractions(min_value=-20, max_value=20, max_denominator=30))
@settings(max_examples=200, deadline=None)
def test_deflating_a_rational_root_divides_by_its_primitive_factor(cofactor, root):
    # (q x - u) s deflates at u/q back to the integer s (Gauss's lemma)
    s = Poly(cofactor)
    p = Poly([-root.numerator, root.denominator]) * s
    assert polynomials._deflate_root(p, root) == s
    assert all(type(c) is int for c in s.coeffs)


def test_sign_constant_on_raises_when_a_zero_count_meets_a_sign_change(monkeypatch):
    monkeypatch.setattr(polynomials, "_roots_inside", lambda p, a, b: 0)
    with pytest.raises(ArithmeticError, match="changes sign"):
        sign_constant_on(Poly([0, 1]), -1, 1)


def test_sign_constant_on_examples():
    assert sign_constant_on(Poly([1, 0, 1]), -1, 1) is IntervalSign.POSITIVE
    assert sign_constant_on(Poly([0, 1]), -1, 1) is IntervalSign.NOT_CONSTANT
    assert sign_constant_on(Poly([0, 1]), 0, 1) is IntervalSign.NOT_CONSTANT  # endpoint root
    assert sign_constant_on(Poly([-1, 0, -2]), -3, 3) is IntervalSign.NEGATIVE
    # eta for n=5 keeps a strict negative sign on [0, 15/4]
    assert sign_constant_on(eta_poly(5), 0, Fraction(15, 4)) is IntervalSign.NEGATIVE


small_polys = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=6
).map(Poly)


@given(small_polys, small_polys)
@settings(max_examples=150)
def test_leibniz_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(small_polys, small_polys, small_polys)
@settings(max_examples=100)
def test_ring_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


def _cauchy_root_bound(p: Poly) -> Fraction:
    """B with every real root of the nonconstant p inside (-B, B)."""
    lead = abs(Fraction(p.coeffs[-1]))
    return 1 + max(abs(Fraction(c)) / lead for c in p.coeffs[:-1])


root_strategy = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@given(
    st.lists(st.tuples(root_strategy, st.integers(min_value=1, max_value=3)),
             min_size=1, max_size=4, unique_by=lambda rm: rm[0]),
    st.integers(min_value=0, max_value=1),
)
@settings(max_examples=120)
def test_sturm_count_matches_constructed_roots(roots, complex_pairs):
    """Oracle by construction: real roots are planted, then counted."""
    p = Poly([1])
    for r, mult in roots:
        p = p * Poly([-r.numerator, r.denominator]) ** mult
    p = p * Poly([1, 0, 1]) ** complex_pairs  # irreducible factor, no real roots
    bound = _cauchy_root_bound(p)
    assert sturm_count_roots(p, -bound, bound) == len(roots)
    inside = [r for r, _ in roots if Fraction(0) < r <= Fraction(3)]
    assert sturm_count_roots(p, 0, 3) == len(inside)


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=2, max_size=13))
@settings(max_examples=60, deadline=None)
def test_sturm_count_bounded_below_by_grid_scan(coeffs):
    p = Poly(coeffs)
    if p.is_zero or p.degree < 1:
        return
    window = Fraction(16)
    total = sturm_count_roots(p, -window, window)
    # a coarse sign-change scan can only undercount distinct roots
    step = Fraction(1, 8)
    scan = 0
    x = -window
    prev = p(x)
    while x < window:
        x += step
        cur = p(x)
        if prev * cur < 0:
            scan += 1
        if cur != 0:
            prev = cur
    assert scan <= total <= p.degree


# --- Poly.__mul__ against a plain schoolbook reference ------------------------

def _reference_product(a: list, b: list) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def _signed_coeff_lists(draw):
    """Coefficient lists of up to 40 terms, with interior zeros and possibly
    zero leading coefficients (length 0 is the zero polynomial)."""
    bits = draw(st.integers(min_value=1, max_value=700))
    coeff = st.integers(min_value=-(2**bits - 1), max_value=2**bits - 1)
    body = draw(st.lists(st.one_of(st.just(0), coeff), max_size=40))
    return body + [0] * draw(st.integers(min_value=0, max_value=2))


@given(_signed_coeff_lists(), _signed_coeff_lists())
@settings(max_examples=300, deadline=None)
def test_mul_matches_schoolbook_reference(a, b):
    assert (Poly(a) * Poly(b)).coeffs == Poly(_reference_product(a, b)).coeffs


def _spy_palindromic(monkeypatch) -> list:
    """Record ("palindromic", slot count) for every product that takes the
    palindromic path; every other product takes the schoolbook loop."""
    counts = []
    palindromic = polynomials._palindromic_mul
    monkeypatch.setattr(polynomials, "_palindromic_mul",
                        lambda a, b, bits: counts.append(("palindromic", len(a) + len(b) - 1))
                        or palindromic(a, b, bits))
    return counts


def _bound_bits(a, b) -> int:
    """Bit length of the slot bound max|a| * max|b| * min(len a, len b)."""
    return (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length()


def _expected_paths(a, b) -> list:
    """The one path of an int product: palindromic when both operands equal
    their reversal, else the schoolbook loop, which the spy does not see."""
    if list(a) == list(a)[::-1] and list(b) == list(b)[::-1]:
        return [("palindromic", len(a) + len(b) - 1)]
    return []


def test_mul_kronecker_at_the_slot_bound(monkeypatch):
    # all coefficients at one magnitude make the middle product coefficient
    # reach the slot bound max|a| * max|b| * min(len) exactly; over these bit
    # sizes the bound fills its last byte in some cases and not in others.
    # The symmetric pairs take the palindromic product, whose slot of
    # Y = X^2 holds 2 log2 Y - 2 bits of the bound and whose middle
    # coefficient is -bound for the second pair; the others take the
    # schoolbook loop.
    paths = _spy_palindromic(monkeypatch)
    sizes = [*range(1, 80), 699, 700]
    expected_paths = []
    for bits in sizes:
        top = 2**bits - 1
        length = 16 + bits % 5
        for a, b in (
            ([top] * length, [top] * length),
            ([-top] * length, [top] * (length + 3)),
            ([(-1) ** i * top for i in range(length)], [(-1) ** i * top for i in range(length)]),
            ([top] * length, [0] + [-top] * length),
        ):
            assert list((Poly(a) * Poly(b)).coeffs) == _reference_product(a, b)
            expected_paths += _expected_paths(a, b)
    assert paths == expected_paths
    # the two all-equal pairs and the odd-length alternating squares are
    # symmetric: one palindromic product each
    odd = sum((16 + bits % 5) % 2 for bits in sizes)
    assert len(paths) == 2 * len(sizes) + odd


def _two_point_cases() -> list:
    """Deterministic operand pairs of about 5k to 30k packed bits: 17 to 24
    terms of 300 bits, square and not, and unbalanced pairs of 16 and 400
    terms."""
    top = 2**300 - 1
    mixed = [(-1) ** (i * i // 3) * (top - 7 * i) for i in range(24)]
    cases = []
    for la in range(17, 24):
        for lb in (la, la + 1):
            cases.append((mixed[:la], [top - i for i in range(lb)]))
            cases.append(([-top] * la, [-(top >> i % 3) for i in range(lb)]))
        cases.append((mixed[:la], mixed[:la]))               # square
        cases.append(([-top] * la, [-top] * la))             # all-negative square
        cases.append((mixed[:la], mixed[1:la + 1]))          # distinct, equal length
    unbalanced = [(-1) ** i * (2**800 - 3 * i) for i in range(16)]
    cases.append((unbalanced, [(-1) ** (i // 5) * (2**40 + i) for i in range(400)]))
    cases.append(([2**60 + i for i in range(400)], unbalanced))
    return cases


def test_mul_two_point_matches_schoolbook(monkeypatch):
    # the all-negative squares are symmetric and take the palindromic path
    paths = _spy_palindromic(monkeypatch)
    expected_paths = []
    for a, b in _two_point_cases():
        assert list((Poly(a) * Poly(b)).coeffs) == _reference_product(a, b)
        expected_paths += _expected_paths(a, b)
    assert paths == expected_paths and paths


@pytest.mark.parametrize("n", [1, 5, 20, 48, 96, 160])
def test_mul_two_point_family_defect_products(monkeypatch, n):
    # the defect's two products at every size: the self-reciprocal D and W
    # rows take the palindromic path, V and F the schoolbook loop
    paths = _spy_palindromic(monkeypatch)
    for tag in FAMILY_TAGS:
        below, here, above = (family_poly(tag, m).coeffs for m in (n - 1, n, n + 1))
        for a, b in ((above, below), (here, here)):
            assert list((Poly(a) * Poly(b)).coeffs) == _reference_product(a, b)
    assert paths == [("palindromic", 2 * n + 1)] * 4


def test_mul_dispatch_reads_operand_shape(monkeypatch):
    # operands of any length take the palindromic path when both are
    # symmetric and the schoolbook loop otherwise
    paths = _spy_palindromic(monkeypatch)
    symmetric = Poly([3, 1, 3])
    for a, b in ((Poly([5]), Poly([7])), (symmetric, symmetric), (Poly([2] * 40), symmetric),
                 (Poly([1, 2]), Poly([1, 2])), (symmetric, Poly(range(1, 41))),
                 (Poly([0, 1]), Poly([1]))):
        paths.clear()
        assert (a * b).coeffs == Poly(_reference_product(list(a.coeffs), list(b.coeffs))).coeffs
        assert paths == _expected_paths(a.coeffs, b.coeffs)
    paths.clear()
    assert ZERO * symmetric == symmetric * ZERO == ZERO
    assert paths == []


@st.composite
def _packed_defects(draw):
    """(coefficients, slot bytes) with every |c| < 2^(8 size - 2), the bound
    ``criteria._slot_bytes`` keeps on the W and F defects: 1 to 400
    coefficients in 1 to 160 bytes (F's slot is 126 bytes at n = 160 and
    158 at n = 200), drawn from 0, +-1, +-(2^(8 size - 2) - 1) and values
    in between."""
    size = draw(st.integers(1, 160))
    count = draw(st.integers(1, 400))
    bound = (1 << (8 * size - 2)) - 1
    rng = draw(st.randoms(use_true_random=False))
    signs = {"mixed": (-1, 1), "nonnegative": (1,), "negative": (-1,), "zero": ()}
    shape = draw(st.sampled_from(["mixed", "mixed", "nonnegative", "negative", "zero"]))

    def coefficient():
        if not signs[shape]:
            return 0
        sign = rng.choice(signs[shape])
        magnitude = rng.choice([0, 1, bound, rng.randint(0, bound)])
        return sign * (magnitude or (sign < 0))

    coeffs = [coefficient() for _ in range(count)]
    if shape == "nonnegative":
        # a few negatives among them, at either end at times
        for i in draw(st.lists(st.sampled_from([0, count - 1, rng.randrange(count)]),
                               max_size=3)):
            coeffs[i] = -rng.choice([1, bound, rng.randint(1, bound)])
    return tuple(coeffs), size


@settings(max_examples=300, deadline=None)
@given(_packed_defects())
@example(((-1,), 1))
@example(((0,), 1))
@example(((63,), 1))
@example(((-63,) * 400, 1))
@example(((0,) * 400, 160))
@example((((1 << 1278) - 1,), 160))
@example(((-(1 << 1278) + 1,) * 400, 160))
def test_packed_sign_read_matches_the_unpacked_defect(case):
    coeffs, size = case
    value = polynomials._kronecker_pack(coeffs, size)
    unpacked = polynomials._kronecker_unpack(value, len(coeffs), size)
    assert unpacked == list(coeffs)
    assert polynomials._kronecker_negative_ends(value, len(coeffs), size) == \
        _negative_ends(unpacked)


def test_mul_kronecker_palindromic_dispatch(monkeypatch):
    # the same term count at 5 and 2000 bits: the symmetric squares take the
    # palindromic path at either size, the same operands bumped in one
    # coefficient the schoolbook loop
    paths = _spy_palindromic(monkeypatch)
    a = [(-1) ** i * (2**300 - i) for i in range(11)]
    symmetric = a[:10] + a[10::-1]
    length = 20
    small, large = ([2**bits - 1] * length for bits in (5, 2000))
    bumped = [2**2000 - 2] + large[1:]
    for operand, path in ((symmetric, [("palindromic", 2 * len(symmetric) - 1)]),
                          (small, [("palindromic", 2 * length - 1)]),
                          (large, [("palindromic", 2 * length - 1)]),
                          (bumped, [])):
        paths.clear()
        assert list((Poly(operand) * Poly(operand)).coeffs) == _reference_product(operand, operand)
        assert paths == path


@st.composite
def _palindromic_coeff_lists(draw):
    """Signed nonzero palindromic coefficient tuples of 1 to 64 terms, so
    that the four index classes mod 4 have unequal lengths; some have every
    coefficient of one magnitude, which puts the product's middle
    coefficient at the slot bound."""
    top = 2 ** draw(st.integers(min_value=1, max_value=700)) - 1
    length = draw(st.integers(min_value=1, max_value=64))
    if draw(st.booleans()):
        return (draw(st.sampled_from([top, -top])),) * length
    half = draw(st.lists(st.integers(min_value=-top, max_value=top),
                         min_size=(length + 1) // 2, max_size=(length + 1) // 2))
    return tuple(half + half[:length // 2][::-1]) if any(half) else (top,) * length


_RAMP = tuple(range(1, 33)) + tuple(range(32, 0, -1))  # 64 terms


@given(_palindromic_coeff_lists(),
       st.one_of(st.sampled_from(["same", "copy"]), _palindromic_coeff_lists()))
@example((7,), "same")  # one coefficient: no odd-index half
@example((7,), (3, -5, 3))  # an operand of length 1
@example((1, 2, 2, 1), (5, 5))  # an odd coefficient count from two even lengths
@example((1, 2, 1), (5, 5))  # an even coefficient count
@example(_RAMP, _RAMP[1:-1])  # 64 and 62 terms: 125 coefficients
@example(_RAMP, _RAMP[:31] + _RAMP[32:])  # 64 and 63 terms: 126 coefficients
@example((-(2**61 - 1),) * 16, (2**61 - 1,) * 16)  # middle -bound; 126-bit bound = 32 q - 2
# bounds of 30, 31 and 32 bits: 2^29, 2 * 23171^2 and 2^31, about the
# rounding of q from one byte to two
@example((2**14,) * 2, (-(2**14),) * 2)
@example((23171,) * 2, (-23171,) * 2)
@example((2**15,) * 2, (-(2**15),) * 2)
@example((2**600 - 1,) * 40, "copy")
@settings(max_examples=300, deadline=None)
def test_palindromic_mul_matches_schoolbook(a, b):
    # "same" squares a as the one tuple (a is b), "copy" as an equal but
    # distinct tuple
    if b == "same":
        b = a
    elif b == "copy":
        b = tuple(list(a))
    expected = _reference_product(a, b)
    assert polynomials._palindromic_mul(a, b, _bound_bits(a, b)) == expected
    assert (Poly(a) * Poly(b)).coeffs == Poly(expected).coeffs


@pytest.mark.parametrize("bits, field_bytes",
                         [(30, 4), (31, 8), (32, 8), (62, 8), (63, 12), (64, 12), (254, 32),
                          (255, 36), (256, 36)])
def test_palindromic_mul_on_either_side_of_the_byte_rounding_of_q(monkeypatch, bits, field_bytes):
    # q is the fewest bytes with 32 q - 2 >= bits, so a bound of 30 bits mod
    # 32 fills the slot and one more bit takes another byte; each operand is
    # packed in four fields of 4 q bytes.  Equal magnitudes put the middle
    # coefficient at +-bound, for both coefficient-count parities and for
    # squares given as one tuple and as two equal ones.
    sizes = []
    pack = polynomials._kronecker_pack
    monkeypatch.setattr(polynomials, "_kronecker_pack",
                        lambda c, size: sizes.append(size) or pack(c, size))
    for la, lb in ((2, 2), (3, 2), (7, 4), (63, 64), (64, 64)):
        top = math.isqrt((2 ** (bits - 1) - 1) // min(la, lb)) + 1
        for a, b in (((top,) * la, (-top,) * lb), ((-top,) * la, (-top,) * lb)):
            assert _bound_bits(a, b) == bits
            for other in ((b, a, tuple(list(a))) if la == lb else (b,)):
                assert polynomials._palindromic_mul(a, other, bits) == _reference_product(a, other)
    assert set(sizes) == {field_bytes}


@pytest.mark.parametrize("m, k, tag", [(199, 201, "D"), (200, 200, "D"), (200, 199, "W"),
                                       (199, 200, "W")])
def test_palindromic_mul_matches_schoolbook_on_rows_of_two_hundred(m, k, tag):
    # D_199 D_201 and D_200^2 have 401 coefficients, a D row times a W row of
    # the other parity 400, above every benchmark workload's sizes
    a, b = family_poly("D", m).coeffs, family_poly(tag, k).coeffs
    assert polynomials._palindromic_mul(a, b, _bound_bits(a, b)) == _reference_product(a, b)


@pytest.mark.parametrize("n", [48, 96, 160])
def test_mul_rows_one_bump_from_palindromic_take_the_general_path(monkeypatch, n):
    paths = _spy_palindromic(monkeypatch)
    for tag in ("D", "W"):
        here = family_poly(tag, n).coeffs
        above = family_poly(tag, n + 1).coeffs
        for k in (0, n // 3):
            bumped = here[:k] + (here[k] + 1,) + here[k + 1:]
            for a, b in ((bumped, bumped), (above, bumped), (bumped, here)):
                assert list((Poly(a) * Poly(b)).coeffs) == _reference_product(a, b)
            assert paths == []
        assert list((Poly(here) * Poly(above)).coeffs) == _reference_product(here, above)
        assert paths == [("palindromic", 2 * n + 2)]
        paths.clear()


def test_palindromic_mul_raises_when_the_ends_do_not_meet(monkeypatch):
    # random garbage below the top 16 bits of each packed field: no
    # palindromic reading of the product adds up to its value (60
    # coefficients, so the ends meet on one slot read twice)
    x, y = (family_poly("D", m).coeffs for m in (30, 29))
    garbage = random.Random(0)
    pack = polynomials._kronecker_pack

    def garbled(c, size):
        value = pack(c, size)
        return value + garbage.getrandbits(value.bit_length() - 16)

    monkeypatch.setattr(polynomials, "_kronecker_pack", garbled)
    with pytest.raises(ArithmeticError, match="does not close at the middle"):
        polynomials._palindromic_mul(x, y, _bound_bits(x, y))


@pytest.mark.parametrize("m", [29, 30])
def test_palindromic_mul_raises_on_every_unit_slip_in_a_packed_field(monkeypatch, m):
    # D_30 D_29 (60 coefficients) and D_30^2 (61): +-1 in any one slot of any
    # one of the packed fields turns an operand into a near-palindrome, and
    # the middle check or h(1) = a(1) b(1) must refuse every product read
    x, y = family_poly("D", 30).coeffs, family_poly("D", m).coeffs
    bits = _bound_bits(x, y)
    pack = polynomials._kronecker_pack
    fields = []
    monkeypatch.setattr(polynomials, "_kronecker_pack",
                        lambda c, size: fields.append(len(c)) or pack(c, size))
    polynomials._palindromic_mul(x, y, bits)
    assert len(fields) == (4 if m == 30 else 8)
    slips = 0
    for field, slots in enumerate(fields):
        for slot in range(slots):
            for unit in (1, -1):
                calls = iter(range(len(fields)))

                def slipped(c, size):
                    value = pack(c, size)
                    return value + (unit << 8 * size * slot if next(calls) == field else 0)

                monkeypatch.setattr(polynomials, "_kronecker_pack", slipped)
                with pytest.raises(ArithmeticError):
                    polynomials._palindromic_mul(x, y, bits)
                slips += 1
    assert slips == 2 * sum(fields)


def test_palindromic_mul_raises_on_a_slot_one_bit_too_narrow():
    # the bound 2 * 23171^2 = 1,073,774,482 has 31 bits; told 30, q is one
    # byte where 32 q - 2 >= 31 needs two, the slots of Y = 2^16 hold one
    # bit too few, and the middle coefficients -2 * 23171^2 wrap, yet the
    # ends still meet; only the check h(1) = a(1) b(1) sees the wrong product
    a, b = (23171,) * 3, (-23171,) * 2
    assert _bound_bits(a, b) == 31
    assert polynomials._palindromic_mul(a, b, 31) == _reference_product(a, b)
    with pytest.raises(ArithmeticError, match=r"does not sum to a\(1\) b\(1\)"):
        polynomials._palindromic_mul(a, b, 30)


@given(_signed_coeff_lists(), st.one_of(st.integers(min_value=-(2**700), max_value=2**700),
                                        st.fractions()))
@settings(max_examples=150, deadline=None)
def test_mul_by_scalar_both_directions(a, c):
    # a scalar factor is an int; a Fraction one, even integral, would leave
    # the integer coefficients, and either order refuses it
    if type(c) is Fraction:
        with pytest.raises(TypeError):
            Poly(a) * c
        with pytest.raises(TypeError):
            c * Poly(a)
        return
    expected = Poly([x * c for x in a])
    assert Poly(a) * c == expected
    assert c * Poly(a) == expected


# --- sturm_count_roots against the Fraction implementation it replaced -------
#
# A frozen copy of the earlier root counter: the Sturm chain of the monic
# squarefree part, built by Euclidean remainders over Fractions.

def _ref_divmod(f: list, g: list) -> tuple[list, list]:
    rem = [Fraction(c) for c in f]
    div = [Fraction(c) for c in g]
    dd = len(div) - 1
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - dd - 1, -1, -1):
        factor = rem[i + dd] / div[-1]
        if factor:
            quo[i] = factor
            for j, c in enumerate(div):
                rem[i + j] -= factor * c
    return list(Poly(quo).coeffs), list(Poly(rem[:dd]).coeffs)


def _ref_monic(p: list) -> list:
    return [Fraction(c) / p[-1] for c in p]


def _ref_squarefree(p: list) -> list:
    if len(p) == 1:
        return [Fraction(1)]
    a, b = p, list(Poly(p).derivative().coeffs)
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    if len(a) == 1:
        return _ref_monic(p)
    quo, rem = _ref_divmod(p, a)
    assert not rem
    return _ref_monic(quo)


def _ref_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _ref_variations(chain: list, x: Fraction) -> int:
    signs = [v > 0 for v in (_ref_eval(q, x) for q in chain) if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _ref_sturm_count_roots(p: Poly, a, b) -> int:
    a, b = Fraction(a), Fraction(b)
    f = _ref_squarefree(list(p.coeffs))
    count_b = 1 if _ref_eval(f, b) == 0 else 0
    for endpoint in (a, b):
        while len(f) > 1 and _ref_eval(f, endpoint) == 0:
            acc, out = Fraction(0), []
            for c in reversed(f):
                acc = acc * endpoint + c
                out.append(acc)
            f = list(reversed(out[:-1]))
    if len(f) <= 1:
        return count_b
    f = _ref_squarefree(f)
    if len(f) <= 1:
        return count_b
    chain = [f, list(Poly(f).derivative().coeffs)]
    while len(chain[-1]) > 1:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return _ref_variations(chain, a) - _ref_variations(chain, b) + count_b


_endpoint_values = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _planted_root_cases(draw):
    """A polynomial with planted real roots of multiplicity 1-3, an optional
    factor without real roots, a nonzero integer scale, and an interval
    whose endpoints are often planted roots."""
    roots = draw(st.lists(st.tuples(_endpoint_values, st.integers(min_value=1, max_value=3)),
                          max_size=4, unique_by=lambda rm: rm[0]))
    p = Poly([1])
    for r, mult in roots:
        p = p * Poly([-r.numerator, r.denominator]) ** mult
    if draw(st.booleans()):  # x^2 + b x + c with b^2 < 4c
        b = draw(st.integers(min_value=-5, max_value=5))
        p = p * Poly([b * b // 4 + draw(st.integers(min_value=1, max_value=9)), b, 1])
    if draw(st.booleans()):
        p = p * Poly([draw(st.integers(min_value=-30, max_value=30)), 1])
    p = p * draw(st.integers(min_value=-50, max_value=50).filter(bool))
    candidates = sorted({r for r, _ in roots} | {draw(_endpoint_values), Fraction(-7), Fraction(7)})
    a, b = sorted(draw(st.lists(st.sampled_from(candidates), min_size=2, max_size=2,
                                unique=True)))
    return p, a, b


@given(_planted_root_cases())
@settings(max_examples=250, deadline=None)
def test_sturm_count_matches_fraction_reference(case):
    p, a, b = case
    assert sturm_count_roots(p, a, b) == _ref_sturm_count_roots(p, a, b)


@given(st.lists(st.integers(min_value=-10**4, max_value=10**4), min_size=1, max_size=9)
       .filter(lambda c: c[-1] != 0),
       _endpoint_values, _endpoint_values)
@settings(max_examples=300, deadline=None)
def test_sturm_count_random_polys_match_fraction_reference(coeffs, a, b):
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    assert sturm_count_roots(Poly(coeffs), a, b) == _ref_sturm_count_roots(Poly(coeffs), a, b)


def _ref_gcd(f: list, g: list) -> list:
    while g:
        f, g = g, _ref_divmod(f, g)[1]
    return f


def _ref_open_count_with_multiplicity(p: Poly, a, b) -> int:
    """Roots of p in (a, b) counted with multiplicity.  A root of
    multiplicity m is a root of the first m of f_0 = p, f_1 = gcd(f_0, f_0'),
    f_2 = gcd(f_1, f_1'), ..., so their distinct counts add up to it."""
    total, f = 0, list(p.coeffs)
    while len(f) > 1:
        total += _ref_sturm_count_roots(Poly(f), a, b) - (_ref_eval(f, Fraction(b)) == 0)
        f = _ref_gcd(f, list(Poly(f).derivative().coeffs))
    return total


def _check_descartes_bound(p: Poly, a, b) -> None:
    """Descartes' rule on (a, b) against the frozen Sturm reference: V bounds
    the roots counted with multiplicity, has their parity, and is the
    number of distinct roots when it is at most 1."""
    variations = descartes_bound(p, a, b)
    distinct = _ref_sturm_count_roots(p, a, b) - (p(b) == 0)
    with_multiplicity = _ref_open_count_with_multiplicity(p, a, b)
    assert variations >= with_multiplicity >= distinct
    assert (variations - with_multiplicity) % 2 == 0
    if variations <= 1:
        assert variations == distinct


@given(_planted_root_cases())
@settings(max_examples=200, deadline=None)
def test_descartes_bound_against_the_fraction_reference(case):
    _check_descartes_bound(*case)


@given(st.lists(st.integers(min_value=-10**4, max_value=10**4), min_size=1, max_size=9)
       .filter(lambda c: c[-1] != 0),
       _endpoint_values, _endpoint_values)
@settings(max_examples=200, deadline=None)
def test_descartes_bound_on_random_polys_against_the_fraction_reference(coeffs, a, b):
    if a == b:
        return
    _check_descartes_bound(Poly(coeffs), min(a, b), max(a, b))


def test_descartes_bound_examples():
    p = Poly([-1, 1]) ** 3 * Poly([-2, 1]) ** 2  # (x - 1)^3 (x - 2)^2
    assert descartes_bound(p, 0, Fraction(3, 2)) == 3
    assert descartes_bound(p, 1, 2) == 0  # endpoint roots are left out
    assert descartes_bound(Poly([-1, 0, 1]), -2, 2) == 2
    assert descartes_bound(Poly([-1, 0, 4]), 0, 1) == 1
    with pytest.raises(ValueError):
        descartes_bound(ZERO, 0, 1)
    with pytest.raises(ValueError):
        descartes_bound(Poly([1, 1]), 1, 0)


def _proof_intervals(n: int) -> list:
    """The root counts and sign checks of prop31 and claims 2-3 at n:
    theta'''' .. theta' on (0, n - 1], xi on [3n/4, n - 1], eta on [0, 3n/4]."""
    th1, th2, th3, th4 = proofpolys.build_theta(n).derivatives
    return [(th4, 0, n - 1), (th3, 0, n - 1), (th2, 0, n - 1), (th1, 0, n - 1),
            (proofpolys.xi_poly(n), Fraction(3 * n, 4), n - 1),
            (proofpolys.eta_poly(n), 0, Fraction(3 * n, 4))]


def test_descartes_filter_counts_the_proof_intervals_as_sturm_does(monkeypatch):
    cases = [case for n in range(5, 81) for case in _proof_intervals(n)]
    filtered = [sturm_count_roots(*case) for case in cases]
    # the filter decides theta'''', theta''', xi and eta; theta'' and theta'
    # go on to the chain
    assert {tuple(descartes_bound(*case) for case in cases[i:i + 6])
            for i in range(0, len(cases), 6)} == {(1, 1, 2, 2, 0, 0)}
    monkeypatch.setattr(polynomials, "descartes_bound", lambda p, a, b: 2)
    assert [sturm_count_roots(*case) for case in cases] == filtered


@given(_planted_root_cases())
@settings(max_examples=100, deadline=None)
def test_sturm_count_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, a, b = case
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    closed = sympy.Poly(coeffs, x, domain="QQ").count_roots(
        sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator))
    # sympy counts distinct roots in [a, b]; (a, b] leaves out a root at a
    assert sturm_count_roots(p, a, b) == closed - (1 if p(a) == 0 else 0)


@st.composite
def _integer_endpoint_cases(draw):
    """An int polynomial times planted integer roots of multiplicity 0-3,
    at a, at b and at one integer near or inside [a, b], with int a < b."""
    a = draw(st.integers(min_value=-6, max_value=5))
    b = draw(st.integers(min_value=a + 1, max_value=7))
    p = Poly(draw(st.lists(st.integers(min_value=-10**4, max_value=10**4), min_size=1,
                           max_size=7).filter(any)))
    for root in (a, b, draw(st.integers(min_value=a - 1, max_value=b + 1))):
        p = p * Poly([-root, 1]) ** draw(st.integers(min_value=0, max_value=3))
    return p, a, b


@given(_integer_endpoint_cases())
@example((Poly([-1, 1]) ** 3 * Poly([-2, 1]) ** 2, 1, 2))  # multiple roots at both ends
@example((Poly([0, -2, 1]), 0, 2))  # x (x - 2)
@settings(max_examples=200, deadline=None)
def test_integer_endpoints_answer_as_their_fractions_and_as_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, a, b = case
    fa, fb = Fraction(a), Fraction(b)
    count = sturm_count_roots(p, a, b)
    assert count == sturm_count_roots(p, fa, fb)
    assert descartes_bound(p, a, b) == descartes_bound(p, fa, fb)
    assert sign_constant_on(p, a, b) is sign_constant_on(p, fa, fb)
    x = sympy.Symbol("x")
    closed = sympy.Poly(list(reversed(p.coeffs)), x, domain="ZZ").count_roots(a, b)
    # sympy counts distinct roots in [a, b]; (a, b] leaves out a root at a
    assert count == closed - (1 if p(a) == 0 else 0)


def test_sturm_count_constructed_edge_cases():
    # (x - 1)^3 (x - 2)^2 (x + 1): multiple roots at both endpoints and inside
    p = Poly([-1, 1]) ** 3 * Poly([-2, 1]) ** 2 * Poly([1, 1])
    assert sturm_count_roots(p, 1, 2) == 1
    assert sturm_count_roots(p, -1, 1) == 1
    assert sturm_count_roots(p, -2, 3) == 3
    assert sturm_count_roots(-p, Fraction(1, 2), Fraction(3, 2)) == 1
    assert sturm_count_roots(p * -7, Fraction(-3, 2), 2) == 3
    assert sturm_count_roots(Poly([-1, 0, 4]), 0, 1) == 1  # 4 x^2 - 1
    assert sturm_count_roots(Poly([5]), 0, 1) == 0


@given(_planted_root_cases())
@settings(max_examples=100, deadline=None)
def test_sturm_chain_is_a_primitive_remainder_sequence(case):
    p = case[0]
    chain = sturm_chain(p)
    for q in chain:
        assert all(type(c) is int for c in q.coeffs)
        assert math.gcd(*q.coeffs) == 1
    assert chain[0] * math.gcd(*p.coeffs) == p
    assert [q.degree for q in chain] == sorted({q.degree for q in chain}, reverse=True)
    # the last element is a multiple of gcd(p, p')
    assert chain[-1].degree == p.degree - (len(_ref_squarefree(list(p.coeffs))) - 1)


# --- the integer kernels: pseudo-division and homogeneous evaluation ---------

_int_coeff_lists = st.lists(st.integers(min_value=-10**12, max_value=10**12), max_size=10)


@given(_int_coeff_lists, _int_coeff_lists.filter(lambda c: any(c)))
@settings(max_examples=300, deadline=None)
def test_integer_divmod_matches_fraction_division(f, g):
    quo, rem, scale = divmod_poly(Poly(f), Poly(g))
    assert all(type(c) is int for c in quo.coeffs + rem.coeffs + (scale,))
    assert scale > 0
    assert quo * Poly(g) + rem == scale * Poly(f)
    ref_quo, ref_rem = _ref_divmod(list(Poly(f).coeffs), list(Poly(g).coeffs))
    assert [Fraction(c, scale) for c in quo.coeffs] == ref_quo
    assert [Fraction(c, scale) for c in rem.coeffs] == ref_rem


@given(_int_coeff_lists, st.fractions(max_denominator=10**9))
@settings(max_examples=300, deadline=None)
def test_eval_at_fraction_matches_fraction_horner(coeffs, x):
    value = Poly(coeffs)(x)
    assert value == _ref_eval(list(Poly(coeffs).coeffs), x)
    if any(coeffs):
        assert type(value) is Fraction
    else:
        assert value == 0
