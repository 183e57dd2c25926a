"""Dense univariate polynomials over exact coefficients.

A single class serves both integer and rational polynomials: Python ints and
``fractions.Fraction`` mix exactly under arithmetic, so one dense
representation carries the combinatorial families (integer coefficients) as
well as rational ones.  Rational coefficients never come from division:
``divmod_poly`` is fraction-free pseudo-division of integer polynomials and
refuses a Fraction operand; they come from a caller, or from deflating a
root at an endpoint p/q with q > 1.  Polynomials are immutable after
construction and freely shareable between workers.

Root counting on (a, b) first counts the sign variations V of the Mobius
image (1 + y)^d f((a + b y) / (1 + y)); by Descartes' rule V bounds the
roots in (a, b) with their parity, so V <= 1 is the count (the test of
Vincent, Collins and Akritas).  Only when V >= 2 does it build one signed
remainder sequence of (f, f'), keeping every element primitive: each
remainder is the integer pseudo-remainder of ``divmod_poly``, a positive
multiple of the Euclidean one, divided by its positive content, which
changes no sign, so the chain has the sign variations of the rational Sturm
sequence while all its arithmetic stays in integers (a primitive remainder
sequence, Collins 1967).  f need not be squarefree: every element is a
multiple of gcd(f, f'), so once the roots at the endpoints a and b are
deflated, that gcd is nonzero at both and V(a) - V(b) counts the distinct
roots in (a, b) (the generalized Sturm theorem).

The kernels compute in the ring of their inputs.  ``sturm_count_roots``,
``descartes_bound`` and ``sign_constant_on`` read an integral endpoint (an
int, or a Fraction with denominator 1) as an int, so for an integer
polynomial at an integer endpoint the endpoint values, the deflation of a
root there, the Mobius transform and the Sturm signs are integer Horner
and build no Fraction.  Signs at a rational point p/q, q > 1, come from the
integer sum c_i p^i q^(d-i).

Products of two integer polynomials that both equal their reversal take
``_palindromic_mul``; every other product, of integer or Fraction
coefficients (the rational Sturm tests), takes the schoolbook loop.

Kronecker substitution packs a polynomial into one big integer with a fixed
slot of w bits per coefficient, so that a product of polynomials becomes one
product of integers (CPython's Karatsuba) whose slots read back as the
coefficients.  The slot must hold the bound max|a| * max|b| *
min(len a, len b) on any product coefficient, with a sign bit, so that no
slot overflows into its neighbour.  Packing (``_kronecker_pack``) joins the
coefficients' signed bytes and takes back the unit each negative slot lends
to the next one; unpacking (``_kronecker_unpack``) slices the signed bytes
of the product and propagates the borrow upward.  Where only the signs
are wanted, ``_kronecker_negative_ends`` reads the first and last negative
slot without unpacking: 2^(w - 1) added to every slot makes each slot a
digit of the sum with its top bit clear exactly where its coefficient is
negative.  All three are linear in the size of the numbers.

Palindromic operands, such as the self-reciprocal D and W rows, make a
palindromic product h = ab, and ``_palindromic_mul`` evaluates it at three
points of Harvey's multipoint Kronecker substitution (arXiv:0712.4046): X,
-X and, through the palindrome, 1/X.  X = 2^b, and b is the fewest whole
bytes with 4b - 2 at least the bits of the bound, about w/4.  Each operand
is packed once per residue class of its index mod 4, at X^4 in 4b-bit
fields, since a coefficient may be wider than b bits; the classes add up to
its even and odd parts E(X) and O(X), and c(X), c(-X) are E + O and E - O.
Two multiplies give h(X) and h(-X), squares when a = b; their half sum and
their half difference over X are the even-index and the odd-index
coefficients of h at Y = X^2, each coefficient up to twice the width of a
slot of Y.  A palindrome of such coefficients is read from both ends of its
one integer (``_palindrome_read``): every slot carries the offset 2^(4b-2),
so each offset coefficient lies in (0, 2^(4b-1)); the low end gives
coefficient i modulo Y through a running carry, the top end gives the
mirrored coefficient plus a remainder below Y, and the two meet at the
middle, where the carry must equal that remainder.  The parity of the
coefficient count decides what is read.  With an odd count (every D defect
product) the even and the odd half are palindromes each, read one by one.
With an even count the odd half is the even half reversed, so the even
half followed by the odd one is a single palindrome, read once.  The
coefficients read must also sum to a(1) b(1).  Two multiplies of a quarter
of the full size replace the full-size one, and CPython's Karatsuba makes
the pair cost about two thirds of one multiply of half the size.

Only D's q-log-convexity defects reach ``Poly.__mul__`` in the certificate
and the CLI.  V's defects are F's read through the reversal
V_n(q) = q^n F_n(1/q), and the W and F products are carried from n to n + 1
by their recurrences in n (``criteria._qlc_recurrence_chunk``), at one X
packed with ``_kronecker_pack``, and each defect's signs are read from its
packed integer by ``_kronecker_negative_ends``; their few seed products
multiply the packed integers directly.  Counted over the four benchmark
workloads and every ``check`` and ``families`` command, each product that
reaches ``Poly.__mul__`` has two palindromic int D rows:
300 at the default bounds, 320 with qlc_D to n = 160 and 2 on the
proof-sized workload.  The products of non-palindromic integer rows, which
only a tampered row or a test makes, take the schoolbook loop.  On the 320
D products to n = 160 the pair of quarter-width multiplies takes 0.157 s
where one half-width multiply at X and 1/X took 0.195 s (fastest of 25
alternating repetitions in one process; 2-core Xeon, CPython 3.11).  It
gains over a full-width Kronecker product only from about 9,000 packed
bits on (D from n = 35), and over the half-width one from D at n = 45, but
the 68 defect products of D at n = 1..34 take 1.9-2.6 ms in all on any of
the three, so no size threshold picks another kernel for the small rows.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Iterable, Union

Coeff = Union[int, Fraction]

def _strip(coeffs: tuple) -> tuple:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


class Poly:
    """Dense polynomial, coefficients ascending by exponent.

    Canonical form: trailing zero coefficients are stripped and the zero
    polynomial is the empty tuple (degree -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        # one tuple, stripped only when it ends in a zero; the slot is set
        # through its descriptor, since __setattr__ refuses
        coeffs = tuple(coeffs)
        if coeffs and coeffs[-1] == 0:
            coeffs = _strip(coeffs)
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickle through the constructor, since __setattr__ refuses the
        # default slot restore; no pool result carries a Poly, but a Poly
        # stays picklable
        return Poly, (self.coeffs,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Coeff:
        """Coefficient of x^k, zero beyond the degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return Poly(out)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return ZERO
            if _all_int(a) and _all_int(b) and a == a[::-1] and b == b[::-1]:
                return Poly(_palindromic_mul(a, b, _bound_bits(a, b)))
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return Poly(out)
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def derivative(self) -> "Poly":
        """Formal derivative; drops the degree by exactly one if nonconstant."""
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Coeff) -> Coeff:
        """Exact Horner evaluation; int or Fraction in, same ring out.

        Integer coefficients at a Fraction point p/q are evaluated as the
        integer sum c_i p^i q^(d-i), divided by q^d once at the end.
        """
        coeffs = self.coeffs
        if type(x) is Fraction and coeffs and _all_int(coeffs):
            return Fraction(_homogeneous(coeffs, x.numerator, x.denominator),
                            x.denominator ** (len(coeffs) - 1))
        acc: Coeff = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


_set_coeffs = Poly.coeffs.__set__

ZERO = Poly()
ONE = Poly([1])


_INT_TYPE = frozenset((int,))


def _all_int(coeffs: tuple) -> bool:
    return _INT_TYPE.issuperset(map(type, coeffs))


def _own_ring(x: Coeff) -> Coeff:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _homogeneous(coeffs: tuple, p: int, q: int) -> int:
    """sum_i c_i p^i q^(d-i) for nonempty int coefficients c_0..c_d: q^d times
    the value at p/q, so for q > 0 it has the sign of that value.  For q = 1
    it is integer Horner at p."""
    acc = coeffs[-1]
    if q == 1:
        for c in reversed(coeffs[:-1]):
            acc = acc * p + c
        return acc
    q_power = 1
    for c in reversed(coeffs[:-1]):
        q_power *= q
        acc = acc * p + c * q_power
    return acc


def values_at_integers(p: Poly, stop: int) -> list:
    """[p(0), p(1), ..., p(stop - 1)], exact, from one forward-difference table.

    Horner gives p(0), ..., p(d) for d = deg p, and their forward
    differences Delta^j p(0) start the table.  Delta^d p is constant, and
    the values of Delta^j p at x = 0, 1, ... are the running sums of those
    of Delta^(j+1) p from Delta^j p(0), so the sweep is d running sums: only
    additions.  With stop <= d + 1 the Horner seeds are the values asked for.
    """
    if stop <= 0:
        return []
    diffs = [p(x) for x in range(min(stop, max(p.degree, 0) + 1))]
    if stop <= len(diffs):
        return diffs
    for j in range(1, len(diffs)):
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    values = [diffs[-1]] * stop
    for start in reversed(diffs[:-1]):
        values = list(itertools.accumulate(values[:-1], initial=start))
    return values


def _kronecker_pack(coeffs: tuple, size: int) -> int:
    """sum_i c_i 2^(8 size i), for |c_i| < 2^(8 size - 1)."""
    value = int.from_bytes(
        b"".join(c.to_bytes(size, "little", signed=True) for c in coeffs), "little")
    if any(c < 0 for c in coeffs):
        # a negative c_i sits in its slot as c_i + 2^(8 size): take that unit
        # back from slot i + 1
        one, zero = b"\x01" + bytes(size - 1), bytes(size)
        lent = int.from_bytes(b"".join(one if c < 0 else zero for c in coeffs), "little")
        value -= lent << (8 * size)
    return value


def _kronecker_unpack(value: int, count: int, size: int) -> list:
    """The c_0..c_{count-1} of value = sum_i c_i 2^(8 size i), |c_i| < 2^(8 size - 1)."""
    data = value.to_bytes(count * size, "little", signed=True)
    full = 1 << (8 * size)
    half = full >> 1
    from_bytes = int.from_bytes
    out = []
    borrow = 0
    for i in range(0, count * size, size):
        v = from_bytes(data[i:i + size], "little") + borrow
        borrow = v >= half
        out.append(v - full if borrow else v)
    return out


# byte -> 1 if its top bit is clear, else 0
_TOP_BIT_CLEAR = bytes(int(b < 0x80) for b in range(256))


def _kronecker_negative_ends(value: int, count: int,
                             size: int) -> tuple[int | None, int | None]:
    """The first and last index of a negative c_i, or (None, None), of the
    c_0..c_{count-1} of value = sum_i c_i 2^(8 size i), given every
    |c_i| < 2^(8 size - 1); read from the top byte of each slot without
    unpacking the c_i.

    Adding 2^(8 size - 1) to every slot gives the offset coefficients
    g_i = c_i + 2^(8 size - 1), which lie in (0, 2^(8 size)): they are the
    base-2^(8 size) digits of the sum, no carry crosses a slot, and the top
    bit of g_i is clear exactly when c_i < 0.
    """
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    marks = (value + offset).to_bytes(count * size, "little")[size - 1::size]
    marks = marks.translate(_TOP_BIT_CLEAR)
    first = marks.find(1)
    return (None, None) if first < 0 else (first, marks.rfind(1))


def _bound_bits(a: tuple, b: tuple) -> int:
    """Bit length of max|a| max|b| min(len a, len b), which bounds every
    coefficient of the product of a and b."""
    return (max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))).bit_length()


def _palindrome_read(value: int, count: int, size: int) -> list:
    """The palindromic h_0..h_{count-1} with value = sum_i h_i Y^i at
    Y = 2^shift, shift = 8 size, given every |h_i| < 2^(2 shift - 2); read
    from both ends of the one integer.

    Each slot gets the offset 2^(2 shift - 2), so g_i = h_i + 2^(2 shift - 2)
    lies in (0, 2^(2 shift - 1)).  A g_i is wider than its slot, so the low
    end reads g_i mod Y through the carry of g_0..g_{i-1}, and the top end
    reads g_j plus the carry into slot j, which is below Y, for
    j = count - 1 - i; since h is palindromic, g_i = g_j and the two
    readings give it whole.  Where the ends meet, the carry from below must
    equal what the top end leaves, or the coefficients read do not add up to
    the value, and ``ArithmeticError`` is raised.  For an even count that
    compares one slot read twice; for an odd count only the carry's range is
    left to compare.  So it catches a read that strays, not a slot too
    narrow for the coefficients: other palindromic coefficients in range
    then have the same value at Y.
    """
    shift = 8 * size
    # the offset 2^(2 shift - 2) of each g_i is bit shift - 2 of slot i + 1
    value += int.from_bytes((bytes(size - 1) + b"\x40") * count, "little") << shift
    data = value.to_bytes((count + 1) * size, "little")
    from_bytes = int.from_bytes
    slots = [from_bytes(data[k:k + size], "little") for k in range(0, len(data), size)]
    mask = (1 << shift) - 1
    offset = 1 << (2 * shift - 2)
    out = []
    carry = 0  # the carry of g_0..g_{i-1} into slot i
    rem = slots[count]  # what g_{j+1}.. leave in slot j + 1 and above
    for low, high in zip(slots, slots[count - 1:(count - 1) // 2:-1]):
        top = (rem << shift) | high  # g_j plus the carry into slot j
        rem = (top - low + carry) & mask  # that carry: g_j = g_i is low - carry mod Y
        g = top - rem
        carry = (g + carry) >> shift
        out.append(g - offset)
    if count % 2:
        # the middle g_m keeps its slots once the carry from below is taken out
        top = (rem << shift) | slots[count // 2]
        rem = carry & mask
        out.append(top - rem - offset)
    if rem != carry:
        raise ArithmeticError(f"palindromic read of {count} coefficients does not "
                              f"close at the middle: carry {carry}, top remainder {rem}")
    return out + out[:count // 2][::-1]


def _palindromic_mul(a: tuple, b: tuple, bits: int) -> list:
    """Exact product coefficients of two nonzero palindromic int polynomials,
    from the two products h(X) = a(X) b(X) and h(-X) = a(-X) b(-X) at
    X = 2^shift.

    Here shift = 8 q, for the fewest bytes q with 4 shift - 2 at least
    ``bits``, the bit length of the bound max|a| max|b| min(len a, len b) on
    every coefficient of h = ab.  Each operand is packed once per residue
    class of its index mod 4, at X^4 in 4q-byte fields; the even classes add
    up to its even part E(X), the odd ones to its odd part O(X), and c(X),
    c(-X) are E + O and E - O.  Then (h(X) + h(-X)) / 2 and
    (h(X) - h(-X)) / (2X) are the even-index and the odd-index coefficients
    of h at Y = X^2, each of them below 2^(2 log2 Y - 2) in absolute value,
    which ``_palindrome_read`` reads from both ends.  With an odd
    coefficient count both halves are palindromes, read one by one; with an
    even count the odd half is the even half reversed, so the even half
    followed by the odd one is a palindrome, read once.  The coefficients
    must also satisfy h(1) = a(1) b(1), an O(n) check that a wrong reading
    fails unless its errors happen to sum to zero (``ArithmeticError``
    again); exactness still rests on the bound.
    """
    q = (bits + 33) // 32  # bytes per slot of X: 32 q - 2 >= bits
    shift = 8 * q
    count = len(a) + len(b) - 1

    def at_plus_minus(c: tuple) -> tuple[int, int]:
        # c(X) and c(-X), from the index classes mod 4 packed at X^4
        c0, c1, c2, c3 = (_kronecker_pack(c[r::4], 4 * q) for r in range(4))
        even = c0 + (c2 << 2 * shift)
        odd = (c1 << shift) + (c3 << 3 * shift)
        return even + odd, even - odd

    a_plus, a_minus = at_plus_minus(a)
    if a == b:
        plus, minus = a_plus * a_plus, a_minus * a_minus
    else:
        b_plus, b_minus = at_plus_minus(b)
        plus, minus = a_plus * b_plus, a_minus * b_minus
    even = (plus + minus) >> 1
    odd = (plus - minus) >> (shift + 1)
    half = (count + 1) // 2  # the even-index coefficients
    out = [0] * count
    if count % 2:
        out[0::2] = _palindrome_read(even, half, 2 * q)
        out[1::2] = _palindrome_read(odd, count - half, 2 * q)
    else:
        both = _palindrome_read(even + (odd << 2 * shift * half), count, 2 * q)
        out[0::2], out[1::2] = both[:half], both[half:]
    if sum(out) != sum(a) * sum(b):
        raise ArithmeticError(f"palindromic product of {count} coefficients does not "
                              f"sum to a(1) b(1)")
    return out


def divmod_poly(f: Poly, g: Poly) -> tuple[Poly, Poly, int]:
    """Fraction-free pseudo-division of integer polynomials: quo, rem and an
    integer scale > 0 with scale*f = quo*g + rem and deg rem < deg g.

    Each step cancels the top coefficient c of the running remainder with
    the smallest integer multipliers, rem <- s rem - t x^i g with s > 0,
    where s = lead/h, t = c/h and h = gcd(lead, c) carries the sign of
    lead; scale gathers the factors s, so a divisor with lead +-1 never
    scales.  quo/scale and rem/scale are the rational quotient and
    remainder.  A Fraction coefficient raises TypeError.
    """
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if not (_all_int(f.coeffs) and _all_int(g.coeffs)):
        raise TypeError("divmod_poly divides integer polynomials only")
    div = g.coeffs
    dd = len(div) - 1
    lead = div[-1]
    rem = list(f.coeffs)
    quo = [0] * max(len(rem) - dd, 0)
    scale = 1
    for i in range(len(quo) - 1, -1, -1):
        c = rem.pop()  # the coefficient of x^(i + dd)
        if not c:
            continue
        h = math.gcd(lead, c) if lead > 0 else -math.gcd(lead, c)
        s, t = lead // h, c // h
        if s != 1:
            scale *= s
            quo = [s * v for v in quo]
            rem = [s * v for v in rem]
        quo[i] = t
        for j in range(dd):
            rem[i + j] -= t * div[j]
    return Poly(quo), Poly(rem), scale


def _primitive(p: Poly) -> Poly:
    """The integer polynomial p * r for the one rational r > 0 that makes
    its coefficients coprime integers; p must be nonzero."""
    coeffs = p.coeffs
    if not _all_int(coeffs):
        den = math.lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    content = math.gcd(*coeffs)
    return Poly([c // content for c in coeffs])


def sturm_chain(p: Poly) -> list[Poly]:
    """Signed remainder sequence of (p, p'), each element primitive.

    chain[0], chain[1] are positive multiples of p and p', and each later
    element is a positive multiple of the negated Euclidean remainder of
    the previous two: the integer pseudo-remainder of ``divmod_poly``, which
    is that remainder times scale > 0, divided by its positive content.
    Scaling by positive numbers changes no sign, so the chain has the sign
    variations of the rational Sturm sequence.  Degrees strictly decrease;
    the last element is a multiple of gcd(p, p'), a nonzero constant when
    p is squarefree.  A nonzero constant p gives the one-element chain
    [1] or [-1].
    """
    if p.is_zero:
        raise ValueError("Sturm chain of the zero polynomial")
    f = _primitive(p)
    if f.degree <= 0:
        return [f]
    chain = [f, _primitive(f.derivative())]
    while chain[-1].degree > 0:
        rem = divmod_poly(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-_primitive(rem))
    return chain


def _sign_variations(values: list) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _deflate_root(p: Poly, r: Coeff) -> Poly:
    """Exact synthetic division of p by (x - r); p(r) must be zero.  Integer
    coefficients and an integer r give integer coefficients."""
    out = []
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * r + c
        out.append(acc)
    if out[-1] != 0:
        raise ArithmeticError(f"cannot deflate a root at {r}: the polynomial is {out[-1]} there")
    return Poly(reversed(out[:-1]))


def descartes_bound(p: Poly, a: Coeff, b: Coeff) -> int:
    """Sign variations V of (1 + y)^d p((a + b y) / (1 + y)), for a < b.

    The Mobius map y -> (a + b y) / (1 + y) takes (0, oo) onto (a, b), so by
    Descartes' rule V bounds the number of roots of p in the open interval
    (a, b), counted with multiplicity, and has its parity; V <= 1 is that
    number exactly (Collins and Akritas, SYMSAC 1976).  Roots at a or b map
    to y = 0 or y = oo and are not counted.  p's integer form is taken to
    g(t) = sum_i c_i (beta + delta t)^i gamma^(d-i), a positive multiple of
    p(b + (a - b) t), by one homogeneous Horner pass; reversing g gives
    s^d g(1/s) and a Taylor shift by 1 puts s = 1 + y.  O(d^2) integer
    operations.
    """
    if p.is_zero:
        raise ValueError("Descartes' bound requires a nonzero polynomial")
    a, b = _own_ring(a), _own_ring(b)
    if not a < b:
        raise ValueError(f"empty interval ({a}, {b})")
    coeffs = p.coeffs if _all_int(p.coeffs) else _primitive(p).coeffs
    # b = beta / gamma and a - b = delta / gamma with gamma > 0
    gamma = a.denominator * b.denominator
    beta = b.numerator * a.denominator
    delta = a.numerator * b.denominator - beta
    g = [coeffs[-1]]
    scale = 1
    for c in reversed(coeffs[:-1]):
        scale *= gamma
        g = [beta * lo + delta * hi for lo, hi in zip(g + [0], [0] + g)]
        g[0] += c * scale
    g.reverse()
    for i in range(len(g) - 1):
        for j in range(len(g) - 2, i - 1, -1):
            g[j] += g[j + 1]
    return _sign_variations(g)


def _roots_inside(f: Poly, a: Coeff, b: Coeff) -> int:
    """Number of distinct roots of a nonzero f in the open interval (a, b),
    for a < b where f has no root at a or b.

    Descartes' rule decides first: when the variations V of
    ``descartes_bound(f, a, b)`` are 0 or 1, f has exactly V roots in
    (a, b), a simple one if V = 1.  Otherwise the Sturm chain decides:
    every element is a multiple of gcd(f, f'), which is nonzero at a and b,
    so the difference of sign variations V(a) - V(b) counts the distinct
    roots of f in (a, b) even when f is not squarefree.  The signs at
    a = p/q are read from the integers sum_i c_i p^i q^(d-i), at an integer
    a by integer Horner.
    """
    variations = descartes_bound(f, a, b)
    if variations <= 1:
        return variations
    chain = sturm_chain(f)
    va = _sign_variations([_homogeneous(q.coeffs, a.numerator, a.denominator) for q in chain])
    vb = _sign_variations([_homogeneous(q.coeffs, b.numerator, b.denominator) for q in chain])
    return va - vb


def sturm_count_roots(p: Poly, a: Coeff, b: Coeff) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b].

    Roots at the endpoints are deflated first, with all their
    multiplicities, so that a root exactly at ``a`` is excluded and one
    exactly at ``b`` is included, per the (a, b] convention; what is left
    has no root at a or b, and ``_roots_inside`` counts its roots.
    """
    if p.is_zero:
        raise ValueError("root counting requires a nonzero polynomial")
    a, b = _own_ring(a), _own_ring(b)
    if not a < b:
        raise ValueError(f"empty interval ({a}, {b}]")
    count_b = 0
    f = p
    for endpoint in (a, b):
        while f.degree > 0 and f(endpoint) == 0:
            f = _deflate_root(f, endpoint)
            count_b = int(endpoint == b)  # a root at b counts once
    return _roots_inside(f, a, b) + count_b


class IntervalSign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NOT_CONSTANT = "not_constant"


def sign_constant_on(p: Poly, a: Coeff, b: Coeff) -> IntervalSign:
    """Certify that p keeps a single strict sign on the closed interval [a, b].

    Returns POSITIVE or NEGATIVE iff p has no root in [a, b]; a root
    anywhere in the interval, endpoints included, yields NOT_CONSTANT and
    the caller decides how to treat the endpoint case.
    """
    if p.is_zero:
        raise ValueError("sign certification requires a nonzero polynomial")
    a, b = _own_ring(a), _own_ring(b)
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    pa, pb = p(a), p(b)
    if pa == 0 or pb == 0:
        return IntervalSign.NOT_CONSTANT
    if _roots_inside(p, a, b) > 0:
        return IntervalSign.NOT_CONSTANT
    if (pa > 0) != (pb > 0):
        raise ArithmeticError(f"root count 0 on ({a}, {b}) but p changes sign: "
                              f"p({a}) = {pa}, p({b}) = {pb}")
    return IntervalSign.POSITIVE if pa > 0 else IntervalSign.NEGATIVE

