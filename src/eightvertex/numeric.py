"""Exact arithmetic in the cyclotomic field Q(zeta8).

An element of :class:`Cyclo8` is (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d,
where zeta is a primitive 8th root of unity (so zeta^4 = -1), the n_k are
ints and d is a positive int.  The fraction is always in lowest terms,
gcd(n0, n1, n2, n3, d) = 1, so every element has exactly one
representation and zero is (0, 0, 0, 0) / 1.  Products use the four
closed-form sums modulo x^4 + 1; sums of equal denominators skip the
lcm; the gcd runs only when d != 1.  Inversion multiplies by the product
of the three other Galois conjugates and divides by the rational norm in
integers (Cohen, *A Course in Computational Algebraic Number Theory*,
GTM 138, 4.2-4.3).  Multiplying by a power of zeta is a signed rotation
of the numerators (``rotate``).  ``coeffs`` gives the coefficients as
Fractions.

The field houses every constant the rest of the package needs:

* ``zeta^2`` is the imaginary unit i (``I``),
* ``zeta`` is alpha, a square root of i (``ALPHA``),
* ``zeta - zeta^3`` is sqrt(2) (``SQRT2``).

The integer-numerator kernel does field arithmetic on many values with
no Cyclo8 per step: :func:`_over_lcm` puts a sequence of values over the
lcm of their denominators as numerator tuples, :func:`_times` multiplies
two tuples modulo x^4 + 1 with no denominator and no gcd, and
:func:`_reduced` makes a field value of a tuple once, at the end.
:func:`_pack` turns a tuple into one int, its value at x = 2^k modulo
2^(4k) + 1; since (2^k)^4 = -1 there, products and sums of packed ints
are packs of the tuples' products and sums (Kronecker substitution), and
:func:`_unpack` recovers a tuple whose coefficients lie below 2^(k-1) in
absolute value.  The kernel has four users:
``signatures.holographic_transform`` (the slot passes),
``signatures.proportional``, through which ``classify.check_certificate``
compares a re-derived image with the certificate's, ``classes.in_P``
with ``PDecomposition.check`` (multiplicativity), and
``evaluate.brute_force``, whose frontier sum runs on packed ints with k
chosen from a bound on its result's coefficients.

Cyclo8 is the one value type of the package: signature entries,
certificate entries and Holant sums are all Cyclo8s, and only ints and
Fractions mix with them (floats and complex numbers raise TypeError).
:func:`scalar` is the coercion at API boundaries and
:func:`parse_cyclo8` the text parser.  :class:`InputFormat`, beside
it, decodes and checks the JSON files read from outside the package
(grids and certificates) and names the format in each fault.
``Scalar`` and ``parse_scalar`` are second names for Cyclo8 and
parse_cyclo8, and ``Cyclo8._binop`` is a method that nothing calls.
They are kept only for the benchmark: it reads ``parse_scalar``, and
its tracer (``benchmark/tracing.py``) wraps ``Scalar._binop``,
``__neg__``, ``__pow__`` and ``__eq__`` by name.  The one such shim
outside this module is ``EightVertexSig.to_signature``, which returns
the signature itself: ``benchmark/ops.py`` calls it.

The section "matrices over the field" holds the package's only matrix
arithmetic: :func:`mat_mul`, :func:`mat_pow` (repeated squaring) and
:func:`solve` (Gaussian elimination), on matrices given as sequences of
rows.  Gadget chains, Moebius maps and the interpolation system all go
through them.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple

_ZETA = cmath.exp(1j * cmath.pi / 4)


class DivisionByZero(ZeroDivisionError):
    pass


def _frac(v):
    """An int or a Fraction as it is; anything else raises TypeError."""
    if isinstance(v, (int, Fraction)):
        return v
    raise TypeError(f"not a rational: {v!r}")


class Cyclo8:
    """An element (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d of Q(zeta8),
    kept in lowest terms with d > 0."""

    __slots__ = ("n", "d")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        if type(c0) is int and type(c1) is int and type(c2) is int \
                and type(c3) is int:
            _set_n(self, (c0, c1, c2, c3))
            _set_d(self, 1)
            return
        c0, c1, c2, c3 = map(_frac, (c0, c1, c2, c3))
        d0, d1, d2, d3 = (c0.denominator, c1.denominator, c2.denominator,
                          c3.denominator)
        d = d0 if d0 == d1 == d2 == d3 else math.lcm(d0, d1, d2, d3)
        # each Fraction is reduced, so gcd(n, d) = 1 already
        _set_n(self, (c0.numerator * (d // d0), c1.numerator * (d // d1),
                      c2.numerator * (d // d2), c3.numerator * (d // d3)))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo8 is immutable")

    @property
    def coeffs(self) -> tuple:
        """The four coefficients as Fractions."""
        d = self.d
        return tuple(Fraction(k, d) for k in self.n)

    # -- ring structure -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclo8):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo8(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o.n, o.d)

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.n
        return _raw((-a0, -a1, -a2, -a3), self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        b0, b1, b2, b3 = o.n
        return _add(self, (-b0, -b1, -b2, -b3), o.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.n
        return _add(o, (-a0, -a1, -a2, -a3), self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo8":
        if not any(self.n):
            raise DivisionByZero("inverse of zero")
        # y is the product of the other Galois conjugates, so x * y is the
        # field norm c / (d * dy), the constant term of the product.  The
        # conjugates pair off into |x|^2 |x.galois(3)|^2, so c > 0.
        y = self.galois(3) * self.galois(5) * self.galois(7)
        a0, a1, a2, a3 = self.n
        y0, y1, y2, y3 = y.n
        c = a0 * y0 - a1 * y3 - a2 * y2 - a3 * y1
        d = self.d
        return _reduced(y0 * d, y1 * d, y2 * d, y3 * d, c)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "Cyclo8":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return ONE
        # start from the lowest set bit, so x ** 1 costs no product
        base = self
        while not n & 1:
            base = _mul(base, base)
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = _mul(base, base)
            if n & 1:
                result = _mul(result, base)
            n >>= 1
        return result

    def _binop(self, other, op):
        # Nothing calls this.  It exists only so that benchmark/tracing.py,
        # which wraps Scalar._binop by name, still finds it; it goes once
        # the tracer counts through counters inside the package.
        raise NotImplementedError

    # -- structure maps -----------------------------------------------

    def galois(self, k: int) -> "Cyclo8":
        """The automorphism zeta -> zeta^k for odd k."""
        assert k % 2 == 1
        a0, a1, a2, a3 = self.n
        k %= 8
        if k == 1:
            return self
        if k == 3:
            n = (a0, a3, -a2, a1)
        elif k == 5:
            n = (a0, -a1, a2, -a3)
        else:
            n = (a0, -a3, -a2, -a1)
        return _raw(n, self.d)

    def rotate(self, k: int) -> "Cyclo8":
        """self * zeta^k: a signed cyclic shift of the numerators, since
        zeta^4 = -1.  The denominator is unchanged and the fraction stays
        in lowest terms."""
        a0, a1, a2, a3 = self.n
        k %= 8
        if k & 4:
            a0, a1, a2, a3 = -a0, -a1, -a2, -a3
        k &= 3
        if k == 0:
            n = (a0, a1, a2, a3)
        elif k == 1:
            n = (-a3, a0, a1, a2)
        elif k == 2:
            n = (-a2, -a3, a0, a1)
        else:
            n = (-a1, -a2, -a3, a0)
        return _raw(n, self.d)

    def conjugate(self) -> "Cyclo8":
        """Complex conjugation: zeta -> zeta^7 = -zeta^3."""
        return self.galois(7)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.n)

    def is_rational(self) -> bool:
        _, a1, a2, a3 = self.n
        return not (a1 or a2 or a3)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.d == o.d and self.n == o.n

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes as
        # one; any other value equals no int or Fraction, and its lowest
        # terms are unique
        n0, n1, n2, n3 = self.n
        if n1 or n2 or n3:
            return hash((self.n, self.d))
        return hash(n0) if self.d == 1 else hash(Fraction(n0, self.d))

    def __bool__(self):
        return any(self.n)

    # -- conversion ------------------------------------------------------

    def to_complex(self) -> complex:
        z = 0j
        d = self.d
        for j, c in enumerate(self.n):
            if c:
                z += (c / d) * _ZETA ** j
        return z

    def __repr__(self):
        return f"Cyclo8({self})"

    def __str__(self):
        return format_cyclo8(self)


_set_n = Cyclo8.n.__set__
_set_d = Cyclo8.d.__set__
_new = object.__new__


def _raw(n: tuple, d: int) -> Cyclo8:
    """The element n / d, which must already be in lowest terms."""
    x = _new(Cyclo8)
    _set_n(x, n)
    _set_d(x, d)
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, d: int) -> Cyclo8:
    """The element (n0, n1, n2, n3) / d for d > 0, brought to lowest terms."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    return _raw((n0, n1, n2, n3), d)


def _add(x: Cyclo8, bn: tuple, bd: int) -> Cyclo8:
    """x + bn / bd."""
    a0, a1, a2, a3 = x.n
    b0, b1, b2, b3 = bn
    ad = x.d
    if ad == bd:
        return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
    g = gcd(ad, bd)
    sa = bd // g
    sb = ad // g
    return _reduced(a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb,
                    a3 * sa + b3 * sb, ad * sa)


def _mul(x: Cyclo8, y: Cyclo8) -> Cyclo8:
    """x * y, with zeta^4 = -1 folded into the four sums."""
    a0, a1, a2, a3 = x.n
    b0, b1, b2, b3 = y.n
    return _reduced(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                    a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                    a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                    a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                    x.d * y.d)


_ZERO4 = (0, 0, 0, 0)   # the numerators of 0


def _over_lcm(vals) -> tuple:
    """(d, numerators): the values as numerator tuples over d, the lcm of
    their denominators.  A value already over d keeps its own tuple."""
    d = math.lcm(*[c.d for c in vals])
    nums = []
    for c in vals:
        if c.d == d:
            nums.append(c.n)
        else:
            f = d // c.d
            n0, n1, n2, n3 = c.n
            nums.append((n0 * f, n1 * f, n2 * f, n3 * f))
    return d, nums


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two numerator tuples modulo x^4 + 1, as in ``_mul``
    but with no denominator and no gcd."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _pack(n: tuple, k: int) -> int:
    """The numerator tuple n as one int: n0 + n1*2^k + n2*2^(2k) +
    n3*2^(3k) modulo 2^(4k) + 1.  Since (2^k)^4 = -1 modulo 2^(4k) + 1,
    x -> 2^k is a ring map from Z[x]/(x^4 + 1), so the product of two
    packed values modulo 2^(4k) + 1 is the pack of ``_times`` of their
    tuples, and their sum is the pack of the sum (Kronecker substitution;
    Harvey, J. Symb. Comput. 44, 2009)."""
    n0, n1, n2, n3 = n
    return ((n0 + (n1 << k) + (n2 << 2 * k) + (n3 << 3 * k))
            % ((1 << 4 * k) + 1))


def _unpack(r: int, k: int) -> tuple:
    """The numerator tuple whose pack is r, for k >= 1 and every
    coefficient of absolute value below 2^(k-1): the residue of r nearest
    zero, split into balanced base-2^k digits.  That residue is
    n0 + n1*2^k + n2*2^(2k) + n3*2^(3k) exactly, since the coefficient
    bound keeps the sum below 2^(4k-1) in absolute value."""
    m = (1 << 4 * k) + 1
    r %= m
    if r > m >> 1:
        r -= m
    half = 1 << (k - 1)
    low = (1 << k) - 1
    n0 = ((r + half) & low) - half
    r = (r - n0) >> k
    n1 = ((r + half) & low) - half
    r = (r - n1) >> k
    n2 = ((r + half) & low) - half
    return (n0, n1, n2, (r - n2) >> k)


ZERO = Cyclo8(0)
ONE = Cyclo8(1)
I = Cyclo8(0, 0, 1, 0)
ALPHA = Cyclo8(0, 1, 0, 0)
SQRT2 = Cyclo8(0, 1, 0, -1)

_POWERS_OF_I = (ONE, I, Cyclo8(-1), Cyclo8(0, 0, -1, 0))


def unit_modulus(x: Cyclo8) -> bool:
    """True iff x lies on the unit circle, i.e. x * conj(x) = 1."""
    return x * x.conjugate() == ONE


def as_power_of_i(x: Cyclo8):
    """Return k in {0,1,2,3} with x = i^k, or None."""
    for k, p in enumerate(_POWERS_OF_I):
        if x == p:
            return k
    return None


# -- square roots ------------------------------------------------------

def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _sqrt_qi(m: Fraction, n: Fraction):
    """Square root of m + n*i inside Q(i), as a (re, im) pair, or None."""
    if n == 0:
        if m == 0:
            return (Fraction(0), Fraction(0))
        r = _rational_sqrt(m)
        if r is not None:
            return (r, Fraction(0))
        r = _rational_sqrt(-m)
        if r is not None:
            return (Fraction(0), r)
        return None
    t = _rational_sqrt(m * m + n * n)
    if t is None:
        return None
    c = _rational_sqrt((m + t) / 2)
    if c is None or c == 0:
        return None
    return (c, n / (2 * c))


def _qi_parts(x: Cyclo8):
    """Write x = A + B*sqrt(2) with A, B in Q(i); return ((Are,Aim),(Bre,Bim))."""
    c0, c1, c2, c3 = x.coeffs
    return (c0, c2), ((c1 - c3) / 2, (c1 + c3) / 2)


def _from_qi_parts(a, b) -> Cyclo8:
    (p, q), (r, s) = a, b
    return Cyclo8(p, r + s, q, s - r)


def sqrt_in_field(x: Cyclo8):
    """A y in Q(zeta8) with y*y = x, or None if no square root exists there."""
    if x.is_zero():
        return ZERO
    (am, an), (bm, bn) = _qi_parts(x)
    if bm == 0 and bn == 0:
        y = _sqrt_qi(am, an)
        if y is not None:
            return _from_qi_parts(y, (Fraction(0), Fraction(0)))
        y = _sqrt_qi(am / 2, an / 2)
        if y is not None:
            return _from_qi_parts((Fraction(0), Fraction(0)), y)
        return None
    # x = A + B*sqrt2, B != 0; look for y = C + E*sqrt2 with C, E in Q(i):
    # C^2 + 2E^2 = A and 2CE = B, so 2C^4 - 2AC^2 + B^2 = 0.
    a_re, a_im = am, an
    # Delta = A^2 - 2 B^2 over Q(i)
    d_re = a_re * a_re - a_im * a_im - 2 * (bm * bm - bn * bn)
    d_im = 2 * a_re * a_im - 2 * (2 * bm * bn)
    delta = _sqrt_qi(d_re, d_im)
    if delta is None:
        return None
    for sgn in (1, -1):
        c2_re = (a_re + sgn * delta[0]) / 2
        c2_im = (a_im + sgn * delta[1]) / 2
        c = _sqrt_qi(c2_re, c2_im)
        if c is None or (c[0] == 0 and c[1] == 0):
            continue
        # E = B / (2C) in Q(i)
        den = 2 * (c[0] * c[0] + c[1] * c[1])
        e_re = (bm * c[0] + bn * c[1]) / den
        e_im = (bn * c[0] - bm * c[1]) / den
        y = _from_qi_parts(c, (e_re, e_im))
        if y * y == x:
            return y
    return None


# -- matrices over the field -------------------------------------------

def mat_mul(a, b):
    """The product of matrices a and b, each a sequence of rows."""
    cols = tuple(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols]
            for row in a]


def mat_pow(m, e: int):
    """m^e for a square m and e >= 0, by repeated squaring."""
    if e < 0:
        raise ValueError("nonnegative powers only")
    n = len(m)
    result = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            result = mat_mul(result, m)
        m = mat_mul(m, m)
        e >>= 1
    return result


def solve(a, b):
    """The x with a x = b for a square a and a vector b, by Gaussian
    elimination; None if a is singular."""
    n = len(b)
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()),
                   None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].inverse()
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                c = m[r][col]
                m[r] = [v - c * u for v, u in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# -- text syntax -------------------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_IMAG = re.compile(rf"^({_RAT})i$")
# p+qi; a unit q may be left out, as in 1-i
_RE_COMPLEX = re.compile(rf"^({_RAT})([+-])(\d+(?:/\d+)?)?i$")
# plain integer text, which int() reads faster than Fraction() and to the
# same value; "_" separators, non-ASCII digits, decimals and exponents go
# through Fraction()
_RE_INT = re.compile(r"[+-]?[0-9]+")


def parse_cyclo8(text: str) -> Cyclo8:
    """Parse the text syntax: "c0,c1,c2,c3", "i", "a", "p+qi", or a rational.
    Text that is none of these, or has a zero denominator, raises
    ValueError."""
    try:
        return _parse_cyclo8(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar: {text!r}") from None


def _parse_cyclo8(text: str) -> Cyclo8:
    t = text.strip().replace(" ", "")
    if t in ("i", "+i"):
        return I
    if t == "-i":
        return -I
    if t in ("a", "alpha", "+a"):
        return ALPHA
    if t in ("-a", "-alpha"):
        return -ALPHA
    if "," in t:
        parts = t.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 coefficients: {text!r}")
        if all(map(_RE_INT.fullmatch, parts)):
            return Cyclo8(*map(int, parts))
        return Cyclo8(*[Fraction(p) for p in parts])
    if _RE_INT.fullmatch(t):
        return Cyclo8(int(t))
    m = _RE_RATIONAL.match(t)
    if m:
        return Cyclo8(Fraction(m.group(1)))
    m = _RE_IMAG.match(t)
    if m:
        return Cyclo8(0, 0, Fraction(m.group(1)), 0)
    m = _RE_COMPLEX.match(t)
    if m:
        im = Fraction(m.group(2) + (m.group(3) or "1"))
        return Cyclo8(Fraction(m.group(1)), 0, im, 0)
    raise ValueError(f"cannot parse scalar: {text!r}")


def format_cyclo8(x: Cyclo8) -> str:
    """Emit the shortest round-tripping form."""
    c0, c1, c2, c3 = x.coeffs
    if c1 == 0 and c3 == 0:
        if c2 == 0:
            return str(c0)
        if c0 == 0:
            if c2 == 1:
                return "i"
            if c2 == -1:
                return "-i"
            return f"{c2}i"
        sign = "+" if c2 > 0 else "-"
        return f"{c0}{sign}{abs(c2)}i"
    if (c0, c2, c3) == (0, 0, 0) and c1 == 1:
        return "a"
    if (c0, c2, c3) == (0, 0, 0) and c1 == -1:
        return "-a"
    return f"{c0},{c1},{c2},{c3}"


# the JSON names of the Python types json.loads makes
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an int"}


class InputFormat(NamedTuple):
    """The checks on a file of one format read from outside the
    package.  Each fault found raises ValueError prefixed with the
    format's name, as in "bad grid: vertices is a list, got 5"."""

    name: str

    def fault(self, message: str) -> ValueError:
        return ValueError(f"bad {self.name}: {message}")

    def decode(self, text: str):
        """The JSON value of text.  Text that is not JSON, that nests too
        deeply for the decoder, or that writes an int longer than the
        interpreter converts raises ValueError."""
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as e:
            raise self.fault(str(e)) from None

    def field(self, obj: dict, key: str, owner: str, kind):
        """obj[key] if it is a kind.  A missing key raises ValueError
        naming it and its owner, and a value of another kind the rule
        "<key> is <kind>", as expect does."""
        if key not in obj:
            raise self.fault(f"{owner} has no {key!r} field")
        return self.expect(obj[key], kind, f"{key} is {_JSON_KINDS[kind]}")

    def expect(self, value, kind, rule: str):
        """value if it is a kind (a bool is not an int); else ValueError
        naming the rule and the value, written as JSON."""
        if isinstance(value, kind) and not isinstance(value, bool):
            return value
        raise self.fault(f"{rule}, got {json.dumps(value)[:40]}")


Scalar = Cyclo8
parse_scalar = parse_cyclo8


def scalar(v) -> Cyclo8:
    """v as a field element: a Cyclo8 as it is, an int or a Fraction
    through Cyclo8(v).  Anything else raises TypeError."""
    if isinstance(v, Cyclo8):
        return v
    if isinstance(v, (int, Fraction)):
        return Cyclo8(v)
    raise TypeError(f"cannot make a scalar from {v!r}")
