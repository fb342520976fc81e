"""Exact arithmetic in the cyclotomic field Q(zeta8), plus an approximate
complex fallback.

An element of :class:`Cyclo8` is (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / d,
where zeta is a primitive 8th root of unity (so zeta^4 = -1), the n_k are
ints and d is a positive int.  The fraction is always in lowest terms,
gcd(n0, n1, n2, n3, d) = 1, so every element has exactly one
representation and zero is (0, 0, 0, 0) / 1.  Products use the four
closed-form sums modulo x^4 + 1; sums of equal denominators skip the
lcm; the gcd runs only when d != 1.  Inversion multiplies by the product
of the three other Galois conjugates and divides by the rational norm in
integers (Cohen, *A Course in Computational Algebraic Number Theory*,
GTM 138, 4.2-4.3).  ``coeffs`` gives the coefficients as Fractions.

The field houses every constant the rest of the package needs:

* ``zeta^2`` is the imaginary unit i,
* ``zeta`` is alpha, a square root of i,
* ``zeta - zeta^3`` is sqrt(2).

:class:`Scalar` is the tagged union used throughout: either an exact
Cyclo8 value or an approximate complex number with a comparison tolerance.
Mixing the two demotes the result to approximate and sets a provenance
flag; classification code refuses demoted/approximate scalars by raising
:class:`NotExact`.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from math import gcd

Rational = Fraction

_ZETA = cmath.exp(1j * cmath.pi / 4)


class DivisionByZero(ZeroDivisionError):
    pass


class NotExact(TypeError):
    """An exact-only operation met an approximate scalar."""


def _frac(v):
    """An int or a Fraction as it is; a rational string as a Fraction."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, str):
        return Fraction(v)
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

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "Cyclo8":
        return Cyclo8(_frac(q))

    @staticmethod
    def i() -> "Cyclo8":
        return Cyclo8(0, 0, 1, 0)

    @staticmethod
    def alpha() -> "Cyclo8":
        return Cyclo8(0, 1, 0, 0)

    @staticmethod
    def zeta() -> "Cyclo8":
        return Cyclo8(0, 1, 0, 0)

    @staticmethod
    def sqrt2() -> "Cyclo8":
        return Cyclo8(0, 1, 0, -1)

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
        result = ONE
        base = self
        while n:
            if n & 1:
                result = _mul(result, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return result

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
        # equal to hash(self.coeffs), since hash(Fraction(k)) == hash(k)
        if self.d == 1:
            return hash(self.n)
        return hash(self.coeffs)

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


ZERO = Cyclo8(0)
ONE = Cyclo8(1)
I = Cyclo8.i()
ALPHA = Cyclo8.alpha()
SQRT2 = Cyclo8.sqrt2()

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


def root_of_unity_order(x: Cyclo8):
    """Smallest n with x^n = 1, or None.

    Every root of unity inside Q(zeta8) has order dividing 8, so testing
    n = 1..8 is complete.
    """
    p = ONE
    for n in range(1, 9):
        p = p * x
        if p == ONE:
            return n
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


# -- text syntax -------------------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_IMAG = re.compile(rf"^({_RAT})i$")
_RE_COMPLEX = re.compile(rf"^({_RAT})([+-]\d+(?:/\d+)?)i$")


def parse_cyclo8(text: str) -> Cyclo8:
    """Parse the text syntax: "c0,c1,c2,c3", "i", "a", "p+qi", or a rational."""
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
        return Cyclo8(*[Fraction(p) for p in parts])
    m = _RE_RATIONAL.match(t)
    if m:
        return Cyclo8(Fraction(m.group(1)))
    m = _RE_IMAG.match(t)
    if m:
        return Cyclo8(0, 0, Fraction(m.group(1)), 0)
    m = _RE_COMPLEX.match(t)
    if m:
        return Cyclo8(Fraction(m.group(1)), 0, Fraction(m.group(2)), 0)
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


# -- approximate fallback ----------------------------------------------

class ComplexApprox:
    """A complex double with a componentwise comparison tolerance."""

    __slots__ = ("re", "im", "eps")

    def __init__(self, re: float, im: float = 0.0, eps: float = 1e-9):
        if eps <= 0:
            raise ValueError("eps must be positive")
        object.__setattr__(self, "re", float(re))
        object.__setattr__(self, "im", float(im))
        object.__setattr__(self, "eps", float(eps))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexApprox is immutable")

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other):
        if not isinstance(other, ComplexApprox):
            return NotImplemented
        eps = max(self.eps, other.eps)
        return abs(self.re - other.re) <= eps and abs(self.im - other.im) <= eps

    def __repr__(self):
        return f"ComplexApprox({self.re}, {self.im}, eps={self.eps})"


class Scalar:
    """Tagged union Exact(Cyclo8) | Approx(ComplexApprox).

    Combining exact and approximate values demotes the result to
    approximate and records the demotion in ``demoted``.
    """

    __slots__ = ("exact_value", "approx_value", "demoted")

    def __init__(self, exact=None, approx=None, demoted=False):
        if (exact is None) == (approx is None):
            raise ValueError("exactly one of exact/approx required")
        object.__setattr__(self, "exact_value", exact)
        object.__setattr__(self, "approx_value", approx)
        object.__setattr__(self, "demoted", bool(demoted))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if not isinstance(v, Cyclo8):
            v = Cyclo8(v)
        return Scalar(exact=v)

    @staticmethod
    def approx(re, im=0.0, eps=1e-9) -> "Scalar":
        return Scalar(approx=ComplexApprox(re, im, eps))

    @staticmethod
    def of(v) -> "Scalar":
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction, Cyclo8)):
            return Scalar.exact(v)
        if isinstance(v, ComplexApprox):
            return Scalar(approx=v)
        if isinstance(v, complex):
            return Scalar.approx(v.real, v.imag)
        if isinstance(v, float):
            return Scalar.approx(v)
        raise TypeError(f"cannot make a Scalar from {v!r}")

    # -- access ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.exact_value is not None

    @property
    def cyclo(self) -> Cyclo8:
        if self.exact_value is None:
            raise NotExact("approximate scalar where an exact one is required")
        return self.exact_value

    def to_complex(self) -> complex:
        if self.exact_value is not None:
            return self.exact_value.to_complex()
        return self.approx_value.to_complex()

    def is_zero(self) -> bool:
        if self.exact_value is not None:
            return self.exact_value.is_zero()
        a = self.approx_value
        return abs(a.re) <= a.eps and abs(a.im) <= a.eps

    # -- arithmetic --------------------------------------------------------

    def _approx_parts(self):
        if self.is_exact:
            z = self.exact_value.to_complex()
            return z, 1e-12
        return self.approx_value.to_complex(), self.approx_value.eps

    def _binop(self, other, op):
        b = other if type(other) is Scalar else Scalar.of(other)
        x, y = self.exact_value, b.exact_value
        if x is not None and y is not None:
            if op == "*":
                v = x * y
            elif op == "+":
                v = x + y
            elif op == "-":
                v = x - y
            else:
                if y.is_zero():
                    raise DivisionByZero("scalar division by zero")
                v = x / y
            return _exact(v)
        demoted = (x is None) != (y is None) or self.demoted or b.demoted
        za, ea = self._approx_parts()
        zb, eb = b._approx_parts()
        if op == "+":
            z = za + zb
        elif op == "-":
            z = za - zb
        elif op == "*":
            z = za * zb
        else:
            if zb == 0:
                raise DivisionByZero("scalar division by zero")
            z = za / zb
        return Scalar(approx=ComplexApprox(z.real, z.imag, max(ea, eb)),
                      demoted=demoted)

    def __add__(self, other):
        return self._binop(other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, "-")

    def __rsub__(self, other):
        return Scalar.of(other)._binop(self, "-")

    def __mul__(self, other):
        return self._binop(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, "/")

    def __rtruediv__(self, other):
        return Scalar.of(other)._binop(self, "/")

    def __neg__(self):
        if self.is_exact:
            return Scalar(exact=-self.exact_value)
        a = self.approx_value
        return Scalar(approx=ComplexApprox(-a.re, -a.im, a.eps),
                      demoted=self.demoted)

    def conjugate(self) -> "Scalar":
        if self.is_exact:
            return Scalar(exact=self.exact_value.conjugate())
        a = self.approx_value
        return Scalar(approx=ComplexApprox(a.re, -a.im, a.eps),
                      demoted=self.demoted)

    def __pow__(self, n: int) -> "Scalar":
        if self.is_exact:
            return Scalar(exact=self.exact_value ** n)
        z = self.approx_value.to_complex() ** n
        return Scalar(approx=ComplexApprox(z.real, z.imag, self.approx_value.eps),
                      demoted=self.demoted)

    def __eq__(self, other):
        try:
            o = Scalar.of(other)
        except TypeError:
            return NotImplemented
        if self.is_exact and o.is_exact:
            return self.exact_value == o.exact_value
        za, ea = self._approx_parts()
        zb, eb = o._approx_parts()
        eps = max(ea, eb)
        return abs(za.real - zb.real) <= eps and abs(za.imag - zb.imag) <= eps

    def __hash__(self):
        if self.is_exact:
            return hash(self.exact_value)
        raise TypeError("approximate scalars are unhashable")

    def __repr__(self):
        if self.is_exact:
            return f"Scalar({format_cyclo8(self.exact_value)})"
        return f"Scalar(~{self.approx_value.to_complex()})"

    def __str__(self):
        if self.is_exact:
            return format_cyclo8(self.exact_value)
        z = self.approx_value.to_complex()
        return f"{z.real}{z.imag:+}j"


_set_exact = Scalar.exact_value.__set__
_set_approx = Scalar.approx_value.__set__
_set_demoted = Scalar.demoted.__set__


def _exact(v: Cyclo8) -> Scalar:
    s = _new(Scalar)
    _set_exact(s, v)
    _set_approx(s, None)
    _set_demoted(s, False)
    return s


def parse_scalar(text: str) -> Scalar:
    return Scalar(exact=parse_cyclo8(text))


def scalar(v) -> Scalar:
    return Scalar.of(v)
