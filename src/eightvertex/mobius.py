"""Moebius transformations with exact entries.

A :class:`Mobius` is an invertible 2x2 matrix over Q(zeta8) acting on the
extended plane by z -> (az + b) / (cz + d).  The recurrences produced by
chain gadgets move a single cross-ratio by such a map, so the questions
that matter here are: does the map fix a circle through the relevant
points (``circle_form``), what is its projective order, and where are its
fixed points.
"""

from __future__ import annotations

from typing import NamedTuple

from .numeric import (Cyclo8, ONE, SQRT2, mat_mul, mat_pow, scalar,
                      sqrt_in_field, unit_modulus)


class NotInField(ValueError):
    """A requested value (e.g. a fixed point) does not lie in Q(zeta8)."""


class ExtComplex(NamedTuple):
    """A point of the extended plane: a field element or infinity,
    equal to a point of the same value."""

    value: Cyclo8 = None        # None encodes infinity

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @staticmethod
    def infinity() -> "ExtComplex":
        return ExtComplex(None)

    def __str__(self):
        return "inf" if self.is_infinity else str(self.value)


class _Entries(NamedTuple):
    a: Cyclo8
    b: Cyclo8
    c: Cyclo8
    d: Cyclo8


# the finite projective orders above 1, by tr^2 / det
# (see Mobius.projective_order)
_ORDERS = {Cyclo8(0): 2, Cyclo8(1): 3, Cyclo8(2): 4, Cyclo8(3): 6,
           2 + SQRT2: 8, 2 - SQRT2: 8}


class Mobius(_Entries):
    """An invertible 2x2 matrix [[a, b], [c, d]] over Q(zeta8), read
    projectively, and equal to a Mobius of the same entries."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        a, b, c, d = map(scalar, (a, b, c, d))
        if (a * d - b * c).is_zero():
            raise ValueError("Moebius matrix must have nonzero determinant")
        return super().__new__(cls, a, b, c, d)

    def det(self) -> Cyclo8:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Cyclo8:
        return self.a + self.d

    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def compose(self, other: "Mobius") -> "Mobius":
        (a, b), (c, d) = mat_mul(self.matrix(), other.matrix())
        return Mobius(a, b, c, d)

    def power(self, n: int) -> "Mobius":
        (a, b), (c, d) = mat_pow(self.matrix(), n)
        return Mobius(a, b, c, d)

    def is_scalar(self) -> bool:
        return (self.b.is_zero() and self.c.is_zero()
                and self.a == self.d)

    def apply(self, z: ExtComplex) -> ExtComplex:
        if z.is_infinity:
            if self.c.is_zero():
                return ExtComplex.infinity()
            return ExtComplex(self.a / self.c)
        num = self.a * z.value + self.b
        den = self.c * z.value + self.d
        if den.is_zero():
            return ExtComplex.infinity()
        return ExtComplex(num / den)

    def __repr__(self):
        return (f"Mobius([[{self.a}, {self.b}], [{self.c}, {self.d}]])")

    # -- structure ------------------------------------------------------

    def circle_form(self):
        """If the matrix is proportional to

            [[u, u * lam], [conj(lam), 1]]

        with u on the unit circle and |lam| != 1, return (lam, u);
        otherwise None.  Such maps preserve a circle and act on it by
        rotation-like dynamics.
        """
        if self.d.is_zero():
            return None
        a, b, c = self.a / self.d, self.b / self.d, self.c / self.d
        if a.is_zero() or not unit_modulus(a):
            return None
        lam = b / a
        if lam.conjugate() != c:
            return None
        if lam * lam.conjugate() == ONE:
            return None
        return lam, a

    def projective_order(self):
        """Smallest n with self^n proportional to the identity, or None
        when the map has infinite projective order.

        The order is read off tau = tr^2 / det = r + 2 + 1/r, where r is
        the ratio of the two eigenvalues.  tau = 4 means r = 1: order 1
        for a scalar matrix, infinite for any other.  Any other tau means
        distinct eigenvalues, so the order is that of r, a root of unity
        exactly when r + 1/r = tau - 2 is 2cos(2 pi j / k) for j prime
        to k.  Those values in Q(zeta8) are the ones of k = 2, 3, 4, 6
        and 8 in _ORDERS: the real numbers of Q(zeta8) form Q(sqrt2), and
        2cos(2 pi j / k) lies there for no other k > 1.
        """
        tau = self.trace() ** 2 / self.det()
        if tau == 4:
            return 1 if self.is_scalar() else None
        return _ORDERS.get(tau)

    def orbit(self, z0: ExtComplex, steps: int):
        """The points z0, m(z0), ..., m^{steps-1}(z0) together with a flag
        saying whether all of them are distinct."""
        pts = [z0]
        for _ in range(steps - 1):
            pts.append(self.apply(pts[-1]))
        return pts, len(set(pts)) == len(pts)

    def fixed_points(self):
        """Fixed points on the extended plane.

        Returns a list of ExtComplex.  Raises NotInField when a fixed
        point exists but its coordinates fall outside Q(zeta8).  A scalar
        matrix fixes everything and returns an empty list.
        """
        if self.is_scalar():
            return []
        if self.c.is_zero():
            pts = [ExtComplex.infinity()]
            diff = self.d - self.a
            if not diff.is_zero():
                pts.append(ExtComplex(self.b / diff))
            return pts
        # c z^2 + (d - a) z - b = 0
        disc = (self.d - self.a) ** 2 + 4 * self.b * self.c
        root = sqrt_in_field(disc)
        if root is None:
            raise NotInField("fixed points lie outside Q(zeta8)")
        inv2c = (self.c * 2).inverse()
        z1 = (self.a - self.d + root) * inv2c
        z2 = (self.a - self.d - root) * inv2c
        pts = [ExtComplex(z1)]
        if z2 != z1:
            pts.append(ExtComplex(z2))
        return pts
