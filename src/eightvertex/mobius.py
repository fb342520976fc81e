"""Moebius transformations with exact entries.

A :class:`Mobius` is an invertible 2x2 matrix over Q(zeta8) acting on the
extended plane by z -> (az + b) / (cz + d).  The recurrences produced by
chain gadgets move a single cross-ratio by such a map, so the questions
that matter here are: does the map fix a circle through the relevant
points (``circle_form``), what is its projective order, and where are its
fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numeric import (Cyclo8, ONE, SQRT2, scalar, sqrt_in_field,
                      unit_modulus, DivisionByZero)


class NotInField(ValueError):
    """A requested value (e.g. a fixed point) does not lie in Q(zeta8)."""


@dataclass(frozen=True)
class ExtComplex:
    """A point of the extended plane: a field element or infinity."""

    value: Cyclo8 = None  # None encodes infinity

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @staticmethod
    def infinity() -> "ExtComplex":
        return ExtComplex(None)

    @staticmethod
    def finite(v) -> "ExtComplex":
        return ExtComplex(scalar(v))

    def __str__(self):
        return "inf" if self.is_infinity else str(self.value)


class Mobius:
    """An invertible 2x2 matrix over Q(zeta8), read projectively."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = map(scalar, (a, b, c, d))
        if (a * d - b * c).is_zero():
            raise ValueError("Moebius matrix must have nonzero determinant")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Mobius is immutable")

    def det(self) -> Cyclo8:
        return self.a * self.d - self.b * self.c

    def trace(self) -> Cyclo8:
        return self.a + self.d

    def compose(self, other: "Mobius") -> "Mobius":
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)

    def power(self, n: int) -> "Mobius":
        if n < 0:
            raise ValueError("nonnegative powers only")
        result = Mobius(1, 0, 0, 1)
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            base = base.compose(base)
            n >>= 1
        return result

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

        For 2x2 matrices over Q(zeta8) the only finite orders that can
        occur are 1, 2, 3, 4, 6 and 8; each corresponds to a specific
        value of tr^2 / det, which is checked first and then confirmed by
        an actual power computation.
        """
        tr2 = self.trace() ** 2
        dt = self.det()
        tau = tr2 / dt
        candidates = {
            Cyclo8(4): 1,
            Cyclo8(0): 2,
            Cyclo8(1): 3,
            Cyclo8(2): 4,
            Cyclo8(3): 6,
            Cyclo8(2) + SQRT2: 8,
            Cyclo8(2) - SQRT2: 8,
        }
        n = candidates.get(tau)
        if n is None:
            return None
        for k in range(1, n + 1):
            if self.power(k).is_scalar():
                return k
        return None

    def orbit(self, z0: ExtComplex, steps: int):
        """The points z0, m(z0), ..., m^{steps-1}(z0) together with a flag
        saying whether all of them are distinct."""
        pts = [z0]
        seen = {self._key(z0)}
        distinct = True
        z = z0
        for _ in range(steps - 1):
            z = self.apply(z)
            k = self._key(z)
            if k in seen:
                distinct = False
            seen.add(k)
            pts.append(z)
        return pts, distinct

    @staticmethod
    def _key(z: ExtComplex):
        return ("inf",) if z.is_infinity else z.value.coeffs

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
