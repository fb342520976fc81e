import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eightvertex.numeric import ALPHA, Cyclo8, ONE, I, unit_modulus
from eightvertex.mobius import Mobius, ExtComplex, NotInField

HALF = Fraction(1, 2)


def test_determinant_guard():
    with pytest.raises(ValueError):
        Mobius(1, 2, 2, 4)


def test_apply_basics():
    m = Mobius(1, 1, 0, 1)          # z + 1
    assert m.apply(ExtComplex(Cyclo8(1))).value == Cyclo8(2)
    assert m.apply(ExtComplex.infinity()).is_infinity
    inv = Mobius(0, 1, 1, 0)        # 1/z
    assert inv.apply(ExtComplex(Cyclo8(0))).is_infinity
    assert inv.apply(ExtComplex.infinity()).value == Cyclo8(0)


def test_compose_matches_pointwise():
    m1 = Mobius(1, 2, 1, 1)
    m2 = Mobius(0, 1, 1, 0)
    z = ExtComplex(Cyclo8(3))
    assert m1.compose(m2).apply(z).value == m1.apply(m2.apply(z)).value


def test_circle_form_detection():
    m = Mobius(1, HALF, HALF, 1)
    cf = m.circle_form()
    assert cf is not None
    lam, u = cf
    assert lam == Cyclo8(HALF)
    assert u == ONE
    # a rotated variant: multiply first row by i
    rot = Mobius(I, I * Cyclo8(HALF), Cyclo8(HALF), 1)
    lam2, u2 = rot.circle_form()
    assert u2 == I and lam2 == Cyclo8(HALF)
    # |lam| = 1 is excluded
    assert Mobius(1, 1, 1, 2).circle_form() is None
    assert Mobius(1, 2, 3, 4).circle_form() is None


def test_projective_orders_finite():
    assert Mobius(1, 0, 0, 1).projective_order() == 1
    assert Mobius(3, 0, 0, 3).projective_order() == 1
    assert Mobius(0, 1, 1, 0).projective_order() == 2
    assert Mobius(0, -1, 1, -1).projective_order() == 3
    assert Mobius(1, -1, 1, 1).projective_order() == 4
    assert Mobius(3, -3, 1, 0).projective_order() == 6
    assert Mobius(1, 0, 0, ALPHA).projective_order() == 8


def _order_by_powers(m):
    """The smallest k with m^k scalar, or None.  A finite order k is that
    of an eigenvalue ratio, a root of unity in a quadratic extension of
    Q(zeta8), so phi(k) <= 8 and k <= 30."""
    p = m
    for k in range(1, 31):
        if p.is_scalar():
            return k
        p = p.compose(m)
    return None


def test_projective_order_matches_powers():
    # every invertible map with entries from {0, 1, -1, 2, i, -i, alpha},
    # and one of order 6 with an entry 3
    entries = [Cyclo8(v) for v in (0, 1, -1, 2)] + [I, -I, ALPHA]
    maps = [Mobius(a, b, c, d)
            for a, b, c, d in itertools.product(entries, repeat=4)
            if not (a * d - b * c).is_zero()]
    orders = {}
    for m in [*maps, Mobius(3, -3, 1, 0)]:
        n = _order_by_powers(m)
        assert m.projective_order() == n, m
        orders[n] = orders.get(n, 0) + 1
    assert orders == {None: 1584, 1: 6, 2: 216, 3: 76, 4: 128, 6: 9,
                      8: 104}


def test_infinite_order_map():
    m = Mobius(1, HALF, HALF, 1)
    assert m.projective_order() is None
    # eigenvalues 3/2 and 1/2: check the eigenvector equations directly
    for lam, vec in ((Fraction(3, 2), (ONE, ONE)),
                     (Fraction(1, 2), (ONE, Cyclo8(-1)))):
        u = m.a * vec[0] + m.b * vec[1]
        v = m.c * vec[0] + m.d * vec[1]
        assert u == Cyclo8(lam) * vec[0]
        assert v == Cyclo8(lam) * vec[1]


def test_infinite_orbit_of_i_distinct_unit_modulus():
    m = Mobius(1, HALF, HALF, 1)
    pts, distinct = m.orbit(ExtComplex(I), 32)
    assert distinct
    assert len(pts) == 32
    for z in pts:
        assert not z.is_infinity
        assert unit_modulus(z.value)


def test_finite_orbit_repeats():
    m = Mobius(0, 1, 1, 0)
    _, distinct = m.orbit(ExtComplex(Cyclo8(2)), 5)
    assert not distinct


def test_fixed_points_in_field():
    m = Mobius(1, HALF, HALF, 1)
    pts = [p.value for p in m.fixed_points()]
    assert sorted(str(v) for v in pts) == ["-1", "1"]
    for p in m.fixed_points():
        q = m.apply(p)
        assert not q.is_infinity and q.value == p.value


def test_fixed_points_outside_field():
    with pytest.raises(NotInField):
        Mobius(1, 3, 1, 1).fixed_points()


def test_fixed_points_triangular():
    m = Mobius(1, 1, 0, 1)
    pts = m.fixed_points()
    assert len(pts) == 1 and pts[0].is_infinity
    assert Mobius(2, 0, 0, 2).fixed_points() == []


def test_three_fixed_points_means_identity():
    # a Moebius map fixing three distinct points is the identity; verify
    # the contrapositive on a non-scalar map
    m = Mobius(1, 1, 0, 1)
    fixed = 0
    for v in (Cyclo8(0), Cyclo8(1), Cyclo8(2)):
        z = ExtComplex(v)
        out = m.apply(z)
        if not out.is_infinity and out.value == v:
            fixed += 1
    assert fixed == 0
