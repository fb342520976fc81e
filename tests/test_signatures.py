import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eightvertex.numeric import ALPHA, Cyclo8, I, scalar
from eightvertex.signatures import (
    Signature, EightVertexSig, eight_vertex_readoff, is_eight_vertex,
    apply_perm, pair_orbit, holographic_transform, half_diagonal,
    equality, disequality2, is_redundant, compressed_matrix,
    OddSupportWithHalfTransform,
)

from util import ENTRY_POOL, random_signature, random_ev

rng_seed = st.integers(min_value=0, max_value=10 ** 9)


def test_eight_vertex_round_trip():
    ev = EightVertexSig(1, 2, 3, 4, 5, 6, 7, 8)
    back = eight_vertex_readoff(Signature(4, ev.values))
    assert back.entries() == ev.entries()


def test_parse_both_separators():
    p1 = EightVertexSig.parse("0,1,1,2,2,1,1,0")
    p2 = EightVertexSig.parse("0; 1; 1; 2; 2; 1; 1; 0")
    assert p1.entries() == p2.entries()
    withcommas = EightVertexSig.parse("1; 0; 0,0,0,1; 0; 0; 0,-1,0,0; 0; 1")
    assert withcommas.c == scalar(Cyclo8(0, 0, 0, 1))
    with pytest.raises(ValueError):
        EightVertexSig.parse("1,2,3")


def test_parse_str_round_trip():
    ev = EightVertexSig.parse("1; 0; 0,0,0,1; 0; 0; 0,-1,0,0; 0; 1")
    again = EightVertexSig.parse(str(ev))
    assert again.entries() == ev.entries()


def test_is_eight_vertex():
    assert is_eight_vertex(EightVertexSig(*range(1, 9)))
    odd = Signature(4, [1] + [0] * 15).values
    assert is_eight_vertex(Signature(4, odd))
    assert not is_eight_vertex(Signature(4, [1] * 16))


@given(rng_seed)
def test_readoff_rejects_off_positions(seed):
    rng = random.Random(seed)
    f = random_ev(rng)
    bad = rng.choice([m for m in range(16)
                      if bin(m).count("1") in (1, 3)])
    vals = list(f.values)
    vals[bad] = scalar(1)
    assert eight_vertex_readoff(Signature(4, vals)) is None
    assert eight_vertex_readoff(f) is not None


@given(rng_seed)
def test_apply_perm_group_action(seed):
    rng = random.Random(seed)
    f = random_signature(rng, 4)
    p = [1, 2, 3, 4]
    rng.shuffle(p)
    q = [1, 2, 3, 4]
    rng.shuffle(q)
    lhs = apply_perm(apply_perm(f, p), q)
    composed = [q[p[k] - 1] for k in range(4)]
    assert lhs == apply_perm(f, composed)
    assert apply_perm(f, [1, 2, 3, 4]) == f


def test_apply_perm_explicit():
    f = Signature(2, [0, 1, 2, 3])
    g = apply_perm(f, [2, 1])
    assert [str(v) for v in g.values] == ["0", "2", "1", "3"]


@given(rng_seed)
def test_pair_orbit_invariants(seed):
    rng = random.Random(seed)
    ev = random_ev(rng)
    orbit = pair_orbit(ev)
    assert 1 <= len(orbit) <= 24
    assert any(o.entries() == ev.entries() for o in orbit)
    ax = ev.a * ev.x
    prods = sorted(str(p * q) for p, q in ev.pairs())
    for o in orbit:
        assert o.a * o.x == ax
        assert sorted(str(p * q) for p, q in o.pairs()) == prods


@given(rng_seed)
def test_pair_orbit_members_are_variable_permutations(seed):
    rng = random.Random(seed)
    ev = random_ev(rng)
    perms = set()
    import itertools
    for p in itertools.permutations([1, 2, 3, 4]):
        g = apply_perm(ev, p)
        perms.add(tuple(str(v) for v in g.values))
    for o in pair_orbit(ev):
        assert tuple(str(v) for v in o.values) in perms


def test_equality_disequality():
    eq2 = equality(2)
    assert [str(v) for v in eq2.values] == ["1", "0", "0", "1"]
    neq = disequality2()
    assert [str(v) for v in neq.values] == ["0", "1", "1", "0"]
    eq4 = equality(4)
    assert eq4.support() == [0, 15]


def test_proportional_to():
    f = Signature(2, [0, 1, 2, 0])
    assert f.scale(I).proportional_to(f) == I
    assert f.proportional_to(Signature(2, [1, 1, 2, 0])) is None
    z = Signature(2, [0, 0, 0, 0])
    assert z.proportional_to(z) == scalar(0)
    assert f.proportional_to(Signature(1, [1, 2])) is None
    # only one side zero
    assert z.proportional_to(f) == scalar(0)
    assert f.proportional_to(z) is None
    assert Signature(2, [1, 0, 0, 0]).proportional_to(
        Signature(2, [0, 0, 0, 1])) is None
    # the first ratio is 0
    g = Signature(2, [1, 1, 2, 3])
    assert Signature(2, [0, 0, 0, 0]).proportional_to(g) == scalar(0)
    assert Signature(2, [0, 1, 2, 3]).proportional_to(g) is None
    assert Signature(2, [0, 0, 0, 5]).proportional_to(g) is None
    # non-unit denominators
    h = Signature(2, [scalar(Fraction(1, 2)), 3 * I, 1 - I,
                      ALPHA / 5])
    for s in (scalar(Fraction(2, 3)), (1 - I) / 7, ALPHA / (2 + I)):
        assert h.scale(s).proportional_to(h) == s
        assert h.proportional_to(h.scale(s)) == 1 / s
    bent = Signature(2, [*h.values[:3], h.values[3] * Fraction(7, 8)])
    assert bent.proportional_to(h) is None
    assert h.proportional_to(bent) is None


def test_proportional_to_matches_per_entry_ratios():
    """Against the definition that divides at every nonzero entry of
    other and requires one ratio, on seeded pairs with zeros, rescaled
    copies and one-entry changes."""
    def per_entry(f, g):
        if f.arity != g.arity:
            return None
        s = None
        for a, b in zip(f.values, g.values):
            if b.is_zero():
                if not a.is_zero():
                    return None
                continue
            r = a / b
            if s is None:
                s = r
            elif s != r:
                return None
        if s is None:
            s = scalar(0) if f.is_zero() else None
        return s

    pool = (scalar(0),) * 4 + ENTRY_POOL + (
        scalar(Fraction(1, 2)), 3 * I, 1 - I, ALPHA / 3, (2 + I) / 5)
    rng = random.Random(7272)
    found = 0
    for _ in range(3000):
        n = rng.choice((1, 2, 3))
        g = Signature(n, [rng.choice(pool) for _ in range(1 << n)])
        f = g.scale(rng.choice(pool))
        if rng.randrange(2):
            vals = list(f.values)
            vals[rng.randrange(1 << n)] = rng.choice(pool)
            f = Signature(n, vals)
        if rng.randrange(8) == 0:
            f, g = g, f
        want = per_entry(f, g)
        assert f.proportional_to(g) == want
        found += want is not None
    assert 1000 < found < 2800


def matrix(rows):
    return tuple(tuple(scalar(v) for v in row) for row in rows)


def test_holographic_identity_and_composition():
    rng = random.Random(11)
    f = random_signature(rng, 3)
    assert holographic_transform(f, matrix(((1, 0), (0, 1)))) == f
    t1 = matrix(((1, 1), (0, 1)))
    t2 = matrix(((2, 0), (1, 1)))
    lhs = holographic_transform(holographic_transform(f, t1), t2)
    rhs = holographic_transform(f, matrix(((2, 2), (1, 2))))   # t2 @ t1
    assert lhs == rhs


def test_holographic_inverse_round_trip():
    rng = random.Random(13)
    f = random_signature(rng, 4)
    t = matrix(((1, 2), (1, -1)))
    t_inv = matrix(((Fraction(1, 3), Fraction(2, 3)),
                    (Fraction(1, 3), Fraction(-1, 3))))
    back = holographic_transform(holographic_transform(f, t), t_inv)
    assert back == f


def test_half_diag_matches_full_diag_on_even_support():
    rng = random.Random(17)
    f = random_ev(rng)
    gamma = scalar(3)
    full = holographic_transform(f, matrix(((1, 0), (0, gamma))))
    half = half_diagonal(f, gamma * gamma)
    assert full == half


def test_half_diag_square_root_free():
    # gamma^2 = i has gamma = alpha outside the rationals; the half form
    # still acts because every support point has even weight.
    f = equality(2)
    out = half_diagonal(f, I)
    assert [str(v) for v in out.values] == ["1", "0", "0", "i"]


def test_half_diag_rejects_odd_support():
    f = disequality2()
    with pytest.raises(OddSupportWithHalfTransform):
        half_diagonal(f, 2)


def test_half_diag_any_parity_drops_common_factor():
    # diag(1, gamma) on the disequality gives gamma * [0, 1, 1, 0]; the
    # common factor gamma is dropped
    f = disequality2()
    assert half_diagonal(f, 2, any_parity=True) == f
    g = Signature(3, [0, 1, 0, 0, 0, 0, 0, 5])   # weights 1 and 3
    out = half_diagonal(g, 2, any_parity=True)
    assert [str(v) for v in out.values] == ["0", "1", "0", "0",
                                            "0", "0", "0", "10"]
    with pytest.raises(OddSupportWithHalfTransform):
        half_diagonal(Signature(2, [1, 1, 0, 0]), 2, any_parity=True)


def test_half_diag_rejects_zero_gamma_sq():
    with pytest.raises(ValueError):
        half_diagonal(equality(2), 0)


def test_redundant_and_compressed():
    vals = [scalar(0)] * 16
    f = EightVertexSig(1, 2, 3, 3, 3, 3, 2, 1)
    assert is_redundant(f)
    m = compressed_matrix(f)
    assert m is not None
    g = EightVertexSig(1, 2, 3, 4, 3, 3, 2, 1)
    assert not is_redundant(g)
