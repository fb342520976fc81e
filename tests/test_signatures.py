import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import eightvertex.signatures as signatures
from eightvertex.classify import STEP_MATRICES
from eightvertex.numeric import ALPHA, SQRT2, Cyclo8, I, scalar
from eightvertex.signatures import (
    Signature, EightVertexSig, eight_vertex_readoff, is_eight_vertex,
    apply_perm, pair_orbit, holographic_transform, half_diagonal,
    equality, disequality2, is_redundant, compressed_matrix,
    OddSupportWithHalfTransform, proportional,
)

from oracles import holographic_by_definition
from util import ENTRY_POOL, random_signature, random_ev

rng_seed = st.integers(min_value=0, max_value=10 ** 9)


def test_eight_vertex_round_trip():
    ev = EightVertexSig(1, 2, 3, 4, 5, 6, 7, 8)
    back = eight_vertex_readoff(Signature(4, ev.values))
    assert back.entries() == ev.entries()


def test_signature_keeps_cyclo8_values_and_coerces_the_rest():
    # a Cyclo8 is stored as it is, an int or a Fraction becomes one, and
    # anything else raises TypeError
    v = (1 + I) / 3
    f = Signature(2, [v, 0, Fraction(1, 2), -3])
    assert f.values[0] is v and EightVertexSig(v, *[1] * 7).a is v
    assert all(type(x) is Cyclo8 for x in f.values)
    assert f.values[1:] == (Cyclo8(0), Cyclo8(Fraction(1, 2)), Cyclo8(-3))
    for bad in (0.5, 1j):
        with pytest.raises(TypeError):
            Signature(1, [1, bad])


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


def test_proportional():
    """f = s * g for a nonzero scalar s: one arity, one zero pattern and
    one ratio.  The scalar 0 does not count, so the all-zero signature is
    proportional only to itself."""
    f = Signature(2, [0, 1, 2, 0])
    for s in (I, scalar(Fraction(1, 3))):
        assert proportional(f.scale(s), f)
        assert proportional(f, f.scale(s))
    # a zero-pattern mismatch, and one pattern with two ratios
    assert not proportional(f, Signature(2, [1, 1, 2, 0]))
    assert not proportional(Signature(2, [1, 1, 2, 0]), f)
    assert not proportional(f, Signature(2, [0, 1, 3, 0]))
    assert not proportional(f, Signature(1, [1, 2]))
    z = Signature(2, [0, 0, 0, 0])
    assert proportional(z, z)
    # zero against nonzero, either way
    assert not proportional(z, f)
    assert not proportional(f, z)
    assert not proportional(Signature(2, [1, 0, 0, 0]),
                            Signature(2, [0, 0, 0, 1]))
    g = Signature(2, [1, 1, 2, 3])
    assert not proportional(Signature(2, [0, 0, 0, 0]), g)
    assert not proportional(Signature(2, [0, 1, 2, 3]), g)
    assert not proportional(Signature(2, [0, 0, 0, 5]), g)
    # non-unit denominators
    h = Signature(2, [scalar(Fraction(1, 2)), 3 * I, 1 - I,
                      ALPHA / 5])
    for s in (scalar(Fraction(2, 3)), (1 - I) / 7, ALPHA / (2 + I)):
        assert proportional(h.scale(s), h)
        assert proportional(h, h.scale(s))
    bent = Signature(2, [*h.values[:3], h.values[3] * Fraction(7, 8)])
    assert not proportional(bent, h)
    assert not proportional(h, bent)


def test_proportional_matches_per_entry_ratios(monkeypatch):
    """Against the definition that divides at every nonzero entry of g
    and requires one nonzero ratio, on seeded pairs with zeros, rescaled
    copies and one-entry changes; then on identical pairs and equal
    pairs of distinct objects, which take the shortcut with no cross
    product, and on their rescaled copies, which take the cross
    products."""
    def per_entry(f, g):
        if f.arity != g.arity:
            return False
        s = None
        for a, b in zip(f.values, g.values):
            if b.is_zero():
                if not a.is_zero():
                    return False
                continue
            r = a / b
            if r.is_zero() or (s is not None and s != r):
                return False
            s = r
        return True

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
        assert proportional(f, g) == want
        found += want
    assert 1000 < found < 2800

    crossed = []
    times = signatures._times
    monkeypatch.setattr(signatures, "_times",
                        lambda a, b: crossed.append(1) or times(a, b))
    scales = [v for v in pool if not v.is_zero() and v != 1]
    samples = [Signature(2, [0, 0, 0, 0]), Signature(3, [0] * 8),
               Signature(2, [Fraction(1, 2), 3 * I, 1 - I, ALPHA / 5])]
    for _ in range(300):
        n = rng.choice((1, 2, 3))
        samples.append(Signature(n, [rng.choice(pool)
                                     for _ in range(1 << n)]))
    for g in samples:
        twin = Signature(g.arity, [Cyclo8(*v.coeffs) for v in g.values])
        assert not any(a is b for a, b in zip(twin.values, g.values))
        for f in (g, twin):
            crossed.clear()
            assert per_entry(f, g) and proportional(f, g)
            assert per_entry(g, f) and proportional(g, f)
            assert not crossed
        scaled = g.scale(rng.choice(scales))
        crossed.clear()
        for f, h in ((scaled, g), (g, scaled)):
            assert proportional(f, h) and per_entry(f, h)
        # only a support of two or more points needs a cross product
        assert bool(crossed) == (len(g.support()) >= 2)
        if crossed:
            vals = list(scaled.values)
            m = g.support()[-1]
            vals[m] = vals[m] * 2
            bent = Signature(g.arity, vals)
            for f, h in ((bent, g), (g, bent)):
                assert not proportional(f, h) and not per_entry(f, h)


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


# entries with denominators 1, 2, 3 and sqrt2-halves, so that the
# kernel's lcms, its D * E^n and its final reduction all do work
MIXED = tuple(scalar(v) for v in (
    0, 1, -2, Fraction(1, 2), Fraction(-1, 3), I, -I / 2, I / 3, ALPHA,
    SQRT2 / 2, -SQRT2 / 2 * I, (1 + I) / 3, Fraction(5, 6) - ALPHA / 2))


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_holographic_transform_matches_definition(arity):
    """The numerator-tuple kernel against the definition summed in Cyclo8
    (``oracles.holographic_by_definition``), on every step matrix and its
    dual and on seeded matrices with mixed denominators."""
    rng = random.Random(2100 + arity)
    mats = [m for pair in STEP_MATRICES.values() for m in pair]
    mats += [tuple(tuple(rng.choice(MIXED) for _ in range(2))
                   for _ in range(2)) for _ in range(16)]
    for t in mats:
        for pool in (ENTRY_POOL, MIXED):
            f = Signature(arity, [rng.choice(pool)
                                  for _ in range(1 << arity)])
            assert holographic_transform(f, t) == \
                holographic_by_definition(f, t), (t, f)


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


def _wide_entry(rng):
    """0, or a value with numerators up to 10^12 over a denominator
    in {1, 2, 3, 7, 10^6}, times 1, i, alpha or alpha^3."""
    if rng.random() < 0.25:
        return scalar(0)
    num = [rng.randint(-10 ** 12, 10 ** 12) if rng.random() < 0.6 else 0
           for _ in range(4)]
    num[rng.randrange(4)] = rng.randint(1, 10 ** rng.choice((1, 6, 12)))
    v = Cyclo8(*(Fraction(k, rng.choice((1, 2, 3, 7, 10 ** 6)))
                 for k in num))
    return v * rng.choice((1, I, ALPHA, ALPHA * I))


HALF_GAMMA_SQ = (*(I ** k for k in range(4)),
                 *(ALPHA * I ** k for k in range(4)),
                 scalar(2), scalar(Fraction(1, 3)), (1 + I) / 2,
                 scalar(10 ** 9 + 7))


def test_half_diag_eight_vertex_path_matches_general_path():
    # an EightVertexSig takes the eight-entry path; the plain Signature
    # copy of its sixteen values the general one
    rng = random.Random(2424)
    sigs = [EightVertexSig(*[0] * 8)] + [
        EightVertexSig(*(_wide_entry(rng) for _ in range(8)))
        for _ in range(150)]
    for f in sigs:
        plain = Signature(4, f.values)
        for g in HALF_GAMMA_SQ:
            fast, general = half_diagonal(f, g), half_diagonal(plain, g)
            assert type(fast) is EightVertexSig
            assert type(general) is Signature
            assert [(v.n, v.d) for v in fast.values] == \
                [(v.n, v.d) for v in general.values], (f, g)
    for sig in (f, plain):
        with pytest.raises(ValueError, match="gamma_sq must be nonzero"):
            half_diagonal(sig, 0)


def test_redundant_and_compressed():
    vals = [scalar(0)] * 16
    f = EightVertexSig(1, 2, 3, 3, 3, 3, 2, 1)
    assert is_redundant(f)
    m = compressed_matrix(f)
    assert m is not None
    g = EightVertexSig(1, 2, 3, 4, 3, 3, 2, 1)
    assert not is_redundant(g)
