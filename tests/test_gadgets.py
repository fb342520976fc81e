"""Gadget composition identities.

The five closed forms checked here wire copies of an arity-4 signature
together through disequality edges and compare the result with the
matrix printed by the corresponding pencil-and-paper derivation.  Each
check function is also reused by the acceptance suite on many random
rational parameterizations.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import Cyclo8, I, ONE, ZERO, mat_mul, mat_pow, scalar
from eightvertex.signatures import Signature, EightVertexSig, apply_perm
from eightvertex.gadgets import (
    signature_matrix, signature_from_matrix, connect_via_n,
    chain_power, loop_binary, pin, binary_modify, eigen_report,
    ChainFormUnsupported,
)

from util import ENTRY_POOL, NONUNIT_POOL, reorder, nonzero_fraction


def scaled(s, *entries) -> Signature:
    return EightVertexSig(*entries).scale(s)


# -- the five closed forms -------------------------------------------------

def check_double_copy_unit_circle(a, b, y, lam):
    """Two copies of f joined on legs (x3, x4) against legs (x3, x4) in
    reversed order, for the rotation-free unit-circle shape
    M(f) = [[a,0,0,b],[0,1,lam,0],[0,lam,1,0],[y,0,0,a]]."""
    f = EightVertexSig(a, b, 1, lam, lam, 1, y, a)
    f1 = connect_via_n(f, reorder(f, (3, 4, 2, 1)))
    s = 1 + lam * lam
    expect = EightVertexSig(2 * a * b, a * a + b * y, s, 2 * lam,
                            2 * lam, s, a * a + b * y, 2 * a * y)
    assert f1 == expect
    # the inner block is s * [[1, delta], [delta, 1]] with
    # delta = 2*lam / (1 + lam^2)
    delta = scalar(2 * lam) / scalar(s)
    m = signature_matrix(f1)
    assert m[1][1] == m[2][2] == scalar(s)
    assert m[1][2] / scalar(s) == delta
    assert m[2][1] / scalar(s) == delta


def check_equal_pair_products_chain(b, c, d):
    """For M(f) = [[1,0,0,b],[0,c,d,0],[0,1/d,1/c,0],[1/b,0,0,1]] (all
    three inner pair products and the outer product equal to 1), two
    join steps produce the symmetric signature 8*[t,0,1,0,1/t], t=bcd."""
    f = EightVertexSig(1, b, c, d, 1 / d, 1 / c, 1 / b, 1)
    f1 = connect_via_n(f, reorder(f, (3, 4, 1, 2)))
    cd = c * d
    assert f1 == scaled(2, b, 1, cd, 1, 1, 1 / cd, 1, 1 / b)
    f2 = connect_via_n(reorder(f1, (1, 3, 2, 4)), reorder(f1, (2, 4, 1, 3)))
    t = b * c * d
    assert f2 == scaled(8, t, 1, 1, 1, 1, 1, 1, 1 / t)


def check_symmetrization(a, b, d):
    """The full normalize-and-join pipeline that ends in the symmetric
    signature 8*[s,0,1,0,1/s] with s = -a*d/b, starting from
    M(f) = [[a,0,0,b],[0,1,d,0],[0,w,z,0],[y,0,0,a]] with w = a^2/d,
    z = -a^2, y = -a^2/b."""
    w, z, y = a * a / d, -a * a, -a * a / b
    f = EightVertexSig(a, b, 1, d, w, z, y, a)
    f1 = binary_modify(f, 1, Signature(2, [0, 1, 1 / w, 0]))
    f1 = binary_modify(f1, 3, Signature(2, [0, 1, 1 / d, 0]))
    assert f1 == EightVertexSig(a, b / d, 1, 1, 1, -1, -d / b, 1 / a)
    f1p = reorder(f1, (1, 4, 3, 2))
    f6 = binary_modify(f1p, 1, Signature(2, [0, 1, -b / d, 0]))
    f6 = binary_modify(f6, 3, Signature(2, [0, 1, d / b, 0]))
    assert f6 == EightVertexSig(a, d / b, 1, 1, 1, 1, -b / d, -1 / a)
    f7 = connect_via_n(f6, reorder(f6, (3, 4, 1, 2)))
    assert f7 == scaled(2, a * d / b, -1, 1, 1, 1, 1, -1, b / (a * d))
    f8 = connect_via_n(f7, f7)
    s = -a * d / b
    assert f8 == scaled(8, s, 1, 1, 1, 1, 1, 1, 1 / s)


def check_one_pair_double(a, c, d, z):
    """Doubling M(f) = [[a,0,0,0],[0,c,d,0],[0,0,z,0],[0,0,0,a]]."""
    f = EightVertexSig(a, 0, c, d, 0, z, 0, a)
    f1 = connect_via_n(f, f)
    assert f1 == EightVertexSig(0, a * a, c * d, c * z + d * d, c * z, d * z,
                                a * a, 0)


def check_two_pair_double(c, d, w, z):
    """Doubling M(f) = [[1,0,0,0],[0,c,d,0],[0,w,z,0],[0,0,0,1]]."""
    f = EightVertexSig(1, 0, c, d, w, z, 0, 1)
    f2 = connect_via_n(f, f)
    assert f2 == EightVertexSig(0, 1, c * (d + w), c * z + d * d,
                                c * z + w * w, z * (d + w), 1, 0)


def run_closed_form_suite(seed: int, rounds: int):
    rng = random.Random(seed)
    nz = lambda: nonzero_fraction(rng)
    for _ in range(rounds):
        lam = nz()
        while abs(lam) == 1:
            lam = nz()
        check_double_copy_unit_circle(nz(), nz(), nz(), lam)
        check_equal_pair_products_chain(nz(), nz(), nz())
        check_symmetrization(nz(), nz(), nz())
        check_one_pair_double(nz(), nz(), nz(), nz())
        check_two_pair_double(nz(), nz(), nz(), nz())


def test_closed_forms_random_rationals():
    run_closed_form_suite(seed=20240229, rounds=12)


# -- elementary gadget operations ------------------------------------------

def test_binary_chain_squares_ratio():
    t = Fraction(5, 3)
    g = [[scalar(0), scalar(1)], [scalar(t), scalar(0)]]
    n = [[scalar(0), scalar(1)], [scalar(1), scalar(0)]]

    def mul(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j]
                 for j in range(2)] for i in range(2)]

    g2 = mul(mul(g, n), g)
    assert g2[0][1] == scalar(1) and g2[1][0] == scalar(t * t)
    assert g2[0][0].is_zero() and g2[1][1].is_zero()


def test_attach_binary_matches_matrix_product():
    # connecting (0,1,t,0) to legs (x3,x4) of f gives column M(f) N g
    rng = random.Random(5)
    t = nonzero_fraction(rng)
    f = EightVertexSig(2, 3, 1, Fraction(1, 2), Fraction(1, 2), 1, 5, 2)
    flipped = Signature(2, [0, scalar(t), scalar(1), 0])
    h = loop_binary(f, 3, 4, flipped)
    m = signature_matrix(f)
    gvec = [scalar(0), scalar(t), scalar(1), scalar(0)]
    nvec = gvec[::-1]
    expect = [sum((m[r][k] * nvec[3 - k] for k in range(4)), scalar(0))
              for r in range(4)]
    assert list(h.values) == expect


def test_connect_via_n_is_matrix_product():
    rng = random.Random(7)
    from util import random_signature
    f = random_signature(rng, 4)
    g = random_signature(rng, 4)
    h = connect_via_n(f, g)
    mf, mg = signature_matrix(f), signature_matrix(g)
    prod = [[sum((mf[i][3 - k] * mg[k][j] for k in range(4)), scalar(0))
             for j in range(4)] for i in range(4)]
    assert signature_matrix(h) == prod


def test_chain_power_matches_iterated_join():
    f = EightVertexSig(1, 2, 1, 3, 3, 1, 2, 1)
    c1 = chain_power(f, 1)
    assert c1 == f
    c3 = chain_power(f, 3)
    assert c3 == connect_via_n(connect_via_n(f, f), f)


def test_pin_drops_two_variables():
    f = EightVertexSig(1, 2, 3, 4, 5, 6, 7, 8)
    g = pin(f, 1, 2, 0, 0)
    # x1 = x2 = 0 leaves the top row of M(f)
    assert [str(v) for v in g.values] == ["1", "0", "0", "2"]
    g = pin(f, 1, 2, 1, 1)
    assert [str(v) for v in g.values] == ["7", "0", "0", "8"]


def test_binary_modify_scales_one_leg():
    f = EightVertexSig(1, 2, 3, 4, 5, 6, 7, 8)
    t = scalar(Fraction(3, 2))
    g = binary_modify(f, 1, Signature(2, [0, 1, t, 0]))
    ref = [v * t if (m >> 3) & 1 else v for m, v in enumerate(f.values)]
    assert list(g.values) == ref


def _at(f: Signature, bits) -> Cyclo8:
    """f at the inputs bits, x1 first."""
    return f.values[int("".join(map(str, bits)), 2)]


def _with_pair(rest, i, s, j, t) -> tuple:
    """rest with s inserted at position i and t at position j
    (1-based positions of the result)."""
    it = iter(rest)
    return tuple(s if k == i else t if k == j else next(it)
                 for k in range(1, len(rest) + 3))


def test_leg_actions_match_their_defining_sums():
    """binary_modify on every leg, loop_binary on every ordered pair of
    legs and pin on every ordered pair of legs and of values, against
    the sums that define them, written over bit tuples, on seeded
    signatures of arity 2..5 whose values have denominators and alpha
    multiples."""
    rng = random.Random(3030)
    pool = ENTRY_POOL + NONUNIT_POOL
    for n in (2, 3, 4, 5):
        for _ in range(2):
            f = Signature(n, [rng.choice(pool) for _ in range(1 << n)])
            g = Signature(2, [rng.choice(pool) for _ in range(4)])
            for i in range(1, n + 1):
                h = binary_modify(f, i, g)
                for x in itertools.product((0, 1), repeat=n):
                    assert _at(h, x) == sum(
                        (_at(g, (x[i - 1], 1 - s))
                         * _at(f, x[:i - 1] + (s,) + x[i:])
                         for s in (0, 1)), ZERO), (f, g, i, x)
            if n == 2:
                continue
            for i, j in itertools.permutations(range(1, n + 1), 2):
                h = loop_binary(f, i, j, g)
                pins = {(s, t): pin(f, i, j, s, t)
                        for s in (0, 1) for t in (0, 1)}
                for rest in itertools.product((0, 1), repeat=n - 2):
                    assert _at(h, rest) == sum(
                        (_at(f, _with_pair(rest, i, s, j, t)) * _at(g, (s, t))
                         for s in (0, 1) for t in (0, 1)), ZERO), (f, g, i, j)
                    for (s, t), p in pins.items():
                        assert _at(p, rest) == _at(
                            f, _with_pair(rest, i, s, j, t))


def test_binaries_must_have_arity_two():
    f = EightVertexSig(1, 2, 3, 4, 5, 6, 7, 8)
    g3 = Signature(3, [0, 1, 2, 0, 0, 3, 4, 0])
    with pytest.raises(ValueError):
        binary_modify(f, 1, g3)
    with pytest.raises(ValueError):
        loop_binary(f, 3, 4, g3)


def test_corollary_binaries_for_t_equal_i():
    """The corollary with n = 4, t = i: k copies of g = (0, 1, t, 0)
    chained through disequality edges give (0, 1, t^k, 0), distinct for
    k = 1, 2, 3, and back to the disequality at k = 4; modifying leg 1 of
    f by the k-th binary scales exactly the x1 = 1 entries by t^k."""
    t = I
    g = ((ZERO, ONE), (t, ZERO))
    gn = mat_mul(g, ((ZERO, ONE), (ONE, ZERO)))
    # the corollary's M(f), with x = a, abcdyzw != 0 and
    # [[c, d], [w, z]] = [[5, 7], [11, 13]] of full rank
    f = EightVertexSig(2, 3, 5, 7, 11, 13, 17, 2)
    seen = []
    for k in (1, 2, 3, 4):
        chain = mat_mul(mat_pow(gn, k - 1), g)
        assert chain == [[ZERO, ONE], [t ** k, ZERO]]
        seen.append(chain)
        h = binary_modify(f, 1, Signature(2, [v for row in chain
                                              for v in row]))
        assert list(h.values) == [v * t ** k if m >> 3 else v
                                  for m, v in enumerate(f.values)]
    assert seen[0] != seen[1] != seen[2] != seen[0]
    assert seen[3] == [[ZERO, ONE], [ONE, ZERO]]


def test_eigen_report_round_trip():
    f = EightVertexSig(1, 3, 1, 3, 3, 1, 3, 1)
    p, eig = eigen_report(f)

    def mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(4)), scalar(0))
                 for j in range(4)] for i in range(4)]

    d = [[eig[i] if i == j else scalar(0) for j in range(4)]
         for i in range(4)]
    assert mul(mul(p, d), p) == signature_matrix(f)


def test_eigen_report_rejects_generic():
    f = EightVertexSig(1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(ChainFormUnsupported):
        eigen_report(f)
