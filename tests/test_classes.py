import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import Cyclo8, scalar, I, ALPHA
from eightvertex.signatures import (
    Signature, equality, disequality2, holographic_transform,
)
import eightvertex.classes as classes
from eightvertex.classes import (
    ACertificate, AffineSpace, AShape, in_A, in_P, in_L, in_alphaA,
)
from eightvertex.evaluate import Grid, affine_eval, brute_force

from oracles import oracle_in_A, oracle_in_P
from util import (
    ENTRY_POOL, NONZERO_POOL, random_affine_signature, random_ev,
    random_product_signature, random_signature,
)

rng_seed = st.integers(min_value=0, max_value=10 ** 9)


def test_known_memberships():
    eq2 = equality(2)
    assert in_A(eq2) is not None
    assert in_P(eq2) is not None
    assert in_L(eq2)
    assert in_alphaA(eq2) is not None

    eq4 = equality(4)
    assert in_A(eq4) is not None
    assert in_P(eq4) is not None
    assert in_L(eq4)

    neq = disequality2()
    assert in_A(neq) is not None
    assert in_P(neq) is not None
    assert not in_L(neq)
    assert in_alphaA(neq) is not None


def test_zero_is_everywhere():
    z = Signature(2, [0, 0, 0, 0])
    assert in_A(z) is not None
    assert in_P(z) is not None
    assert in_L(z)
    assert in_alphaA(z) is not None


def test_simple_non_members():
    f = Signature(2, [1, 1, 1, 2])
    assert in_A(f) is None
    assert in_P(f) is None
    g = Signature(2, [1, 1, 1, -1])
    assert in_A(g) is not None
    assert in_P(g) is None


@given(rng_seed)
@settings(max_examples=150, deadline=None)
def test_in_A_matches_oracle(seed):
    rng = random.Random(seed)
    f = random_signature(rng, rng.choice([1, 2, 3, 4]))
    assert (in_A(f) is not None) == oracle_in_A(f)


@given(rng_seed)
@settings(max_examples=150, deadline=None)
def test_in_P_matches_oracle(seed):
    rng = random.Random(seed)
    f = random_signature(rng, rng.choice([1, 2, 3]))
    assert (in_P(f) is not None) == oracle_in_P(f)


def _one_entry_mutant(rng, f: Signature, m: int) -> Signature:
    """f with entry m flipped between zero and nonzero, or changed to
    another nonzero value."""
    vals = list(f.values)
    if vals[m].is_zero():
        vals[m] = rng.choice(NONZERO_POOL)
    elif rng.randrange(2):
        vals[m] = scalar(0)
    else:
        vals[m] = rng.choice([v for v in NONZERO_POOL if v != vals[m]])
    return Signature(f.arity, vals)


def test_in_P_matches_oracle_at_arity_4():
    rng = random.Random(4444)
    planted = [random_product_signature(rng, 4) for _ in range(60)]
    mutants = [_one_entry_mutant(rng, f, m) for f in planted
               for m in range(16)]
    # test_09's 1000 sweep signatures, in its draw order
    sweep = random.Random(90909)
    swept = []
    for _ in range(1000):
        swept.append(random_ev(sweep))
        sweep.choice(NONZERO_POOL)
    for f in planted:
        assert in_P(f) is not None and oracle_in_P(f), f
    members = 0
    for f in mutants + swept:
        member = oracle_in_P(f)
        assert (in_P(f) is not None) == member, f
        members += member
    # both answers occur among the mutants and the sweep
    assert 0 < members < len(mutants) + len(swept)


def test_in_P_matches_oracle_at_arity_5_and_6():
    rng = random.Random(5656)
    for n in (5, 6):
        planted = [random_product_signature(rng, n) for _ in range(8)]
        for f in planted:
            assert in_P(f) is not None and oracle_in_P(f), f
        mutants = [_one_entry_mutant(rng, f, rng.randrange(1 << n))
                   for f in planted for _ in range(10)]
        members = 0
        for f in mutants:
            member = oracle_in_P(f)
            assert (in_P(f) is not None) == member, f
            members += member
        # both answers occur among the mutants
        assert 0 < members < len(mutants), n


def test_in_P_screens_run_before_field_arithmetic(monkeypatch):
    seen = []
    times = classes._times
    monkeypatch.setattr(classes, "_times",
                        lambda *a: seen.append("cross") or times(*a))
    # 3 support points: not an affine space
    assert in_P(Signature(2, [1, 1, 1, 0])) is None
    # 4 support points, 0, 1, 2 and 4, that are not an affine space
    assert in_P(Signature(3, [1, 1, 1, 0, 1, 0, 0, 0])) is None
    # the even-weight points of 3 variables: an affine space whose
    # reduced basis vectors 101 and 011 overlap
    assert in_P(Signature(3, [1, 0, 0, 1, 0, 1, 1, 0])) is None
    assert seen == []
    # full support passes both screens and fails a cross product
    assert in_P(Signature(2, [1, 1, 1, 2])) is None
    assert "cross" in seen


@given(rng_seed)
@settings(max_examples=80, deadline=None)
def test_memberships_scale_invariant(seed):
    rng = random.Random(seed)
    f = random_signature(rng, rng.choice([2, 3, 4]))
    s = rng.choice(NONZERO_POOL)
    g = f.scale(s)
    assert (in_A(f) is None) == (in_A(g) is None)
    assert (in_P(f) is None) == (in_P(g) is None)
    assert in_L(f) == in_L(g)
    assert (in_alphaA(f) is None) == (in_alphaA(g) is None)


@given(rng_seed)
@settings(max_examples=60, deadline=None)
def test_L_with_full_zero_point_implies_A(seed):
    rng = random.Random(seed)
    f = random_signature(rng, rng.choice([2, 3, 4]))
    if f.values[0].is_zero() or not in_L(f):
        return
    assert in_A(f) is not None


@given(rng_seed)
@settings(max_examples=60, deadline=None)
def test_alphaA_is_A_after_alpha_twist(seed):
    rng = random.Random(seed)
    f = random_signature(rng, rng.choice([2, 4]))
    g = holographic_transform(
        f, ((scalar(1), scalar(0)), (scalar(0), scalar(ALPHA))))
    assert (in_alphaA(f) is not None) == (in_A(g) is not None)


def test_A_certificate_is_checkable():
    f = equality(4)
    cert = in_A(f)
    assert cert is not None
    # evaluating the fitted affine form reproduces the signature
    assert cert.check(f)
    for m in range(16):
        assert cert.value_at(m) == f.values[m]


def _twist_by_product(f: Signature, pattern: int) -> Signature:
    """alpha^(popcount(x & pattern)) f(x), by field multiplication."""
    return Signature(f.arity, [v * scalar(ALPHA ** (m & pattern).bit_count())
                               for m, v in enumerate(f.values)])


@given(rng_seed)
@settings(max_examples=120, deadline=None)
def test_memberships_with_denominators_match_oracle(seed):
    """Entries c * zeta^k with c a non-integer rational and k often odd:
    in_A, in_alphaA and in_L agree with the definition-level oracle, and
    every certificate re-checks."""
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 4])
    c = (Cyclo8(Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([2, 3, 7])))
         * ALPHA ** rng.randrange(1, 8, 2))
    kind = rng.randrange(3)
    if kind == 0:       # a class-A member, scaled
        f = random_affine_signature(rng, n).scale(c)
    elif kind == 1:     # an alphaA member: alpha^(-wt x) times one
        g = random_affine_signature(rng, n).scale(c)
        f = Signature(n, [v * scalar(ALPHA ** (7 * m.bit_count()))
                          for m, v in enumerate(g.values)])
    else:               # free entries c * zeta^k, some of them zero
        f = Signature(n, [c * ALPHA ** rng.randrange(8)
                          if rng.random() < 0.7 else 0
                          for _ in range(1 << n)])
    cert = in_A(f)
    assert (cert is not None) == oracle_in_A(f)
    assert cert is None or cert.check(f)
    full = _twist_by_product(f, (1 << n) - 1)
    acert = in_alphaA(f)
    assert (acert is not None) == oracle_in_A(full)
    assert acert is None or acert.check(full)
    if n <= 3:
        assert in_L(f) == all(oracle_in_A(_twist_by_product(f, s))
                              for s in f.support())


def _with_value(f: Signature, m: int, v) -> Signature:
    vals = list(f.values)
    vals[m] = v
    return Signature(f.arity, vals)


@given(rng_seed)
@settings(max_examples=150, deadline=None)
def test_A_certificate_check_rejects_tampering(seed):
    """ACertificate.check compares every value: each single change to a
    class-A signature, and a signature of another arity, fails it."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    f = random_affine_signature(rng, n)
    cert = in_A(f)
    assert cert is not None and cert.check(f)
    supp = f.support()
    m = rng.choice(supp)
    v = f.values[m]
    # a support value turned a quarter, doubled, or put over another
    # denominator with the same numerators
    other_d = Cyclo8(*(Fraction(k, 1000003 * v.d) for k in v.n))
    assert other_d.n == v.n and other_d.d != v.d
    for bad in (v * I, v * 2, other_d):
        assert not cert.check(_with_value(f, m, bad))
    # a point on the space that is zero
    assert not cert.check(_with_value(f, m, 0))
    # a point off the space that is nonzero
    off = [p for p in range(1 << n) if p not in supp]
    if off:
        assert not cert.check(_with_value(f, rng.choice(off), v))
    # the same values on another arity: each value repeated for a new
    # last variable, or the half with x1 = 0
    assert not cert.check(Signature(n + 1, [u for u in f.values
                                            for _ in range(2)]))
    if n > 1:
        assert not cert.check(Signature(n - 1, f.values[:1 << (n - 1)]))


def _a_answer(cert):
    """in_A's answer as plain data: None, or (lam, offset, basis, sorted
    lin, sorted quad)."""
    if cert is None:
        return None
    return (cert.lam, cert.space.offset, cert.space.basis,
            sorted(cert.lin.items()), sorted(cert.quad.items()))


def test_in_A_rechecks_on_memo_hits(monkeypatch):
    """The certificate is re-checked on every call: a check that fails
    raises on a cold call and again when the shape is memoized."""
    f = random_affine_signature(random.Random(16), 3)
    classes._A_shape.cache_clear()
    monkeypatch.setattr(classes.ACertificate, "check", lambda self, g: False)
    with pytest.raises(AssertionError):
        in_A(f)
    assert classes._A_shape.cache_info().misses == 1
    with pytest.raises(AssertionError):
        in_A(f)
    assert classes._A_shape.cache_info().hits == 1


def test_in_A_memo_terms_are_read_only():
    """lin and quad are shared with the memo, so they cannot be changed
    through a certificate, and the next in_A of the shape gives the
    original terms."""
    # i^(x1 + 3 x2 + 2 x1 x3) on {0,1}^3
    f = Signature(3, [I ** (x1 + 3 * x2 + 2 * x1 * x3)
                      for x1 in (0, 1) for x2 in (0, 1) for x3 in (0, 1)])
    cert = in_A(f)
    assert dict(cert.lin) == {1: 1, 2: 3} and dict(cert.quad) == {(1, 3): 1}
    with pytest.raises(TypeError):
        cert.lin[1] = 2
    with pytest.raises(TypeError):
        cert.quad[(1, 2)] = 1
    with pytest.raises(TypeError):
        del cert.lin[2]
    again = in_A(f)
    assert again.lin is cert.lin and again.quad is cert.quad
    assert dict(again.lin) == {1: 1, 2: 3} and dict(again.quad) == {(1, 3): 1}
    assert again.check(f)


def test_A_records_and_certificates_are_immutable():
    """The record in_A shares between certificates of one shape, and each
    certificate, refuse every assignment, so no caller can change what
    later in_A calls and affine_eval read."""
    # i^(x1 + x2) on {0,1}^2; the one-vertex loop joins its two ports
    f = Signature(2, [I ** (x1 + x2) for x1 in (0, 1) for x2 in (0, 1)])
    loop = Grid({"f": f}, ["f"], [((0, 1), (0, 2))])
    cert = in_A(f)
    before = _a_answer(cert), cert.exponents
    rec = cert.shape
    for name, value in (("space", AffineSpace.full(2)),
                        ("lin", MappingProxyType({1: 2})),
                        ("quad", MappingProxyType({(1, 2): 1})),
                        ("table", (0, 0, 0, 0)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    for name, value in (("lam", I), ("shape", AShape.of(rec.space, {}, {})),
                        ("space", AffineSpace.full(2)), ("lin", {1: 2}),
                        ("quad", {}), ("exponents", (0, 0, 0, 0)),
                        ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(cert, name, value)
    again = in_A(f)
    assert again.shape is rec and (_a_answer(again), again.exponents) == before
    assert dict(again.lin) == {1: 1, 2: 1} and again.check(f)
    assert affine_eval(loop) == brute_force(loop) == 2 * I


def test_A_check_reads_the_certificates_own_terms():
    """A certificate built with AShape.of from in_A's terms with the lin
    coefficient at a variable that is not always 0 on the space off by 1
    fails check and differs from f in value_at; in_A's own certificate
    still checks."""
    rng = random.Random(1616)
    tried = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        f = random_affine_signature(rng, n)
        cert = in_A(f)
        assert cert.check(f)
        for i in range(1, n + 1):
            if not any(m >> (n - i) & 1 for m in f.support()):
                continue
            for delta in (1, -1):
                lin = dict(cert.lin)
                lin[i] = lin.get(i, 0) + delta
                bad = ACertificate(cert.lam,
                                   AShape.of(cert.space, lin, cert.quad))
                assert not bad.check(f), (f, i, delta)
                assert any(bad.value_at(m) != f.values[m]
                           for m in range(1 << n))
                tried += 1
        assert cert.check(f)
    assert tried > 500


def test_in_A_cold_and_warm_agree():
    """Seeded class-A signatures of arity 1 to 5 and their one-entry
    mutants get the same answer with the memo cleared and with it warm,
    and at arity 4 or less the same membership as the oracle."""
    rng = random.Random(1617)
    corpus = []
    for _ in range(120):
        f = random_affine_signature(rng, rng.randint(1, 5))
        corpus.append(f)
        corpus.append(_one_entry_mutant(rng, f, rng.randrange(1 << f.arity)))
    classes._A_shape.cache_clear()
    classes._hull.cache_clear()
    cold = [_a_answer(in_A(f)) for f in corpus]
    after_cold = classes._A_shape.cache_info()
    warm = [_a_answer(in_A(f)) for f in corpus]
    after_warm = classes._A_shape.cache_info()
    # every lookup of the warm pass hits
    assert after_warm.misses == after_cold.misses > 0
    assert (after_warm.hits - after_cold.hits
            == after_cold.hits + after_cold.misses)
    assert cold == warm
    members = 0
    for f, answer in zip(corpus, cold):
        if f.arity <= 4:
            assert (answer is not None) == oracle_in_A(f), f
        members += answer is not None
    # both answers occur
    assert 0 < members < len(corpus)


def test_A_shape_table_is_Q_on_the_space():
    """The exponent table of in_A's record, filled on a miss from the
    codes the walk has just checked, is the table AShape.of builds from
    the record's own terms: Q mod 4 at every point of the space and None
    off it.  check relies on the two agreeing.  A second in_A of f hands
    out the same record, and a certificate built by hand from the terms
    checks f."""
    rng = random.Random(1717)
    jitter = random.Random(1818)   # the shifts, apart from the corpus
    classes._A_shape.cache_clear()
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        f = random_affine_signature(rng, n)
        cert = in_A(f)
        rec = cert.shape
        assert (cert.space, cert.lin, cert.quad, cert.exponents) == (
            rec.space, rec.lin, rec.quad, rec.table)
        assert in_A(f).shape is rec
        built = AShape.of(rec.space, rec.lin, rec.quad)
        assert built.table == rec.table
        # terms shifted by multiples of 4 (lin) or 2 (quad), zero ones
        # among them, give the record's own reduced terms
        var = range(1, n + 1)
        shifted = AShape.of(
            rec.space,
            {i: rec.lin.get(i, 0) + 4 * jitter.randint(-1, 1) for i in var},
            {(i, j): rec.quad.get((i, j), 0) + 2 * jitter.randint(-1, 1)
             for i in var for j in var if i < j})
        assert (shifted.table, dict(shifted.lin), dict(shifted.quad)) == (
            rec.table, dict(rec.lin), dict(rec.quad))
        assert len(rec.table) == 1 << n
        for m, q in enumerate(rec.table):
            assert (q is None) == (not rec.space.contains(m))
        assert ACertificate(cert.lam, built).check(f)
        seen.add(n)
    assert seen == {1, 2, 3, 4, 5, 6}
