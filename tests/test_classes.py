import random

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import scalar, I, ALPHA
from eightvertex.signatures import (
    Signature, equality, disequality2,
    Transform2x2, holographic_transform,
)
from eightvertex.classes import (
    in_A, in_P, in_L, in_alphaA, oracle_in_A, oracle_in_P,
)

from util import ENTRY_POOL, NONZERO_POOL, random_signature

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
    g = holographic_transform(f, Transform2x2.diag(1, ALPHA))
    assert (in_alphaA(f) is not None) == (in_A(g) is not None)


def test_A_certificate_is_checkable():
    f = equality(4)
    cert = in_A(f)
    assert cert is not None
    # evaluating the fitted affine form reproduces the signature
    assert cert.check(f)
    for m in range(16):
        assert cert.value_at(m) == f.values[m]
