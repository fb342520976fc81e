import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import Cyclo8, scalar, I, ALPHA
from eightvertex.signatures import EightVertexSig, pair_orbit
from eightvertex.classify import (
    classify, Certificate, Verdict, make_certificate, check_certificate,
    apply_steps_signature, transform_disequality, STEP_MATRICES,
)
from eightvertex.signatures import (
    OddSupportWithHalfTransform, Signature, disequality2,
)
from eightvertex.classes import AffineSpace, in_P
from eightvertex.mobius import ExtComplex

from util import NONZERO_POOL, random_ev

rng_seed = st.integers(min_value=0, max_value=10 ** 9)


def parse(text: str) -> EightVertexSig:
    return EightVertexSig.parse(text)


# -- named examples ---------------------------------------------------------

def test_eulerian_orientation_signature_is_hard():
    v = classify(parse("0,1,1,1,1,1,1,0"))
    assert v.kind == "hard"
    assert v.trace


def test_tutte_signature_is_hard():
    v = classify(parse("0,1,1,2,2,1,1,0"))
    assert v.kind == "hard"


def test_sample_tractable_signature():
    v = classify(parse("1,1,1,0,0,1,1,0"))
    assert v.kind == "tractable"
    assert check_certificate(parse("1,1,1,0,0,1,1,0"), v.certificate)


def test_zero_signature_vanishes():
    v = classify(parse("0,0,0,0,0,0,0,0"))
    assert v.kind == "vanishing"


def test_six_vertex_zero_in_each_pair():
    # one zero per inner pair, not classwise tractable
    v = classify(parse("0,1,0,0,1,1,0,0"))
    assert v.kind == "vanishing"
    assert "pair" in v.reason


def test_six_vertex_full_pair_is_hard():
    v = classify(parse("0,1,1,1,1,1,0,0"))
    assert v.kind == "hard"


def test_outer_only_signature_is_product():
    v = classify(parse("3,0,0,0,0,0,0,5"))
    assert v.kind == "tractable"
    assert v.certificate.target == "P"


def test_equalitylike_tractable():
    v = classify(parse("1,0,0,0,0,0,0,1"))
    assert v.kind == "tractable"


def test_spin_alpha_affine_example():
    f = parse("1; 0; 0,0,0,1; 0; 0; 0,-1,0,0; 0; 1")
    v = classify(f)
    assert v.kind == "tractable"
    assert check_certificate(f, v.certificate)
    # the degenerate inner block makes this a product signature, so an
    # explicit identity witness into P also validates
    cert = make_certificate(f, (), "P")
    assert cert is not None
    assert check_certificate(f, cert)


def test_generic_power_of_i_tractable():
    f = EightVertexSig(1, 2, 2, 2, 2, -2, 2, -4)
    v = classify(f)
    assert v.kind == "tractable"
    assert check_certificate(f, v.certificate)


def test_generic_single_violations_are_hard():
    # each change below breaks exactly one of the arithmetic conditions
    for entries in (
        (1, 3, 2, 2, 2, -2, 2, -4),       # b/c not a power of i
        (1, 2, 2, 2, 2, 2, 2, -4),        # z = -dw violated
        (1, 2, 2, 2, 2, -2, 2, 4),        # ax = -i^(j+k) c^2 violated
    ):
        v = classify(EightVertexSig(*entries))
        assert v.kind == "hard", entries


def test_generic_relations_always_certify():
    # b, y, d, w = c i^(j, k, m, n) with j + k + m + n even, z = -c i^(m+n)
    # and x = -i^(j+k) c^2 / a meet every B6 relation, for any nonzero a
    # and c: each such f is tractable with a certificate that checks,
    # including those where a is not a power of i
    pool = NONZERO_POOL + (scalar(3), scalar(Cyclo8(1, 0, 1, 0)),
                           scalar(1) / 2)
    ipow = lambda e: scalar(I) ** (e % 4)
    rng = random.Random(606)
    b6 = 0
    for _ in range(120):
        a, c = rng.choice(pool), rng.choice(pool)
        j, k, m = (rng.randrange(4) for _ in range(3))
        n = (2 * rng.randrange(2) + j + k + m) % 4
        f = EightVertexSig(a, c * ipow(j), c, c * ipow(m), c * ipow(n),
                           -c * ipow(m + n), c * ipow(k),
                           -ipow(j + k) * c * c / a)
        v = classify(f)
        assert v.kind == "tractable", f
        assert check_certificate(f, v.certificate), f
        b6 += v.branch == "B6"
    assert b6 >= 40


def test_odd_powers_parity_violation_is_hard():
    # b/c = i, y/c = 1 makes j + k odd
    f = EightVertexSig(1, I, 1, 1, -1, -1, 1, -I)
    v = classify(f)
    assert v.kind in ("hard", "tractable")
    if v.kind == "tractable":
        assert check_certificate(f, v.certificate)


def test_one_inner_zero_is_hard():
    v = classify(parse("1,0,1,1,1,1,1,1"))
    assert v.kind == "hard"


def test_three_equal_pairs_tractable_example():
    # b = y, c = z, d = w with a*x a perfect square in the field
    f = EightVertexSig(1, 1, 1, 1, 1, 1, 1, 1)
    v = classify(f)
    assert v.kind == "tractable"
    assert check_certificate(f, v.certificate)


def test_equal_pair_products_branch():
    # by = cz = dw = ax: the chain route must decide this family
    f = EightVertexSig(1, 2, 2, 2, Cyclo8(1) / 2, Cyclo8(1) / 2,
                            Cyclo8(1) / 2, 1)
    v = classify(f)
    assert v.kind in ("hard", "tractable")
    if v.kind == "tractable":
        assert check_certificate(f, v.certificate)


# -- invariants -------------------------------------------------------------

@given(rng_seed)
@settings(max_examples=120, deadline=None)
def test_classify_total_and_sound(seed):
    rng = random.Random(seed)
    f = random_ev(rng)
    v = classify(f)
    assert v.kind in ("hard", "tractable", "vanishing")
    if v.kind == "tractable":
        assert check_certificate(f, v.certificate)
    if v.kind == "hard":
        assert v.trace


@given(rng_seed)
@settings(max_examples=40, deadline=None)
def test_classify_orbit_invariant(seed):
    rng = random.Random(seed)
    f = random_ev(rng)
    kind = classify(f).kind
    for other in pair_orbit(f):
        assert classify(other).kind == kind


@given(rng_seed)
@settings(max_examples=60, deadline=None)
def test_classify_scale_invariant(seed):
    rng = random.Random(seed)
    f = random_ev(rng)
    s = rng.choice(NONZERO_POOL)
    assert classify(f.scale(s)).kind == classify(f).kind


@given(rng_seed)
@settings(max_examples=60, deadline=None)
def test_classify_outer_product_invariant(seed):
    rng = random.Random(seed)
    f = random_ev(rng)
    if f.a.is_zero() or f.x.is_zero():
        return
    g = EightVertexSig(f.a * f.x, f.b, f.c, f.d, f.w, f.z, f.y, scalar(1))
    assert classify(g).kind == classify(f).kind


# -- certificates -----------------------------------------------------------

def test_certificate_json_round_trip():
    f = parse("1,1,1,0,0,1,1,0")
    v = classify(f)
    text = json.dumps(v.to_json_dict())
    data = json.loads(text)
    assert data["verdict"] == "tractable"
    cert = Certificate.from_json_dict(data["certificate"])
    assert check_certificate(f, cert)


def test_verdict_json_shape_hard():
    v = classify(parse("0,1,1,1,1,1,1,0"))
    data = v.to_json_dict()
    assert data["verdict"] == "hard"
    assert isinstance(data.get("trace"), list)
    assert "certificate" not in data


def test_tampered_certificate_rejected():
    f = parse("1,1,1,0,0,1,1,0")
    cert = classify(f).certificate
    wrong = EightVertexSig(0, 1, 1, 1, 1, 1, 1, 0)
    assert not check_certificate(wrong, cert)
    bad_target = Certificate(cert.steps, "L" if cert.target != "L" else "P",
                             cert.transformed)
    assert not check_certificate(f, bad_target)


def test_make_certificate_rejects_bad_outer_rewrite():
    f = parse("1,1,1,0,0,1,1,0")
    # outer_rewrite must preserve the product a*x
    steps = (("outer_rewrite", scalar(1), scalar(2)),)
    assert make_certificate(f, steps, "A") is None


def test_transform_disequality_identity():
    out = transform_disequality(())
    assert [str(v) for v in out.values] == ["0", "1", "1", "0"]


def test_apply_steps_hadamard_squares_to_scalar():
    f = parse("1,1,1,0,0,1,1,0")
    twice = apply_steps_signature(f, (("hadamard",), ("hadamard",)))
    assert twice.proportional_to(f) is not None


# -- step matrices ----------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(STEP_MATRICES))
def test_step_dual_is_inverse_transpose(kind):
    # dual^T . S = I exactly, so a mistyped constant fails here
    s, dual = STEP_MATRICES[kind]
    for r in range(2):
        for c in range(2):
            entry = dual[0][r] * s[0][c] + dual[1][r] * s[1][c]
            assert entry == scalar(1 if r == c else 0)


def reference_disequality(steps) -> Signature:
    """The binary side of a step chain, written out independently: the
    inverse of each matrix by the adjugate formula, summed over both
    slots; a half diagonal scales by (1/gamma_sq)^((wt - p) / 2) for the
    common weight parity p of the support."""
    g = list(disequality2().values)
    for step in steps:
        if step[0] == "outer_rewrite":
            continue
        if step[0] == "half_diag":
            inv = scalar(1) / step[1]
            parities = {m.bit_count() % 2 for m in range(4)
                        if not g[m].is_zero()}
            if len(parities) > 1:
                raise OddSupportWithHalfTransform("mixed parity")
            p = parities.pop() if parities else 0
            g = [v if v.is_zero() else v * inv ** ((m.bit_count() - p) // 2)
                 for m, v in enumerate(g)]
            continue
        (a, b), (c, d) = STEP_MATRICES[step[0]][0]
        det = a * d - b * c
        r = ((d / det, -b / det), (-c / det, a / det))
        out = []
        for m in range(4):
            y1, y2 = (m >> 1) & 1, m & 1
            acc = scalar(0)
            for n in range(4):
                x1, x2 = (n >> 1) & 1, n & 1
                acc = acc + g[n] * r[x1][y1] * r[x2][y2]
            out.append(acc)
        g = out
    return Signature(2, g)


STEP_POOL = (
    *((kind,) for kind in sorted(STEP_MATRICES)),
    ("half_diag", scalar(I)),
    ("half_diag", scalar(2)),
    ("half_diag", scalar(ALPHA)),
    ("outer_rewrite", scalar(1), scalar(2)),
)


def test_transform_disequality_matches_reference():
    chains = [steps for n in (1, 2, 3)
              for steps in itertools.product(STEP_POOL, repeat=n)
              if n == 1 or any(s[0] == "half_diag" for s in steps)]
    for steps in chains:
        assert transform_disequality(steps) == reference_disequality(steps), \
            steps


def test_zero_gamma_sq_certificate_rejected():
    f = parse("1,1,1,0,0,1,1,0")
    cert = Certificate.from_json_dict({
        "steps": [{"kind": "half_diag", "gamma_sq": "0"}],
        "target": "A",
        "transformed": [str(v) for v in f.values],
    })
    assert check_certificate(f, cert) is False


def test_records_are_immutable():
    # verdicts, certificates, signatures and the class witnesses refuse
    # every assignment, to a field or to a new name
    v = classify(parse("1,1,1,0,0,1,1,0"))
    f = parse("0,1,1,1,1,1,1,0")
    dec = in_P(Signature(2, [1, 0, 0, 1]))
    for obj, field in ((v, "kind"), (v.certificate, "target"), (f, "a"),
                       (AffineSpace.full(2), "offset"), (dec, "lam"),
                       (ExtComplex(I), "value")):
        for name in (field, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, field))
    assert v.kind == "tractable" and f.a == Cyclo8(0)
