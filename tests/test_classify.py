import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import (
    Cyclo8, scalar, I, ALPHA, parse_cyclo8, sqrt_in_field,
)
from eightvertex.signatures import EightVertexSig, half_diagonal, pair_orbit
import eightvertex.classify as classify_mod
from eightvertex.classify import (
    classify, Certificate, Verdict, make_certificate, check_certificate,
    apply_steps_signature, transform_disequality, FAST_CANDIDATES,
    STEP_FIELDS, STEP_KINDS, STEP_MATRICES,
)
from eightvertex.signatures import (
    OddSupportWithHalfTransform, Signature, disequality2,
    eight_vertex_readoff, proportional,
)
from eightvertex.classes import AffineSpace, in_A, in_P, in_alphaA
from eightvertex.evaluate import Graph, Grid
from eightvertex.mobius import ExtComplex, Mobius

from util import (
    NONUNIT_POOL, NONZERO_POOL, random_affine_signature, random_b4, random_ev,
)

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


def test_certificate_does_not_check_against_zero_signature():
    # every step applies to the all-zero signature, and its images lie in
    # every class by convention, but they are proportional to a nonzero
    # image only through the scalar 0, which does not count
    zero = parse("0,0,0,0,0,0,0,0")
    assert classify(zero).kind == "vanishing"
    for sig in ("1,1,1,0,0,1,1,0", "2i,1,1,-1,-i,i,i,1/2",
                "2,1,-1,-i,-1,i,i,-1/2i"):
        cert = classify(parse(sig)).certificate
        assert check_certificate(parse(sig), cert)
        assert not check_certificate(zero, cert), sig


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
    assert proportional(twice, f)


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


def test_disequality_membership_table_matches_in_class(monkeypatch):
    """The memo's answer is _in_class of the recomputed disequality
    image, cold and warm, on the fast path's and B1's step lists, one B4
    and one B5 symmetric chain, and seeded random step lists."""
    targets = classify_mod._TARGETS
    one, i = scalar(1), scalar(I)
    clear = (("outer_rewrite", scalar(0), scalar(0)),)
    chains = [steps for steps, _ in FAST_CANDIDATES] + [(), clear]
    # B4 with ax = 1 (root 1, k = 1), and B5's route of 2i,1,1,-1,-i,i,i,1/2
    chains.append((("outer_rewrite", one, one), ("half_diag", i), ("z",)))
    chains.append((("outer_rewrite", one, i), ("half_diag", one), ("z",)))
    rng = random.Random(2222)
    params = (one, i, -i, scalar(2), scalar(ALPHA), one / 3, (1 + i) / 2)
    for _ in range(300):
        steps = []
        for _ in range(rng.randrange(5)):
            kind = rng.choice(STEP_KINDS)
            steps.append((kind, *(rng.choice(params)
                                  for _ in STEP_FIELDS.get(kind, ()))))
        chains.append(tuple(steps))
    cases = []
    for steps in chains:
        try:
            image = transform_disequality(steps)
        except OddSupportWithHalfTransform:
            continue
        cases += [(steps, image, t) for t in targets]
    assert len(cases) > 4 * 150
    in_class = classify_mod._in_class
    keys = {(image.values, t) for _, image, t in cases}
    memo = classify_mod._disequality_in
    # every key fits, so the warm pass reads every answer from the memo
    assert len(keys) <= memo.cache_info().maxsize
    computed = []
    monkeypatch.setattr(classify_mod, "_in_class",
                        lambda sig, t: computed.append(t) or in_class(sig, t))
    memo.cache_clear()
    seen = set()
    for want_computed in (len(keys), 0):    # cold, then warm
        computed.clear()
        for steps, image, target in cases:
            want = in_class(image, target)
            assert memo(image.values, target) == want, (steps, target)
            seen.add(want)
        assert len(computed) == want_computed
    assert memo.cache_info().currsize == len(keys)
    assert seen == {True, False}


def test_disequality_image_depends_only_on_matrix_steps():
    # what keeps the membership table to a few keys: half_diag and
    # outer_rewrite steps ahead of the matrix steps, as in every candidate
    # list, leave the disequality's image as it is
    rng = random.Random(3333)
    params = (scalar(1), scalar(I), scalar(2), scalar(ALPHA), scalar(1) / 3)
    for _ in range(200):
        head = tuple((kind, *(rng.choice(params) for _ in STEP_FIELDS[kind]))
                     for kind in rng.choices(tuple(STEP_FIELDS),
                                             k=rng.randrange(4)))
        tail = tuple((kind,) for kind in rng.choices(tuple(STEP_MATRICES),
                                                     k=rng.randrange(3)))
        assert (transform_disequality(head + tail).values
                == transform_disequality(tail).values), head + tail


def test_disequality_outside_target_fails_certificate():
    # 1,0,0,0,0,0,0,1 is in L, but the disequality is not, so no step
    # list carries both there; the table holds that answer once warm
    f = parse("1,0,0,0,0,0,0,1")
    assert classify_mod._in_class(f, "L")
    assert not classify_mod._in_class(transform_disequality(()), "L")
    for _ in range(2):
        assert not check_certificate(f, Certificate((), "L", f))
        assert check_certificate(f, Certificate((), "P", f))
    assert make_certificate(f, (), "L") is None


# -- subsumed candidates ----------------------------------------------------
#
# A chain can go from a candidate list when an earlier chain of the same
# list certifies exactly when it does.  half_diag and outer_rewrite leave
# the disequality's image as it is, so that is decided on f's image.

def nonunit_eight_vertex(seed: int, count: int):
    """Eight-vertex signatures times a non-unit scale: random_ev draws,
    class-A members, and members of alphaA, alternating with random_b4
    draws."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 3 == 0:
            values = random_ev(rng).values
        else:   # g in A, then (k % 3 == 2) alpha^-wt(x) g(x) in alphaA
            twist = -(k % 3 - 1)
            values = [v * ALPHA ** (twist * m.bit_count()) for m, v
                      in enumerate(random_affine_signature(rng, 4).values)]
        f = eight_vertex_readoff(Signature(4, values))
        if f is not None:
            scale = rng.choice(NONUNIT_POOL)
            yield EightVertexSig(*(v * scale for v in f.entries()))
        yield random_b4(rng)


def test_half_diag_i_is_the_alpha_twist():
    # I1: half_diag(i) scales f(x) by alpha^wt(x) (i at weight 2, -1 at
    # weight 4), the signature in_alphaA tests, so half_diag(i) -> A
    # stands for f -> alphaA
    members = 0
    for f in nonunit_eight_vertex(1717, 400):
        image = half_diagonal(f, I)
        assert image.values == tuple(v * ALPHA ** m.bit_count()
                                     for m, v in enumerate(f.values))
        member = in_alphaA(f) is not None
        assert (in_A(image) is not None) == member
        members += member
    assert members > 20


def test_half_diag_sign_twins_agree_on_A():
    # I2: half_diag(-g) is half_diag(g) times i^(x1+x2+x3+x4), under which
    # A is closed
    members = 0
    for f in nonunit_eight_vertex(1818, 300):
        for g in (scalar(1), scalar(I), scalar(ALPHA), ALPHA * I):
            member = in_A(half_diagonal(f, g)) is not None
            assert (in_A(half_diagonal(f, -g)) is not None) == member
            members += member
    assert members > 20


def test_b4_half_diag_prefix_repeats_its_images():
    # I3: half_diag(i) ahead of outer_rewrite(i mu, i mu) gives i times
    # the image of outer_rewrite(mu, mu), and ahead of the z chain of
    # corner product -ax it gives the z chain's image itself
    one, half_i = scalar(1), ("half_diag", scalar(I))
    checked = 0
    rng = random.Random(1919)
    for _ in range(300):
        f = random_b4(rng)
        s = f.a * f.x
        mu = sqrt_in_field(s)
        if mu is None:
            continue
        for k in range(4):
            twist = (("half_diag", I ** k),) if k else ()
            pairs = (   # (kept chain, deleted twin, image ratio)
                ((("outer_rewrite", mu, mu),) + twist,
                 (half_i, ("outer_rewrite", I * mu, I * mu)) + twist, I),
                ((("outer_rewrite", one, s), ("half_diag", I ** k / mu),
                  ("z",)),
                 (half_i, ("outer_rewrite", one, -s),
                  ("half_diag", I ** k / (I * mu)), ("z",)), one))
            for kept, gone, factor in pairs:
                assert apply_steps_signature(f, gone).values == tuple(
                    factor * v
                    for v in apply_steps_signature(f, kept).values)
                assert (transform_disequality(gone)
                        == transform_disequality(kept))
        checked += 1
    assert checked > 100


def test_candidate_lists_hold_no_subsumed_chain(monkeypatch):
    # the fast path tests alphaA only through half_diag(i) -> A, B4
    # searches its corner normalization and four z chains, and B5 its
    # four z chains; B4 and B5 build those chains the same way.  No step
    # list repeats within a list, so each image is built once
    assert all("alphaA" not in targets for _, targets in FAST_CANDIDATES)
    # ax = 1, so mu = 1, for B4; ax = i and bcd / (ax)^2 = 1 for B5
    b4, b5 = parse("2;i;-i;-i;i;i;-i;1/2"), parse("2i,1,1,-1,-i,i,i,1/2")
    assert classify(b4).branch == "B4" and classify(b5).branch == "B5"
    searched = []
    search = classify_mod._search
    monkeypatch.setattr(classify_mod, "_search", lambda f, candidates: (
        searched.append(list(candidates)) or search(f, candidates)))

    def z_route(prod):
        return [((("outer_rewrite", 1, prod), ("half_diag", I ** k),
                  ("z",)), ("A", "P", "alphaA", "L")) for k in range(4)]

    norm = (("outer_rewrite", 1, 1),)
    classify(b4)
    b4_list = searched[-1]
    assert b4_list == [(norm, ("A", "alphaA")), *z_route(1)]
    classify(b5)
    assert searched[-1] == z_route(I)
    for candidates, lists, pairs in ((FAST_CANDIDATES, 8, 9),
                                     (b4_list, 5, 18),
                                     (searched[-1], 4, 16)):
        steps = [s for s, _ in candidates]
        assert len(steps) == len(set(steps)) == lists
        assert sum(len(targets) for _, targets in candidates) == pairs


def test_zero_gamma_sq_certificate_rejected():
    f = parse("1,1,1,0,0,1,1,0")
    cert = Certificate.from_json_dict({
        "steps": [{"kind": "half_diag", "gamma_sq": "0"}],
        "target": "A",
        "transformed": [str(v) for v in f.values],
    })
    assert check_certificate(f, cert) is False


def test_records_are_immutable():
    # verdicts, certificates, signatures, the class witnesses, Moebius
    # maps, grids and graphs refuse every assignment, to a field or to a
    # new name
    v = classify(parse("1,1,1,0,0,1,1,0"))
    f = parse("0,1,1,1,1,1,1,0")
    dec = in_P(Signature(2, [1, 0, 0, 1]))
    grid = Grid({"f": f}, ["f"], [((0, 1), (0, 2)), ((0, 3), (0, 4))])
    for obj, field in ((v, "kind"), (v.certificate, "target"), (f, "a"),
                       (AffineSpace.full(2), "offset"), (dec, "lam"),
                       (ExtComplex(I), "value"), (Mobius(1, 2, 3, 4), "a"),
                       (grid, "edges"),
                       (Graph([(0, 0), (0, 0)]), "rotations")):
        for name in (field, "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, field))
    assert v.kind == "tractable" and f.a == Cyclo8(0)


# -- Defect A: tractable signatures that classify calls hard ----------------
#
# The fast path tries gamma_sq only in {i^k, alpha i^k}, B2 tests the
# binary core without rescaling it, and B6's screens assume the fast path
# caught every signature that some rescaling puts in A.  Each signature
# below has a one-step certificate that make_certificate accepts.

DEFECT_A = (
    ("32,0,0,8,-8i,0,0,2i", "4"),
    ("-16,4i,0,0,0,0,4,i", "4i"),
    ("i,4i,4i,4i,4i,4i,-4i,-16i", "1/4"),
    ("2,-8i,-8,-8i,8,8i,-8,32i", "-1/4"),
)


@pytest.mark.parametrize("sig, gamma_sq", DEFECT_A)
def test_defect_a_certificate_checks(sig, gamma_sq):
    f = parse(sig)
    cert = make_certificate(f, (("half_diag", parse_cyclo8(gamma_sq)),),
                            "A")
    assert cert is not None
    assert cert.describe() == f"half_diag({gamma_sq}) -> A"
    assert check_certificate(f, cert)


def test_half_diag_certificate_json_of_non_unit_gamma_sq():
    # the literal was recorded before half_diagonal took its eight-entry
    # path; classify itself never makes a non-unit gamma_sq
    f = parse(DEFECT_A[0][0])
    cert = make_certificate(f, (("half_diag", scalar(4)),), "A")
    assert cert.to_json_dict() == {
        "steps": [{"kind": "half_diag", "gamma_sq": "4"}],
        "target": "A",
        "transformed": ["32", "0", "0", "0", "0", "0", "32", "0",
                        "0", "-32i", "0", "0", "0", "0", "0", "32i"]}
    assert make_certificate(f, (("half_diag", scalar(0)),), "A") is None


@pytest.mark.xfail(strict=True, reason="Defect A: classify calls these "
                   "tractable signatures hard (B2 or B6)")
@pytest.mark.parametrize("sig, gamma_sq", DEFECT_A)
def test_defect_a_classified_tractable(sig, gamma_sq):
    assert classify(parse(sig)).kind == "tractable"


# -- Defect B: one problem, two verdict kinds -----------------------------
#
# Two signatures with ax = 0 are the same problem as their a = x = 0 form,
# 0,0,0,0,1,1,1,0.  B1 tests membership before clearing the corners, so
# 0,0,0,0,1,1,1,1 is tractable (identity -> A) while 0,0,0,0,1,1,1,i is
# vanishing.  test_classify_outer_product_invariant returns early when a
# or x is 0, so only this test covers the case.

@pytest.mark.xfail(strict=True, reason="Defect B: B1 gives ax = 0 "
                   "signatures of one problem different verdict kinds")
def test_defect_b_same_problem_same_kind():
    assert (classify(parse("0,0,0,0,1,1,1,1")).kind
            == classify(parse("0,0,0,0,1,1,1,i")).kind)
