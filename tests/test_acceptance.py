"""Acceptance suite.

Each test here corresponds to one of the ten acceptance criteria for the
artifact: worked-problem verdicts, oracle-checked counts, algebraic
identities reproduced by gadget composition, membership oracles, and
fuzzed certificate soundness.  Tolerances are exact equality throughout;
the only numeric thresholds are wall-clock limits.
"""

import random
import time

from eightvertex.numeric import Cyclo8, scalar, I, unit_modulus
from eightvertex.signatures import (
    Signature, EightVertexSig, equality, disequality2, pair_orbit,
)
from eightvertex.classes import in_A, in_P, in_L
from eightvertex.mobius import Mobius, ExtComplex
from eightvertex.evaluate import (
    Graph, Grid, brute_force, affine_eval, eo_count, tutte33,
    slot_signature, interpolation_demo,
)
from eightvertex.classify import classify, check_certificate

import oracles
from util import (
    ENTRY_POOL, NONZERO_POOL, random_ev, random_signature,
    random_affine_signature, random_grid,
)
from test_gadgets import run_closed_form_suite

DIPOLE = Graph([(0, 1)] * 4, {0: [0, 1, 2, 3], 1: [0, 1, 2, 3]})
K3 = Graph([(0, 1), (0, 2), (1, 2)], {0: [0, 1], 1: [0, 2], 2: [1, 2]})
K4 = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
           {0: [0, 1, 2], 1: [0, 4, 3], 2: [1, 3, 5], 3: [2, 5, 4]})


def test_01_sample_problem_verdicts():
    cases = [
        ("0,1,1,1,1,1,1,0", "hard"),        # Eulerian orientations
        ("0,1,1,2,2,1,1,0", "hard"),        # Tutte at (3,3) on the medial
        ("1,1,1,0,0,1,1,0", "tractable"),   # the worked tractable example
    ]
    for text, expected in cases:
        f = EightVertexSig.parse(text)
        start = time.monotonic()
        v = classify(f)
        elapsed = time.monotonic() - start
        assert v.kind == expected, text
        assert elapsed < 1.0, (text, elapsed)
        if expected == "tractable":
            assert check_certificate(f, v.certificate)


def test_02_eulerian_orientation_counts():
    start = time.monotonic()
    assert eo_count(DIPOLE) == 6
    k5_edges = oracles.complete_graph(5)
    assert eo_count(Graph(k5_edges)) == \
        oracles.count_eulerian_orientations(k5_edges) == 24
    assert time.monotonic() - start < 1.0


def test_03_tutte_33_against_deletion_contraction():
    start = time.monotonic()
    assert tutte33(K3) == 15
    assert tutte33(K4) == oracles.tutte_polynomial(K4.edges, 3, 3) == 156
    assert time.monotonic() - start < 10.0


def test_04_affine_fast_path_matches_brute_force():
    rng = random.Random(40404)
    checked = 0
    while checked < 50:
        pool = {f"s{k}": random_affine_signature(rng, rng.choice([1, 2, 2, 3]))
                for k in range(3)}
        grid = random_grid(rng, pool, rng.randint(3, 14))
        if len(grid.edges) > 16:
            continue
        assert affine_eval(grid) == brute_force(grid)
        checked += 1


def test_05_outer_product_invariance():
    rng = random.Random(50505)
    pairs = []
    while len(pairs) < 20:
        f = random_ev(rng)
        if f.a.is_zero() or f.x.is_zero():
            continue
        g = EightVertexSig(f.a * f.x, f.b, f.c, f.d, f.w, f.z, f.y,
                           scalar(1))
        pairs.append((f, g))
    for trial in range(20):
        holder = {"F": equality(4)}
        grid = random_grid(rng, holder, rng.randint(3, 7))
        f, g = pairs[trial]
        gf = Grid({"F": f}, grid.vertices, grid.edges)
        gg = Grid({"F": g}, grid.vertices, grid.edges)
        assert brute_force(gf) == brute_force(gg), (trial, str(f))


def test_06_gadget_identity_regression():
    run_closed_form_suite(seed=60606, rounds=10)


def test_07_mobius_suite():
    half = Cyclo8(1) / Cyclo8(2)
    m = Mobius(1, half, half, 1)
    assert m.projective_order() is None
    # eigenvalues 3/2 and 1/2 on the (1,1) / (1,-1) eigenvectors
    three_halves = Cyclo8(3) / Cyclo8(2)
    assert m.a + m.b == three_halves and m.c + m.d == three_halves
    assert m.a - m.b == half and m.d - m.c == half
    pts, distinct = m.orbit(ExtComplex(I), 32)
    assert distinct and len(pts) == 32
    assert all((not z.is_infinity) and unit_modulus(z.value) for z in pts)
    for mat, order in ((Mobius(0, 1, 1, 0), 2),
                       (Mobius(0, -1, 1, -1), 3),
                       (Mobius(1, -1, 1, 1), 4),
                       (Mobius(3, -3, 1, 0), 6)):
        assert mat.projective_order() == order
        assert mat.power(order).is_scalar()


def test_08_membership_oracle_equivalence():
    rng = random.Random(80808)
    for _ in range(500):
        f = random_signature(rng, rng.choice([1, 2, 3, 4]))
        assert (in_A(f) is not None) == oracles.oracle_in_A(f)
    for _ in range(200):
        f = random_signature(rng, rng.choice([1, 2, 3]))
        assert (in_P(f) is not None) == oracles.oracle_in_P(f)
    assert not in_L(disequality2())
    eq4 = equality(4)
    assert in_A(eq4) is not None
    assert in_P(eq4) is not None
    assert in_L(eq4)


def test_09_certificate_soundness_sweep():
    rng = random.Random(90909)
    for trial in range(1000):
        f = random_ev(rng)
        v = classify(f)
        assert v.kind in ("hard", "tractable", "vanishing"), str(f)
        if v.kind == "tractable":
            assert check_certificate(f, v.certificate), str(f)
        s = rng.choice(NONZERO_POOL)
        assert classify(f.scale(s)).kind == v.kind, str(f)
        for other in pair_orbit(f):
            assert classify(other).kind == v.kind, (str(f), str(other))


def test_10_interpolation_demo():
    grid = Grid(
        {"SLOT": slot_signature(0)},
        ["SLOT", "SLOT"],
        [((0, p), (1, p)) for p in range(1, 5)],
    )
    out = interpolation_demo(grid, 2, [0, 3, -1])
    assert out["slots"] == 2
    assert out["agrees"]
    for lam in ("0", "3", "-1"):
        assert out["values"][lam] == out["direct"][lam]
