import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import ALPHA, Cyclo8, scalar
from eightvertex.signatures import Signature, EightVertexSig, equality
from eightvertex.evaluate import (
    Grid, Graph, brute_force, affine_eval, eo_signature, eo_count,
    tutte_signature, medial_graph, tutte33, ising_energies, ising_signature,
    grid_from_graph, chain_block, slot_signature, interpolation_demo,
    TooManyEdges, DanglingPort, NotAffineSignature,
)

import oracles
from util import random_affine_signature, random_grid, random_ev

rng_seed = st.integers(min_value=0, max_value=10 ** 9)

DIPOLE = Graph([(0, 1)] * 4, {0: [0, 1, 2, 3], 1: [0, 1, 2, 3]})
K4_ROT = {0: [0, 1, 2], 1: [0, 4, 3], 2: [1, 3, 5], 3: [2, 5, 4]}
K4 = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], K4_ROT)
K3 = Graph([(0, 1), (0, 2), (1, 2)],
           {0: [0, 1], 1: [0, 2], 2: [1, 2]})


def two_vertex_grid(f: Signature, g: Signature) -> Grid:
    n = f.arity
    assert g.arity == n
    edges = [((0, p), (1, p)) for p in range(1, n + 1)]
    return Grid({"f": f, "g": g}, ["f", "g"], edges)


def test_brute_force_tiny():
    # two equality-2 vertices tied by two disequality edges: both edges
    # must leave the same vertex, two ways
    val = brute_force(two_vertex_grid(equality(2), equality(2)))
    assert val == scalar(2)
    # equality against disequality is inconsistent
    from eightvertex.signatures import disequality2
    val = brute_force(two_vertex_grid(equality(2), disequality2()))
    assert val.is_zero()


def test_brute_force_matches_direct_sum():
    rng = random.Random(99)
    f = random_ev(rng).to_signature()
    g = random_ev(rng).to_signature()
    grid = two_vertex_grid(f, g)
    total = scalar(0)
    for m in range(16):
        total = total + f.values[m] * g.values[m ^ 0b1111]
    assert brute_force(grid) == total


def test_brute_force_edge_limit():
    grid = two_vertex_grid(equality(2), equality(2))
    with pytest.raises(TooManyEdges):
        brute_force(grid, max_edges=1)


def test_validate_rejects_dangling():
    f = equality(2)
    grid = Grid({"f": f}, ["f", "f"], [((0, 1), (1, 1))])
    with pytest.raises(DanglingPort):
        grid.validate()
    grid = Grid({"f": f}, ["f", "f"],
                [((0, 1), (1, 1)), ((0, 2), (1, 2)), ((0, 1), (1, 2))])
    with pytest.raises(DanglingPort):
        grid.validate()


def test_grid_from_json():
    text = json.dumps({
        "signatures": {
            "F": {"eightvertex": "0,1,1,1,1,1,1,0"},
            "B": {"arity": 2, "values": ["1", "0", "0", "i"]},
        },
        "vertices": [{"sig": "F"}],
        "edges": [[[0, 1], [0, 2]], [[0, 3], [0, 4]]],
    })
    grid = Grid.from_json(text)
    assert grid.vertex_sig(0).arity == 4
    assert grid.signatures["B"].values[3] == scalar(Cyclo8.i())
    brute_force(grid)


@given(rng_seed)
@settings(max_examples=25, deadline=None)
def test_affine_eval_matches_brute_force(seed):
    rng = random.Random(seed)
    pool = {}
    for k in range(3):
        ar = rng.choice([1, 2, 2, 3])
        pool[f"s{k}"] = random_affine_signature(rng, ar)
    grid = random_grid(rng, pool, rng.randint(3, 8))
    assert affine_eval(grid) == brute_force(grid)


def test_affine_eval_rejects_non_affine():
    f = Signature(2, [1, 1, 1, 2])
    grid = two_vertex_grid(f, f)
    with pytest.raises(NotAffineSignature):
        affine_eval(grid)


def test_eo_counts():
    assert eo_count(DIPOLE) == 6
    k5 = Graph(oracles.complete_graph(5))
    assert eo_count(k5) == 24
    assert eo_count(k5) == oracles.count_eulerian_orientations(
        oracles.complete_graph(5))


def test_eo_rejects_wrong_degree():
    with pytest.raises(ValueError):
        eo_count(K3)


def test_tutte33_values():
    assert tutte33(K3) == 15
    assert oracles.tutte_polynomial(K3.edges, 3, 3) == 15
    assert tutte33(K4) == 156
    assert tutte33(K4) == oracles.tutte_polynomial(K4.edges, 3, 3)


def test_medial_graph_shape():
    med = medial_graph(K3)
    assert len(med.vertices) == 3
    assert len(med.edges) == 6
    med.validate()


def test_ising_exact_point():
    ev = ising_signature(0, 2, -1, -1, 0)
    assert [str(v) for v in ev.entries()] == [
        "1", "1", "1", "1", "-1", "-1", "1", "1"]


def test_ising_approx_mode():
    # the energies behind both the exact weights and the float weights
    # of ising --approx
    e = ising_energies(Fraction(1, 2), 0, 0, 0, 0)
    assert [e[k] for k in "abcdwzyx"] == [
        0, 0, Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2),
        Fraction(1, 2), 0, 0]
    params = (3, 1, 2, 0, 1)
    ev = ising_signature(*params)
    e = ising_energies(*params)
    assert [v.cyclo for v in ev.entries()] == [
        ALPHA ** (-int(e[k]) % 8) for k in "abcdwzyx"]


def test_ising_inexact_coupling_rejected():
    with pytest.raises(Exception):
        ising_signature(Fraction(1, 2), 0, 0, 0, 0)


def test_chain_block_and_slot_diagonal():
    from eightvertex.gadgets import eigen_report
    _, eig = chain_block(2), None
    p, eig = eigen_report(chain_block(2))
    assert [str(v) for v in eig] == ["3", "3", "-1", "-1"]
    _, eig = eigen_report(slot_signature(3))
    assert [str(v) for v in eig] == ["2", "2", "6", "6"]


def test_interpolation_demo_two_slots():
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


def test_grid_from_graph_ports():
    grid = grid_from_graph(DIPOLE, eo_signature(), "eo")
    grid.validate()
    assert len(grid.edges) == 4
