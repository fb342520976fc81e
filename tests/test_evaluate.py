import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import ALPHA, I, Cyclo8, scalar
from eightvertex.signatures import Signature, EightVertexSig, equality
from eightvertex.classes import in_A
import eightvertex.evaluate as evaluate
from eightvertex.evaluate import (
    Grid, Graph, brute_force, affine_eval, eo_signature, eo_count,
    tutte_signature, medial_graph, tutte33, ising_energies, ising_signature,
    grid_from_graph, chain_block, slot_signature, interpolation_demo,
    TooManyEdges, DanglingPort, NotAffineSignature,
)

import oracles
from util import (
    nonzero_affine_grid, prism_grid, quadratic_signature,
    random_affine_signature, random_grid, random_ev,
)

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


# values with zeros (so pruning runs), Gaussian and zeta parts, and
# denominators that differ within and across vertices
MIXED_VALUES = tuple(scalar(v) for v in (
    0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3),
    Cyclo8(0, 0, Fraction(1, 5), 0), I, Cyclo8(1, 0, -1, 0),
    ALPHA, Cyclo8(0, Fraction(3, 7), 0, -1),
    Cyclo8(Fraction(1, 2), 0, 0, Fraction(1, 3)),
))


@st.composite
def small_grids(draw):
    """Closed grids of 1 to 12 edges: vertices of arity 1 to 6 whose ports
    are matched at random, so self-loops ((v, p), (v, q)) occur; a vertex
    may reuse the signature of an earlier vertex of its arity."""
    ports_left = 2 * draw(st.integers(1, 12))
    sigs, names, arities = {}, [], []
    while ports_left:
        n = draw(st.integers(1, min(6, ports_left)))
        ports_left -= n
        same = [name for name in sigs if sigs[name].arity == n]
        if same and draw(st.booleans()):
            names.append(draw(st.sampled_from(same)))
        else:
            names.append(f"s{len(sigs)}")
            sigs[names[-1]] = Signature(n, draw(st.lists(
                st.sampled_from(MIXED_VALUES),
                min_size=1 << n, max_size=1 << n)))
        arities.append(n)
    ports = [(v, p) for v, n in enumerate(arities) for p in range(1, n + 1)]
    ports = draw(st.permutations(ports))
    edges = [(ports[k], ports[k + 1]) for k in range(0, len(ports), 2)]
    return Grid(sigs, names, edges)


@given(small_grids())
@settings(max_examples=200, deadline=None)
def test_brute_force_matches_enumeration(grid):
    assert brute_force(grid) == oracles.holant_by_enumeration(grid)


def torus(rows: int, cols: int) -> Graph:
    """The rows x cols torus; each vertex lists its right edge and then
    its down edge, so ports follow incidence order."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((r * cols + c, r * cols + (c + 1) % cols))
            edges.append((r * cols + c, ((r + 1) % rows) * cols + c))
    return Graph(edges)


# values past the default 28-edge limit, from the depth-first sum that
# brute_force used before the frontier sum
@pytest.mark.parametrize("rows, cols, sig, value", [
    (3, 5, "0,1,1,1,1,1,1,0", "2116"),
    (4, 4, "0,1,1,1,1,1,1,0", "2970"),
    (4, 5, "0,1,1,1,1,1,1,0", "16892"),
    (5, 5, "0,1,1,1,1,1,1,0", "143224"),
    (4, 4, "1,2,1,-1,1,i,2,3", "-393252+205136i"),
])
def test_brute_force_large_tori(rows, cols, sig, value):
    f = EightVertexSig.parse(sig).to_signature()
    grid = grid_from_graph(torus(rows, cols), f, "f")
    assert len(grid.edges) > 28
    with pytest.raises(TooManyEdges):
        brute_force(grid)
    assert str(brute_force(grid, max_edges=50)) == value


def test_eulerian_orientations_per_vertex_fall_toward_lieb():
    """The n-th root of the number of Eulerian orientations of an n-vertex
    square torus falls toward Lieb's square-ice constant (4/3)^(3/2)."""
    roots = [brute_force(grid_from_graph(torus(k, k), eo_signature(), "eo"),
                         max_edges=50).coeffs[0] ** (1 / k ** 2)
             for k in (3, 4, 5)]
    assert roots[0] > roots[1] > roots[2] > (4 / 3) ** 1.5


def test_brute_force_matches_affine_eval_past_28_edges():
    nonzero = 0
    for rungs in (10, 13, 16, 20):
        for seed in range(3):
            rng = random.Random(100 * rungs + seed)
            pool = {"q0": quadratic_signature(rng, 3),
                    "q1": quadratic_signature(rng, 3),
                    "r": random_affine_signature(rng, 3)}
            grid = prism_grid(rng, rungs, pool)
            value = affine_eval(grid)
            assert brute_force(grid, max_edges=60) == value
            nonzero += not value.is_zero()
    assert nonzero >= 2


def test_brute_force_deep_ring():
    # 1500 binary equalities in a ring: pruning leaves one live partial
    # index per open vertex, and the two consistent orientations alternate
    # around the (even) ring
    n = 1500
    grid = Grid({"eq": equality(2)}, ["eq"] * n,
                [((v, 2), ((v + 1) % n, 1)) for v in range(n)])
    assert brute_force(grid, max_edges=n) == 2


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


def test_validate_returns_port_map():
    # a self-loop on vertex 0 and one edge to vertex 1
    f = equality(3)
    grid = Grid({"f": f, "u": Signature(1, [1, 1])}, ["f", "u"],
                [((0, 3), (0, 1)), ((1, 1), (0, 2))])
    assert grid.validate() == {(0, 3): (0, 0), (0, 1): (0, 1),
                               (1, 1): (1, 0), (0, 2): (1, 1)}


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
    assert grid.signatures["B"].values[3] == I
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


def test_affine_eval_tests_each_signature_name_once(monkeypatch):
    calls = []

    def counting_in_A(f):
        calls.append(f)
        return in_A(f)

    monkeypatch.setattr(evaluate, "in_A", counting_in_A)
    rng = random.Random(404)
    pool = {f"s{k}": random_affine_signature(rng, ar)
            for k, ar in enumerate((1, 2, 3))}
    grid = random_grid(rng, pool, 12)
    assert len(grid.vertices) > len(set(grid.vertices))
    value = affine_eval(grid)
    assert len(calls) == len(set(grid.vertices))
    assert value == brute_force(grid)


def test_affine_eval_names_first_non_affine_vertex():
    # a ring of six binary vertices; "bad" first appears at vertex 3
    names = ["a", "a", "a", "bad", "a", "bad"]
    edges = [((v, 2), ((v + 1) % 6, 1)) for v in range(6)]
    grid = Grid({"a": equality(2), "bad": Signature(2, [1, 1, 1, 2])},
                names, edges)
    with pytest.raises(NotAffineSignature,
                       match=r"^vertex 3 signature is not in class A$"):
        affine_eval(grid)


RING_SIZES = list(range(1, 17)) + [63, 64, 65, 200, 301]


@pytest.mark.parametrize("n", RING_SIZES)
def test_affine_eval_rings(n):
    """Rings of n binary vertices, port 2 of each joined to port 1 of the
    next, long enough for the variable masks to span several machine
    words.  [1,0,0,i] forces alternating edges, so only its affine-space
    constraints act; [1,1,1,-1] has full support and is summed out."""
    edges = [((v, 2), ((v + 1) % n, 1)) for v in range(n)]
    one, i = Cyclo8(1), I
    cases = (
        (Signature(2, [1, 0, 0, scalar(i)]),
         scalar(0) if n % 2 else scalar(2 * i ** (n // 2))),
        (Signature(2, [1, 1, 1, -1]),
         scalar((one + i) ** n + (one - i) ** n)),
    )
    for f, want in cases:
        grid = Grid({"f": f}, ["f"] * n, edges)
        assert affine_eval(grid) == want
        if n <= 16:
            assert brute_force(grid) == want


@pytest.mark.parametrize("n, want", [(4000, 2), (4001, 0)])
def test_affine_eval_long_equality_ring(n, want):
    """Rings of binary equalities, numbered so that the last vertex's row
    reduces through every other row: the parity rows decide the value
    (2 on an even ring, an inconsistent system on an odd one)."""
    edges = [((v, 2), ((v + 1) % n, 1)) for v in range(n)]
    grid = Grid({"f": Signature(2, [1, 0, 0, 1])}, ["f"] * n, edges)
    assert affine_eval(grid) == scalar(want)


@pytest.mark.parametrize("seed", range(12))
def test_affine_eval_nonzero_grids(seed):
    """Grids in which every vertex has its own full-support class-A
    signature and the value is nonzero by construction, so the
    elimination runs to the end."""
    rng = random.Random(seed)
    grid = nonzero_affine_grid(rng, rng.randint(3, 14))
    assert len(grid.edges) <= 16
    value = affine_eval(grid)
    assert not value.is_zero()
    assert value == brute_force(grid)


@pytest.mark.parametrize("k, offset", [(4, 0b0101), (6, 0b010011),
                                       (6, 0b000000), (5, 0b10110)])
def test_affine_eval_reduced_rows_then_quadratic_form(k, offset):
    """Two arity-k vertices supported on {offset, its complement} joined
    by k paths, each through a binary full-support class-A vertex.  The
    edges of port 1 of both ends are numbered last, so all k - 1 parity
    rows of each end share that top bit and k - 2 of them are reduced
    before they are stored (rhs bits included, from the odd offsets);
    what is left is a nontrivial quadratic form on the paths."""
    rng = random.Random(k * 1000 + offset)
    full = (1 << k) - 1
    ends = Signature(k, [1 if m in (offset, offset ^ full) else 0
                         for m in range(1 << k)])
    sigs = {"A": ends, "B": ends, "h": Signature(2, [1, 1, 1, -1])}
    names = ["A", "B"]
    edges = []
    for p in range(k, 0, -1):
        names.append("h" if p % 2 else f"q{p}")
        if p % 2 == 0:
            sigs[f"q{p}"] = quadratic_signature(rng, 2)
        v = len(names) - 1
        edges.append(((v, 2), (1, p)))
        edges.append(((0, p), (v, 1)))
    grid = Grid(sigs, names, edges)
    assert affine_eval(grid) == brute_force(grid)


def _eight_vertex_affine(rng) -> Signature:
    """A class-A member with support in the even-weight points: a random
    class-A signature of arity 4 times the even-parity indicator."""
    g = random_affine_signature(rng, 4)
    return Signature(4, [v if m.bit_count() % 2 == 0 else 0
                         for m, v in enumerate(g.values)])


ALL_ONES_8V = EightVertexSig.parse("1,1,1,1,1,1,1,1").to_signature()


@st.composite
def affine_grids(draw):
    """Closed grids of 1 to 14 edges over class-A signatures of arity 1
    to 4, eight-vertex ones among them: a vertex may reuse the signature
    of an earlier vertex of its arity, and ports are matched at random,
    so self-loops occur."""
    rng = random.Random(draw(rng_seed))
    ports_left = 2 * draw(st.integers(1, 14))
    sigs, names, arities = {}, [], []
    while ports_left:
        n = draw(st.integers(1, min(4, ports_left)))
        ports_left -= n
        same = [name for name in sigs if sigs[name].arity == n]
        if same and draw(st.booleans()):
            names.append(draw(st.sampled_from(same)))
            arities.append(n)
            continue
        name = f"s{len(sigs)}"
        if n == 4:
            sigs[name] = draw(st.sampled_from(
                (ALL_ONES_8V, _eight_vertex_affine(rng),
                 random_affine_signature(rng, 4))))
        else:
            sigs[name] = random_affine_signature(rng, n)
        names.append(name)
        arities.append(n)
    ports = [(v, p) for v, n in enumerate(arities) for p in range(1, n + 1)]
    ports = draw(st.permutations(ports))
    edges = [(ports[k], ports[k + 1]) for k in range(0, len(ports), 2)]
    return Grid(sigs, names, edges)


@given(affine_grids())
@settings(max_examples=150, deadline=None)
def test_affine_eval_arity_4_matches_oracles(grid):
    value = affine_eval(grid)
    assert value == brute_force(grid)
    # the plain enumeration takes about a second at 14 edges
    if len(grid.edges) <= 10:
        assert value == oracles.holant_by_enumeration(grid)


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


@pytest.mark.parametrize("graph", [
    Graph([(0, 1), (2, 3)]),
    Graph([(0, 1), (0, 2), (1, 2), (3, 4)]),
    Graph([(0, 1), (0, 1), (2, 3), (2, 3)]),
    Graph(K3.edges, {**K3.rotations, 3: []}),
], ids=["two-edges", "k3-and-edge", "two-double-edges", "edgeless-rot"])
def test_tutte33_counts_components(graph):
    # the medial Holant is 2^c T(G; 3, 3) over the c components with an edge
    assert tutte33(graph) == oracles.tutte_polynomial(graph.edges, 3, 3)


@pytest.mark.parametrize("v", range(4))
def test_tutte33_rejects_non_plane_rotations(v):
    # reversing the rotation at one vertex of the plane K4 leaves 2 faces,
    # so V - E + F = 0: an embedding on the torus
    rot = dict(K4_ROT)
    rot[v] = rot[v][::-1]
    with pytest.raises(ValueError, match="not a plane embedding"):
        tutte33(Graph(K4.edges, rot))


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
    assert list(ev.entries()) == [
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
