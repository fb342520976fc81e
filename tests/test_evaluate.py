import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import ALPHA, I, Cyclo8, parse_cyclo8, scalar
from eightvertex.signatures import Signature, EightVertexSig, equality
from eightvertex.classes import in_A
import eightvertex.classes as classes
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
    f = random_ev(rng)
    g = random_ev(rng)
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


# all four zeta coefficients of magnitude 10^6 and more, of either sign,
# over denominators that differ within and across values
WIDE_COEFFS = st.builds(
    Fraction,
    st.one_of(st.integers(10 ** 6, 10 ** 15),
              st.integers(-10 ** 15, -10 ** 6)),
    st.sampled_from((1, 2, 3, 7, 16, 10 ** 6 + 3)))
WIDE_VALUES = st.builds(Cyclo8, WIDE_COEFFS, WIDE_COEFFS, WIDE_COEFFS,
                        WIDE_COEFFS)


@given(small_grids(), st.data())
@settings(max_examples=60, deadline=None)
def test_brute_force_matches_enumeration_on_wide_values(grid, data):
    """The shape of a small grid with wide values drawn afresh.  Sometimes
    one name carried by an odd number of vertices is made odd under
    complementing its index, f(~m) = -f(m), and every other name even;
    then the sum cancels to 0, since reversing every edge complements
    every index and pairs each term with its negative."""
    counts = Counter(grid.vertices)
    odd = data.draw(st.sampled_from(
        [None] + sorted(name for name, c in counts.items() if c % 2)))
    sigs = {}
    for name, f in grid.signatures.items():
        n = f.arity
        if odd is None:
            sigs[name] = Signature(n, data.draw(st.lists(
                WIDE_VALUES, min_size=1 << n, max_size=1 << n)))
            continue
        low = data.draw(st.lists(WIDE_VALUES, min_size=1 << (n - 1),
                                 max_size=1 << (n - 1)))
        sign = -1 if name == odd else 1
        full = (1 << n) - 1
        sigs[name] = Signature(n, low + [sign * low[full ^ m]
                                         for m in range(1 << (n - 1), 1 << n)])
    wide = Grid(sigs, grid.vertices, grid.edges)
    value = brute_force(wide)
    assert value == oracles.holant_by_enumeration(wide)
    if odd is not None:
        assert value.is_zero()


@given(small_grids(), st.data())
@settings(max_examples=100, deadline=None)
def test_brute_force_ignores_numbering(grid, data):
    """Renumbering the vertices changes the placement order; shuffling the
    edge list and swapping the ends of edges changes the order and the
    side from which edges are assigned.  None of it changes the sum."""
    nv = len(grid.vertices)
    new = data.draw(st.permutations(range(nv)))     # old vertex -> new
    vertices = [None] * nv
    for v, name in enumerate(grid.vertices):
        vertices[new[v]] = name
    edges = data.draw(st.permutations(
        [((new[v], p), (new[w], q)) for (v, p), (w, q) in grid.edges]))
    swaps = data.draw(st.lists(st.booleans(), min_size=len(edges),
                               max_size=len(edges)))
    edges = [(y, x) if swap else (x, y)
             for (x, y), swap in zip(edges, swaps)]
    moved = Grid(grid.signatures, vertices, edges)
    assert brute_force(moved) == oracles.holant_by_enumeration(grid)


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
    f = EightVertexSig.parse(sig)
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
    with pytest.raises(DanglingPort):
        Grid({"f": f}, ["f", "f"], [((0, 1), (1, 1))])
    with pytest.raises(DanglingPort):
        Grid({"f": f}, ["f", "f"],
             [((0, 1), (1, 1)), ((0, 2), (1, 2)), ((0, 1), (1, 2))])


def test_validate_returns_port_map():
    # a self-loop on vertex 0 and one edge to vertex 1
    f = equality(3)
    grid = Grid({"f": f, "u": Signature(1, [1, 1])}, ["f", "u"],
                [((0, 3), (0, 1)), ((1, 1), (0, 2))])
    base, slot = grid.validate()
    assert base == [0, 3]
    assert slot == [1, 3, 0, 2]
    assert grid.base == (0, 3)
    assert grid.slot == tuple(slot)
    # (edge, end) of each port
    ends = {(v, p): divmod(slot[base[v] + p - 1], 2)
            for v, p in ((0, 3), (0, 1), (1, 1), (0, 2))}
    assert ends == {(0, 3): (0, 0), (0, 1): (0, 1),
                    (1, 1): (1, 0), (0, 2): (1, 1)}


VALIDATE_MESSAGES = [
    ([((0, 1), (2, 1)), ((0, 2), (1, 1))], "vertex 2 out of range"),
    ([((0, 1), (-1, 1))], "vertex -1 out of range"),
    ([((0, 1), (1, 3)), ((0, 2), (1, 2))], "port 3 out of range on vertex 1"),
    ([((0, 0), (1, 1)), ((0, 2), (1, 2))], "port 0 out of range on vertex 0"),
    ([((0, 1), (1, 1)), ((0, 1), (1, 2))], "port 1 of vertex 0 used twice"),
    ([((0, 1), (1, 1))], "port 2 of vertex 0 unused"),
    ([((0, 1), (0, 2))], "port 1 of vertex 1 unused"),
    # with two faults, the first one met in edge order is reported:
    # a port used twice in edge 1 comes before vertex 5 at its other end
    ([((0, 1), (1, 1)), ((0, 1), (5, 1))], "port 1 of vertex 0 used twice"),
    # the first end of edge 0 is checked before anything in edge 1
    ([((0, 3), (1, 1)), ((7, 1), (1, 2))], "port 3 out of range on vertex 0"),
    # the first end of an edge before its second end
    ([((9, 1), (1, 9))], "vertex 9 out of range"),
    ([((0, 1), (1, 1)), ((1, 1), (0, 1))], "port 1 of vertex 1 used twice"),
    # any fault in the edges before an unused port
    ([((0, 1), (1, 4))], "port 4 out of range on vertex 1"),
    # unused ports are reported in vertex order, then port order
    ([((1, 2), (1, 1))], "port 1 of vertex 0 unused"),
    ([], "port 1 of vertex 0 unused"),
]


@pytest.mark.parametrize("edges, message", VALIDATE_MESSAGES)
def test_validate_messages(edges, message):
    with pytest.raises(DanglingPort) as info:
        Grid({"f": equality(2)}, ["f", "f"], edges)
    assert str(info.value) == message


@pytest.mark.parametrize("edges, message", VALIDATE_MESSAGES)
def test_every_way_of_building_a_grid_checks_its_ports(edges, message):
    """from_json, _make and _replace raise the same first fault as the
    constructor: a grid is checked whenever it is built."""
    good = Grid({"f": equality(2)}, ["f", "f"],
                [((0, 1), (1, 1)), ((0, 2), (1, 2))])
    text = json.dumps({"signatures": {"f": {"arity": 2,
                                            "values": [1, 0, 0, 1]}},
                       "vertices": [{"sig": "f"}] * 2,
                       "edges": [[list(a), list(b)] for a, b in edges]})
    for build in (lambda: Grid.from_json(text),
                  lambda: Grid._make((good.signatures, good.vertices, edges)),
                  lambda: good._replace(edges=edges)):
        with pytest.raises(DanglingPort) as info:
            build()
        assert str(info.value) == message


def test_grid_is_read_only_and_rebuilds_its_offsets():
    sigs = {"f": equality(3), "u": Signature(1, [1, 1])}
    edges = [((0, 3), (0, 1)), ((1, 1), (0, 2))]
    grid = Grid(sigs, ["f", "u"], edges)
    with pytest.raises(TypeError):
        grid.signatures["f"] = equality(1)
    with pytest.raises(AttributeError):
        grid.edges = []
    # the grid holds copies of what it was built from
    sigs["f"] = equality(1)
    edges.pop()
    assert grid.signatures["f"] == equality(3)
    assert len(grid.edges) == 2
    assert isinstance(grid.vertices, tuple) and isinstance(grid.edges, tuple)
    # base and slot are derived: _replace and _make rebuild them from the
    # other fields
    swapped = grid._replace(vertices=["u", "f"],
                            edges=[((1, 3), (1, 1)), ((0, 1), (1, 2))])
    assert swapped.base == (0, 1)
    assert swapped.slot == tuple(swapped.validate()[1]) == (2, 1, 3, 0)
    assert grid._replace(slot=(), base=()) == grid
    assert Grid._make(grid) == grid


def test_every_way_of_building_a_grid_stores_its_port_table(monkeypatch):
    """Every way of building a grid keeps, as a tuple, the table that
    validate() builds from its first three fields."""
    def stored(grid):
        assert isinstance(grid.slot, tuple)
        assert grid.slot == tuple(grid.validate()[1])
        return grid

    sigs = {"f": equality(3), "u": Signature(1, [1, 1])}
    grid = stored(Grid(sigs, ["f", "u"],
                       [((0, 3), (0, 1)), ((1, 1), (0, 2))]))
    text = json.dumps({"signatures": {"f": {"arity": 3,
                                            "values": [1] + [0] * 6 + [1]},
                                      "u": {"arity": 1, "values": [1, 1]}},
                       "vertices": [{"sig": "u"}, {"sig": "f"}],
                       "edges": [[[1, 2], [0, 1]], [[1, 1], [1, 3]]]})
    assert stored(Grid.from_json(text)).slot == (1, 2, 0, 3)
    stored(Grid._make((sigs, ["u", "f"], [((1, 2), (0, 1)),
                                          ((1, 1), (1, 3))])))
    stored(grid._replace(vertices=["u", "f"],
                         edges=[((1, 3), (1, 1)), ((0, 1), (1, 2))]))
    stored(grid_from_graph(DIPOLE, eo_signature(), "eo"))
    stored(medial_graph(K3))

    # interpolation_demo's with_slot grids, as brute_force receives them
    seen = []
    real = evaluate.brute_force

    def spy(g, *args):
        seen.append(stored(g))
        return real(g, *args)

    monkeypatch.setattr(evaluate, "brute_force", spy)
    demo = Grid({"SLOT": slot_signature(0), "e": equality(2)},
                ["SLOT", "e", "SLOT"],
                [((0, 1), (1, 1)), ((1, 2), (2, 1))]
                + [((0, p), (2, p)) for p in range(2, 5)])
    assert interpolation_demo(demo, 2, [3])["agrees"]
    assert len(seen) == 4
    assert all(g.edges == demo.edges and g.slot == demo.slot for g in seen)


def test_validate_port_table_on_random_grids():
    """On random closed grids, loops included, the table holds 2e + end
    at every endpoint of every edge e, and base[v] is the number of
    ports of the vertices before v."""
    rng = random.Random(1515)
    pool = {f"s{n}": equality(n) for n in (1, 2, 3, 4)}
    loops = 0
    for _ in range(200):
        grid = random_grid(rng, pool, rng.randint(1, 12))
        base, slot = grid.validate()
        arity = [pool[name].arity for name in grid.vertices]
        assert base == [sum(arity[:v]) for v in range(len(arity))]
        assert grid.base == tuple(base)
        assert grid.slot == tuple(slot)
        assert sorted(slot) == list(range(2 * len(grid.edges)))
        for e, ends in enumerate(grid.edges):
            for end, (v, p) in enumerate(ends):
                assert slot[base[v] + p - 1] == 2 * e + end
        loops += sum(v == w for (v, _), (w, _) in grid.edges)
    assert loops > 20


def test_validate_matches_a_port_dict_scan():
    """The table's faults and messages equal those of a scan that keys
    a dict by (vertex, port), on random malformed and valid grids; on a
    valid one, validate's table and the grid's stored slot match the
    scan."""
    def dict_scan(signatures, vertices, edges):
        arity = [signatures[name].arity for name in vertices]
        ends = {}
        for e, ((v, p), (w, q)) in enumerate(edges):
            for end, (u, r) in enumerate(((v, p), (w, q))):
                if not 0 <= u < len(arity):
                    raise DanglingPort(f"vertex {u} out of range")
                if not 1 <= r <= arity[u]:
                    raise DanglingPort(f"port {r} out of range on vertex {u}")
                if (u, r) in ends:
                    raise DanglingPort(f"port {r} of vertex {u} used twice")
                ends[(u, r)] = (e, end)
        for v in range(len(arity)):
            for r in range(1, arity[v] + 1):
                if (v, r) not in ends:
                    raise DanglingPort(f"port {r} of vertex {v} unused")
        return ends

    def outcome(check):
        try:
            return check()
        except DanglingPort as exc:
            return str(exc)

    rng = random.Random(2020)
    pool = {f"s{n}": equality(n) for n in (1, 2, 3)}
    faults = 0
    kinds = set()               # the messages with their numbers blanked
    for _ in range(4000):
        grid = random_grid(rng, pool, rng.randint(1, 6))
        edges = list(grid.edges)
        for _ in range(rng.randint(0, 2)):
            if not edges:
                break
            k = rng.randrange(len(edges))
            pick = rng.randrange(3)
            if pick == 0:
                del edges[k]
            elif pick == 1:
                edges.insert(k, edges[rng.randrange(len(edges))])
            else:
                (v, p), end = edges[k]
                edges[k] = ((v + rng.randint(-2, 2), p + rng.randint(-2, 2)),
                            end)
        want = outcome(lambda: dict_scan(grid.signatures, grid.vertices,
                                         edges))
        got = outcome(lambda: Grid(grid.signatures, grid.vertices, edges))
        if isinstance(want, str):
            faults += 1
            kinds.add(re.sub(r"-?[0-9]+", "N", want))
            assert got == want
        else:
            base, slot = got.validate()
            assert got.slot == tuple(slot)
            assert {(v, p): divmod(slot[base[v] + p - 1], 2)
                    for v in range(len(base))
                    for p in range(1, pool[grid.vertices[v]].arity + 1)
                    } == want
    assert len(kinds) == 4
    assert 1600 < faults < 3600


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
    assert grid.signatures[grid.vertices[0]].arity == 4
    assert grid.signatures["B"].values[3] == I
    brute_force(grid)


def _one_vertex_grid(sigs: dict) -> str:
    """A grid file of the arity-2 signatures sigs (name -> values), the
    first on one vertex with its two ports joined."""
    return json.dumps({
        "signatures": {name: {"arity": 2, "values": values}
                       for name, values in sigs.items()},
        "vertices": [{"sig": next(iter(sigs))}],
        "edges": [[[0, 1], [0, 2]]],
    })


@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "float-one"])
def test_grid_from_json_refuses_values_equal_to_a_parsed_one(bad):
    # true == 1 == 1.0 and all three hash alike, but only 1 and "1" are
    # values: a file that already holds both still refuses the other two
    text = _one_vertex_grid({"B": [1, "1", 0, 0], "C": [1, bad, 0, "1"]})
    with pytest.raises(ValueError) as e:
        Grid.from_json(text)
    assert str(e.value) == ("bad grid: a value is an int or a scalar "
                            f"string, got {json.dumps(bad)}")


def test_grid_from_json_repeated_values_parse_as_each_alone():
    # strings repeated within and across signatures, next to ints equal
    # to some of their values: each value as parse_cyclo8 or Cyclo8 gives
    strings = ["i", "-1/2", "1,0,-1,0"]
    sigs = {f"s{k}": [strings[k % 3], -1, strings[(k + 1) % 3], k]
            for k in range(6)}
    grid = Grid.from_json(_one_vertex_grid(sigs))
    for name, values in sigs.items():
        assert list(grid.signatures[name].values) == [
            parse_cyclo8(v) if isinstance(v, str) else Cyclo8(v)
            for v in values]


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


# lam values that are not roots of unity: 1/2 has denominator 2, and the
# inverses of 3i and 1 - i have denominators 3 and 2
SHARED_LAMS = (scalar(Fraction(1, 2)), 3 * I, 1 - I)


def _no_power(self, n):
    raise AssertionError("a power was formed")


def test_affine_eval_groups_shared_lams(monkeypatch):
    """Grids in which nine signature names share three lam values.  The
    product of the lams, one power per distinct value, gives the value
    brute_force gives, and on the grids whose value is 0 it is never
    formed: there Cyclo8.__pow__ raises."""
    power = Cyclo8.__pow__
    bases = []

    def counted_power(self, n):
        bases.append(self)
        return power(self, n)

    rng = random.Random(3131)
    seen = Counter()
    for _ in range(30):
        pool = {}
        for k in range(9):
            n = rng.choice((1, 2, 2, 3))
            f = (quadratic_signature(rng, n) if k % 2
                 else random_affine_signature(rng, n))
            f = f.scale(SHARED_LAMS[k % 3] / in_A(f).lam)
            pool[f"s{k}"] = f
        grid = random_grid(rng, pool, rng.randint(5, 12))
        lams = [in_A(pool[name]).lam for name in set(grid.vertices)]
        assert set(lams) <= set(SHARED_LAMS)
        want = brute_force(grid)
        if want.is_zero():
            with monkeypatch.context() as patch:
                patch.setattr(Cyclo8, "__pow__", _no_power)
                assert affine_eval(grid).is_zero()
        else:
            bases.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Cyclo8, "__pow__", counted_power)
                assert affine_eval(grid) == want
            assert sorted(map(str, bases)) == sorted(map(str, set(lams)))
        seen[want.is_zero(), len(set(lams)) < len(lams)] += 1
    assert seen[False, True] >= 5 and seen[True, True] >= 5


@pytest.mark.parametrize("edges, values", [
    # an odd ring of equalities: the parity rows are inconsistent
    ([((0, 2), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (0, 1))],
     ([1, 0, 0, 1], [1, 0, 0, 1], [1, 0, 0, 1])),
    # no parity row: summing out the edge gives 1 + i^2 = 0
    ([((0, 1), (1, 1))], ([1, -1], [1, 1])),
])
def test_affine_eval_zero_grid_forms_no_lam_power(monkeypatch, edges,
                                                   values):
    sigs = {f"s{v}": Signature(len(vals).bit_length() - 1, vals).scale(lam)
            for v, (vals, lam) in enumerate(zip(values, SHARED_LAMS))}
    grid = Grid(sigs, list(sigs), edges)
    assert brute_force(grid).is_zero()
    monkeypatch.setattr(Cyclo8, "__pow__", _no_power)
    assert affine_eval(grid) == 0


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


ALL_ONES_8V = EightVertexSig.parse("1,1,1,1,1,1,1,1")


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
    # the energies behind the exact weights: entry k of ising_signature
    # is alpha^(-energy[k])
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


def test_class_A_memos_stay_bounded():
    """More distinct arity-5 and arity-6 shapes than the shape memo holds:
    the shape and hull memos stay within their maxsize, and every answer,
    the parity rows affine_eval reads included, equals a cold
    recomputation."""
    memos = (classes._A_shape, classes._hull)
    for memo in memos:
        memo.cache_clear()
    rng = random.Random(1718)
    size = classes._A_shape.cache_info().maxsize
    corpus = [random_affine_signature(rng, rng.choice((5, 6)))
              for _ in range(size + 300)]

    def answer(f):
        cert = in_A(f)
        shape = cert.shape
        return (cert.lam, shape.space, sorted(shape.lin.items()),
                sorted(shape.quad.items()), shape.table, shape.space.parity)

    warm = [answer(f) for f in corpus]
    # in_A met more shapes than fit
    info = classes._A_shape.cache_info()
    assert info.misses > info.maxsize
    for memo in memos:
        info = memo.cache_info()
        assert info.currsize <= info.maxsize
    for f, want in zip(corpus, warm):
        for memo in memos:
            memo.cache_clear()
        assert answer(f) == want


def test_affine_eval_names_sharing_a_shape():
    """Seeded grids of at most 16 edges in which many names share a
    class-A shape under different lams, some over a denominator other than
    1, and two names are bound to one Signature object: affine_eval gives
    brute_force's value, names that share a shape share one record
    object, and affine_eval reads those records and builds no new one
    (each of its in_A calls hits the shape memo)."""
    lams = SHARED_LAMS + (Cyclo8(1), -I, scalar(Fraction(-2, 3)))
    rng = random.Random(1719)
    seen = Counter()
    while seen["grids"] < 40:
        bases = [random_affine_signature(rng, rng.choice((1, 2, 3))),
                 quadratic_signature(rng, rng.choice((2, 3)))]
        pool = {f"s{k}": bases[k % 2].scale(rng.choice(lams)
                                            / in_A(bases[k % 2]).lam)
                for k in range(8)}
        pool["twin"] = pool["s0"]
        grid = random_grid(rng, pool, rng.randint(5, 12))
        if len(grid.edges) > 16:
            continue
        names = set(grid.vertices)
        records = [in_A(pool[name]).shape for name in names]
        tables = {rec.table for rec in records}
        assert len({id(rec) for rec in records}) == len(tables)
        lam_of = {name: in_A(pool[name]).lam for name in names}
        before = classes._A_shape.cache_info()
        value = affine_eval(grid)
        assert value == brute_force(grid)
        info = classes._A_shape.cache_info()
        assert (info.misses, info.hits) == (before.misses,
                                            before.hits + len(names))
        seen["grids"] += 1
        seen["nonzero"] += not value.is_zero()
        seen["shared"] += len(tables) < len(names)
        seen["lams"] += len(tables) < len(set(map(str, lam_of.values())))
        seen["twin"] += {"s0", "twin"} <= names
        seen["d"] += any(c.d != 1 for c in lam_of.values())
    assert seen["nonzero"] >= 5 and seen["twin"] >= 5
    assert seen["shared"] >= 30 and seen["lams"] >= 20 and seen["d"] >= 20
