"""Exact evaluation of Holant sums on grids.

A grid is a collection of vertices, each carrying a signature, whose legs
are joined pairwise by edges that all carry the binary disequality.  The
partition function is

    sum over {0,1}-values on half-edges, opposite across each edge,
    of the product of all vertex signature values.

A grid checks that its edges join every port exactly once when it is
built (:meth:`Grid.validate`) and keeps the port table that check
built, so the evaluators neither check it again nor rebuild the table:
they read the per-vertex port offsets ``grid.base`` and the flat port
table ``grid.slot``, in which port p of vertex v is
slot[base[v] + p - 1] = 2 * edge + end.

The exact sum (:func:`brute_force`) is a frontier sum.  Vertices are
placed in a greedy order, the next being the unplaced vertex with the
most edges to placed ones; when a vertex is placed, its edges to placed
vertices and its loops are assigned one edge at a time.  One dict maps
the port bits of the open vertices (placed, with ports still unset) to a
partial sum, and each edge is one pass over it: an entry is dropped as
soon as an endpoint's partial index has no nonzero completion, an
endpoint whose last port is set has its value multiplied in and its bits
cleared, and entries that then agree are merged (the transfer-matrix
step of Baxter, *Exactly Solved Models in Statistical Mechanics*, 1982,
ch. 10, on a greedy frontier).  The dict never holds more than
2^(frontier width) entries, the port bits the open vertices hold, and
does not grow with the edge count.  The sum runs on one int per value:
each signature's values are put over one common denominator first, and
each numerator tuple is packed as its value at x = 2^K modulo
2^(4K) + 1, which x^4 + 1 maps to 0 (Kronecker substitution), so a
product is one int product and remainder and a merge one addition.  K is
set from the input so that 2^K exceeds four times a bound on every
coefficient of the result, which then unpacks exactly and is reduced to
a field value once, at the end.  ``max_edges`` (a ``TooManyEdges``
error, exit 3 in the CLI) bounds the frontier sum only; the class-A
evaluator below takes a grid of any size.

Beyond the frontier sum this module provides: a polynomial-time
evaluator for grids whose signatures all lie in class A (Gauss sums over
quadratic exponents, eliminated over int bit masks of the edge
variables; Cai and Chen, *Complexity Dichotomies for Counting Problems*,
CUP 2017), Eulerian-orientation counting, the Tutte-polynomial
specialization T(G; 3, 3) through the medial graph, eight-vertex
signatures from Ising-style couplings, and a worked interpolation
demonstration built on chain gadgets.  The class-A evaluator forms the
product of the vertices' lams only for a nonzero sum, as one power per
distinct lam.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .numeric import (Cyclo8, InputFormat, scalar, parse_cyclo8, solve, ALPHA,
                      ONE, SQRT2, ZERO, _ZERO4, _echo, _over_lcm, _pack,
                      _reduced, _unpack)
from .signatures import ArityError, Signature, EightVertexSig
from .classes import in_A


class TooManyEdges(ValueError):
    pass


class DanglingPort(ValueError):
    pass


class NotRepresentable(ValueError):
    """Couplings do not produce weights inside Q(zeta8)."""


class NotAffineSignature(ValueError):
    """affine_eval met a signature outside class A."""


# -- grids ----------------------------------------------------------------

GRID = InputFormat("grid")


class _GridFields(NamedTuple):
    signatures: Mapping     # name -> Signature, read-only
    vertices: tuple         # vertex index -> signature name
    edges: tuple            # ((v, p), (w, q)) with 1-based ports
    base: tuple             # vertex index -> slot index of its port 1
    slot: tuple             # slot index -> 2 * edge + end at that port


class Grid(_GridFields):
    """A closed grid, checked once, when it is built: its edges join
    every port of every vertex exactly once.  Every way of building one
    (``Grid(signatures, vertices, edges)``, :meth:`from_json`, ``_make``
    and ``_replace``) runs :meth:`validate` and raises its first
    DanglingPort, so the evaluators read a grid's ports without checking
    them again.  The signatures are copied into a read-only mapping and
    the vertices and edges into tuples, so a built grid stays valid.
    ``base`` and ``slot`` are derived: the per-vertex port offsets and
    the flat port table that :meth:`validate` built, kept as tuples, so
    that the evaluators index them directly.  The table costs one tuple
    of 2 * |E| ints per grid."""

    __slots__ = ()

    def __new__(cls, signatures, vertices, edges):
        given = (MappingProxyType(dict(signatures)), tuple(vertices),
                 tuple(edges))
        base, slot = super().__new__(cls, *given, (), ()).validate()
        return super().__new__(cls, *given, tuple(base), tuple(slot))

    @classmethod
    def _make(cls, iterable):
        """A grid of the first three fields of iterable, checked; base
        and slot are derived from them."""
        signatures, vertices, edges, *_ = iterable
        return cls(signatures, vertices, edges)

    def validate(self) -> tuple:
        """Check that the edges join every port of every vertex exactly
        once, raising DanglingPort otherwise, and return the flat port
        table (base, slot): port p of vertex v is
        slot[base[v] + p - 1] = 2 * edge + end, end 0 for the first
        endpoint of the edge and 1 for the second.

        The endpoints are scanned in order, in one flat pass over the
        edges (for each: the vertex's range, then the port's range, then
        a port used twice), so the fault reported is the first one met;
        an unused port is looked for last, over the vertices in order."""
        arity = [self.signatures[name].arity for name in self.vertices]
        nv = len(arity)
        *base, total = itertools.accumulate(arity, initial=0)
        slot = [-1] * total
        # k is 2 * edge + end
        for k, (u, r) in enumerate(itertools.chain.from_iterable(self.edges)):
            if not 0 <= u < nv:
                raise DanglingPort(f"vertex {u} out of range")
            if not 1 <= r <= arity[u]:
                raise DanglingPort(f"port {r} out of range on vertex {u}")
            i = base[u] + r - 1
            if slot[i] >= 0:
                raise DanglingPort(f"port {r} of vertex {u} used twice")
            slot[i] = k
        if -1 in slot:
            for v in range(nv):
                for r in range(1, arity[v] + 1):
                    if slot[base[v] + r - 1] < 0:
                        raise DanglingPort(f"port {r} of vertex {v} unused")
        return base, slot

    @staticmethod
    def from_json(text: str) -> "Grid":
        """Parse a grid file.  Text that is not JSON, input of the wrong
        shape, a missing field and a vertex naming an undefined signature
        raise ValueError."""
        data = GRID.expect(GRID.decode(text), dict, "a grid is an object "
                           "with signatures, vertices and edges")
        sigs = {}
        parsed = {}     # each distinct scalar string of the file, parsed
        for name, spec in GRID.field(data, "signatures", "the grid",
                                     dict).items():
            owner = f"signature {_echo(repr(name))}"
            GRID.expect(spec, dict, f"{owner} is an object")
            try:
                if "eightvertex" in spec:
                    sigs[name] = EightVertexSig.parse(
                        GRID.field(spec, "eightvertex", owner, str))
                else:
                    vals = [_grid_value(v, parsed)
                            for v in GRID.field(spec, "values", owner, list)]
                    sigs[name] = Signature(
                        GRID.field(spec, "arity", owner, int), vals)
            except ArityError as e:
                raise GRID.fault(f"{owner}: {e}") from None
        vertices = []
        for k, v in enumerate(GRID.field(data, "vertices", "the grid", list)):
            v = GRID.expect(v, dict, "a vertex is an object")
            name = GRID.field(v, "sig", f"vertex {k}", str)
            if name not in sigs:
                raise GRID.fault(f"vertex {k} names undefined signature "
                                 f"{_echo(repr(name))}")
            vertices.append(name)
        edges = [_grid_edge(e)
                 for e in GRID.field(data, "edges", "the grid", list)]
        return Grid(sigs, vertices, edges)


def _grid_value(v, parsed: dict) -> Cyclo8:
    """A signature value of a grid file: an int, or a string in the scalar
    syntax.  Floats are refused, since every value must be exact.  A
    string is parsed once per file: parsed maps the strings met so far to
    their values, and only strings are ever its keys, since true, 1 and
    1.0 are equal keys but not equally valid values."""
    if isinstance(v, str):
        c = parsed.get(v)
        if c is None:
            c = parsed[v] = parse_cyclo8(v)
        return c
    return Cyclo8(GRID.expect(v, int, "a value is an int or a scalar string"))


def _grid_edge(e) -> tuple:
    """An edge [[v, p], [w, q]] of a grid file, with int entries."""
    try:
        (v, p), (w, q) = e
    except (TypeError, ValueError):
        v = p = w = q = None
    # JSON gives ints only inside lists, so four ints mean the right shape
    if not (type(v) is int and type(p) is int and type(w) is int
            and type(q) is int):
        raise GRID.fault("an edge is [[v, p], [w, q]] of ints, "
                         f"got {json.dumps(e)[:40]}")
    return ((v, p), (w, q))


def _placement_order(grid: Grid) -> list:
    """The vertices in greedy order: the next one is the unplaced vertex
    with the most edges to placed vertices, the lowest index on ties."""
    nv = len(grid.vertices)
    nbrs = [[] for _ in range(nv)]
    for (v, _), (w, _) in grid.edges:
        if v != w:
            nbrs[v].append(w)
            nbrs[w].append(v)
    links = [0] * nv            # edges to placed vertices
    placed = [False] * nv
    heap = [(0, v) for v in range(nv)]
    order = []
    while heap:
        neg, v = heapq.heappop(heap)
        if placed[v] or -neg != links[v]:
            continue            # a stale entry: v was placed or relinked
        placed[v] = True
        order.append(v)
        for u in nbrs[v]:
            if not placed[u]:
                links[u] += 1
                heapq.heappush(heap, (-links[u], u))
    return order


# the key bits of one open vertex's partial index: arity is at most 6
_FIELD = 6
_FULL = (1 << _FIELD) - 1


def brute_force(grid: Grid, max_edges: int = 28) -> Cyclo8:
    """The Holant sum over all edge orientations, as a frontier sum.

    Vertices are placed in :func:`_placement_order`.  A vertex is open
    from its placement until its last port is set.  One dict maps the
    partial indexes of the open vertices (port bits set so far, one 6-bit
    field of the key each) to the sum of the products of the closed
    vertices' values.  When a vertex is placed, each edge to a placed
    vertex, and each of its loops, is assigned in turn by one pass over
    the dict: every entry gains either the edge's first port bit or its
    second.  The new entry is dropped if an endpoint's partial index has
    no nonzero completion; an endpoint whose last port is now set has its
    value multiplied in and its field cleared, so that entries that agree
    merge at once.  The dict never holds more than 2^(frontier width)
    entries, the port bits held by the open vertices, and does not grow
    with the edge count; only ``max_edges`` bounds the input
    (TooManyEdges, exit 3 in the CLI).

    Each signature's values are put over the lcm of their denominators
    (``numeric._over_lcm``; a zero value becomes None), so the sum's
    denominator is the product of those of the vertices.  Each numerator
    tuple is packed into one int modulo M = 2^(4K) + 1
    (``numeric._pack``), so a product is ``p * val % M`` and a merge one
    addition.  K is set from a bound on the coefficients of the result,
    so that the final residue unpacks to its numerators exactly
    (``numeric._unpack``).  The edge at each port is read from the flat
    port table ``grid.slot`` that the grid kept when it was checked."""
    if len(grid.edges) > max_edges:
        raise TooManyEdges(f"{len(grid.edges)} edges exceeds {max_edges}")
    base = grid.base
    slot = grid.slot
    # Lists and literal tuples only: a tuple built from a generator is
    # resized into place and then parked on the interpreter's tuple free
    # list, which grows the peak RSS of a process that calls this often.
    over = {}       # signature name -> (denominator, numerators, 1-norm)
    for name in set(grid.vertices):
        d, nums = _over_lcm(grid.signatures[name].values)
        over[name] = (d, nums, sum([abs(c) for n in nums for c in n]))
    # Every coefficient of the sum, a numerator tuple in Z[x]/(x^4 + 1),
    # is at most `norm`, the product over the vertices of the sum of the
    # 1-norms of their numerators, since the 1-norm of a product is at
    # most the product of the 1-norms.  The frontier works on packed
    # numerators (numeric._pack) modulo M = 2^(4K) + 1 through ring maps
    # alone, so its residue is the pack of the sum; with 2^K > 4 * norm,
    # that residue unpacks to the sum itself.  No partial sum needs the
    # bound.  An all-zero signature makes norm 0; K stays positive.
    den = norm = 1
    for name in grid.vertices:
        d, _, size = over[name]
        den *= d
        norm *= size
    K = (4 * max(norm, 1)).bit_length()
    M = (1 << 4 * K) + 1
    tables = {}     # signature name -> packed numerators, None for zero
    for name, (_, nums, _) in over.items():
        tables[name] = [None if n == _ZERO4 else _pack(n, K) for n in nums]

    names = grid.vertices
    arity = [grid.signatures[name].arity for name in names]
    placed = [False] * len(names)
    assigned = [0] * len(names)     # index bits of the ports set so far
    offset = [0] * len(names)       # where an open vertex's field starts
    free = []                       # offsets of closed vertices' fields
    width = 0                       # the next unused offset
    viable = {}             # (name, assigned) -> partial indexes kept
    sums = {0: 1}
    for v in _placement_order(grid):
        placed[v] = True
        if free:
            offset[v] = free.pop()
        else:
            offset[v] = width
            width += _FIELD
        for k in slot[base[v]:base[v] + arity[v]]:
            end = k & 1
            (a, pa), (b, pb) = grid.edges[k >> 1]
            if not placed[b if end == 0 else a] or (a == b and end):
                continue        # set later, or a loop already set
            ma = 1 << (arity[a] - pa)
            mb = 1 << (arity[b] - pb)
            assigned[a] |= ma
            assigned[b] |= mb
            # the key bit each orientation adds: the first port of the
            # edge gets s, the second 1 - s
            first = ma << offset[a]
            second = mb << offset[b]
            done = []       # (field offset, numerators) of closing vertices
            checks = []     # (field offset, viable partial indexes)
            keep = -1       # clears the fields of closing vertices
            for u in ((a,) if a == b else (a, b)):
                name = names[u]
                mask = assigned[u]
                if mask == (1 << arity[u]) - 1:
                    done.append((offset[u], tables[name]))
                    keep &= ~(_FULL << offset[u])
                    free.append(offset[u])
                    continue
                ok = viable.get((name, mask))
                if ok is None:
                    ok = viable[(name, mask)] = {
                        m & mask for m, b in enumerate(tables[name])
                        if b is not None}
                # a check that every partial index passes is left out
                if len(ok) < 1 << bin(mask).count("1"):
                    checks.append((offset[u], ok))
            free.sort(reverse=True)

            out = {}
            get = out.get
            for key, a in sums.items():
                for k in (key | first, key | second):
                    for off, ok in checks:
                        if (k >> off) & _FULL not in ok:
                            break
                    else:
                        p = a
                        for off, nums in done:
                            val = nums[(k >> off) & _FULL]
                            if val is None:
                                break
                            p = p * val % M
                        else:
                            k &= keep
                            out[k] = get(k, 0) + p
            sums = out
    t0, t1, t2, t3 = _unpack(sums.get(0, 0), K)
    return _reduced(t0, t1, t2, t3, den)


# -- class-A fast evaluation ----------------------------------------------

def affine_eval(grid: Grid) -> Cyclo8:
    """The Holant sum in polynomial time when every vertex signature is in
    class A: the sum collapses to a Gauss sum over a quadratic exponent in
    the edge variables.

    The parity constraints of the certificates' affine spaces come first,
    as (mask, rhs) rows over the edge variables: each row is XORed with
    the stored row of its top bit until its top bit is new (it is stored)
    or it is empty.  An empty row with rhs 1 is a contradiction, and the
    sum is 0 before the exponent is built.  The exponent is kept as Z4
    linear coefficients and one int neighbour mask per edge variable for
    the 2xy terms.  The stored rows are solved by substitution from the
    highest pivot down, each for its pivot: every bit of a row lies below
    its pivot, so no pending row holds a variable already replaced.  Then
    the least live variable is summed out, which leaves at most one new
    row, until none is left; the factors this picks up are counted and
    applied once to the product of the certificates' lams.  That product
    is formed last, only for a nonzero sum, and once per distinct lam
    value c, as c ** (the number of vertices carrying it).

    Each name's linear terms (i, a), cross terms (i, j) over its 1-based
    ports and parity rows (``AffineSpace.parity``) are read once per
    distinct name from its certificate's ``AShape`` record: the one memo
    entry per shape, which ``in_A``'s check reads as well.  Ports come
    from the flat port table ``grid.slot`` that the grid kept when it was
    checked."""
    base = grid.base
    slot = grid.slot
    # signature name -> its ACertificate, in order of first vertex
    certs = dict.fromkeys(grid.vertices)
    for name in certs:
        cert = in_A(grid.signatures[name])
        if cert is None:
            raise NotAffineSignature(f"vertex {grid.vertices.index(name)} "
                                     "signature is not in class A")
        certs[name] = cert
    if any(cert.lam.is_zero() for cert in certs.values()):
        return ZERO
    # signature name -> (parity rows, linear terms, cross terms)
    terms = {name: (c.shape.space.parity, c.shape.lin.items(), c.shape.quad)
             for name, c in certs.items()}

    # one GF(2) variable per edge; the second endpoint sees its negation.
    # echelon[top]: (row, rhs) with top bit `top`, its pivot
    echelon = {}
    for v, name in enumerate(grid.vertices):
        at = base[v] - 1           # port i of v: slot[at + i]
        for ports, rhs in terms[name][0]:
            mask = 0
            for i in ports:
                k = slot[at + i]
                rhs ^= k & 1
                mask ^= 1 << (k >> 1)
            while mask:
                top = mask.bit_length() - 1
                row = echelon.get(top)
                if row is None:
                    echelon[top] = (mask, rhs)
                    break
                mask ^= row[0]
                rhs ^= row[1]
            else:
                if rhs:
                    return ZERO

    nvars = len(grid.edges)
    const = 0                      # Z4, reduced at the end
    lin = [0] * nvars              # Z4, reduced when read
    nb = [0] * nvars               # bit y of nb[x]: the term 2 x y
    for v, name in enumerate(grid.vertices):
        _, lin_terms, quad = terms[name]
        at = base[v] - 1
        for i, a in lin_terms:
            k = slot[at + i]
            if k & 1:
                const += a
                lin[k >> 1] -= a
            else:
                lin[k >> 1] += a
        for i, j in quad:
            k1 = slot[at + i]
            k2 = slot[at + j]
            e1, t1 = k1 >> 1, k1 & 1
            e2, t2 = k2 >> 1, k2 & 1
            if t1 and t2:
                const += 2
            if e1 == e2:
                lin[e1] += 2 * (1 + t1 + t2)
            else:
                nb[e1] ^= 1 << e2
                nb[e2] ^= 1 << e1
                lin[e1] += 2 * t2
                lin[e2] += 2 * t1

    # pending (mask, rhs) rows; pop() takes the highest pivot first
    constraints = [echelon[top] for top in sorted(echelon)]
    # nb may keep bits of eliminated variables: every read masks by live
    live = (1 << nvars) - 1
    twos = 0                       # factors of 2
    halves = 0                     # factors of sqrt2 * zeta^(+1 or -1)
    turn = 0                       # the power of zeta among those

    def add_lin(ys, a):
        """Add a to the linear coefficient of every variable in ys."""
        while ys:
            low = ys & -ys
            lin[low.bit_length() - 1] += a
            ys ^= low

    def add_cross(ys, zs):
        """Toggle bit z of nb[y] for every y in ys and z != y in zs.
        add_cross(ys, ys) adds 2yz once for every pair in ys; the terms
        2yz for y in ys, z in zs need add_cross(zs, ys) as well."""
        m = ys
        while m:
            low = m & -m
            nb[low.bit_length() - 1] ^= zs & ~low
            m ^= low

    while True:
        while constraints:
            cv, rhs = constraints.pop()
            if not cv:                      # only a sum-out row
                if rhs:
                    return ZERO
                continue
            # replace x, the top variable of cv, by XOR(others) + rhs
            x = cv.bit_length() - 1
            bx = 1 << x
            others = cv ^ bx
            live ^= bx
            a = lin[x] % 4
            cross = nb[x] & live
            if a:
                # a * (rhs + (-1)^rhs * (sum - 2 * pairsum))
                const += a * rhs
                add_lin(others, -a if rhs else a)
                if a % 2:                   # -2a == 2a mod 4 on pairs
                    add_cross(others, others)
            if cross:
                # 2 * (XOR(others) + rhs) * sum(cross): y * y is y
                if rhs:
                    add_lin(cross, 2)
                add_lin(cross & others, 2)
                add_cross(cross, others)
                add_cross(others, cross)
        if not live:
            break
        # sum out x, the least live variable
        bx = live & -live
        x = bx.bit_length() - 1
        live ^= bx
        a = lin[x] % 4
        ell = nb[x] & live
        if a % 2 == 0:
            twos += 1
            constraints.append((ell, a // 2))
        else:
            # sqrt2 * zeta for a == 1, sqrt2 * zeta^7 for a == 3, and
            # i^(3 or 1 times XOR(ell))
            halves += 1
            turn += 1 if a == 1 else -1
            add_lin(ell, 3 if a == 1 else 1)
            add_cross(ell, ell)

    # lam * 2^twos * sqrt2^halves * zeta^turn * i^const, where lam is the
    # product of the vertices' lams, one power per distinct value, found
    # by its (numerators, denominator)
    powers = {}                    # (n, d) -> (lam, vertices carrying it)
    for name, count in Counter(grid.vertices).items():
        c = certs[name].lam
        key = (c.n, c.d)
        had = powers.get(key)
        powers[key] = (c, count if had is None else had[1] + count)
    lam = ONE
    for c, count in powers.values():
        lam = lam * c ** count
    twos += halves // 2
    val = lam * (1 << twos)
    if halves % 2:
        val = val * SQRT2
    return val.rotate(turn + 2 * const)


# -- graphs with rotation systems ------------------------------------------

class Graph(NamedTuple):
    """A multigraph given as an edge list, optionally with a counter
    clockwise rotation (edge indices) around each vertex."""

    edges: list                                 # (u, v) pairs
    rotations: Mapping = MappingProxyType({})   # vertex -> [edge ids]

    def incidence(self) -> dict:
        """Each vertex, in label order, mapped to the ids of its edges in
        edge order, a loop twice; a vertex that only a rotation names maps
        to []."""
        inc = {v: [] for v in self.rotations}
        for e, (u, v) in enumerate(self.edges):
            inc.setdefault(u, []).append(e)
            inc.setdefault(v, []).append(e)
        return dict(sorted(inc.items()))

    @staticmethod
    def parse(text: str) -> "Graph":
        edges = []
        rotations = {}
        for line in text.splitlines():
            line = line.split("#")[0].strip()
            if not line:
                continue
            m = re.match(r"^rot\s+(\d+)\s*:\s*(.*)$", line)
            try:   # a label that is no integer, or an edge of other length
                labels = [int(t) for t in (m.group(2) if m else line).split()]
                if m:
                    rotations[int(m.group(1))] = labels
                    continue
                u, v = labels
            except ValueError:
                raise ValueError(
                    f"bad graph line: {_echo(repr(line))}") from None
            edges.append((u, v))
        return Graph(edges, rotations)


# -- Eulerian orientations --------------------------------------------------

def eo_signature() -> Signature:
    """Arity-4 indicator of 'exactly two inputs are 1'."""
    return Signature(4, [1 if bin(m).count("1") == 2 else 0
                         for m in range(16)])


def grid_from_graph(graph: Graph, sig: Signature, sig_name: str) -> Grid:
    """Place one copy of sig on every vertex of a graph, with ports
    numbered by order of incidence, and join them by the graph edges.  A
    vertex whose degree (a loop counts twice) is not sig's arity raises
    ValueError naming the vertex as the graph labels it."""
    inc = graph.incidence()
    for v, es in inc.items():
        if len(es) != sig.arity:
            raise ValueError(f"vertex {v} has degree {len(es)}, "
                             f"but the signature has arity {sig.arity}")
    vindex = {v: k for k, v in enumerate(inc)}
    next_port = dict.fromkeys(inc, 1)
    ends = []
    for (u, v) in graph.edges:
        pu = next_port[u]
        next_port[u] += 1
        pv = next_port[v]
        next_port[v] += 1
        ends.append(((vindex[u], pu), (vindex[v], pv)))
    return Grid({sig_name: sig}, [sig_name] * len(inc), ends)


def eo_count(graph: Graph) -> int:
    """The number of Eulerian orientations of a 4-regular graph."""
    grid = grid_from_graph(graph, eo_signature(), "eo")
    val = brute_force(grid)
    assert val.is_rational() and val.d == 1
    return val.n[0]


# -- medial graph and T(G; 3, 3) ---------------------------------------------

def tutte_signature() -> Signature:
    """The eight-vertex signature whose Holant on the medial grid gives
    twice T(G; 3, 3): entries (a..x) = (0, 1, 1, 2, 2, 1, 1, 0)."""
    return EightVertexSig(0, 1, 1, 2, 2, 1, 1, 0)


def medial_graph(graph: Graph) -> Grid:
    """The medial grid of a plane graph given by its rotation system: one
    arity-4 vertex per edge of the graph, joined along the corners of the
    faces.  A rotation that is not a permutation of its vertex's edges,
    and rotations that do not embed the graph in the plane, raise
    ValueError.

    The four ports of the medial vertex sitting on edge e = (u, v) are

        1: toward the successor of e around u,
        2: toward the predecessor of e around u,
        3: toward the predecessor of e around v,
        4: toward the successor of e around v,

    so that ports (1, 2) point to the u side and (3, 4) to the v side, and
    the saddle entries of the signature separate the two transition types
    at each crossing.
    """
    for u, v in graph.edges:
        if u == v:
            raise ValueError("self-loops are not supported")
    sig = tutte_signature()
    ends = []
    # the successor of each edge around each of its ends
    succ = {}
    for v, incident in graph.incidence().items():
        rot = graph.rotations.get(v, incident)
        if sorted(rot) != incident:
            raise ValueError(f"rotation at vertex {v} is not a permutation "
                             f"of its edges {_echo(str(incident))}")
        d = len(rot)
        for k in range(d):
            e = rot[k]
            f = rot[(k + 1) % d]
            succ[(v, e)] = f
            # the corner between e and f at v joins (succ side of e at v)
            # to (pred side of f at v)
            pe = 1 if graph.edges[e][0] == v else 4
            pf = 2 if graph.edges[f][0] == v else 3
            ends.append(((e, pe), (f, pf)))
    _check_planar(graph, succ)  # after the loop has checked each rotation
    return Grid({"tutte": sig}, ["tutte"] * len(graph.edges), ends)


def _check_planar(graph: Graph, succ: dict):
    """Raise ValueError unless the rotations embed every component with
    an edge in the plane, i.e. V - E + F = 2 for each.  Each component
    has V - E + F = 2 - 2g for the genus g of its embedding, so the sum
    over components is 2c exactly when all are planar.  The faces are
    traced as orbits of darts: edge e = (u, v) gives the dart (e, 0) from
    u to v and (e, 1) back, and the dart after one entering w leaves w
    along succ[(w, e)], the next edge of w's rotation."""
    seen = set()
    faces = 0
    for start in itertools.product(range(len(graph.edges)), (0, 1)):
        if start in seen:
            continue
        faces += 1
        dart = start
        while dart not in seen:
            seen.add(dart)
            e, end = dart
            w = graph.edges[e][1 - end]
            f = succ[(w, e)]
            dart = (f, 0 if graph.edges[f][0] == w else 1)
    verts = len({v for edge in graph.edges for v in edge})
    chi = verts - len(graph.edges) + faces
    comps = _edge_components(graph.edges)
    if chi != 2 * comps:
        raise ValueError(
            f"the rotations are not a plane embedding: V - E + F = "
            f"{verts} - {len(graph.edges)} + {faces} = {chi}, but a plane "
            f"graph with {comps} component(s) with edges has {2 * comps}")


def tutte33(graph: Graph) -> Fraction:
    """T(G; 3, 3) for a plane multigraph with rotations.  The medial
    Holant is 2^c T(G; 3, 3), where c counts the components that have an
    edge: T is multiplicative over components, and each contributes a
    factor 2."""
    grid = medial_graph(graph)
    val = brute_force(grid)
    assert val.is_rational()
    return val.coeffs[0] / 2 ** _edge_components(graph.edges)


def _edge_components(edges) -> int:
    """The number of connected components that have an edge."""
    root = {}

    def find(u):
        while root.setdefault(u, u) != u:
            u = root[u]
        return u

    for u, v in edges:
        root[find(u)] = find(v)
    return sum(1 for u in root if root[u] == u)


# -- Ising couplings ----------------------------------------------------------

def ising_energies(jh, jv, j, jp, jpp) -> dict:
    """The energies of the entries of the eight-vertex signature of a
    two-spin model with horizontal, vertical and three four-spin
    couplings, as Fractions keyed by entry name: with the couplings in
    units of i*pi/4, entry k has Boltzmann weight alpha^(-energy[k])."""
    jh, jv, j, jp, jpp = (Fraction(t) for t in (jh, jv, j, jp, jpp))
    return {
        "c": -jh - jv - j - jp - jpp,
        "z": +jh + jv - j - jp - jpp,
        "d": -jh + jv + j + jp - jpp,
        "w": +jh - jv + j + jp - jpp,
        "b": j - jp + jpp,
        "y": j - jp + jpp,
        "a": -j + jp + jpp,
        "x": -j + jp + jpp,
    }


def ising_signature(jh, jv, j, jp, jpp) -> EightVertexSig:
    """The eight-vertex signature of :func:`ising_energies` with the
    couplings measured in units of i*pi/4, so that each weight is a power
    of the primitive 8th root of unity; non-integer energies raise
    NotRepresentable."""
    weights = {}
    for k, e in ising_energies(jh, jv, j, jp, jpp).items():
        if e.denominator != 1:
            raise NotRepresentable(
                f"energy {e} is not an integer multiple of i*pi/4")
        weights[k] = ALPHA ** ((-int(e)) % 8)
    return EightVertexSig(**weights)


# -- interpolation demonstration ---------------------------------------------

def chain_block(t) -> Signature:
    """The eight-vertex building block with matrix
    [[1,0,0,t],[0,1,t,0],[0,t,1,0],[t,0,0,1]], diagonalized by the chain
    basis with eigenvalue pairs (1+t, 1+t, 1-t, 1-t)."""
    return EightVertexSig(1, t, 1, t, t, 1, t, 1)


def slot_signature(lam) -> Signature:
    """The target signature g_lambda, the chain block's shape with
    (1+lambda, 1-lambda) in place of (1, t): chain-basis eigenvalues
    (2, 2, 2*lambda, 2*lambda)."""
    p, m = ONE + lam, ONE - lam
    return EightVertexSig(p, m, p, m, m, p, m, p)


def interpolation_demo(grid: Grid, t, lambdas) -> dict:
    """Recover the Holant values that would be obtained by placing
    g_lambda at every SLOT vertex, for each lambda in lambdas, without
    ever evaluating those grids directly: chains of the building block
    with parameter t are placed in the slots instead, and the channel sums
    are read off by solving a linear system.

    Returns a dict with the slot count, the recovered channel sums, the
    interpolated values, the directly evaluated values, and whether the
    two agree.  A t for which the system is singular raises ValueError,
    and so does a SLOT signature whose arity is not the chain block's.
    """
    # imported here, so that only this demonstration loads the gadgets
    from .gadgets import chain_power, eigen_report

    t = scalar(t)
    m = sum(1 for name in grid.vertices if name == "SLOT")
    if m == 0:
        raise ValueError("grid has no slot vertices")

    def with_slot(sig: Signature) -> Grid:
        return grid._replace(signatures={**grid.signatures, "SLOT": sig})

    block = chain_block(t)
    slot_arity = grid.signatures["SLOT"].arity
    if slot_arity != block.arity:
        raise ValueError(f"the SLOT signature has arity {slot_arity}, but "
                         "the chain block placed in each slot has arity "
                         f"{block.arity}")
    rows = []
    rhs = []
    for s in range(1, m + 2):
        d = chain_power(block, 4 * s)
        _, eig = eigen_report(d)
        assert eig[0] == eig[1] and eig[2] == eig[3]
        a_s, b_s = eig[0], eig[2]
        rows.append([a_s ** (m - j) * b_s ** j for j in range(m + 1)])
        rhs.append(brute_force(with_slot(d)))
    coeffs = solve(rows, rhs)
    if coeffs is None:
        # the chain eigenvalues (1+t)^4s and (1-t)^4s do not separate the
        # channels, e.g. for t in {0, 1, -1, i}
        raise ValueError(f"t = {t} gives a singular interpolation system")

    values = {}
    direct = {}
    for lam in lambdas:
        lam_s = scalar(lam)
        total = ZERO
        for j in range(m + 1):
            total = total + (Cyclo8(2) ** (m - j)
                             * (2 * lam_s) ** j * coeffs[j])
        values[str(lam)] = total
        direct[str(lam)] = brute_force(with_slot(slot_signature(lam)))
    return {"slots": m, "channel_sums": coeffs, "values": values,
            "direct": direct,
            "agrees": all(values[k] == direct[k] for k in values)}
