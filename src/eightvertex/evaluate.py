"""Exact evaluation of Holant sums on grids.

A grid is a collection of vertices, each carrying a signature, whose legs
are joined pairwise by edges that all carry the binary disequality.  The
partition function is

    sum over {0,1}-values on half-edges, opposite across each edge,
    of the product of all vertex signature values.

Beyond the pruned brute-force sum this module provides: a polynomial-time
evaluator for grids whose signatures all lie in class A (Gauss sums over
quadratic exponents), Eulerian-orientation counting, the Tutte-polynomial
specialization T(G; 3, 3) through the medial graph, eight-vertex
signatures from Ising-style couplings, and a worked interpolation
demonstration built on chain gadgets.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .numeric import Scalar, scalar, parse_scalar, ALPHA, I, SQRT2
from .signatures import Signature, EightVertexSig
from .gadgets import chain_power, eigen_report, signature_from_matrix
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

@dataclass
class Grid:
    signatures: dict            # name -> Signature
    vertices: list              # vertex index -> signature name
    edges: list                 # ((v, p), (w, q)) with 1-based ports

    def vertex_sig(self, v: int) -> Signature:
        return self.signatures[self.vertices[v]]

    def validate(self):
        seen = set()
        for (v, p), (w, q) in self.edges:
            for u, r in ((v, p), (w, q)):
                if not 0 <= u < len(self.vertices):
                    raise DanglingPort(f"vertex {u} out of range")
                if not 1 <= r <= self.vertex_sig(u).arity:
                    raise DanglingPort(f"port {r} out of range on vertex {u}")
                if (u, r) in seen:
                    raise DanglingPort(f"port {r} of vertex {u} used twice")
                seen.add((u, r))
        for v in range(len(self.vertices)):
            for r in range(1, self.vertex_sig(v).arity + 1):
                if (v, r) not in seen:
                    raise DanglingPort(f"port {r} of vertex {v} unused")

    @staticmethod
    def from_json(text: str) -> "Grid":
        """Parse a grid file.  Input of the wrong shape raises ValueError
        (KeyError for a missing field)."""
        data = _expect(json.loads(text), dict,
                       "a grid is an object with signatures, vertices and "
                       "edges")
        sigs = {}
        for name, spec in _expect(data["signatures"], dict,
                                  "signatures is an object").items():
            _expect(spec, dict, f"signature {name!r} is an object")
            if "eightvertex" in spec:
                text8 = _expect(spec["eightvertex"], str,
                                "an eightvertex entry is a string")
                sigs[name] = EightVertexSig.parse(text8).to_signature()
            else:
                vals = [_grid_value(v) for v in _expect(
                    spec["values"], list, "values is a list")]
                sigs[name] = Signature(
                    _expect(spec["arity"], int, "arity is an int"), vals)
        vertices = []
        for v in _expect(data["vertices"], list, "vertices is a list"):
            v = _expect(v, dict, "a vertex is an object")
            vertices.append(_expect(v["sig"], str, "a vertex sig is a string"))
        edges = [_grid_edge(e)
                 for e in _expect(data["edges"], list, "edges is a list")]
        return Grid(sigs, vertices, edges)


def _expect(value, kind, rule: str):
    """value if it is a kind (a bool is not an int); else ValueError."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"bad grid: {rule}, got {json.dumps(value)[:40]}")


def _grid_value(v) -> Scalar:
    """A signature value of a grid file: an int, or a string in the scalar
    syntax.  Floats are refused, since every value must be exact."""
    if isinstance(v, str):
        return parse_scalar(v)
    return scalar(_expect(v, int, "a value is an int or a scalar string"))


def _grid_edge(e) -> tuple:
    """An edge [[v, p], [w, q]] of a grid file, with int entries."""
    try:
        (v, p), (w, q) = e
    except (TypeError, ValueError):
        v = p = w = q = None
    # JSON gives ints only inside lists, so four ints mean the right shape
    if not (type(v) is int and type(p) is int and type(w) is int
            and type(q) is int):
        raise ValueError("bad grid: an edge is [[v, p], [w, q]] of ints, "
                         f"got {json.dumps(e)[:40]}")
    return ((v, p), (w, q))


def brute_force(grid: Grid, max_edges: int = 28) -> Scalar:
    """The Holant sum by direct enumeration over edge orientations, with
    early pruning whenever a completed vertex contributes zero."""
    if len(grid.edges) > max_edges:
        raise TooManyEdges(f"{len(grid.edges)} edges exceeds {max_edges}")
    grid.validate()
    nv = len(grid.vertices)
    arities = [grid.vertex_sig(v).arity for v in range(nv)]
    remaining = list(arities)
    partial = [0] * nv   # bits assigned so far, ports packed MSB-first
    edges = grid.edges

    def assign(u, r, bit):
        partial[u] |= bit << (arities[u] - r)
        remaining[u] -= 1

    def unassign(u, r, bit):
        partial[u] &= ~(1 << (arities[u] - r))
        remaining[u] += 1

    def rec(k, acc):
        if k == len(edges):
            return acc
        (v, p), (w, q) = edges[k]
        total = scalar(0)
        for s in (0, 1):
            assign(v, p, s)
            assign(w, q, 1 - s)
            sub = acc
            dead = False
            for u in ({v, w} if v != w else {v}):
                if remaining[u] == 0:
                    val = grid.vertex_sig(u).values[partial[u]]
                    if val.is_zero():
                        dead = True
                        break
                    sub = sub * val
            if not dead:
                total = total + rec(k + 1, sub)
            unassign(w, q, 1 - s)
            unassign(v, p, s)
        return total

    # isolated vertices (arity fully unused) are impossible after validate
    return rec(0, scalar(1))


# -- class-A fast evaluation ----------------------------------------------

def affine_eval(grid: Grid) -> Scalar:
    """The Holant sum in polynomial time when every vertex signature is in
    class A: the sum collapses to a Gauss sum over a quadratic exponent in
    the edge variables."""
    grid.validate()
    certs = []
    for v in range(len(grid.vertices)):
        cert = in_A(grid.vertex_sig(v))
        if cert is None:
            raise NotAffineSignature(f"vertex {v} signature is not in class A")
        certs.append(cert)
    lam = scalar(1)
    for cert in certs:
        lam = lam * cert.lam
    if lam.is_zero():
        return scalar(0)

    # one GF(2) variable per edge; the second endpoint sees its negation
    port_lit = {}
    for e, ((v, p), (w, q)) in enumerate(grid.edges):
        port_lit[(v, p)] = (e, 0)
        port_lit[(w, q)] = (e, 1)

    const = 0                      # Z4
    lin = {}                       # var -> Z4
    quad = {}                      # frozenset({u, v}) -> Z2
    constraints = []               # (set of vars, rhs bit)

    def add_lin(e, a):
        a %= 4
        if a:
            lin[e] = (lin.get(e, 0) + a) % 4
            if not lin[e]:
                del lin[e]

    def add_quad(e1, e2, b):
        b %= 2
        if not b:
            return
        if e1 == e2:
            add_lin(e1, 2 * b)
            return
        key = frozenset((e1, e2))
        quad[key] = (quad.get(key, 0) + b) % 2
        if not quad[key]:
            del quad[key]

    for v, cert in enumerate(certs):
        n = grid.vertex_sig(v).arity
        lits = {i: port_lit[(v, i)] for i in range(1, n + 1)}
        const = (const + cert.a0) % 4
        for i, a in cert.lin.items():
            e, t = lits[i]
            const = (const + a * t) % 4
            add_lin(e, a * (1 - 2 * t))
        for (i, j), b in cert.quad.items():
            e1, t1 = lits[i]
            e2, t2 = lits[j]
            const = (const + 2 * b * t1 * t2) % 4
            if e1 == e2:
                add_lin(e1, 2 * b * (1 + t1 + t2))
            else:
                add_quad(e1, e2, b)
                add_lin(e1, 2 * b * t2)
                add_lin(e2, 2 * b * t1)
        # affine-space checks: non-pivot coordinates are forced
        space = cert.space
        piv = set(space.pivots)
        for bitpos in range(n):
            if bitpos in piv:
                continue
            vars_ = {n - bitpos}   # 1-based variable index of this position
            rhs = (space.offset >> bitpos) & 1
            for j, bvec in enumerate(space.basis):
                if (bvec >> bitpos) & 1:
                    pj = space.pivots[j]
                    vars_.add(n - pj)
                    rhs ^= (space.offset >> pj) & 1
            cvars = set()
            for i in vars_:
                e, t = lits[i]
                rhs ^= t
                cvars ^= {e}
            constraints.append((cvars, rhs))

    live = set(range(len(grid.edges)))
    factor = scalar(1)
    half = scalar(SQRT2) * scalar(ALPHA)                 # sqrt2 * zeta8
    half_inv = scalar(SQRT2) * scalar(ALPHA) ** 7

    def substitute(x, others, t):
        """Replace variable x by XOR(others) + t everywhere."""
        nonlocal const
        live.discard(x)
        a = lin.pop(x, 0)
        cross = {}
        for key in [k for k in quad if x in k]:
            y = next(iter(key - {x}))
            cross[y] = quad.pop(key)
        if a:
            # a * (t + (-1)^t * (sum - 2 * pairsum))
            const = (const + a * t) % 4
            sgn = 1 - 2 * t
            ol = sorted(others)
            for y in ol:
                add_lin(y, a * sgn)
            for ii in range(len(ol)):
                for jj in range(ii + 1, len(ol)):
                    add_quad(ol[ii], ol[jj], a)  # -2a == 2a mod 4 on pairs
        for y, b in cross.items():
            # 2b * (XOR(others) + t) * y
            add_lin(y, 2 * b * t)
            for u in others:
                if u == y:
                    add_lin(y, 2 * b)
                else:
                    add_quad(u, y, b)
        for idx in range(len(constraints)):
            cv, rhs = constraints[idx]
            if x in cv:
                constraints[idx] = (cv ^ others if isinstance(cv, set)
                                    else set(cv) ^ others, rhs ^ t)
                constraints[idx][0].discard(x)

    # normalize constraint containers to sets
    constraints = [(set(cv), rhs) for cv, rhs in constraints]

    while True:
        while constraints:
            cv, rhs = constraints.pop()
            cv &= live
            if not cv:
                if rhs:
                    return scalar(0)
                continue
            x = min(cv)
            substitute(x, cv - {x}, rhs)
        if not live:
            break
        x = min(live)
        live.discard(x)
        a = lin.pop(x, 0)
        ell = set()
        for key in [k for k in quad if x in k]:
            y = next(iter(key - {x}))
            if quad.pop(key):
                ell.add(y)
        if a in (0, 2):
            factor = factor * 2
            constraints.append((ell, 0 if a == 0 else 1))
        else:
            if a == 1:
                factor = factor * half
                mult = 3
            else:
                factor = factor * half_inv
                mult = 1
            ol = sorted(ell)
            for y in ol:
                add_lin(y, mult)
            for ii in range(len(ol)):
                for jj in range(ii + 1, len(ol)):
                    add_quad(ol[ii], ol[jj], mult)

    return lam * factor * scalar(I) ** (const % 4)


# -- graphs with rotation systems ------------------------------------------

@dataclass
class Graph:
    """A multigraph given as an edge list, optionally with a counter
    clockwise rotation (edge indices) around each vertex."""

    edges: list                 # (u, v) pairs
    rotations: dict = field(default_factory=dict)   # vertex -> [edge ids]

    @property
    def vertices(self):
        vs = set(self.rotations)
        for u, v in self.edges:
            vs.add(u)
            vs.add(v)
        return sorted(vs)

    def incident(self, v):
        out = []
        for e, (a, b) in enumerate(self.edges):
            if a == v:
                out.append(e)
            if b == v:
                out.append(e)
        return out

    def rotation_at(self, v):
        if v in self.rotations:
            return self.rotations[v]
        return self.incident(v)

    @staticmethod
    def parse(text: str) -> "Graph":
        edges = []
        rotations = {}
        for line in text.splitlines():
            line = line.split("#")[0].strip()
            if not line:
                continue
            m = re.match(r"^rot\s+(\d+)\s*:\s*(.*)$", line)
            if m:
                rotations[int(m.group(1))] = [int(t) for t in m.group(2).split()]
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad graph line: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return Graph(edges, rotations)


# -- Eulerian orientations --------------------------------------------------

def eo_signature() -> Signature:
    """Arity-4 indicator of 'exactly two inputs are 1'."""
    return Signature(4, [1 if bin(m).count("1") == 2 else 0
                         for m in range(16)])


def grid_from_graph(graph: Graph, sig: Signature, sig_name: str) -> Grid:
    """Place one copy of sig on every vertex of a d-regular graph, with
    ports numbered by order of incidence, and join them by the graph
    edges."""
    vs = graph.vertices
    vindex = {v: k for k, v in enumerate(vs)}
    next_port = {v: 1 for v in vs}
    ends = []
    for (u, v) in graph.edges:
        pu = next_port[u]
        next_port[u] += 1
        pv = next_port[v]
        next_port[v] += 1
        ends.append(((vindex[u], pu), (vindex[v], pv)))
    return Grid({sig_name: sig}, [sig_name] * len(vs), ends)


def eo_count(graph: Graph) -> int:
    """The number of Eulerian orientations of a 4-regular graph."""
    for v in graph.vertices:
        if len(graph.incident(v)) != 4:
            raise ValueError(f"vertex {v} is not 4-regular")
    grid = grid_from_graph(graph, eo_signature(), "eo")
    val = brute_force(grid)
    c = val.cyclo
    assert c.is_rational() and c.coeffs[0].denominator == 1
    return int(c.coeffs[0])


# -- medial graph and T(G; 3, 3) ---------------------------------------------

def tutte_signature() -> Signature:
    """The eight-vertex signature whose Holant on the medial grid gives
    twice T(G; 3, 3): entries (a..x) = (0, 1, 1, 2, 2, 1, 1, 0)."""
    return EightVertexSig.make(0, 1, 1, 2, 2, 1, 1, 0).to_signature()


def medial_graph(graph: Graph) -> Grid:
    """The medial grid of a connected plane graph given by its rotation
    system: one arity-4 vertex per edge of the graph, joined along the
    corners of the faces.

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
    for v in graph.vertices:
        rot = graph.rotation_at(v)
        d = len(rot)
        for k in range(d):
            e = rot[k]
            f = rot[(k + 1) % d]
            # the corner between e and f at v joins (succ side of e at v)
            # to (pred side of f at v)
            pe = 1 if graph.edges[e][0] == v else 4
            pf = 2 if graph.edges[f][0] == v else 3
            ends.append(((e, pe), (f, pf)))
    return Grid({"tutte": sig}, ["tutte"] * len(graph.edges), ends)


def tutte33(graph: Graph) -> Fraction:
    """T(G; 3, 3) for a connected plane multigraph with rotations."""
    grid = medial_graph(graph)
    val = brute_force(grid)
    c = val.cyclo
    assert c.is_rational()
    return c.coeffs[0] / 2


# -- Ising couplings ----------------------------------------------------------

def ising_energies(jh, jv, j, jp, jpp) -> dict:
    """The energies of the entries of the eight-vertex signature of a
    two-spin model with horizontal, vertical and three four-spin
    couplings, as Fractions keyed by entry name: entry k has Boltzmann
    weight e^{-energy[k]}."""
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
        weights[k] = scalar(ALPHA ** ((-int(e)) % 8))
    return EightVertexSig(**weights)


# -- interpolation demonstration ---------------------------------------------

def chain_block(t) -> Signature:
    """The eight-vertex building block with matrix
    [[1,0,0,t],[0,1,t,0],[0,t,1,0],[t,0,0,1]], diagonalized by the chain
    basis with eigenvalue pairs (1+t, 1+t, 1-t, 1-t)."""
    t = scalar(t)
    one = scalar(1)
    z = scalar(0)
    return signature_from_matrix([[one, z, z, t],
                                  [z, one, t, z],
                                  [z, t, one, z],
                                  [t, z, z, one]])


def slot_signature(lam) -> Signature:
    """The target signature g_lambda with chain-basis eigenvalues
    (2, 2, 2*lambda, 2*lambda)."""
    lam = scalar(lam)
    p = scalar(1) + lam
    m = scalar(1) - lam
    z = scalar(0)
    return signature_from_matrix([[p, z, z, m],
                                  [z, p, m, z],
                                  [z, m, p, z],
                                  [m, z, z, p]])


def _solve_linear(a, b):
    """Solve a x = b over exact scalars by Gaussian elimination."""
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if not m[r][col].is_zero())
        m[col], m[piv] = m[piv], m[col]
        inv = scalar(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                c = m[r][col]
                m[r] = [v - c * u for v, u in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def interpolation_demo(grid: Grid, t, lambdas, slot_name: str = "SLOT",
                       check: bool = True) -> dict:
    """Recover the Holant values that would be obtained by placing
    g_lambda at every SLOT vertex, for each lambda in lambdas, without
    ever evaluating those grids directly: chains of the building block
    with parameter t are placed in the slots instead, and the channel sums
    are read off by solving a linear system.

    Returns a dict with the slot count, the recovered channel sums, the
    interpolated values, and (when check is set) the directly evaluated
    values for comparison.
    """
    t = scalar(t)
    m = sum(1 for name in grid.vertices if name == slot_name)
    if m == 0:
        raise ValueError("grid has no slot vertices")

    def with_slot(sig: Signature) -> Grid:
        sigs = dict(grid.signatures)
        sigs[slot_name] = sig
        return Grid(sigs, grid.vertices, grid.edges)

    block = chain_block(t)
    rows = []
    rhs = []
    for s in range(1, m + 2):
        d = chain_power(block, 4 * s)
        _, eig = eigen_report(d)
        assert eig[0] == eig[1] and eig[2] == eig[3]
        a_s, b_s = eig[0], eig[2]
        rows.append([a_s ** (m - j) * b_s ** j for j in range(m + 1)])
        rhs.append(brute_force(with_slot(d)))
    coeffs = _solve_linear(rows, rhs)

    values = {}
    direct = {}
    for lam in lambdas:
        lam_s = scalar(lam)
        total = scalar(0)
        for j in range(m + 1):
            total = total + (scalar(2) ** (m - j)
                             * (scalar(2) * lam_s) ** j * coeffs[j])
        values[str(lam)] = total
        if check:
            direct[str(lam)] = brute_force(with_slot(slot_signature(lam)))
    out = {"slots": m, "channel_sums": coeffs, "values": values}
    if check:
        out["direct"] = direct
        out["agrees"] = all(values[k] == direct[k] for k in values)
    return out
