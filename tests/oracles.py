"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: deletion-contraction for the
Tutte polynomial, direct orientation enumeration for Eulerian
orientation counts.  The package code must agree with these on small
inputs; the frozen constants in the test files were produced by these
oracles.
"""

import itertools
from fractions import Fraction


def tutte_polynomial(edges, x, y):
    """T(G; x, y) by deletion-contraction on a multigraph.

    edges is a list of (u, v) pairs (repeats and loops allowed);
    x and y should be Fractions for exact results.
    """
    x, y = Fraction(x), Fraction(y)

    def rec(es):
        if not es:
            return Fraction(1)
        u, v = es[0]
        rest = es[1:]
        if u == v:
            return y * rec(rest)
        if _is_bridge(es, 0):
            return x * rec(_contract(rest, u, v))
        return rec(rest) + rec(_contract(rest, u, v))

    return rec(list(edges))


def _is_bridge(es, idx):
    u, v = es[idx]
    others = [e for i, e in enumerate(es) if i != idx]
    # bridge iff u and v are disconnected without the edge
    seen = {u}
    frontier = [u]
    while frontier:
        w = frontier.pop()
        for p, q in others:
            for s, t in ((p, q), (q, p)):
                if s == w and t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return v not in seen


def _contract(es, u, v):
    """Identify v with u in the remaining edge list."""
    out = []
    for p, q in es:
        p2 = u if p == v else p
        q2 = u if q == v else q
        out.append((p2, q2))
    return out


def count_eulerian_orientations(edges):
    """Orientations of a 4-regular multigraph with in-degree 2
    everywhere, by direct enumeration over edge directions."""
    verts = sorted({v for e in edges for v in e})
    degree = {v: 0 for v in verts}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if any(d != 4 for d in degree.values()):
        raise ValueError("graph is not 4-regular")
    count = 0
    for dirs in itertools.product((0, 1), repeat=len(edges)):
        indeg = {v: 0 for v in verts}
        for (u, v), d in zip(edges, dirs):
            indeg[v if d == 0 else u] += 1
        if all(indeg[v] == 2 for v in verts):
            count += 1
    return count


def complete_graph(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def holant_by_enumeration(grid):
    """The Holant sum of an ``eightvertex.evaluate.Grid`` by a plain loop
    over all 2^E edge assignments, with no pruning: edge k gives bit s_k
    to its first port and 1 - s_k to its second, and each assignment adds
    the product of every vertex's value at its port bits (port 1 is the
    most significant)."""
    total = 0
    for bits in itertools.product((0, 1), repeat=len(grid.edges)):
        port_bit = {}
        for ((v, p), (w, q)), s in zip(grid.edges, bits):
            port_bit[(v, p)] = s
            port_bit[(w, q)] = 1 - s
        term = 1
        for v in range(len(grid.vertices)):
            f = grid.vertex_sig(v)
            m = 0
            for p in range(1, f.arity + 1):
                m = 2 * m + port_bit[(v, p)]
            term = f.values[m] * term
        total = term + total
    return total
