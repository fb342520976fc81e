"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: deletion-contraction for the
Tutte polynomial, direct orientation enumeration for Eulerian
orientation counts, exhaustive quadratic forms and set partitions for
membership in classes A and P, and holographic transforms summed term
by term from their definition in Cyclo8 arithmetic.  The package code must agree with these
on small inputs; the frozen constants in the test files were produced by
these oracles.
"""

import itertools
from fractions import Fraction

from eightvertex.numeric import Cyclo8
from eightvertex.signatures import Signature

_I = Cyclo8(0, 0, 1, 0)


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


def holographic_by_definition(f, rows):
    """T^{tensor n} f from the definition: the value at y is the sum over
    x of f(x) * prod_i T[y_i][x_i], each product and sum a Cyclo8
    operation, with no slot passes and no common denominator."""
    n = f.arity
    out = []
    for y in range(1 << n):
        total = Cyclo8(0)
        for x, v in enumerate(f.values):
            term = v
            for shift in range(n):
                term = term * rows[(y >> shift) & 1][(x >> shift) & 1]
            total = total + term
        out.append(total)
    return Signature(n, out)


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
            f = grid.signatures[grid.vertices[v]]
            m = 0
            for p in range(1, f.arity + 1):
                m = 2 * m + port_bit[(v, p)]
            term = f.values[m] * term
        total = term + total
    return total


# -- class membership: A at arity <= 4, P at arity <= 6 -------------------

def oracle_in_A(f):
    """Exhaustive class-A test for arity <= 4: support closure under
    threefold XOR plus enumeration of every quadratic exponent form."""
    n = f.arity
    if n > 4:
        raise ValueError("oracle limited to arity 4")
    if f.is_zero():
        return True
    supp = f.support()
    sset = set(supp)
    for p in supp:
        for q in supp:
            for r in supp:
                if p ^ q ^ r not in sset:
                    return False
    v0 = f.values[supp[0]]
    exps = {}
    for m in supp:
        k = next((k for k in range(4) if f.values[m] == v0 * _I ** k), None)
        if k is None:
            return False
        exps[m] = k
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for lin in itertools.product(range(4), repeat=n):
        for bvals in itertools.product(range(2), repeat=len(pairs)):
            shift = None
            ok = True
            for m in supp:
                bits = [(m >> (n - i)) & 1 for i in range(1, n + 1)]
                q = sum(lin[i] * bits[i] for i in range(n))
                for (i, j), b in zip(pairs, bvals):
                    q += 2 * b * bits[i - 1] * bits[j - 1]
                delta = (exps[m] - q) % 4
                if shift is None:
                    shift = delta
                elif shift != delta:
                    ok = False
                    break
            if ok:
                return True
    return False


def oracle_in_P(f):
    """Definition-level class-P test for arity <= 6: search over all set
    partitions of the variables (15 at arity 4, 52 at 5, 203 at 6),
    building each candidate factor by restriction."""
    n = f.arity
    if n > 6:
        raise ValueError("oracle limited to arity 6")
    if f.is_zero():
        return True
    supp = f.support()
    m0 = supp[0]
    f0 = f.values[m0]
    for part in _set_partitions(list(range(1, n + 1))):
        factors = [(block, _restrict(f, block, m0)) for block in part]
        if not all(_complementary_support(vals) for _, vals in factors):
            continue
        ok = True
        for m in range(1 << n):
            prod = 1
            for block, vals in factors:
                sub = 0
                for v in block:
                    sub = (sub << 1) | ((m >> (n - v)) & 1)
                prod = vals[sub] * prod
            if prod != f.values[m] * f0 ** (len(factors) - 1):
                ok = False
                break
        if ok:
            return True
    return False


def _complementary_support(vals):
    """True iff the table vals over k bits is nonzero at no more than two
    points, and at two only if they are complements: m + m' = 2^k - 1."""
    supp = [m for m, v in enumerate(vals) if not v.is_zero()]
    return len(supp) < 2 or (len(supp) == 2
                              and supp[0] + supp[1] == len(vals) - 1)


def _restrict(f, varbits, fixed_m):
    """The table of f over the variables in varbits (ascending 1-based)
    with all others fixed to their bits in fixed_m."""
    n = f.arity
    k = len(varbits)
    out = []
    for u in range(1 << k):
        m = fixed_m
        for pos, v in enumerate(varbits):
            bit = (u >> (k - 1 - pos)) & 1
            m = (m & ~(1 << (n - v))) | (bit << (n - v))
        out.append(f.values[m])
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
        yield [[first]] + sub
