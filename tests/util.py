"""Shared helpers for the test suite."""

import random
from fractions import Fraction

from eightvertex.numeric import ALPHA, I, scalar
from eightvertex.signatures import Signature, EightVertexSig, apply_perm

# The entry pool used by fuzz tests: small exact values covering the
# rationals, the imaginary units and the eighth roots.
ENTRY_POOL = tuple(scalar(v) for v in (0, 1, -1, 2, -2, I, -I, ALPHA, -ALPHA))

NONZERO_POOL = ENTRY_POOL[1:]


def random_signature(rng: random.Random, arity: int) -> Signature:
    return Signature(arity, [rng.choice(ENTRY_POOL) for _ in range(1 << arity)])


def random_ev(rng: random.Random) -> EightVertexSig:
    return EightVertexSig(*(rng.choice(ENTRY_POOL) for _ in range(8)))


def ev_sig(a, b, c, d, w, z, y, x) -> Signature:
    return EightVertexSig(a, b, c, d, w, z, y, x)


def reorder(f: Signature, order) -> Signature:
    """The signature whose matrix is M_{x_i x_j, x_k x_l}(f) for
    order = (i, j, k, l)."""
    inv = [0] * 4
    for pos, v in enumerate(order):
        inv[v - 1] = pos + 1
    return apply_perm(f, inv)


def nonzero_fraction(rng: random.Random, lo=-9, hi=9, den=9) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if q != 0:
            return q


def random_affine_signature(rng: random.Random, arity: int):
    """A random member of class A, built straight from the definition:
    lam * i^Q on a random affine subspace."""
    from eightvertex.classes import AffineSpace, ACertificate, AShape

    n = arity
    space = None
    while space is None:
        pts = []
        rows = [(rng.randrange(1 << n), rng.randrange(2))
                for _ in range(rng.randrange(0, n + 1))]
        for m in range(1 << n):
            if all(bin(m & mask).count("1") % 2 == rhs for mask, rhs in rows):
                pts.append(m)
        if pts:
            space = AffineSpace.from_support(pts, n)
    lam = rng.choice(NONZERO_POOL)
    lin = {i: rng.randrange(4) for i in range(1, n + 1)}
    quad = {(i, j): rng.randrange(2)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    a0 = rng.randrange(4)          # a constant term i^a0, folded into lam
    lam = lam.rotate(2 * a0)
    cert = ACertificate(lam, AShape.of(space, lin, quad))
    return Signature(n, [cert.value_at(m) for m in range(1 << n)])


def random_product_signature(rng: random.Random, arity: int) -> Signature:
    """A random member of class P, built straight from the definition: a
    tensor product over a random set partition of the variables of
    factors supported on one point or on two complementary points, with
    values from NONZERO_POOL."""
    order = list(range(arity))
    rng.shuffle(order)
    factors = []
    while order:
        k = rng.randint(1, len(order))
        block, order = order[:k], order[k:]
        p = rng.randrange(1 << k)
        table = {p: rng.choice(NONZERO_POOL)}
        if rng.randrange(2):
            table[p ^ ((1 << k) - 1)] = rng.choice(NONZERO_POOL)
        factors.append((block, table))
    values = []
    for m in range(1 << arity):
        v = scalar(1)
        for block, table in factors:
            sub = 0
            for i in block:
                sub = (sub << 1) | ((m >> (arity - 1 - i)) & 1)
            v = v * table.get(sub, 0)
        values.append(v)
    return Signature(arity, values)


def random_grid(rng: random.Random, sig_pool, target_edges: int):
    """A random closed grid: vertices drawn from sig_pool (a dict
    name -> Signature) until the port count reaches about 2*target_edges
    with even parity, then a uniform perfect matching of all ports.  The
    edge count can overshoot the target by at most two."""
    from eightvertex.evaluate import Grid

    names = list(sig_pool)
    vertices = []
    ports = []
    while len(ports) // 2 < target_edges or len(ports) % 2:
        name = rng.choice(names)
        v = len(vertices)
        vertices.append(name)
        ports.extend((v, p) for p in range(1, sig_pool[name].arity + 1))
    rng.shuffle(ports)
    edges = [(ports[2 * k], ports[2 * k + 1]) for k in range(len(ports) // 2)]
    return Grid(dict(sig_pool), vertices, edges)


def quadratic_signature(rng, n: int) -> Signature:
    """i^(linear + 2 * quadratic form) on every point of {0,1}^n: class A
    with full support, so no entry is ever pruned."""
    lin = [rng.randrange(4) for _ in range(n)]
    quad = [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.randrange(2)]
    vals = []
    for m in range(1 << n):
        x = [(m >> (n - 1 - i)) & 1 for i in range(n)]
        e = sum(a * b for a, b in zip(lin, x))
        e += 2 * sum(x[i] * x[j] for i, j in quad)
        vals.append(I ** (e % 4))
    return Signature(n, vals)


def prism_grid(rng, rungs: int, pool: dict):
    """Two rings of arity-3 vertices joined by rungs: 3 * rungs edges, a
    narrow frontier, and a signature drawn from pool at each vertex."""
    from eightvertex.evaluate import Grid

    edges = []
    for k in range(rungs):
        for r in (0, 1):
            edges.append(((2 * k + r, 1), (2 * ((k + 1) % rungs) + r, 2)))
        edges.append(((2 * k, 3), (2 * k + 1, 3)))
    names = [rng.choice(sorted(pool)) for _ in range(2 * rungs)]
    return Grid(pool, names, edges)


def _full_affine_signature(n, lam, lin, quad) -> Signature:
    """lam * i^Q on every point of {0,1}^n, Q given by its 1-based
    linear and cross terms."""
    from eightvertex.classes import AffineSpace, ACertificate, AShape

    cert = ACertificate(lam, AShape.of(AffineSpace.full(n), lin, quad))
    return Signature(n, [cert.value_at(m) for m in range(1 << n)])


def nonzero_affine_grid(rng: random.Random, target_edges: int):
    """A closed grid whose Holant value is nonzero by construction, built
    like ``benchmark/gen.py``'s grids of that name: vertices of arity 1-3
    whose ports are matched uniformly, each vertex with its own
    full-support class-A signature.

    In the edge variables the value is a nonzero constant times the sum
    of i^Q(x), Q(x) = sum lin_e x_e + 2 sum_quad x_e x_f (mod 4), the
    first end of edge e reading x_e and the second 1 - x_e.  That sum is
    nonzero exactly when Q vanishes on the radical of the GF(2) form
    with diagonal lin mod 2 and off-diagonal quad.  Q is additive there,
    with values 0 and 2, and adding 2 to lin_e flips it on the radical
    vectors that contain e, so one such step per radical basis vector,
    at its top bit, makes it vanish."""
    from eightvertex.evaluate import Grid

    arities, ports = [], []
    while len(ports) // 2 < target_edges or len(ports) % 2:
        n = rng.choice((1, 2, 2, 3))
        ports.extend((len(arities), p) for p in range(1, n + 1))
        arities.append(n)
    rng.shuffle(ports)
    edges = [(ports[2 * k], ports[2 * k + 1]) for k in range(len(ports) // 2)]
    lins = [{i: rng.randrange(4) for i in range(1, n + 1)} for n in arities]
    quads = [{(i, j): rng.randrange(2) for i in range(1, n + 1)
              for j in range(i + 1, n + 1)} for n in arities]
    lit = {}
    for e, (end0, end1) in enumerate(edges):
        lit[end0] = (e, 0)
        lit[end1] = (e, 1)
    lin, quad = [0] * len(edges), set()
    for v, n in enumerate(arities):
        for i, a in lins[v].items():
            e, t = lit[(v, i)]
            lin[e] += a * (1 - 2 * t)
        for (i, j), b in quads[v].items():
            (e1, t1), (e2, t2) = lit[(v, i)], lit[(v, j)]
            if not b:
                continue
            if e1 == e2:
                lin[e1] += 2 * (1 + t1 + t2)
                continue
            lin[e1] += 2 * t2
            lin[e2] += 2 * t1
            quad ^= {(min(e1, e2), max(e1, e2))}
    # the radical: the left kernel of the symmetric GF(2) matrix
    rows = [(lin[e] & 1) << e for e in range(len(edges))]
    for e, f in quad:
        rows[e] ^= 1 << f
        rows[f] ^= 1 << e
    pivots, radical = {}, []
    for e, row in enumerate(rows):
        combo = 1 << e
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, combo)
                break
            row ^= pivots[top][0]
            combo ^= pivots[top][1]
        if not row:
            radical.append(combo)
    for r in radical:
        q = sum(a for e, a in enumerate(lin) if r >> e & 1)
        q += 2 * sum(1 for e, f in quad if r >> e & 1 and r >> f & 1)
        if q % 4:
            e = r.bit_length() - 1
            lin[e] += 2
            v, p = edges[e][0]
            lins[v][p] = (lins[v][p] + 2) % 4
    sigs = {f"v{v}": _full_affine_signature(n, rng.choice(NONZERO_POOL),
                                            lins[v], quads[v])
            for v, n in enumerate(arities)}
    return Grid(sigs, [f"v{v}" for v in range(len(arities))], edges)
