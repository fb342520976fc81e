"""Input generators for the benchmark workloads.

Standard library only: every input is produced as the text the program
reads (an eight-vertex signature string, a graph file, a grid JSON
document), so the program under test never sees a benchmark object and
the generator does not depend on the package's internals.

Each workload has a fixed *pool* of inputs drawn from a fixed pool seed.
The expected outputs of every pool item were recorded once from the seed
code (``expected.json``, written by ``record.py``).  The ``--seed`` of a
run picks a stratified sample of the pool (``sample``), so that each run
sees different inputs but the same mix of input kinds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# -- monomials r * zeta^e in Q(zeta8) ---------------------------------------
#
# Every value the generators build is a rational times a power of the
# primitive 8th root of unity zeta, so a pair (r, e mod 8) is closed under
# the products and quotients used below.

def mono(r, e=0):
    return (Fraction(r), e % 8)


def mul(p, q):
    return (p[0] * q[0], (p[1] + q[1]) % 8)


def div(p, q):
    return (p[0] / q[0], (p[1] - q[1]) % 8)


def i_pow(k):
    return (Fraction(1), (2 * k) % 8)


def fmt(p) -> str:
    """The program's four-coefficient scalar syntax "c0,c1,c2,c3"."""
    r, e = p
    coeffs = [Fraction(0)] * 4
    coeffs[e % 4] = r if e < 4 else -r
    return ",".join(str(c) for c in coeffs)


def ev_text(entries) -> str:
    """An eight-vertex signature string a;b;c;d;w;z;y;x (zero entries may
    be None)."""
    return ";".join("0" if v is None else fmt(v) for v in entries)


# The entry pool of the test suite's fuzz generators, in the same order,
# so that draws with the same seed pick the same values.
ENTRY_TEXT = ("0", "1", "-1", "2", "-2", "i", "-i", "a", "-a")
NONZERO = (mono(1), mono(-1), mono(2), mono(-2),
           mono(1, 2), mono(-1, 2), mono(1, 1), mono(-1, 1))


# -- classify-sweep -----------------------------------------------------------

SWEEP_POOL_SEED = 90909
SWEEP_POOL_SIZE = 1000


def sweep_pool():
    """The soundness-sweep corpus: eight entries drawn uniformly from the
    9-value pool, then one discarded draw from the 8 nonzero values (the
    sweep's rescaling factor), per item.  Seed 90909 and 1000 items give
    the sweep test's corpus."""
    rng = random.Random(SWEEP_POOL_SEED)
    out = []
    for _ in range(SWEEP_POOL_SIZE):
        text = ",".join(rng.choice(ENTRY_TEXT) for _ in range(8))
        rng.choice(NONZERO)
        out.append({"sig": text})
    return out


# -- classify-planted ---------------------------------------------------------

PLANTED_POOL_SEED = 31337
PLANTED_ZONES = (("B6", 200), ("B2", 100), ("B1", 100), ("B4", 50),
                 ("B5", 50))


def _planted_b6(rng):
    """Closed-form generic tractable zone: all ratios to c are powers of
    i, z/c = i^(m+n+2), the exponents of b, y, d, w sum to an even
    number, and ax = -i^(j+k) c^2."""
    c = rng.choice(NONZERO)
    j, k, m = (rng.randrange(4) for _ in range(3))
    n = 2 * rng.randrange(2) + (j + k + m) % 2
    ell = m + n + 2
    b, y, d, w, z = (mul(i_pow(t), c) for t in (j, k, m, n, ell))
    a = rng.choice(NONZERO)
    x = div(mul(mul(mono(-1), i_pow(j + k)), mul(c, c)), a)
    return (a, b, c, d, w, z, y, x)


def _binary_core(rng):
    """A binary signature [g00, g01, g10, g11] with nonzero corners in P
    (rank one), A (lam * i^Q) or the alpha twist of A."""
    kind = rng.randrange(3)
    if kind == 0:
        g00, g01, g10 = (rng.choice(NONZERO) for _ in range(3))
        return (g00, g01, g10, div(mul(g01, g10), g00))
    lam = rng.choice(NONZERO)
    a0, l1, l2 = (rng.randrange(4) for _ in range(3))
    b = rng.randrange(2)
    core = [mul(lam, i_pow(a0)), mul(lam, i_pow(a0 + l2)),
            mul(lam, i_pow(a0 + l1)), mul(lam, i_pow(a0 + l1 + l2 + 2 * b))]
    if kind == 2:
        core = [mul(v, mono(1, -wt)) for v, wt in zip(core, (0, 1, 1, 2))]
    return tuple(core)


def _planted_b2(rng):
    """Two (0, 0) inner pairs; the corners and the surviving pair form a
    tractable binary core."""
    g00, g01, g10, g11 = _binary_core(rng)
    inner = [None] * 6          # b, c, d, w, z, y
    keep = rng.randrange(3)     # (b, y), (c, z) or (d, w)
    first, second = ((0, 5), (1, 4), (2, 3))[keep]
    inner[first], inner[second] = g01, g10
    b, c, d, w, z, y = inner
    return (g00, b, c, d, w, z, y, g11)


def _planted_b1(rng):
    """Six-vertex product forms: a product of two binary disequality-
    supported factors (class P) or an i^Q twist of the same support
    (class A), with at most one corner nonzero."""
    if rng.randrange(2):
        u = [rng.choice(NONZERO) for _ in range(2)]
        v = [rng.choice(NONZERO) for _ in range(2)]
        val = {(s, t): mul(u[s], v[t]) for s in (0, 1) for t in (0, 1)}
    else:
        lam = rng.choice(NONZERO)
        a0, l1, l2 = (rng.randrange(4) for _ in range(3))
        q = rng.randrange(2)
        val = {(s, t): mul(lam, i_pow(a0 + l1 * s + l2 * t + 2 * q * s * t))
               for s in (0, 1) for t in (0, 1)}
    pairing = rng.randrange(3)
    e = dict.fromkeys("bcdwzy")
    # entry positions of the four support points for each pairing
    names = (("b", "d", "w", "y"), ("b", "c", "z", "y"),
             ("c", "d", "w", "z"))[pairing]
    for name, st in zip(names, ((0, 0), (0, 1), (1, 0), (1, 1))):
        e[name] = val[st]
    corner = rng.randrange(3)
    a = rng.choice(NONZERO) if corner == 1 else None
    x = rng.choice(NONZERO) if corner == 2 else None
    return (a, e["b"], e["c"], e["d"], e["w"], e["z"], e["y"], x)


def _planted_b4(rng):
    """(y, z, w) = eps (b, c, d) with b^2 = c^2 = d^2 = eps * ax, so that
    every rotational gadget is degenerate and the symmetric-form search
    decides."""
    eps = rng.choice((1, -1))
    u = rng.choice(NONZERO)
    b, c, d = (mul(mono(rng.choice((1, -1))), u) for _ in range(3))
    a = rng.choice(NONZERO)
    x = div(mul(mono(eps), mul(u, u)), a)
    y, z, w = (mul(mono(eps), t) for t in (b, c, d))
    return (a, b, c, d, w, z, y, x)


def _planted_b5(rng):
    """Equal pair products by = cz = dw = ax = i^t with b, c, d powers of
    i, corners of modulus 2 and 1/2 (which defeats the fast path), and a
    common nonzero factor."""
    s = i_pow(rng.randrange(4))
    b, c, d = (i_pow(rng.randrange(4)) for _ in range(3))
    y, z, w = (div(s, t) for t in (b, c, d))
    a = mul(mono(rng.choice((2, -2, Fraction(1, 2), Fraction(-1, 2)))),
            i_pow(rng.randrange(4)))
    x = div(s, a)
    k = rng.choice(NONZERO)
    return tuple(mul(k, v) for v in (a, b, c, d, w, z, y, x))


_PLANTERS = {"B6": _planted_b6, "B2": _planted_b2, "B1": _planted_b1,
             "B4": _planted_b4, "B5": _planted_b5}


def planted_pool():
    rng = random.Random(PLANTED_POOL_SEED)
    out = []
    for zone, count in PLANTED_ZONES:
        for _ in range(count):
            out.append({"zone": zone, "sig": ev_text(_PLANTERS[zone](rng))})
    return out


# -- eval-torus ----------------------------------------------------------------

EO = "0,1,1,1,1,1,1,0"
GENERIC = "1,2,1,-1,1,i,2,3"
TORUS_POOL_SEED = 4242
TORUS_NAMED = ((3, 3, EO), (3, 4, EO), (2, 4, GENERIC), (3, 3, GENERIC))
TORUS_VARIANTS = 40     # per random stratum


def torus_graph(rows: int, cols: int) -> str:
    """An L x M torus in the program's graph syntax; each vertex lists its
    right edge and then its down edge, so ports follow incidence order."""
    lines = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            lines.append(f"{v} {r * cols + (c + 1) % cols}")
            lines.append(f"{v} {((r + 1) % rows) * cols + c}")
    return "\n".join(lines) + "\n"


def torus_pool():
    """The four named tori, then random six-vertex (a = x = 0, pruning
    like EO) and random all-nonzero (never pruning) signatures on the
    2 x 3 torus."""
    out = [{"stratum": "named", "rows": r, "cols": c, "sig": s}
           for r, c, s in TORUS_NAMED]
    rng = random.Random(TORUS_POOL_SEED)
    for stratum in ("six-2x3", "generic-2x3"):
        for _ in range(TORUS_VARIANTS):
            ent = [rng.choice(ENTRY_TEXT[1:]) for _ in range(8)]
            if stratum == "six-2x3":
                ent[0] = ent[7] = "0"
            out.append({"stratum": stratum, "rows": 2, "cols": 3,
                        "sig": ",".join(ent)})
    for item in out:
        item["graph"] = torus_graph(item["rows"], item["cols"])
    return out


# -- eval-affine ----------------------------------------------------------------

AFFINE_POOL_SEED = 40404
AFFINE_SIZES = (100, 200, 300, 400)
AFFINE_VARIANTS = 4     # per size
AFFINE_NONZERO_POOL_SEED = 40405
AFFINE_NONZERO_VARIANTS = 1     # per size
SMALL_GRIDS = 10
SMALL_MAX_EDGES = 16


def _affine_values(rng, n):
    """A random class-A signature of arity n, built from the definition:
    lam * i^Q on the solutions of random parity rows."""
    while True:
        rows = [(rng.randrange(1 << n), rng.randrange(2))
                for _ in range(rng.randrange(0, n + 1))]
        pts = [m for m in range(1 << n)
               if all(bin(m & mask).count("1") % 2 == rhs
                      for mask, rhs in rows)]
        if pts:
            break
    lam = rng.choice(NONZERO)
    lin = {i: rng.randrange(4) for i in range(1, n + 1)}
    quad = {(i, j): rng.randrange(2)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return _a_values(n, pts, lam, rng.randrange(4), lin, quad)


def _a_values(n, pts, lam, a0, lin, quad):
    """The values of lam * i^(a0 + sum lin_i x_i + 2 sum quad_ij x_i x_j)
    on the points pts, and 0 elsewhere; port i is bit n - i of the
    index."""
    vals = []
    for m in range(1 << n):
        if m not in pts:
            vals.append("0")
            continue
        bits = [(m >> (n - i)) & 1 for i in range(1, n + 1)]
        q = a0 + sum(a * bits[i - 1] for i, a in lin.items())
        q += sum(2 * b * bits[i - 1] * bits[j - 1]
                 for (i, j), b in quad.items())
        vals.append(fmt(mul(lam, i_pow(q))))
    return vals


def affine_grid(rng, target_edges: int) -> str:
    """A random closed grid over three random class-A signatures of arity
    1-3: vertices are drawn until the port count reaches 2 * target_edges
    with even parity, then all ports are matched uniformly."""
    arities = [rng.choice((1, 2, 2, 3)) for _ in range(3)]
    sigs = {f"s{k}": {"arity": n, "values": _affine_values(rng, n)}
            for k, n in enumerate(arities)}
    names = list(sigs)
    vertices, ports = [], []
    while len(ports) // 2 < target_edges or len(ports) % 2:
        name = rng.choice(names)
        v = len(vertices)
        vertices.append({"sig": name})
        ports.extend([v, p] for p in range(1, sigs[name]["arity"] + 1))
    rng.shuffle(ports)
    edges = [[ports[2 * k], ports[2 * k + 1]] for k in range(len(ports) // 2)]
    return json.dumps({"signatures": sigs, "vertices": vertices,
                       "edges": edges}, separators=(",", ":"))


def _ports(rng, target_edges):
    """Vertex arities drawn like affine_grid's, and a uniform matching of
    their ports: (arities, edges)."""
    arities, ports = [], []
    while len(ports) // 2 < target_edges or len(ports) % 2:
        n = rng.choice((1, 2, 2, 3))
        ports.extend([len(arities), p] for p in range(1, n + 1))
        arities.append(n)
    rng.shuffle(ports)
    return arities, [[ports[2 * k], ports[2 * k + 1]]
                     for k in range(len(ports) // 2)]


def _radical(n_vars, lin, quad):
    """A basis of the radical {r : M r = 0} of the GF(2) matrix M with
    M_ee = lin[e] mod 2 and M_ef = 1 for (e, f) in quad, as bit masks
    whose top bits increase."""
    rows = [(lin.get(e, 0) & 1) << e for e in range(n_vars)]
    for e, f in quad:
        rows[e] ^= 1 << f
        rows[f] ^= 1 << e
    pivots, radical = {}, []
    for e, row in enumerate(rows):      # M is symmetric: left kernel
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
    return radical


def nonzero_affine_grid(rng, target_edges: int) -> str:
    """A closed grid whose Holant value is nonzero, so that affine_eval
    runs its elimination to the end instead of stopping at a
    contradictory constraint.  Ports are matched like affine_grid's, but
    every vertex has its own full-support class-A signature.

    The value is a nonzero constant times sum_x i^Q(x) over the edge
    variables, with Q(x) = sum lin_e x_e + 2 sum_quad x_e x_f (mod 4).
    Q is additive on the radical of its bilinear form (the M of
    _radical), with values 0 and 2, and the sum is nonzero exactly when
    Q vanishes there, because |sum|^2 = 2^n sum_{r in radical} i^Q(r).
    Adding 2 to lin_e leaves M alone and flips Q(r) for the radical
    vectors r that contain e, so one such step per basis vector, at its
    top bit, makes Q vanish on the radical."""
    arities, edges = _ports(rng, target_edges)
    lins = [{i: rng.randrange(4) for i in range(1, n + 1)} for n in arities]
    quads = [{(i, j): rng.randrange(2) for i in range(1, n + 1)
              for j in range(i + 1, n + 1)} for n in arities]
    # Q in the edge variables: the first end of edge e reads x_e, the
    # second end reads 1 - x_e (constants dropped).
    lit = {}
    for e, (end0, end1) in enumerate(edges):
        lit[tuple(end0)] = (e, 0)
        lit[tuple(end1)] = (e, 1)
    lin, quad = {}, set()
    for v, n in enumerate(arities):
        for i, a in lins[v].items():
            e, t = lit[(v, i)]
            lin[e] = lin.get(e, 0) + a * (1 - 2 * t)
        for (i, j), b in quads[v].items():
            (e1, t1), (e2, t2) = lit[(v, i)], lit[(v, j)]
            if not b:
                continue
            if e1 == e2:
                lin[e1] = lin.get(e1, 0) + 2 * (1 + t1 + t2)
                continue
            lin[e1] = lin.get(e1, 0) + 2 * t2
            lin[e2] = lin.get(e2, 0) + 2 * t1
            quad ^= {(min(e1, e2), max(e1, e2))}
    lin = {e: a % 4 for e, a in lin.items()}
    for r in _radical(len(edges), lin, quad):
        q = sum(a for e, a in lin.items() if r >> e & 1)
        q += 2 * sum(1 for e, f in quad if r >> e & 1 and r >> f & 1)
        if q % 4:
            e = r.bit_length() - 1
            lin[e] = (lin[e] + 2) % 4
            v, p = edges[e][0]
            lins[v][p] = (lins[v][p] + 2) % 4
    sigs = {f"v{v}": {"arity": n,
                      "values": _a_values(n, range(1 << n),
                                          rng.choice(NONZERO),
                                          rng.randrange(4), lins[v],
                                          quads[v])}
            for v, n in enumerate(arities)}
    return json.dumps({"signatures": sigs,
                       "vertices": [{"sig": f"v{v}"}
                                    for v in range(len(arities))],
                       "edges": edges}, separators=(",", ":"))


def affine_pool():
    """Grids like test_04's, whose large values all vanish, then grids
    whose values are nonzero by construction."""
    rng = random.Random(AFFINE_POOL_SEED)
    out = [{"stratum": f"e{size}", "grid": affine_grid(rng, size)}
           for size in AFFINE_SIZES for _ in range(AFFINE_VARIANTS)]
    rng = random.Random(AFFINE_NONZERO_POOL_SEED)
    out += [{"stratum": f"nonzero-e{size}",
             "grid": nonzero_affine_grid(rng, size)}
            for size in AFFINE_SIZES for _ in range(AFFINE_NONZERO_VARIANTS)]
    return out


def small_affine_grids(seed: int):
    """SMALL_GRIDS grids of both kinds, cheap enough to check against
    brute force: (grid text, nonzero by construction)."""
    rng = random.Random(seed)
    out = []
    while len(out) < SMALL_GRIDS:
        nonzero = len(out) % 2 == 1
        make = nonzero_affine_grid if nonzero else affine_grid
        text = make(rng, rng.randint(3, 14))
        if len(json.loads(text)["edges"]) <= SMALL_MAX_EDGES:
            out.append((text, nonzero))
    return out


# -- sampling --------------------------------------------------------------------

def sample(strata, per_stratum, seed: int):
    """A seeded sample of pool indices: per_stratum(name, size) items of
    every stratum, in a seeded order.  strata[i] names the stratum of
    pool item i."""
    rng = random.Random(seed)
    groups = {}
    for idx, name in enumerate(strata):
        groups.setdefault(name, []).append(idx)
    picked = []
    for name, idxs in groups.items():
        picked.extend(rng.sample(idxs, per_stratum(name, len(idxs))))
    rng.shuffle(picked)
    return picked
