"""Tractable signature classes and membership tests with certificates.

Three families matter here:

* class A: signatures of the form lam * chi_S * i^Q where S is an affine
  subspace of F_2^n and Q is a quadratic form with Z4 coefficients on the
  constant and linear terms and even (0 or 2 mod 4) cross terms;
* class P: tensor products of signatures whose support has at most two
  points, and if two, they are bitwise complements of each other;
* class L: every support point s, used as a weight pattern, turns f into
  a class-A signature after multiplying by alpha^(sum_i s_i x_i), where
  alpha is a square root of i.

``alphaA`` is the twist of class A by diag(1, alpha).

The zero signature belongs to every class by convention (take lam = 0).

Membership tests return certificates that can be re-checked by direct
evaluation, and re-check each one before returning it.  The class-A test
never divides in the field and builds no field element: f(x) = v * i^k
is found by comparing the (numerators, denominator) of f(x) with those
of the four quarter turns of v, which are signed shifts of v's
numerators, before the affine hull of the support is built (the hull is
memoized per support).  The hull carries its walk tables as cached
properties: the points one and two basis vectors off the offset, which
give the linear and cross terms of Q, the order in which Q is extended
to every point from one with a free bit fewer, and the variable of each
pivot.  So a support that recurs costs only the exponent reads and the
compares.  ``ACertificate.check`` compares values the same way, with the
exponent Q(x) summed from bit masks of its terms.  The
class-P test splits f across bipartitions of its variables, recursively.
Two exact screens on the nonzero pattern of f, held as one int, come
before any arithmetic: the support must have 2^k points, and the nonzero
rows of a bipartition's matrix must share one nonzero pattern.  Only a
bipartition that passes both compares cross products, as products of
numerator tuples over one denominator, with no gcd and no field element.
The alphaA and L tests twist f by powers of alpha, each a signed rotation
of the coefficients (``Cyclo8.rotate``), and run the class-A test.
Brute-force oracles (exhaustive Q enumeration, definition level factor
search) are provided for cross-validation at small arity.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .numeric import Cyclo8, ONE, ZERO, as_power_of_i
from .signatures import Signature


# -- affine spaces -------------------------------------------------------

@dataclass(frozen=True)
class AffineSpace:
    """An affine subspace of F_2^n: offset + span(basis).

    Points are bitmasks where bit (n - i) holds variable x_i, matching
    signature value indexing.  The basis is row reduced so each vector has
    a distinct leading bit; those leading bits are the free coordinates
    (projection onto them is a bijection onto F_2^dim).
    """

    n: int
    offset: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self):
        return tuple(v.bit_length() - 1 for v in self.basis)

    @staticmethod
    def from_support(points, n):
        """The affine hull of the points if they form an affine space
        exactly, else None."""
        pts = sorted(set(points))
        if not pts:
            return None
        p0 = pts[0]
        vecs = {p ^ p0 for p in pts}
        basis = []
        for v in sorted(vecs, reverse=True):
            w = v
            for b in basis:
                if w ^ b < w:
                    w ^= b
            if w:
                basis.append(w)
        # full row reduction so leading bits are unique to their vector
        basis.sort(reverse=True)
        for idx, b in enumerate(basis):
            lead = 1 << (b.bit_length() - 1)
            for j in range(len(basis)):
                if j != idx and basis[j] & lead:
                    basis[j] ^= b
        basis.sort(reverse=True)
        if len(pts) != 1 << len(basis):
            return None
        space = AffineSpace(n, p0, tuple(basis))
        if all(space.contains(p) for p in pts):
            return space
        return None

    @staticmethod
    def full(n) -> "AffineSpace":
        return AffineSpace(n, 0, tuple(1 << k for k in range(n - 1, -1, -1)))

    def contains(self, m: int) -> bool:
        w = m ^ self.offset
        for b in self.basis:
            if w ^ b < w:
                w ^= b
        return w == 0

    @functools.cached_property
    def mask(self) -> int:
        """The points as one int: bit m is set iff m is in the space."""
        out = 0
        for m in self.points():
            out |= 1 << m
        return out

    @functools.cached_property
    def variables(self) -> tuple:
        """The 1-based variable of each basis vector's pivot bit."""
        return tuple(self.n - p for p in self.pivots)

    @functools.cached_property
    def singles(self) -> tuple:
        """offset ^ basis[j] for each j: the point whose free coordinates
        are j alone."""
        return tuple(self.offset ^ b for b in self.basis)

    @functools.cached_property
    def pairs(self) -> tuple:
        """(j, l, offset ^ basis[j] ^ basis[l]) for each j < l."""
        off, basis = self.offset, self.basis
        return tuple((j, l, off ^ basis[j] ^ basis[l])
                     for j in range(len(basis))
                     for l in range(j + 1, len(basis)))

    @functools.cached_property
    def walk(self) -> tuple:
        """(u, j, rest, point) for u = 1 .. 2^dim - 1: the point with free
        coordinates u, reached from rest, u with its lowest bit j
        cleared, so that rest always comes before u."""
        pt = [self.offset] * (1 << self.dim)
        out = []
        for u in range(1, 1 << self.dim):
            low = u & -u
            j = low.bit_length() - 1
            rest = u ^ low
            pt[u] = pt[rest] ^ self.basis[j]
            out.append((u, j, rest, pt[u]))
        return tuple(out)

    def points(self):
        for bits in range(1 << self.dim):
            m = self.offset
            for j, b in enumerate(self.basis):
                if (bits >> j) & 1:
                    m ^= b
            yield m


# -- class A --------------------------------------------------------------

def _quarter_turns(c: Cyclo8) -> tuple:
    """The numerators of c * i^k for k = 0..3, over c's denominator: the
    signed shifts of ``Cyclo8.rotate(2 * k)``, written out because four
    rotated Cyclo8s per call made eval-affine 0.87x as fast."""
    a0, a1, a2, a3 = c.n
    return ((a0, a1, a2, a3), (-a2, -a3, a0, a1),
            (-a0, -a1, -a2, -a3), (a2, a3, -a0, -a1))


@dataclass(frozen=True)
class ACertificate:
    """A witness f(x) = lam * i^Q(x) on the affine space, 0 elsewhere.

    Q(x) = sum_i lin[i] x_i + 2 sum_{i<j} quad[(i,j)] x_i x_j mod 4,
    with variables indexed 1-based, lin values in Z4, quad values in Z2.
    """

    lam: Cyclo8
    space: AffineSpace
    lin: dict = field(default_factory=dict)
    quad: dict = field(default_factory=dict)

    def q_at(self, m: int) -> int:
        n = self.space.n
        bits = [(m >> (n - i)) & 1 for i in range(1, n + 1)]
        total = 0
        for i, a in self.lin.items():
            total += a * bits[i - 1]
        for (i, j), b in self.quad.items():
            total += 2 * b * bits[i - 1] * bits[j - 1]
        return total % 4

    def value_at(self, m: int) -> Cyclo8:
        if not self.space.contains(m):
            return ZERO
        return self.lam.rotate(2 * self.q_at(m))

    def check(self, f: Signature) -> bool:
        """True iff f is this certificate's function.  Each value is
        compared, as its (numerators, denominator), with the quarter turn
        of lam that Q picks, Q summed over the bit masks of its terms."""
        n = self.space.n
        if f.arity != n:
            return False
        lam = self.lam
        d = lam.d
        turns = _quarter_turns(lam)
        lin = [(1 << (n - i), a) for i, a in self.lin.items()]
        quad = [((1 << (n - i)) | (1 << (n - j)), 2 * b)
                for (i, j), b in self.quad.items()]
        on = self.space.mask
        for m, c in enumerate(f.values):
            if on >> m & 1:
                q = 0
                for bit, a in lin:
                    if m & bit:
                        q += a
                for mask, b in quad:
                    if m & mask == mask:
                        q += b
                if c.d != d or c.n != turns[q % 4]:
                    return False
            elif any(c.n):
                return False
        return True


# the affine hull of a support, keyed by (support points, arity).  Few
# distinct supports recur: in 5 s benchmark runs the hit rate was 99.96%
# on eval-affine (26 supports, 69300 calls), 99.7% on classify-planted
# (25, 8512) and 98.6% on classify-sweep (3, 209); without the cache
# eval-affine ran 0.78x the ops/s and classify-planted 0.96x.  The space
# objects are shared, so the walk tables that ``in_A`` reads from them
# (``singles``, ``pairs``, ``walk``, ``variables``) are built once per
# support as well
_hull = functools.lru_cache(maxsize=1024)(AffineSpace.from_support)


def in_A(f: Signature):
    """An ACertificate if f is in class A, else None."""
    n = f.arity
    vals = f.values
    supp = [m for m, v in enumerate(vals) if any(v.n)]
    if not supp:
        return ACertificate(lam=ZERO, space=AffineSpace.full(n))
    # f[m] = v0 * i^k exactly when f[m] has v0's denominator and the
    # numerators of the k-th quarter turn of v0
    v0 = vals[supp[0]]
    d = v0.d
    turns = {t: k for k, t in enumerate(_quarter_turns(v0))}
    e = {}
    for m in supp:
        c = vals[m]
        x = turns.get(c.n)
        if x is None or c.d != d:
            return None
        e[m] = x
    space = _hull(tuple(supp), n)
    if space is None:
        return None
    # supp[0], the least point, is the offset and has no pivot bit (XOR
    # with a basis vector would clear its leading bit and give a lesser
    # point), so e[offset] = 0, lam = f[offset], and offset ^ basis[j]
    # has the pivot bit of basis vector j alone
    lin = [e[m] for m in space.singles]
    rows = [0] * len(lin)   # bit l of rows[j]: the cross term x_j x_l
    for j, l, m in space.pairs:
        c = (e[m] - lin[j] - lin[l]) % 4
        if c % 2:
            return None
        if c:
            rows[j] |= 1 << l
    # Q at every point, from the point with its lowest free bit cleared
    q = [0] * (1 << space.dim)
    for u, j, rest, m in space.walk:
        q[u] = q[rest] + lin[j] + 2 * (rows[j] & rest).bit_count()
        if q[u] % 4 != e[m]:
            return None
    var = space.variables
    lin_vars = {var[j]: a for j, a in enumerate(lin) if a}
    quad_vars = {tuple(sorted((var[j], var[l]))): 1
                 for j, l, _ in space.pairs if (rows[j] >> l) & 1}
    cert = ACertificate(lam=vals[space.offset], space=space,
                        lin=lin_vars, quad=quad_vars)
    if not cert.check(f):
        raise AssertionError
    return cert


# -- class P -----------------------------------------------------------

@dataclass(frozen=True)
class PDecomposition:
    """f = lam * tensor product of factors; each factor covers the listed
    1-based variables and has support in at most two complementary
    points."""

    lam: Cyclo8
    factors: tuple  # of (vars tuple, Signature)

    def check(self, f: Signature) -> bool:
        n = f.arity
        covered = [v for vars_, _ in self.factors for v in vars_]
        if sorted(covered) != list(range(1, n + 1)):
            return False
        for m in range(1 << n):
            prod = self.lam
            for vars_, g in self.factors:
                sub = 0
                for v in vars_:
                    sub = (sub << 1) | ((m >> (n - v)) & 1)
                prod = prod * g.values[sub]
            if prod != f.values[m]:
                return False
        for _, g in self.factors:
            if not _small_antipodal(g):
                return False
        return True


def _small_antipodal(g: Signature) -> bool:
    supp = g.support()
    if len(supp) > 2:
        return False
    if len(supp) == 2:
        return supp[0] ^ supp[1] == (1 << g.arity) - 1
    return True


def _restrict(f: Signature, varbits, fixed_m):
    """The signature on the variables in varbits (ascending 1-based)
    obtained by fixing all others to their bits in fixed_m."""
    n = f.arity
    k = len(varbits)
    out = []
    for u in range(1 << k):
        m = fixed_m
        for pos, v in enumerate(varbits):
            bit = (u >> (k - 1 - pos)) & 1
            m = (m & ~(1 << (n - v))) | (bit << (n - v))
        out.append(f.values[m])
    return Signature(k, out)


@functools.lru_cache(maxsize=None)
def _bipartition(n: int, smask: int):
    """The split of the 0-based positions of n variables into those in
    smask and the rest, with index tables: the entry at row r (bits of r
    on the smask positions, first position most significant) and column
    c (bits of c on the rest, likewise) is at index rows[r] | cols[c].
    Row and column bits are disjoint, so that index is also
    rows[r] + cols[c], and ``cells``, the mask with bit cols[c] set for
    every c, shifted left by rows[r] is the cell mask of row r.  Arity is
    at most 6, so the cache holds at most 63 entries."""
    svars = tuple(i for i in range(n) if (smask >> i) & 1)
    ovars = tuple(i for i in range(n) if not (smask >> i) & 1)

    def scatter(positions, a):
        k = len(positions)
        m = 0
        for pos, i in enumerate(positions):
            m |= ((a >> (k - 1 - pos)) & 1) << (n - 1 - i)
        return m

    rows = tuple(scatter(svars, r) for r in range(1 << len(svars)))
    cols = tuple(scatter(ovars, c) for c in range(1 << len(ovars)))
    cells = 0
    for cm in cols:
        cells |= 1 << cm
    return svars, ovars, rows, cols, cells


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two numerator tuples modulo x^4 + 1, as in
    ``numeric._mul`` but with no denominator and no gcd."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _split_rank1(f: Signature, varlist):
    """Try to factor f (over the given 1-based variable labels) across a
    bipartition; return (factors list) or None.

    Two exact screens on the nonzero pattern, one int with bit m set iff
    f[m] != 0, run before any arithmetic: f is rejected unless its
    support has 2^k points (a tensor product of factors with one or two
    support points each has that many), and a bipartition is skipped
    unless every nonzero row of its matrix has the same nonzero columns
    (a rank-one matrix is zero outside R x C, R its nonzero rows and C
    its nonzero columns).  A survivor is rank one iff f[r, c] * pivot =
    f[r, c0] * f[r0, c] on the cells of R x C off the pivot's row and
    column, compared as products of numerator tuples over the lcm of
    f's denominators."""
    n = f.arity
    vals = f.values
    nz = 0
    for m, c in enumerate(vals):
        if any(c.n):
            nz |= 1 << m
    count = nz.bit_count()
    if count & (count - 1):
        return None
    if _small_antipodal(f):
        return [(tuple(varlist), f)]
    d = math.lcm(*[c.d for c in vals])
    nums = [c.n if c.d == d else tuple(k * (d // c.d) for k in c.n)
            for c in vals]
    for smask in range(1, 1 << (n - 1)):
        svars, ovars, rows, cols, cells = _bipartition(n, smask)
        live = [rm for rm in rows if (nz >> rm) & cells]
        pattern = (nz >> live[0]) & cells
        if any((nz >> rm) & cells != pattern for rm in live):
            continue
        on = [cm for cm in cols if (pattern >> cm) & 1]
        # the first nonzero entry, rows before columns, is the pivot
        row0, col0 = live[0], on[0]
        p = nums[row0 | col0]
        if not all(_times(nums[rm | cm], p)
                   == _times(nums[rm | col0], nums[row0 | cm])
                   for rm in live[1:] for cm in on[1:]):
            continue
        pivot = vals[row0 | col0]
        g = Signature(len(svars), [vals[rm | col0] for rm in rows])
        inv = 1 / pivot
        h = Signature(len(ovars), [vals[row0 | cm] * inv for cm in cols])
        gres = _split_rank1(g, [varlist[i] for i in svars])
        if gres is None:
            continue
        hres = _split_rank1(h, [varlist[i] for i in ovars])
        if hres is None:
            continue
        return gres + hres
    return None


def in_P(f: Signature):
    """A PDecomposition if f is in class P, else None.  The factors come
    from ``_split_rank1`` (bit-mask screens, then integer cross products)
    and the decomposition is re-checked before it is returned."""
    n = f.arity
    if f.is_zero():
        return PDecomposition(lam=ZERO, factors=(
            ((tuple(range(1, n + 1)),
              Signature(n, [1] + [0] * ((1 << n) - 1))),)))
    res = _split_rank1(f, list(range(1, n + 1)))
    if res is None:
        return None
    dec = PDecomposition(lam=ONE, factors=tuple(res))
    if not dec.check(f):
        raise AssertionError
    return dec


# -- class L and the alpha twist -----------------------------------------

def _alpha_weight_twist(f: Signature, pattern: int) -> Signature:
    """Multiply f(x) by alpha^(number of positions where both pattern and
    x are 1)."""
    return Signature(f.arity, [
        v.rotate((m & pattern).bit_count())
        for m, v in enumerate(f.values)])


def in_L(f: Signature) -> bool:
    """True iff alpha^(s . x) f(x) is in class A for every support
    point s."""
    if f.is_zero():
        return True
    return all(in_A(_alpha_weight_twist(f, s)) is not None
               for s in f.support())


def in_alphaA(f: Signature):
    """Membership in the diag(1, alpha) twist of class A: returns the
    ACertificate of alpha^{wt(x)} f(x), or None."""
    full = (1 << f.arity) - 1
    return in_A(_alpha_weight_twist(f, full))


# -- brute-force oracles -------------------------------------------------

def oracle_in_A(f: Signature) -> bool:
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
        k = as_power_of_i(f.values[m] / v0)
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


def oracle_in_P(f: Signature) -> bool:
    """Definition-level class-P test for arity <= 4: search over all set
    partitions of the variables (15 at arity 4), building each candidate
    factor by restriction."""
    n = f.arity
    if n > 4:
        raise ValueError("oracle limited to arity 4")
    if f.is_zero():
        return True
    supp = f.support()
    m0 = supp[0]
    f0 = f.values[m0]
    for part in _set_partitions(list(range(1, n + 1))):
        factors = [(tuple(block), _restrict(f, block, m0)) for block in part]
        if not all(_small_antipodal(g) for _, g in factors):
            continue
        ok = True
        for m in range(1 << n):
            prod = ONE
            for block, g in factors:
                sub = 0
                for v in block:
                    sub = (sub << 1) | ((m >> (n - v)) & 1)
                prod = prod * g.values[sub]
            if prod != f.values[m] * f0 ** (len(factors) - 1):
                ok = False
                break
        if ok:
            return True
    return False


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
        yield [[first]] + sub
