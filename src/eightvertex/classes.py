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
never divides in the field and builds no field element, and each of its
three parts does its work once:

1. one pass over the values reads f as lam * i^e on its support, lam the
   first nonzero value: f(x) = lam * i^k is found by comparing the
   (numerators, denominator) of f(x) with those of the four quarter
   turns of lam, which are signed shifts of lam's numerators;
2. the class-A structure of the discrete key (support, arity, e) is
   looked up in a bounded memo (``_A_shape``): the affine hull of the
   support (itself memoized per support), the Z4 linear and the cross
   terms of Q, read off the points one and two basis vectors from the
   offset, the check that Q, extended along the hull's walk, gives e at
   every point, and the terms by variable, as read-only mappings;
3. ``ACertificate.check`` compares every value of f with the quarter
   turn of lam that Q picks, and with 0 off the space.  Q is read from an
   exponent table built once per (space, lin, quad) from the
   certificate's own terms (``_exponents``), which ``value_at`` reads
   too.  The check runs on every call, on a memo hit as well.

So a shape that recurs costs one read of f, two memo lookups and the
compares.

The class-P test reads the same hull.  A member's support is affine and
the reduced basis of its hull is the disjoint variable blocks of its
two-point factors, so two exact screens come before any arithmetic: the
support must be an affine space, and its basis vectors must be pairwise
disjoint.  Only then is f checked to be multiplicative over the blocks,
along the hull's walk, as products of numerator tuples over one
denominator, with no gcd and no field element.
The alphaA and L tests twist f by powers of alpha, each a signed rotation
of the coefficients (``Cyclo8.rotate``), and run the class-A test.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .numeric import Cyclo8, ONE, ZERO
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

    @functools.cached_property
    def parity(self) -> tuple:
        """(ports, rhs) for each non-pivot coordinate, in ascending bit
        order: the 1-based variables whose XOR is rhs on every point.
        Together these rows cut out the space."""
        n, offset, pivots = self.n, self.offset, self.pivots
        rows = []
        for bitpos in range(n):
            if bitpos in pivots:
                continue
            ports = [n - bitpos]
            rhs = (offset >> bitpos) & 1
            for bvec, pj in zip(self.basis, pivots):
                if (bvec >> bitpos) & 1:
                    ports.append(n - pj)
                    rhs ^= (offset >> pj) & 1
            rows.append((tuple(ports), rhs))
        return tuple(rows)

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
    ``in_A`` hands out read-only mappings for lin and quad, shared with
    its memo.
    """

    lam: Cyclo8
    space: AffineSpace
    lin: Mapping = field(default_factory=dict)
    quad: Mapping = field(default_factory=dict)

    @property
    def exponents(self) -> tuple:
        """Q(m) at each point m of the space and None off it, for
        m = 0 .. 2^n - 1, built from this certificate's own lin and quad
        (``_exponents``)."""
        return _exponents(self.space, tuple(self.lin.items()),
                          tuple(self.quad.items()))

    def value_at(self, m: int) -> Cyclo8:
        q = self.exponents[m]
        return ZERO if q is None else self.lam.rotate(2 * q)

    def check(self, f: Signature) -> bool:
        """True iff f is this certificate's function.  Each value is
        compared, as its (numerators, denominator), with the quarter turn
        of lam that Q picks, and with 0 off the space."""
        if f.arity != self.space.n:
            return False
        d = self.lam.d
        turns = _quarter_turns(self.lam)
        for c, q in zip(f.values, self.exponents):
            if q is None:
                if any(c.n):
                    return False
            elif c.d != d or c.n != turns[q]:
                return False
        return True


# Q mod 4 at each point of a space, keyed by (space, lin items, quad
# items): a certificate's terms are summed over its points once, not at
# every check.  Over one pass of each benchmark pool (memos cleared
# first) it holds 255 tables on eval-affine (794 of 1049 lookups hit),
# 215 on classify-planted (1237 of 1452), and none on classify-sweep,
# whose signatures are all hard; warm, every lookup hits
@functools.lru_cache(maxsize=1024)
def _exponents(space: AffineSpace, lin: tuple, quad: tuple) -> tuple:
    n = space.n
    lin = [(1 << (n - i), a) for i, a in lin]
    quad = [((1 << (n - i)) | (1 << (n - j)), 2 * b) for (i, j), b in quad]
    on = space.mask
    table = [None] * (1 << n)
    for m in range(1 << n):
        if on >> m & 1:
            q = 0
            for bit, a in lin:
                if m & bit:
                    q += a
            for mask, b in quad:
                if m & mask == mask:
                    q += b
            table[m] = q % 4
    return tuple(table)


# the affine hull of a support, keyed by (support points, arity).  Few
# distinct supports recur: in 5 s benchmark runs the hit rate was 99.96%
# on eval-affine (26 supports, 69300 calls), 99.7% on classify-planted
# (25, 8512) and 98.6% on classify-sweep (3, 209); without the cache
# eval-affine ran 0.78x the ops/s and classify-planted 0.96x.  The space
# objects are shared, so the walk tables that ``in_A`` and ``in_P`` read
# from them (``singles``, ``pairs``, ``walk``, ``variables``) are built
# once per support as well
_hull = functools.lru_cache(maxsize=1024)(AffineSpace.from_support)


# the class-A structure of (support, arity, e), which does not depend on
# lam.  Few shapes recur even where the signatures differ: over one pass
# of each benchmark pool (memos cleared first) the hit rate was 794 of
# 1049 lookups on eval-affine (255 shapes, where every vertex of the
# nonzero grids has its own signature), 1258 of 1567 on classify-planted
# (309) and 4 of 31 on classify-sweep (27); warm, every lookup hits.
# An entry is its key, the shared space and two mappings of at most
# n(n+1)/2 terms; this memo and ``_exponents`` together held about 170 KB
# for eval-affine's 255 shapes, and 1024 entries hold every pool
@functools.lru_cache(maxsize=1024)
def _A_shape(supp: tuple, n: int, e: tuple):
    """(space, lin, quad) for a signature that is lam * i^e[k] at the
    point supp[k], for each k, and 0 elsewhere, if it is in class A, else
    None.  lin and quad are read-only, so every certificate of the shape
    can share them."""
    space = _hull(supp, n)
    if space is None:
        return None
    at = [0] * (1 << n)     # at[m]: e at the point m
    for m, k in zip(supp, e):
        at[m] = k
    # supp[0], the least point, is the offset and has no pivot bit (XOR
    # with a basis vector would clear its leading bit and give a lesser
    # point), so e at the offset is 0 and offset ^ basis[j] has the pivot
    # bit of basis vector j alone
    lin = [at[m] for m in space.singles]
    rows = [0] * len(lin)   # bit l of rows[j]: the cross term x_j x_l
    for j, l, m in space.pairs:
        c = (at[m] - lin[j] - lin[l]) % 4
        if c % 2:
            return None
        if c:
            rows[j] |= 1 << l
    # Q at every point, from the point with its lowest free bit cleared
    q = [0] * (1 << space.dim)
    for u, j, rest, m in space.walk:
        q[u] = q[rest] + lin[j] + 2 * (rows[j] & rest).bit_count()
        if q[u] % 4 != at[m]:
            return None
    var = space.variables
    lin_vars = {var[j]: a for j, a in enumerate(lin) if a}
    quad_vars = {tuple(sorted((var[j], var[l]))): 1
                 for j, l, _ in space.pairs if (rows[j] >> l) & 1}
    return space, MappingProxyType(lin_vars), MappingProxyType(quad_vars)


def in_A(f: Signature):
    """An ACertificate if f is in class A, else None.

    One pass over the values reads f as lam * i^e on its support, with
    lam = f at the least support point: f[m] = lam * i^k exactly when f[m]
    has lam's denominator and the numerators of the k-th quarter turn of
    lam.  The class-A structure of (support, arity, e) is then looked up
    (``_A_shape``), and the certificate is re-checked against every value
    of f before it is returned."""
    n = f.arity
    vals = f.values
    for m0, lam in enumerate(vals):
        if any(lam.n):
            break
    else:
        return ACertificate(lam=ZERO, space=AffineSpace.full(n))
    d = lam.d
    turns = {t: k for k, t in enumerate(_quarter_turns(lam))}
    supp = []
    e = []
    for m in range(m0, 1 << n):
        c = vals[m]
        k = turns.get(c.n)
        if k is not None and c.d == d:
            supp.append(m)
            e.append(k)
        elif any(c.n):
            return None
    shape = _A_shape(tuple(supp), n, tuple(e))
    if shape is None:
        return None
    space, lin, quad = shape
    cert = ACertificate(lam=lam, space=space, lin=lin, quad=quad)
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
        # lam * (product of the factors) == f on numerator tuples, each
        # signature over the lcm of its denominators, cross-multiplied
        den = self.lam.d
        tables = []
        for vars_, g in self.factors:
            d, nums = _over_lcm(g.values)
            den *= d
            tables.append((vars_, nums))
        df, fnums = _over_lcm(f.values)
        lam = tuple(k * df for k in self.lam.n)
        for m in range(1 << n):
            prod = lam
            for vars_, nums in tables:
                sub = 0
                for v in vars_:
                    sub = (sub << 1) | ((m >> (n - v)) & 1)
                prod = _times(prod, nums[sub])
            if prod != tuple(k * den for k in fnums[m]):
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


def _over_lcm(vals) -> tuple:
    """(d, numerators): the values as numerator tuples over d, the lcm of
    their denominators."""
    d = math.lcm(*[c.d for c in vals])
    return d, [c.n if c.d == d else tuple(k * (d // c.d) for k in c.n)
               for c in vals]


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two numerator tuples modulo x^4 + 1, as in
    ``numeric._mul`` but with no denominator and no gcd."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def in_P(f: Signature):
    """A PDecomposition if f is in class P, else None.

    A nonzero member's support is offset + span of the indicator masks of
    the variable blocks of its two-point factors.  Those masks are
    pairwise disjoint, so they are the reduced basis of the support's
    affine hull (row reduction is unique).  Three screens, in this order:
    the support is an affine space (``_hull``), its basis vectors are
    pairwise disjoint, and f is multiplicative over them.  Only the last
    does arithmetic: along ``space.walk``, f(point) f(offset) = f(rest)
    f(offset ^ basis[j]), compared as products of numerator tuples over
    one denominator.  By induction on the free coordinates u this gives
    f(u) = f(0)^(1 - |u|) * prod f(e_j) over the bits j of u.  The factors
    are then one two-point factor per basis vector, with values 1 and
    f(e_j) / f(0), and one one-point factor on the fixed variables, with
    lam = f(0); the decomposition is re-checked before it is returned."""
    n = f.arity
    if f.is_zero():
        return PDecomposition(lam=ZERO, factors=(
            ((tuple(range(1, n + 1)),
              Signature(n, [1] + [0] * ((1 << n) - 1))),)))
    vals = f.values
    space = _hull(tuple(m for m, v in enumerate(vals) if any(v.n)), n)
    if space is None:
        return None
    blocks = 0
    for b in space.basis:
        if blocks & b:
            return None
        blocks |= b
    off = space.offset
    _, nums = _over_lcm(vals)
    at = [nums[off]]    # at[u]: f at the point with free coordinates u
    for u, j, rest, m in space.walk:
        at.append(nums[m])
        if rest and _times(at[u], at[0]) != _times(at[rest], at[1 << j]):
            return None

    def factor(mask, other):
        """The factor on the variables of mask: 1 at offset's bits on
        them and, if other is given, other at the complementary bits."""
        vars_ = tuple(v for v in range(1, n + 1) if mask >> (n - v) & 1)
        k = len(vars_)
        sub = 0
        for v in vars_:
            sub = (sub << 1) | ((off >> (n - v)) & 1)
        table = [ZERO] * (1 << k)
        table[sub] = ONE
        if other is not None:
            table[sub ^ ((1 << k) - 1)] = other
        return vars_, Signature(k, table)

    inv = 1 / vals[off]
    factors = [factor(b, vals[off ^ b] * inv) for b in space.basis]
    fixed = ((1 << n) - 1) ^ blocks
    if fixed:
        factors.append(factor(fixed, None))
    dec = PDecomposition(lam=vals[off], factors=tuple(factors))
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
