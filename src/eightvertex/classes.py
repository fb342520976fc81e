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
   numerators of f(x) with those of the four quarter turns of lam, which
   are signed shifts of lam's numerators, and its denominator with
   lam's.  The pass gives one code per point, k on the support and 4
   off it;
2. the class-A structure of those codes is looked up in a bounded memo
   (``_A_shape``), one immutable ``AShape`` record per shape: the affine
   hull of the support (itself memoized per support, an ``AffineSpace``
   record whose walk tables are built with it, not cached lazily), the
   Z4 linear and the cross terms of Q, read off the points one and two
   basis vectors from the offset, the check that Q, extended along the
   hull's walk, gives e at every point, the terms by variable as
   read-only mappings, and the exponent table (Q mod 4 at each point,
   None off the space);
3. the certificate is lam and that record.  ``ACertificate.check``
   compares every value of f with the quarter turn of lam that the
   record's table picks, and with 0 off the space; ``value_at`` reads
   the same table.  The check runs on every call, on a memo hit as well.

So a shape that recurs costs one read of f, one memo lookup, a
certificate of two fields, and the compares.  The one memo entry per
shape is read both by the check and by ``evaluate.affine_eval``'s Gauss
sum, which takes the terms and the parity rows of the space straight
from it.  A certificate built by hand gets its record from
``AShape.of``, which computes the table from the terms, uncached.

The class-P test reads the same hull.  A member's support is affine and
the reduced basis of its hull is the disjoint variable blocks of its
two-point factors, so two exact screens come before any arithmetic: the
support must be an affine space, and its basis vectors must be pairwise
disjoint.  Only then is f checked to be multiplicative over the blocks,
along the hull's walk, as products of numerator tuples over one
denominator (the kernel of ``numeric``: ``_over_lcm`` and ``_times``),
with no gcd and no field element.  The decomposition it builds is
re-checked by ``PDecomposition.check``, which recomputes lam times the
product of the factors at every point of f from each factor's values,
read once into one row per point: a row with a zero value needs f to be
0 there and no product, and the other rows are compared with f's
numerators times the common denominator, entry by entry.
The alphaA and L tests twist f by powers of alpha, each a signed rotation
of the coefficients (``Cyclo8.rotate``), and run the class-A test.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .numeric import Cyclo8, ONE, ZERO, _ZERO4, _over_lcm, _times
from .signatures import Signature


# -- affine spaces -------------------------------------------------------

class AffineSpace(NamedTuple):
    """An affine subspace of F_2^n: offset + span(basis), with the walk
    tables that ``in_A``, ``in_P`` and ``affine_eval`` read, built with
    the space by ``from_support`` and ``full``.

    Points are bitmasks where bit (n - i) holds variable x_i, matching
    signature value indexing.  The basis is row reduced so each vector has
    a distinct leading bit; those leading bits are the free coordinates
    (projection onto them is a bijection onto F_2^dim).
    """

    n: int
    offset: int
    basis: tuple
    # the 1-based variable of each basis vector's pivot bit
    variables: tuple
    # offset ^ basis[j] for each j: the point whose free coordinates are
    # j alone
    singles: tuple
    # (j, l, offset ^ basis[j] ^ basis[l]) for each j < l
    pairs: tuple
    # (u, j, rest, point) for u = 1 .. 2^dim - 1: the point with free
    # coordinates u, reached from rest, u with its lowest bit j cleared,
    # so that rest always comes before u
    walk: tuple
    # (ports, rhs) for each non-pivot coordinate, in ascending bit order:
    # the 1-based variables whose XOR is rhs on every point.  Together
    # these rows cut out the space
    parity: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        # the basis spans every p ^ p0, so the points lie in the space,
        # and they fill it exactly when there are 2^dim of them
        if len(pts) != 1 << len(basis):
            return None
        return _space(n, p0, tuple(basis))

    @staticmethod
    def full(n) -> "AffineSpace":
        return _space(n, 0, tuple(1 << k for k in range(n - 1, -1, -1)))


def _space(n: int, offset: int, basis: tuple) -> AffineSpace:
    """offset + span(basis) with its walk tables."""
    pivots = [b.bit_length() - 1 for b in basis]
    pt = [offset] * (1 << len(basis))
    walk = []
    for u in range(1, 1 << len(basis)):
        low = u & -u
        j = low.bit_length() - 1
        rest = u ^ low
        pt[u] = pt[rest] ^ basis[j]
        walk.append((u, j, rest, pt[u]))
    parity = []
    for bitpos in range(n):
        if bitpos in pivots:
            continue
        ports = [n - bitpos]
        rhs = (offset >> bitpos) & 1
        for bvec, pj in zip(basis, pivots):
            if (bvec >> bitpos) & 1:
                ports.append(n - pj)
                rhs ^= (offset >> pj) & 1
        parity.append((tuple(ports), rhs))
    return AffineSpace(
        n, offset, basis, tuple(n - p for p in pivots),
        tuple(offset ^ b for b in basis),
        tuple((j, l, offset ^ basis[j] ^ basis[l])
              for j in range(len(basis)) for l in range(j + 1, len(basis))),
        tuple(walk), tuple(parity))


# -- class A --------------------------------------------------------------

def _quarter_turns(c: Cyclo8) -> tuple:
    """The numerators of c * i^k for k = 0..3, over c's denominator: the
    signed shifts of ``Cyclo8.rotate(2 * k)``, written out because four
    rotated Cyclo8s per call made eval-affine 0.87x as fast."""
    a0, a1, a2, a3 = c.n
    return ((a0, a1, a2, a3), (-a2, -a3, a0, a1),
            (-a0, -a1, -a2, -a3), (a2, a3, -a0, -a1))


class ACertificate(NamedTuple):
    """A witness f(x) = lam * i^Q(x) on an affine space, 0 elsewhere: lam
    and the ``AShape`` of the space and Q, which ``in_A`` shares between
    every certificate of one shape."""

    lam: Cyclo8
    shape: AShape

    def value_at(self, m: int) -> Cyclo8:
        q = self.shape.table[m]
        return ZERO if q is None else self.lam.rotate(2 * q)

    def check(self, f: Signature) -> bool:
        """True iff f is this certificate's function.  Each value is
        compared, as its (numerators, denominator), with the quarter turn
        of lam that Q picks, and with 0 off the space."""
        shape = self.shape
        if f.arity != shape.space.n:
            return False
        d = self.lam.d
        turns = _quarter_turns(self.lam)
        for c, q in zip(f.values, shape.table):
            if q is None:
                if any(c.n):
                    return False
            elif c.d != d or c.n != turns[q]:
                return False
        return True


class AShape(NamedTuple):
    """The class-A structure shared by every signature lam * i^Q of one
    (space, Q): the space, Q's terms by 1-based variable as read-only
    mappings, lin with values in Z4 and quad (the cross terms 2 x_i x_j)
    with values in Z2, and the exponent table, Q mod 4 at each point and
    None off the space.  A record compares by value, and its mappings
    make it unhashable; ``in_A`` still hands out the one record
    of its memo to every certificate of a shape, so those share it
    (``is``)."""

    space: AffineSpace
    lin: Mapping
    quad: Mapping
    table: tuple

    @classmethod
    def of(cls, space: AffineSpace, lin: Mapping, quad: Mapping) -> "AShape":
        """The record of Q(x) = sum_i lin[i] x_i + 2 sum_{i<j} quad[(i,j)]
        x_i x_j on space, built afresh: the terms nonzero mod 4 (lin) or
        mod 2 (quad), reduced, and Q mod 4 at every point of the space."""
        n = space.n
        lin = {i: a % 4 for i, a in lin.items() if a % 4}
        quad = {ij: 1 for ij, b in quad.items() if b % 2}
        bits = [(1 << (n - i), a) for i, a in lin.items()]
        pairs = [(1 << (n - i)) | (1 << (n - j)) for i, j in quad]
        table = [None] * (1 << n)
        for m in (space.offset, *(pt for *_, pt in space.walk)):
            q = 0
            for bit, a in bits:
                if m & bit:
                    q += a
            for mask in pairs:
                if m & mask == mask:
                    q += 2
            table[m] = q % 4
        return cls(space, MappingProxyType(lin), MappingProxyType(quad),
                   tuple(table))


# the affine hull of a support, keyed by (support points, arity).  in_A
# looks it up only on a miss of ``_A_shape``, in_P on every call.  Few
# distinct supports recur: over one pass of each benchmark pool (memos
# cleared first) 231 of 255 lookups hit on eval-affine (24 supports),
# 1258 of 1289 on classify-planted (31) and 1105 of 1198 on
# classify-sweep (93); warm, every lookup hits.  Each space is built
# with the walk tables that ``in_A`` and ``in_P`` read from it
# (``singles``, ``pairs``, ``walk``, ``variables``), so those are built
# once per support as well
_hull = functools.lru_cache(maxsize=1024)(AffineSpace.from_support)


# the AShape record of the codes in_A reads (e at each support point, 4
# off it), which do not depend on lam.  Few shapes recur even where the
# signatures differ: over one pass of each benchmark pool (memos cleared
# first) 794 of 1049 lookups hit on eval-affine (255 shapes, where every
# vertex of the nonzero grids has its own signature), 1258 of 1567 on
# classify-planted (309) and 4 of 31 on classify-sweep (27); warm, every
# lookup hits.  A record is its key, the shared space, two mappings of at
# most n(n+1)/2 terms and a table of 2^n exponents; eval-affine's 255
# records held about 230 KB by tracemalloc, and 1024 hold every pool
@functools.lru_cache(maxsize=1024)
def _A_shape(codes: tuple):
    """The AShape record of a signature that is lam * i^codes[m] at each
    point m with codes[m] < 4 and 0 elsewhere, its arity n given by
    len(codes) = 2^n, if it is in class A, else None.  The record is
    immutable, so every certificate of the shape shares it."""
    n = len(codes).bit_length() - 1
    supp = []
    at = [None] * (1 << n)      # at[m]: e at the point m, None off supp
    for m, k in enumerate(codes):
        if k != 4:
            supp.append(m)
            at[m] = k
    space = _hull(tuple(supp), n)
    if space is None:
        return None
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
    # the space is the support and Q mod 4 is e at every point of it, so
    # at is Q's exponent table: the pivot variables of a point are its
    # free coordinates, the only variables lin and quad name
    var = space.variables
    lin_vars = {var[j]: a for j, a in enumerate(lin) if a}
    quad_vars = {tuple(sorted((var[j], var[l]))): 1
                 for j, l, _ in space.pairs if (rows[j] >> l) & 1}
    return AShape(space, MappingProxyType(lin_vars),
                  MappingProxyType(quad_vars), tuple(at))


def in_A(f: Signature):
    """An ACertificate if f is in class A, else None.

    One pass over the values reads f as lam * i^e on its support, with
    lam = f at the least support point: f[m] = lam * i^k exactly when f[m]
    has lam's denominator and the numerators of the k-th quarter turn of
    lam, and the pass stops at the first value that is neither that nor 0.
    The class-A structure of the codes (k on the support, 4 off it) is
    then looked up (``_A_shape``), and the certificate is re-checked
    against every value of f before it is returned."""
    vals = f.values
    for lam in vals:
        if any(lam.n):
            break
    else:
        return ACertificate(ZERO,
                            AShape.of(AffineSpace.full(f.arity), {}, {}))
    d = lam.d
    t0, t1, t2, t3 = _quarter_turns(lam)
    turns = {t0: 0, t1: 1, t2: 2, t3: 3, _ZERO4: 4}
    codes = []
    for c in vals:
        if c.d == d:
            k = turns.get(c.n)
        else:                   # 0, or no quarter turn of lam
            k = 4 if c.n == _ZERO4 else None
        if k is None:
            return None
        codes.append(k)
    rec = _A_shape(tuple(codes))
    if rec is None:
        return None
    cert = ACertificate(lam, rec)
    if not cert.check(f):
        raise AssertionError
    return cert


# -- class P -----------------------------------------------------------

class PDecomposition(NamedTuple):
    """f = lam * tensor product of factors; each factor covers the listed
    1-based variables and has support in at most two complementary
    points."""

    lam: Cyclo8
    factors: tuple      # of (vars tuple, Signature)

    def check(self, f: Signature) -> bool:
        """True iff the factors cover the variables 1..n of f once each,
        lam times their product is f, and each factor is supported on at
        most two complementary points.

        Each factor's values are read once, over the lcm of its
        denominators, into one row per point of f.  A row with a zero
        value needs f to be 0 there; elsewhere lam times the row's
        product must be f's numerators times the product D of all the
        denominators, compared entry by entry."""
        n = f.arity
        covered = [v for vars_, _ in self.factors for v in vars_]
        if sorted(covered) != list(range(1, n + 1)):
            return False
        den = self.lam.d
        columns = []    # columns[k][m]: factor k's numerators at point m
        for vars_, g in self.factors:
            d, nums = _over_lcm(g.values)
            den *= d
            subs = [0] * (1 << n)
            for v in vars_:
                shift = n - v
                subs = [(sub << 1) | ((m >> shift) & 1)
                        for m, sub in enumerate(subs)]
            columns.append([nums[sub] for sub in subs])
        df, fnums = _over_lcm(f.values)
        lam = tuple(k * df for k in self.lam.n)
        for row, (f0, f1, f2, f3) in zip(zip(*columns), fnums):
            if _ZERO4 in row:
                if f0 or f1 or f2 or f3:
                    return False
                continue
            p0, p1, p2, p3 = functools.reduce(_times, row, lam)
            if (p0 != f0 * den or p1 != f1 * den or p2 != f2 * den
                    or p3 != f3 * den):
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
