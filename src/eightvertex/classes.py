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
evaluation; brute-force oracles (exhaustive Q enumeration, definition
level factor search) are provided for cross-validation at small arity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .numeric import Scalar, scalar, as_power_of_i, I, ALPHA
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

    def points(self):
        for bits in range(1 << self.dim):
            m = self.offset
            for j, b in enumerate(self.basis):
                if (bits >> j) & 1:
                    m ^= b
            yield m


# -- class A --------------------------------------------------------------

@dataclass(frozen=True)
class ACertificate:
    """A witness f(x) = lam * i^Q(x) on the affine space, 0 elsewhere.

    Q(x) = a0 + sum_i lin[i] x_i + 2 sum_{i<j} quad[(i,j)] x_i x_j mod 4,
    with variables indexed 1-based, lin values in Z4, quad values in Z2.
    """

    lam: Scalar
    space: AffineSpace
    a0: int = 0
    lin: dict = field(default_factory=dict)
    quad: dict = field(default_factory=dict)

    def q_at(self, m: int) -> int:
        n = self.space.n
        bits = [(m >> (n - i)) & 1 for i in range(1, n + 1)]
        total = self.a0
        for i, a in self.lin.items():
            total += a * bits[i - 1]
        for (i, j), b in self.quad.items():
            total += 2 * b * bits[i - 1] * bits[j - 1]
        return total % 4

    def value_at(self, m: int) -> Scalar:
        if not self.space.contains(m):
            return scalar(0)
        return self.lam * scalar(I) ** self.q_at(m)

    def check(self, f: Signature) -> bool:
        return all(f.values[m] == self.value_at(m)
                   for m in range(1 << f.arity))


def in_A(f: Signature):
    """An ACertificate if f is in class A, else None."""
    n = f.arity
    if f.is_zero():
        return ACertificate(lam=scalar(0), space=AffineSpace.full(n))
    supp = f.support()
    space = AffineSpace.from_support(supp, n)
    if space is None:
        return None
    v0 = f.values[supp[0]]
    exps = {}
    for m in supp:
        k = as_power_of_i((f.values[m] / v0).cyclo)
        if k is None:
            return None
        exps[m] = k
    piv = space.pivots
    k = space.dim
    # index support points by their free-coordinate values
    by_u = {}
    for m in supp:
        u = 0
        for j, p in enumerate(piv):
            if (m >> p) & 1:
                u |= 1 << j
        by_u[u] = exps[m]
    e = by_u
    a0 = e[0]
    lin = [(e[1 << j] - a0) % 4 if k else 0 for j in range(k)]
    quad = {}
    for j in range(k):
        for l in range(j + 1, k):
            c = (e[(1 << j) | (1 << l)] - a0 - lin[j] - lin[l]) % 4
            if c % 2:
                return None
            quad[(j, l)] = c // 2
    for u in range(1 << k):
        val = a0
        for j in range(k):
            if (u >> j) & 1:
                val += lin[j]
        for (j, l), b in quad.items():
            if (u >> j) & 1 and (u >> l) & 1:
                val += 2 * b
        if val % 4 != e[u]:
            return None
    # translate free-coordinate indices to 1-based variable indices
    lin_vars = {n - piv[j]: lin[j] for j in range(k) if lin[j]}
    quad_vars = {tuple(sorted((n - piv[j], n - piv[l]))): b
                 for (j, l), b in quad.items() if b}
    m0 = next(m for m in supp if _u_of(m, piv) == 0)
    lam = f.values[m0] / scalar(I) ** a0
    cert = ACertificate(lam=lam, space=space, a0=a0,
                        lin=lin_vars, quad=quad_vars)
    assert cert.check(f)
    return cert


def _u_of(m: int, piv) -> int:
    u = 0
    for j, p in enumerate(piv):
        if (m >> p) & 1:
            u |= 1 << j
    return u


# -- class P -----------------------------------------------------------

@dataclass(frozen=True)
class PDecomposition:
    """f = lam * tensor product of factors; each factor covers the listed
    1-based variables and has support in at most two complementary
    points."""

    lam: Scalar
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


def _split_rank1(f: Signature, varlist):
    """Try to factor f (over the given 1-based variable labels) across a
    bipartition; return (factors list) or None."""
    n = f.arity
    if _small_antipodal(f):
        return [(tuple(varlist), f)]
    for smask in range(1, 1 << (n - 1)):
        svars = [i for i in range(n) if (smask >> i) & 1]
        ovars = [i for i in range(n) if not (smask >> i) & 1]
        ks, ko = len(svars), len(ovars)
        # matrix rows indexed by svar assignments, cols by the rest
        def idx(r, c):
            m = 0
            for pos, i in enumerate(svars):
                m |= ((r >> (ks - 1 - pos)) & 1) << (n - 1 - i)
            for pos, i in enumerate(ovars):
                m |= ((c >> (ko - 1 - pos)) & 1) << (n - 1 - i)
            return m
        pivot = None
        for r in range(1 << ks):
            for c in range(1 << ko):
                if not f.values[idx(r, c)].is_zero():
                    pivot = (r, c)
                    break
            if pivot:
                break
        if pivot is None:
            continue
        r0, c0 = pivot
        p = f.values[idx(r0, c0)]
        ok = all((f.values[idx(r, c)] * p ==
                  f.values[idx(r, c0)] * f.values[idx(r0, c)])
                 for r in range(1 << ks) for c in range(1 << ko))
        if not ok:
            continue
        g = Signature(ks, [f.values[idx(r, c0)] for r in range(1 << ks)])
        h = Signature(ko, [f.values[idx(r0, c)] / p for c in range(1 << ko)])
        gres = _split_rank1(g, [varlist[i] for i in svars])
        if gres is None:
            continue
        hres = _split_rank1(h, [varlist[i] for i in ovars])
        if hres is None:
            continue
        return gres + hres
    return None


def in_P(f: Signature):
    """A PDecomposition if f is in class P, else None."""
    n = f.arity
    if f.is_zero():
        return PDecomposition(lam=scalar(0), factors=(
            ((tuple(range(1, n + 1)),
              Signature(n, [1] + [0] * ((1 << n) - 1))),)))
    res = _split_rank1(f, list(range(1, n + 1)))
    if res is None:
        return None
    dec = PDecomposition(lam=scalar(1), factors=tuple(res))
    assert dec.check(f)
    return dec


# -- class L and the alpha twist -----------------------------------------

def _alpha_weight_twist(f: Signature, pattern: int) -> Signature:
    """Multiply f(x) by alpha^(number of positions where both pattern and
    x are 1)."""
    a = scalar(ALPHA)
    return Signature(f.arity, [v * a ** (m & pattern).bit_count()
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
        k = as_power_of_i((f.values[m] / v0).cyclo)
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
    """Definition-level class-P test for arity <= 3: search over all set
    partitions of the variables, building each candidate factor by
    restriction."""
    n = f.arity
    if n > 3:
        raise ValueError("oracle limited to arity 3")
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
            prod = scalar(1)
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
