"""Gadget constructions on signatures.

All constructions live in the bipartite setting where every edge carries
the binary disequality: composing two arity-4 signatures through a pair of
edges multiplies their matrices with N = antidiag(1,1,1,1) in between, and
attaching a binary signature to a dangling leg goes through one
disequality edge.  Scalar factors are always kept; nothing is normalized
away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numeric import Cyclo8, ONE, SQRT2, ZERO, scalar
from .signatures import Signature


class ChainFormUnsupported(ValueError):
    """The signature matrix is not diagonalized by the standard involution
    used for chain gadgets."""


@dataclass(frozen=True)
class BinarySig:
    """A binary signature (g00, g01, g10, g11)."""

    g00: Cyclo8
    g01: Cyclo8
    g10: Cyclo8
    g11: Cyclo8

    @staticmethod
    def make(g00, g01, g10, g11) -> "BinarySig":
        return BinarySig(*(scalar(v) for v in (g00, g01, g10, g11)))

    def at(self, s: int, t: int) -> Cyclo8:
        return (self.g00, self.g01, self.g10, self.g11)[2 * s + t]

    def to_signature(self) -> Signature:
        return Signature(2, [self.g00, self.g01, self.g10, self.g11])

    def matrix(self):
        return ((self.g00, self.g01), (self.g10, self.g11))


def signature_matrix(f: Signature):
    """M(f): rows (x1, x2), columns (x3, x4)."""
    if f.arity != 4:
        raise ValueError("signature_matrix needs arity 4")
    return [[f.values[(r << 2) | c] for c in range(4)] for r in range(4)]


def signature_from_matrix(m) -> Signature:
    vals = [m[r][c] for r in range(4) for c in range(4)]
    return Signature(4, vals)


def _mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO)
             for j in range(n)] for i in range(n)]


def _mat_pow(m, e: int):
    n = len(m)
    result = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    base = m
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    return result


_N4 = [[ONE if i + j == 3 else ZERO for j in range(4)] for i in range(4)]


def connect_via_n(f: Signature, g: Signature) -> Signature:
    """Join legs (x3, x4) of f to legs (x1, x2) of g through two
    disequality edges: M(h) = M(f) N M(g)."""
    return signature_from_matrix(
        _mat_mul(_mat_mul(signature_matrix(f), _N4), signature_matrix(g)))


def chain_power(f: Signature, k: int) -> Signature:
    """The chain of k copies of f in a row: M = M(f) (N M(f))^{k-1},
    computed by repeated squaring."""
    if k < 1:
        raise ValueError("chain length must be >= 1")
    m = signature_matrix(f)
    nm = _mat_mul(_N4, m)
    return signature_from_matrix(_mat_mul(m, _mat_pow(nm, k - 1)))


def loop_binary(f: Signature, i: int, j: int, g: BinarySig) -> Signature:
    """Connect variables i and j of f (1-based) through the binary g:
    h(rest) = sum_{s,t} f(.. s at i .. t at j ..) g(s, t)."""
    n = f.arity
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError("need two distinct variable positions")
    if n - 2 < 1:
        raise ValueError("looping would leave arity 0")
    bi, bj = n - i, n - j
    rest = [k for k in range(n - 1, -1, -1) if k not in (bi, bj)]
    out = []
    for m in range(1 << (n - 2)):
        base = 0
        for pos, k in enumerate(rest):
            if (m >> (n - 3 - pos)) & 1:
                base |= 1 << k
        acc = ZERO
        for s in (0, 1):
            for t in (0, 1):
                idx = base | (s << bi) | (t << bj)
                acc = acc + f.values[idx] * g.at(s, t)
        out.append(acc)
    return Signature(n - 2, out)


def pin(f: Signature, i: int, j: int, vi: int = 1, vj: int = 0) -> Signature:
    """Fix variable i to vi and variable j to vj, dropping both."""
    g = BinarySig.make(*(1 if (s, t) == (vi, vj) else 0
                         for s in (0, 1) for t in (0, 1)))
    return loop_binary(f, i, j, g)


def binary_modify(f: Signature, i: int, g: BinarySig) -> Signature:
    """Replace leg i of f by leg 1 of g, joined through a disequality edge:
    h(.. v at i ..) = sum_s g(v, 1-s) f(.. s at i ..).

    Modifying by (0, 1, t, 0) scales exactly the entries with x_i = 1
    by t.
    """
    n = f.arity
    if not 1 <= i <= n:
        raise ValueError("variable position out of range")
    bi = n - i
    out = []
    for m in range(1 << n):
        v = (m >> bi) & 1
        acc = ZERO
        for s in (0, 1):
            idx = (m & ~(1 << bi)) | (s << bi)
            acc = acc + g.at(v, 1 - s) * f.values[idx]
        out.append(acc)
    return Signature(n, out)


# -- eigenstructure of chain gadgets -------------------------------------

def _standard_p():
    h = ONE / SQRT2
    return [[h, ZERO, ZERO, h],
            [ZERO, h, h, ZERO],
            [ZERO, h, -h, ZERO],
            [h, ZERO, ZERO, -h]]


def eigen_report(f: Signature):
    """Diagonalize M(f) by the involution
    P = (1/sqrt2) [[1,0,0,1],[0,1,1,0],[0,1,-1,0],[1,0,0,-1]] (P^2 = I).

    Returns (P, eigenvalues) where M(f) = P diag(eigenvalues) P.  Raises
    ChainFormUnsupported when P M(f) P is not diagonal.
    """
    p = _standard_p()
    m = _mat_mul(_mat_mul(p, signature_matrix(f)), p)
    for r in range(4):
        for c in range(4):
            if r != c and not m[r][c].is_zero():
                raise ChainFormUnsupported(
                    "signature matrix is not diagonal in the chain basis")
    return p, [m[k][k] for k in range(4)]
