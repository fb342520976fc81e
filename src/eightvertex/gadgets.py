"""Gadget constructions on signatures.

All constructions live in the bipartite setting where every edge carries
the binary disequality: composing two arity-4 signatures through a pair of
edges multiplies their matrices with N = antidiag(1,1,1,1) in between, and
attaching a binary signature to a dangling leg goes through one
disequality edge.  A binary signature is an arity-2 :class:`Signature`
g, read as g(s, t) = ``g.values[2 * s + t]``, and acts on a leg as its
2x2 matrix (``signatures._leg_pass``).  Scalar factors are always kept;
nothing is normalized away.  Matrix products and powers are
``numeric.mat_mul`` and ``numeric.mat_pow``.
"""

from __future__ import annotations

from .numeric import ONE, SQRT2, ZERO, mat_mul, mat_pow
from .signatures import Signature, _leg_pass


class ChainFormUnsupported(ValueError):
    """The signature matrix is not diagonalized by the standard involution
    used for chain gadgets."""


def signature_matrix(f: Signature):
    """M(f): rows (x1, x2), columns (x3, x4)."""
    if f.arity != 4:
        raise ValueError("signature_matrix needs arity 4")
    return [[f.values[(r << 2) | c] for c in range(4)] for r in range(4)]


def signature_from_matrix(m) -> Signature:
    vals = [m[r][c] for r in range(4) for c in range(4)]
    return Signature(4, vals)


_N4 = [[ONE if i + j == 3 else ZERO for j in range(4)] for i in range(4)]


def connect_via_n(f: Signature, g: Signature) -> Signature:
    """Join legs (x3, x4) of f to legs (x1, x2) of g through two
    disequality edges: M(h) = M(f) N M(g)."""
    return signature_from_matrix(
        mat_mul(mat_mul(signature_matrix(f), _N4), signature_matrix(g)))


def chain_power(f: Signature, k: int) -> Signature:
    """The chain of k copies of f in a row: M = M(f) (N M(f))^{k-1},
    computed by repeated squaring."""
    if k < 1:
        raise ValueError("chain length must be >= 1")
    m = signature_matrix(f)
    nm = mat_mul(_N4, m)
    return signature_from_matrix(mat_mul(m, mat_pow(nm, k - 1)))


def _require_binary(g: Signature):
    if g.arity != 2:
        raise ValueError(f"need a binary signature, got arity {g.arity}")


def loop_binary(f: Signature, i: int, j: int, g: Signature) -> Signature:
    """Connect variables i and j of f (1-based) through the binary g:
    h(rest) = sum_{s,t} f(.. s at i .. t at j ..) g(s, t).

    g's matrix on leg j makes the value at (.. s at i .. u at j ..) the
    sum over t of g(u, t) f(.. s at i .. t at j ..); h(rest) adds those
    values at u = s = 0 and at u = s = 1."""
    _require_binary(g)
    n = f.arity
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError("need two distinct variable positions")
    if n - 2 < 1:
        raise ValueError("looping would leave arity 0")
    h = _leg_pass(f, (g.values[:2], g.values[2:]), (j,)).values
    both = (1 << (n - i)) | (1 << (n - j))
    return Signature(n - 2, [h[m] + h[m | both]
                             for m in range(1 << n) if not m & both])


def pin(f: Signature, i: int, j: int, vi: int = 1, vj: int = 0) -> Signature:
    """Fix variable i to vi and variable j to vj, dropping both."""
    g = Signature(2, [1 if (s, t) == (vi, vj) else 0
                      for s in (0, 1) for t in (0, 1)])
    return loop_binary(f, i, j, g)


def binary_modify(f: Signature, i: int, g: Signature) -> Signature:
    """Replace leg i of f by leg 1 of g, joined through a disequality edge:
    h(.. v at i ..) = sum_s g(v, 1-s) f(.. s at i ..), the matrix
    [[g01, g00], [g11, g10]] on leg i.

    Modifying by (0, 1, t, 0) scales exactly the entries with x_i = 1
    by t.
    """
    _require_binary(g)
    if not 1 <= i <= f.arity:
        raise ValueError("variable position out of range")
    g00, g01, g10, g11 = g.values
    return _leg_pass(f, ((g01, g00), (g11, g10)), (i,))


# -- eigenstructure of chain gadgets -------------------------------------

_H = ONE / SQRT2
_P = ((_H, ZERO, ZERO, _H),
      (ZERO, _H, _H, ZERO),
      (ZERO, _H, -_H, ZERO),
      (_H, ZERO, ZERO, -_H))


def eigen_report(f: Signature):
    """Diagonalize M(f) by the involution
    P = (1/sqrt2) [[1,0,0,1],[0,1,1,0],[0,1,-1,0],[1,0,0,-1]] (P^2 = I).

    Returns (P, eigenvalues) where M(f) = P diag(eigenvalues) P.  Raises
    ChainFormUnsupported when P M(f) P is not diagonal.
    """
    m = mat_mul(mat_mul(_P, signature_matrix(f)), _P)
    for r in range(4):
        for c in range(4):
            if r != c and not m[r][c].is_zero():
                raise ChainFormUnsupported(
                    "signature matrix is not diagonal in the chain basis")
    return _P, [m[k][k] for k in range(4)]
