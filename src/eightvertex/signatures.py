"""Signatures: finite tables of exact values indexed by Boolean inputs.

A :class:`Signature` of arity n stores 2^n scalars in lexicographic order
of (x1, ..., xn) with x1 as the most significant bit.  Arity-4 signatures
whose support lies inside the even-weight "pair" positions are the
eight-vertex signatures; :class:`EightVertexSig` is the compact view
(a, b, c, d, w, z, y, x) with matrix

    M(f) = [[a, 0, 0, b],
            [0, c, d, 0],
            [0, w, z, 0],
            [y, 0, 0, x]]

rows indexed by (x1, x2) and columns by (x3, x4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .numeric import Scalar, scalar, parse_scalar


class OddSupportWithHalfTransform(ValueError):
    """A diag(1, gamma) transform known only through gamma^2 was applied to
    a signature with odd-weight support, where the result would need gamma
    itself."""


class Signature:
    """An exact-valued constraint function of arity 1..6."""

    __slots__ = ("arity", "values")

    def __init__(self, arity: int, values):
        if not 1 <= arity <= 6:
            raise ValueError(f"arity must be 1..6, got {arity}")
        vals = tuple(scalar(v) for v in values)
        if len(vals) != 1 << arity:
            raise ValueError(
                f"arity {arity} needs {1 << arity} values, got {len(vals)}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("Signature is immutable")

    def __getitem__(self, m: int) -> Scalar:
        return self.values[m]

    def at(self, *bits) -> Scalar:
        m = 0
        for b in bits:
            m = (m << 1) | (b & 1)
        return self.values[m]

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self.arity == other.arity and all(
            a == b for a, b in zip(self.values, other.values))

    def __repr__(self):
        return f"Signature({self.arity}, [{', '.join(map(str, self.values))}])"

    # -- basic queries -------------------------------------------------

    def support(self):
        return [m for m, v in enumerate(self.values) if not v.is_zero()]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def scale(self, s) -> "Signature":
        s = scalar(s)
        return Signature(self.arity, [s * v for v in self.values])

    def proportional_to(self, other: "Signature"):
        """A scalar s with self = s * other, or None."""
        if self.arity != other.arity:
            return None
        s = None
        for a, b in zip(self.values, other.values):
            if b.is_zero():
                if not a.is_zero():
                    return None
                continue
            r = a / b
            if s is None:
                s = r
            elif s != r:
                return None
        if s is None:
            s = scalar(0) if self.is_zero() else None
        return s


# -- eight-vertex view -------------------------------------------------

_EV_POSITIONS = {
    "a": 0b0000, "b": 0b0011, "c": 0b0101, "d": 0b0110,
    "w": 0b1001, "z": 0b1010, "y": 0b1100, "x": 0b1111,
}
_EV_ORDER = "abcdwzyx"


@dataclass(frozen=True)
class EightVertexSig:
    """The eight entries (a, b, c, d, w, z, y, x) of an eight-vertex
    signature, in the layout of the matrix docstring above."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    w: Scalar
    z: Scalar
    y: Scalar
    x: Scalar

    @staticmethod
    def make(a, b, c, d, w, z, y, x) -> "EightVertexSig":
        return EightVertexSig(*(scalar(v) for v in (a, b, c, d, w, z, y, x)))

    @staticmethod
    def parse(text: str) -> "EightVertexSig":
        """Parse "a,b,c,d,w,z,y,x".  When an entry itself uses the
        four-coefficient scalar form (which contains commas), separate the
        eight entries with ';' instead."""
        t = text.strip()
        if ";" in t:
            parts = [p.strip() for p in t.split(";")]
        else:
            parts = [p.strip() for p in t.split(",")]
        if len(parts) != 8:
            raise ValueError(
                "expected 8 entries a,b,c,d,w,z,y,x "
                "(use ';' separators if entries contain commas)")
        return EightVertexSig(*(parse_scalar(p) for p in parts))

    def entries(self):
        return (self.a, self.b, self.c, self.d, self.w, self.z, self.y, self.x)

    def to_signature(self) -> Signature:
        vals = [scalar(0)] * 16
        for name, pos in _EV_POSITIONS.items():
            vals[pos] = getattr(self, name)
        return Signature(4, vals)

    def scale(self, s) -> "EightVertexSig":
        s = scalar(s)
        return EightVertexSig(*(s * v for v in self.entries()))

    def pairs(self):
        """The three inner pairs ((b, y), (c, z), (d, w))."""
        return ((self.b, self.y), (self.c, self.z), (self.d, self.w))

    def outer(self):
        return (self.a, self.x)

    def is_six_vertex(self) -> bool:
        return self.a.is_zero() and self.x.is_zero()

    def __str__(self):
        return ";".join(str(v) for v in self.entries())


def eight_vertex_readoff(f: Signature):
    """The EightVertexSig view of f, or None if f is not arity 4 with
    support inside the eight pair positions."""
    if f.arity != 4:
        return None
    allowed = set(_EV_POSITIONS.values())
    for m in f.support():
        if m not in allowed:
            return None
    return EightVertexSig(*(f.values[_EV_POSITIONS[n]] for n in _EV_ORDER))


def is_eight_vertex(f: Signature) -> bool:
    return eight_vertex_readoff(f) is not None


def matrix_view(f: Signature, row_vars: int = None):
    """f as a matrix with rows indexed by the first row_vars variables and
    columns by the rest.  Defaults to an even split."""
    n = f.arity
    if row_vars is None:
        row_vars = n // 2
    if not 0 <= row_vars <= n:
        raise ValueError("row_vars out of range")
    cols = n - row_vars
    return [[f.values[(r << cols) | c] for c in range(1 << cols)]
            for r in range(1 << row_vars)]


def compressed_matrix(f: Signature):
    """The 3x3 matrix over input weights used for redundancy arguments:

        [[f0000, f0001, f0011],
         [f0100, f0101, f0111],
         [f1100, f1101, f1111]]
    """
    if f.arity != 4:
        raise ValueError("compressed_matrix needs arity 4")
    v = f.values
    return [[v[0b0000], v[0b0001], v[0b0011]],
            [v[0b0100], v[0b0101], v[0b0111]],
            [v[0b1100], v[0b1101], v[0b1111]]]


def is_redundant(f: Signature) -> bool:
    """True iff the signature matrix of f has identical middle rows and
    identical middle columns; for eight-vertex signatures this means
    c = d = w = z."""
    if f.arity != 4:
        return False
    m = matrix_view(f, 2)
    if m[1] != m[2]:
        return False
    return all(m[r][1] == m[r][2] for r in range(4))


# -- variable permutations ---------------------------------------------

def apply_perm(f: Signature, perm) -> Signature:
    """The signature g(y) = f(y_{perm[0]}, ..., y_{perm[n-1]}) with perm a
    1-based permutation of (1..n)."""
    n = f.arity
    p = tuple(perm)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {perm}")
    out = [None] * (1 << n)
    for m in range(1 << n):
        src = 0
        for k in range(n):
            bit = (m >> (n - p[k])) & 1
            src = (src << 1) | bit
        out[m] = f.values[src]
    return Signature(n, out)


def pair_orbit(ev: EightVertexSig):
    """All distinct eight-vertex signatures obtained from ev by permuting
    its four variables.  The orbit permutes the three inner pairs and
    applies even numbers of within-pair swaps; it has at most 24 members."""
    f = ev.to_signature()
    seen = []
    for perm in itertools.permutations(range(1, 5)):
        g = eight_vertex_readoff(apply_perm(f, perm))
        assert g is not None
        if not any(all(u == v for u, v in zip(g.entries(), h.entries()))
                   for h in seen):
            seen.append(g)
    return seen


# -- holographic transforms --------------------------------------------

class Transform2x2:
    """An invertible 2x2 matrix acting on signatures by T^{tensor n}.

    Either a full matrix of scalars, or a half-specified diagonal
    diag(1, gamma) known only through gamma^2 (``gamma_sq``).  The half
    form can act on even-weight-support signatures without ever naming
    gamma itself.
    """

    __slots__ = ("rows", "gamma_sq")

    def __init__(self, rows=None, gamma_sq=None):
        if (rows is None) == (gamma_sq is None):
            raise ValueError("exactly one of rows/gamma_sq required")
        if rows is not None:
            rows = tuple(tuple(scalar(v) for v in r) for r in rows)
            if len(rows) != 2 or any(len(r) != 2 for r in rows):
                raise ValueError("rows must be 2x2")
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det.is_zero():
                raise ValueError("transform must be invertible")
        else:
            gamma_sq = scalar(gamma_sq)
            if gamma_sq.is_zero():
                raise ValueError("gamma_sq must be nonzero")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "gamma_sq", gamma_sq)

    def __setattr__(self, name, value):
        raise AttributeError("Transform2x2 is immutable")

    @staticmethod
    def identity() -> "Transform2x2":
        return Transform2x2(rows=((1, 0), (0, 1)))

    @staticmethod
    def diag(u, v) -> "Transform2x2":
        return Transform2x2(rows=((u, 0), (0, v)))

    @staticmethod
    def half_diag(gamma_sq) -> "Transform2x2":
        return Transform2x2(gamma_sq=gamma_sq)

    @property
    def is_half(self) -> bool:
        return self.rows is None

    def full_rows(self):
        if self.is_half:
            raise ValueError("half-specified transform has no full matrix")
        return self.rows

    def inverse(self) -> "Transform2x2":
        if self.is_half:
            return Transform2x2(gamma_sq=scalar(1) / self.gamma_sq)
        (a, b), (c, d) = self.rows
        det = a * d - b * c
        return Transform2x2(rows=((d / det, -b / det), (-c / det, a / det)))

    def compose(self, other: "Transform2x2") -> "Transform2x2":
        """Matrix product self @ other; both must be full or both diagonal."""
        if self.is_half or other.is_half:
            if self.is_half and other.is_half:
                return Transform2x2(gamma_sq=self.gamma_sq * other.gamma_sq)
            raise ValueError("cannot compose half and full transforms")
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return Transform2x2(rows=((a * e + b * g, a * f + b * h),
                                  (c * e + d * g, c * f + d * h)))

    def __repr__(self):
        if self.is_half:
            return f"Transform2x2(gamma_sq={self.gamma_sq})"
        return f"Transform2x2({self.rows!r})"


def holographic_transform(f: Signature, t: Transform2x2) -> Signature:
    """T^{tensor n} f with f read as a column vector in lex order."""
    n = f.arity
    if t.is_half:
        out = []
        gsq = t.gamma_sq
        for m, v in enumerate(f.values):
            w = m.bit_count()
            if w % 2:
                if not v.is_zero():
                    raise OddSupportWithHalfTransform(
                        "support point of odd weight under a half-specified "
                        "diagonal transform")
                out.append(v)
            else:
                out.append(v * gsq ** (w // 2))
        return Signature(n, out)
    rows = t.rows
    vals = list(f.values)
    # apply T to one tensor slot at a time
    for k in range(n):
        step = 1 << (n - 1 - k)
        new = list(vals)
        for m in range(1 << n):
            if m & step:
                continue
            lo, hi = vals[m], vals[m | step]
            new[m] = rows[0][0] * lo + rows[0][1] * hi
            new[m | step] = rows[1][0] * lo + rows[1][1] * hi
        vals = new
    return Signature(n, vals)


# -- standard signatures ------------------------------------------------

def equality(arity: int) -> Signature:
    vals = [0] * (1 << arity)
    vals[0] = 1
    vals[-1] = 1
    return Signature(arity, vals)


def disequality2() -> Signature:
    return Signature(2, [0, 1, 1, 0])
