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

from .numeric import Cyclo8, ZERO, parse_cyclo8, scalar


class OddSupportWithHalfTransform(ValueError):
    """A diag(1, gamma) transform known only through gamma^2 was applied to
    a signature whose support needs gamma itself: odd-weight support on
    the signature side, mixed-parity support on the binary side."""


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

    def __getitem__(self, m: int) -> Cyclo8:
        return self.values[m]

    def at(self, *bits) -> Cyclo8:
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
        """A scalar s with self = s * other, or None.

        s is a0 / b0 at the first nonzero entry b0 of other; every other
        pair (a, b) is compared by a * b0 == b * a0, so only one field
        division is made."""
        if self.arity != other.arity:
            return None
        a0 = b0 = None
        for a, b in zip(self.values, other.values):
            if b.is_zero():
                if not a.is_zero():
                    return None
            elif b0 is None:
                a0, b0 = a, b
            elif a * b0 != b * a0:
                return None
        if b0 is None:              # every b is 0, so every a is too
            return ZERO
        return a0 / b0


# -- eight-vertex view -------------------------------------------------

_EV_POSITIONS = {
    "a": 0b0000, "b": 0b0011, "c": 0b0101, "d": 0b0110,
    "w": 0b1001, "z": 0b1010, "y": 0b1100, "x": 0b1111,
}
_EV_ORDER = "abcdwzyx"


class EightVertexSig:
    """The eight entries (a, b, c, d, w, z, y, x) of an eight-vertex
    signature, in the layout of the matrix docstring above.  Immutable."""

    __slots__ = tuple(_EV_ORDER)

    def __init__(self, a: Cyclo8, b: Cyclo8, c: Cyclo8, d: Cyclo8,
                 w: Cyclo8, z: Cyclo8, y: Cyclo8, x: Cyclo8):
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        _set_w(self, w)
        _set_z(self, z)
        _set_y(self, y)
        _set_x(self, x)

    def __setattr__(self, name, value):
        raise AttributeError("EightVertexSig is immutable")

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
        return EightVertexSig(*(parse_cyclo8(p) for p in parts))

    def entries(self):
        return (self.a, self.b, self.c, self.d, self.w, self.z, self.y, self.x)

    def to_signature(self) -> Signature:
        vals = [ZERO] * 16
        for name, pos in _EV_POSITIONS.items():
            vals[pos] = getattr(self, name)
        return Signature(4, vals)

    def scale(self, s) -> "EightVertexSig":
        s = scalar(s)
        return EightVertexSig(*(s * v for v in self.entries()))

    def pairs(self):
        """The three inner pairs ((b, y), (c, z), (d, w))."""
        return ((self.b, self.y), (self.c, self.z), (self.d, self.w))

    def __str__(self):
        return ";".join(str(v) for v in self.entries())


_set_a, _set_b, _set_c, _set_d, _set_w, _set_z, _set_y, _set_x = (
    getattr(EightVertexSig, k).__set__ for k in _EV_ORDER)


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
    v = f.values  # row (x1, x2) = r, column (x3, x4) = c at 4r + c
    return (v[4:8] == v[8:12]
            and all(v[4 * r + 1] == v[4 * r + 2] for r in range(4)))


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

def holographic_transform(f: Signature, rows) -> Signature:
    """T^{tensor n} f with f read as a column vector in lex order, for the
    2x2 matrix T of scalars given by its rows."""
    n = f.arity
    (t00, t01), (t10, t11) = rows
    vals = list(f.values)
    # apply T to one tensor slot at a time
    for k in range(n):
        step = 1 << (n - 1 - k)
        new = list(vals)
        for m in range(1 << n):
            if m & step:
                continue
            lo, hi = vals[m], vals[m | step]
            new[m] = t00 * lo + t01 * hi
            new[m | step] = t10 * lo + t11 * hi
        vals = new
    return Signature(n, vals)


def half_diagonal(f: Signature, gamma_sq,
                  any_parity: bool = False) -> Signature:
    """diag(1, gamma)^{tensor n} f for a gamma known only through gamma^2,
    up to the factor gamma^p: entry m is scaled by
    gamma_sq^((wt(m) - p) / 2), where p is the weight parity of f's
    support.  The support must have one parity, and p must be 0 unless
    any_parity is set; otherwise OddSupportWithHalfTransform is raised."""
    gamma_sq = scalar(gamma_sq)
    if gamma_sq.is_zero():   # certificate files come from outside
        raise ValueError("gamma_sq must be nonzero")
    support = f.support()
    parities = {m.bit_count() % 2 for m in support}
    if len(parities) > 1 or (1 in parities and not any_parity):
        raise OddSupportWithHalfTransform(
            "support point of odd weight under a half-specified diagonal "
            "transform")
    p = max(parities, default=0)
    vals = list(f.values)
    for m in support:
        k = (m.bit_count() - p) // 2
        if k:
            vals[m] = vals[m] * gamma_sq ** k
    return Signature(f.arity, vals)


# -- standard signatures ------------------------------------------------

def equality(arity: int) -> Signature:
    vals = [0] * (1 << arity)
    vals[0] = 1
    vals[-1] = 1
    return Signature(arity, vals)


def disequality2() -> Signature:
    return Signature(2, [0, 1, 1, 0])
