"""Dichotomy classifier for eight-vertex signatures.

Decides, for an eight-vertex signature f, whether the bipartite Holant
problem with binary disequality on one side and f on the other is
#P-hard or polynomial-time computable.  Tractable outcomes carry a
machine-checkable certificate: a short composition of 2x2 generators
that carries both f and the disequality into one of the tractable
classes (A, P, L, or the alpha twist of A).  Hard outcomes carry a
human-readable trace naming the structural condition that forces
hardness.

The decision runs branch by branch on the shape of the eight entries
(a, b, c, d, w, z, y, x):

  B0  all six inner entries zero;
  B1  corner product ax = 0 (the six-vertex sub-dichotomy);
  B2  at least two inner pairs are (0, 0) (spin-like binary core);
  B3  some inner entry is zero otherwise (always hard);
  B4  no zero entry and (y, z, w) = +-(b, c, d);
  B5  no zero entry and by = cz = dw;
  B6  no zero entry, generic.

Hardness conditions are decided exactly in Q(zeta_8); tractability is
established constructively, by exhibiting a certificate from a finite
branch-specific candidate list (B6 computes its one candidate from the
entries' exponents) and verifying it.  A verified
certificate is sound by construction, so trying extra candidates never
produces a wrong Tractable verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from .numeric import (
    ALPHA,
    ONE,
    SQRT2,
    ZERO,
    Cyclo8,
    DivisionByZero,
    I,
    InputFormat,
    as_power_of_i,
    parse_cyclo8,
    scalar,
    sqrt_in_field,
)
from .signatures import (
    EightVertexSig,
    Signature,
    disequality2,
    eight_vertex_readoff,
    half_diagonal,
    holographic_transform,
    proportional,
)
from .classes import in_A, in_L, in_P, in_alphaA


# -- transform steps -----------------------------------------------------
#
# A certificate transform is a sequence of steps, each a tuple:
#
#   ("identity",)                S = [[1, 0], [0, 1]]
#   ("diag_i",)                  S = diag(1, i)
#   ("hadamard",)                S = [[1, 1], [1, -1]]
#   ("z",)                       S = (1/sqrt2) [[1, 1], [i, -i]]
#   ("half_diag", gamma_sq)      S = diag(1, gamma), known only through
#                                gamma^2 (nonzero)
#   ("outer_rewrite", a~, x~)    replace the corner entries (a, x) by
#                                (a~, x~); valid only when a~ x~ = a x,
#                                since the partition function depends on
#                                the corners only through their product
#
# Matrix steps act on f as S applied to every tensor slot, and on the
# binary disequality as the transpose of S^{-1} applied to both slots
# (the contravariant side of a holographic transformation); for
# half_diag that is diag(1, 1/gamma).  Proportional rescalings are
# dropped throughout; class membership is scale free.


def _matrix(rows):
    return tuple(tuple(scalar(v) for v in row) for row in rows)


_HALF = ONE / 2
_R = SQRT2 / 2     # 1/sqrt2
_RI = _R * I

# kind -> (S, transpose of S^{-1})
STEP_MATRICES = {
    "identity": (_matrix(((1, 0), (0, 1))), _matrix(((1, 0), (0, 1)))),
    "diag_i": (_matrix(((1, 0), (0, I))), _matrix(((1, 0), (0, -I)))),
    "hadamard": (_matrix(((1, 1), (1, -1))),
                 _matrix(((_HALF, _HALF), (_HALF, -_HALF)))),
    "z": (_matrix(((_R, _R), (_RI, -_RI))),
          _matrix(((_R, _R), (-_RI, _RI)))),
}

# kind -> the names of its parameters, in step order
STEP_FIELDS = {"half_diag": ("gamma_sq",), "outer_rewrite": ("a", "x")}

STEP_KINDS = (*STEP_MATRICES, *STEP_FIELDS)


def apply_steps_signature(f: EightVertexSig, steps) -> Signature:
    """The image of f under the step sequence, as an arity-4 signature.

    Raises ValueError when an outer_rewrite step does not preserve the
    corner product or hits a non-eight-vertex intermediate signature,
    and OddSupportWithHalfTransform when a half-specified diagonal
    meets odd-weight support.
    """
    sig = f
    for step in steps:
        if step[0] == "outer_rewrite":
            ev = eight_vertex_readoff(sig)
            if ev is None:
                raise ValueError(
                    "outer rewrite applied to a non-eight-vertex signature")
            na, nx = scalar(step[1]), scalar(step[2])
            if not (ev.a * ev.x == na * nx):
                raise ValueError(
                    "outer rewrite must preserve the corner product")
            sig = EightVertexSig(na, ev.b, ev.c, ev.d,
                                 ev.w, ev.z, ev.y, nx)
        elif step[0] == "half_diag":
            sig = half_diagonal(sig, step[1])
        else:
            sig = holographic_transform(sig, STEP_MATRICES[step[0]][0])
    return sig


def transform_disequality(steps) -> Signature:
    """The image of the binary disequality under the same transform.

    Half-specified diagonals are applied up to a scalar: the support
    must have uniform weight parity, and a common leftover factor of
    gamma^{+-1} is dropped.
    """
    g = disequality2()
    for step in steps:
        if step[0] == "half_diag":
            g = half_diagonal(g, ONE / step[1], any_parity=True)
        elif step[0] != "outer_rewrite":
            g = holographic_transform(g, STEP_MATRICES[step[0]][1])
    return g


# -- certificates ---------------------------------------------------------

_TARGETS = ("A", "P", "L", "alphaA")


def _in_class(sig: Signature, target: str) -> bool:
    if target == "A":
        return in_A(sig) is not None
    if target == "P":
        return in_P(sig) is not None
    if target == "L":
        return in_L(sig)
    if target == "alphaA":
        return in_alphaA(sig) is not None
    raise ValueError(f"unknown target class {target!r}")


CERTIFICATE = InputFormat("certificate")


class Certificate(NamedTuple):
    """A verified tractability witness: transform steps, the target
    class, and the transformed signature the checker compares against."""

    steps: tuple
    target: str
    transformed: Signature

    def describe(self) -> str:
        parts = [f"{kind}({', '.join(map(str, args))})" if args else kind
                 for kind, *args in self.steps]
        chain = " . ".join(parts) if parts else "identity"
        return f"{chain} -> {self.target}"

    def to_json_dict(self) -> dict:
        steps = [{"kind": kind,
                  **dict(zip(STEP_FIELDS.get(kind, ()), map(str, args)))}
                 for kind, *args in self.steps]
        return {
            "steps": steps,
            "target": self.target,
            "transformed": [str(v) for v in self.transformed.values],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        """The certificate of a to_json_dict object.  Input of the wrong
        shape, or with a field missing, raises ValueError naming the
        fault."""
        CERTIFICATE.expect(data, dict, "a certificate is an object")
        steps = []
        for enc in CERTIFICATE.field(data, "steps", "the certificate", list):
            enc = CERTIFICATE.expect(enc, dict, "a step is an object")
            kind = CERTIFICATE.field(enc, "kind", "a step", str)
            if kind not in STEP_KINDS:
                raise CERTIFICATE.fault(f"unknown step kind {kind!r}")
            owner = f"{'an' if kind[0] in 'aeiou' else 'a'} {kind} step"
            steps.append((kind, *(
                parse_cyclo8(CERTIFICATE.field(enc, k, owner, str))
                for k in STEP_FIELDS.get(kind, ()))))
        vals = [parse_cyclo8(CERTIFICATE.expect(v, str,
                                                "a value is a scalar string"))
                for v in CERTIFICATE.field(data, "transformed",
                                           "the certificate", list)]
        arity = len(vals).bit_length() - 1
        if not (1 <= arity <= 6 and len(vals) == 1 << arity):
            raise CERTIFICATE.fault("transformed has 2^n values for n in "
                                    f"1..6, got {len(vals)}")
        target = CERTIFICATE.field(data, "target", "the certificate", str)
        return Certificate(tuple(steps), target, Signature(arity, vals))


# the membership of disequality images in target classes, keyed by the
# image's values and the target.  half_diag fixes the disequality itself
# (up to the scalar it drops) and outer_rewrite touches no disequality,
# and in every candidate here they come before the matrix steps, so the
# image depends on the matrix steps alone.  Whatever the signature, the
# candidates meet two images: the disequality (no matrix step: the fast
# path, B1, B6 and B4's corner normalization) and its z image (the
# symmetric chains of B4 and B5).  Both have integer values, so hashing
# them builds no Fraction.  Other keys come only from certificates read
# from outside; the table is emptied when full.
_DISEQUALITY_MEMBER = {}
_DISEQUALITY_MEMBER_MAX = 256


def _disequality_in(b: Signature, target: str) -> bool:
    """_in_class(b, target) for a disequality image b, read from the
    table ``_DISEQUALITY_MEMBER`` when it is there."""
    key = (b.values, target)
    member = _DISEQUALITY_MEMBER.get(key)
    if member is None:
        if len(_DISEQUALITY_MEMBER) >= _DISEQUALITY_MEMBER_MAX:
            _DISEQUALITY_MEMBER.clear()
        member = _DISEQUALITY_MEMBER[key] = _in_class(b, target)
    return member


def _search(f: EightVertexSig, candidates):
    """The certificate of the first (steps, target) that carries f and
    the disequality into the target class, or None.

    Each candidate is a step list with the targets tried on its images,
    in order.  Both images are computed once per candidate; a step list
    that does not apply is skipped.  The image of f is tested for
    membership against each target; the disequality image only when f's
    is in the class, and then its answer is read from a table keyed by
    the image's values and the target."""
    for steps, targets in candidates:
        try:
            g = apply_steps_signature(f, steps)
            b = transform_disequality(steps)
        except (ValueError, DivisionByZero):
            continue
        for target in targets:
            if _in_class(g, target) and _disequality_in(b, target):
                return Certificate(steps, target, g)
    return None


def make_certificate(f: EightVertexSig, steps, target: str):
    """Build a Certificate if the step sequence carries both f and the
    disequality into the target class; None otherwise."""
    return _search(f, ((tuple(steps), (target,)),))


def check_certificate(f: EightVertexSig, cert: Certificate) -> bool:
    """Independently re-apply the transform to f and to the disequality
    and re-run membership on the image of f (``_search``: the
    disequality image's membership is read from its table), then compare
    the image of f with the certificate's transformed signature up to a
    nonzero scalar (``proportional``: equal values at once, else on
    numerator tuples with no field division).  The two must have the
    same zero pattern, so the certificate of a nonzero signature does
    not check against the all-zero signature."""
    if cert.target not in _TARGETS:
        return False
    found = make_certificate(f, cert.steps, cert.target)
    return (found is not None
            and proportional(found.transformed, cert.transformed))


# -- verdicts --------------------------------------------------------------

class Verdict(NamedTuple):
    """Classification outcome.

    kind is "hard", "tractable", or "vanishing"; branch names the
    decision-tree branch; trace is a tuple of (rule, detail) pairs for
    hard outcomes; certificate is set for tractable outcomes; reason
    describes vanishing outcomes.
    """

    kind: str
    branch: str
    trace: tuple = ()
    certificate: Certificate = None
    reason: str = None

    @staticmethod
    def hard(branch: str, *trace) -> "Verdict":
        return Verdict("hard", branch, trace=tuple(trace))

    @staticmethod
    def tractable(branch: str, cert: Certificate) -> "Verdict":
        return Verdict("tractable", branch, certificate=cert)

    @staticmethod
    def vanishing(branch: str, reason: str) -> "Verdict":
        return Verdict("vanishing", branch, reason=reason)

    def to_json_dict(self) -> dict:
        out = {"verdict": self.kind, "branch": self.branch}
        if self.trace:
            out["trace"] = [list(t) for t in self.trace]
        if self.certificate is not None:
            out["class"] = self.certificate.target
            out["certificate"] = self.certificate.to_json_dict()
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# -- candidate transforms ---------------------------------------------------
#
# Each branch tries a finite, deterministically ordered list of
# (steps, targets) candidates: each step list appears once, with the
# target classes tried on its images in order.  Every candidate is
# verified before use, so listing a transform never makes an intractable
# signature look tractable; the lists only need to be large enough to
# contain a witness whenever one exists.

def _i_pow(k: int) -> Cyclo8:
    return I ** (k % 4)


# the fast path: direct or lightly twisted membership; half_diag(i) -> A
# is the alphaA test, as it scales f by alpha^wt(x) just as in_alphaA does
FAST_CANDIDATES = (
    ((), ("P", "A")),
    *(((("half_diag", _i_pow(k)),), ("A",)) for k in (1, 2, 3)),
    *(((("half_diag", ALPHA * _i_pow(k)),), ("A",)) for k in range(4)),
)

# the targets tried, in order, after the symmetrizing z step of B4 and B5
_SYMMETRIC_TARGETS = ("A", "P", "alphaA", "L")


def _z_route(prod: Cyclo8, g: Cyclo8) -> list:
    """The symmetric chains of B4 and B5: corners (1, prod), then
    half_diag(g i^k) and z for k = 0..3, each against every target."""
    flat = ("outer_rewrite", ONE, prod)
    return [((flat, ("half_diag", g * _i_pow(k)), ("z",)), _SYMMETRIC_TARGETS)
            for k in range(4)]


# -- branch deciders -------------------------------------------------------

def six_vertex_classify(f: EightVertexSig) -> Verdict:
    """The six-vertex sub-dichotomy, for signatures with ax = 0.

    Tractable iff the a=x=0 form lies in P or in A, or every inner pair
    contains a zero (the latter reported as Vanishing).
    """
    if not (f.a * f.x).is_zero():
        raise ValueError("six_vertex_classify requires ax = 0")
    candidates = [((), ("P", "A"))]
    if not (f.a.is_zero() and f.x.is_zero()):
        candidates.append(((("outer_rewrite", ZERO, ZERO),), ("P", "A")))
    cert = _search(f, candidates)
    if cert is not None:
        return Verdict.tractable("B1-six-vertex", cert)
    if all(p.is_zero() or q.is_zero() for p, q in f.pairs()):
        return Verdict.vanishing(
            "B1-six-vertex",
            "six-vertex signature with a zero in each inner pair")
    nonzero_pair = next(i for i, (p, q) in enumerate(f.pairs())
                        if not p.is_zero() and not q.is_zero())
    return Verdict.hard(
        "B1-six-vertex",
        ("six-vertex terminal",
         "outside P and A with inner pair "
         f"{('(b,y)', '(c,z)', '(d,w)')[nonzero_pair]} fully nonzero"))


def _spin_classify(f: EightVertexSig) -> Verdict:
    """At least two (0,0) inner pairs: the problem collapses onto a
    binary signature on the corner entries and the surviving pair.

    Reached only after the fast path failed; its candidates certify every
    tractable core (alphaA through half_diag(i) -> A), so a core in P, A
    or alphaA means a certificate is missing."""
    pair = next(((p, q) for p, q in f.pairs()
                 if not (p.is_zero() and q.is_zero())), None)
    if pair is None:
        raise AssertionError("all-zero inner entries belong to branch B0")
    g = Signature(2, [f.a, pair[0], pair[1], f.x])
    member = (in_P(g) is not None or in_A(g) is not None
              or in_alphaA(g) is not None)
    if member:
        raise AssertionError(
            "binary core is tractable but no certificate was found")
    return Verdict.hard(
        "B2",
        ("spin core",
         "the induced binary signature lies outside P, A, and alphaA"))


def _b4_classify(f: EightVertexSig, eps: int) -> Verdict:
    """No zero entries, (y, z, w) = eps (b, c, d) with eps = +-1.

    A half_diag(i^k) after the corner normalization would repeat its A or
    alphaA test, and one before it gives i times the same images."""
    if eps == 1:
        bp, cp, dp = f.b, f.c, f.d
    else:
        bp, cp, dp = I * f.b, I * f.c, I * f.d
    s = f.a * f.x
    p, q, r = bp * bp, cp * cp, dp * dp
    rotations = ((p, q, r, "(b,c,d)"), (r, q, p, "(d,c,b)"),
                 (p, r, q, "(b,d,c)"))
    for pp, qq, rr, label in rotations:
        t = pp * qq + 2 * rr * s + (s + rr) * (pp + qq)
        det = rr * (pp + qq) ** 2 * s - pp * qq * (s + rr) ** 2
        if not t.is_zero() and not det.is_zero():
            return Verdict.hard(
                "B4",
                ("rotational gadget",
                 f"rotation {label} yields a redundant gadget whose "
                 "compressed matrix has full rank"))
    mu = sqrt_in_field(s)
    if mu is None:
        return Verdict.hard(
            "B4",
            ("corner normalization",
             "the corner product has no square root in Q(zeta_8), which "
             "every symmetric membership route requires"))
    norm = (("outer_rewrite", mu, mu),)
    cert = _search(f, ((norm, ("A", "alphaA")), *_z_route(s, ONE / mu)))
    if cert is not None:
        return Verdict.tractable("B4", cert)
    return Verdict.hard(
        "B4",
        ("membership routes",
         "no symmetric-form transform lands in P, A, alphaA, or L"))


def _b5_classify(f: EightVertexSig) -> Verdict:
    """No zero entries, equal pair products by = cz = dw."""
    ax = f.a * f.x
    if not (f.b * f.y == ax):
        return Verdict.hard(
            "B5",
            ("pair products",
             "by = cz = dw differs from the corner product, enabling the "
             "interpolation gadget"))
    cert = _search(f, _z_route(ax, f.b * f.c * f.d / (ax * ax)))
    if cert is not None:
        return Verdict.tractable("B5", cert)
    return Verdict.hard(
        "B5",
        ("membership routes",
         "the symmetrized transform lands outside P, A, alphaA, and L"))


def _b6_classify(f: EightVertexSig) -> Verdict:
    """No zero entries, generic inner matrix: hard unless the inner
    ratios to c are powers of i that meet three relations, and then
    tractable through one diagonal computed from them."""
    inv_c = f.c.inverse()
    powers = {}
    for name in ("b", "y", "d", "w", "z"):
        k = as_power_of_i(getattr(f, name) * inv_c)
        if k is None:
            return Verdict.hard(
                "B6",
                ("inner ratios",
                 f"{name}/c is not a power of i, so no diagonal transform "
                 "aligns the inner entries"))
        powers[name] = k
    j, k, m, n, ell = (powers["b"], powers["y"], powers["d"],
                       powers["w"], powers["z"])
    if (ell - (m + n + 2)) % 4 != 0:
        return Verdict.hard(
            "B6",
            ("inner relation", "cz = -dw fails (z/c is i^%d but d/c, w/c "
             "give i^%d, i^%d)" % (ell, m, n)))
    if (j + k + m + n) % 2 != 0:
        return Verdict.hard(
            "B6",
            ("parity relation",
             f"i-exponents of b/c, y/c, d/c, w/c sum to the odd value "
             f"{j + k + m + n}"))
    if not (f.a * f.x == -(_i_pow(j + k)) * f.c * f.c):
        return Verdict.hard(
            "B6",
            ("corner relation",
             f"the corner product differs from -i^{(j + k) % 4} c^2"))
    # half_diag(gamma_sq) keeps a and scales the inner entries by gamma_sq
    # and x by gamma_sq^2.  With gamma_sq = (a/c) i^s every image entry is
    # a times a power of i, and the class-A cross terms on the even-weight
    # points are even exactly when s = m - j (mod 2), given the three
    # relations above.  When a = i^r, s is the one that makes gamma_sq
    # i^t / c with the least such t, in {0, 1}.
    r = as_power_of_i(f.a)
    s = (m - j) % 2 if r is None else ((r + m - j) % 2 - r) % 4
    cert = make_certificate(f, (("half_diag", f.a * inv_c * _i_pow(s)),), "A")
    if cert is None:
        raise AssertionError("the closed-form B6 certificate must check")
    return Verdict.tractable("B6", cert)


# -- main entry -------------------------------------------------------------

def classify(f: EightVertexSig) -> Verdict:
    """Classify an eight-vertex signature as hard, tractable (with
    certificate), or vanishing."""
    inner = (f.b, f.c, f.d, f.w, f.z, f.y)
    if all(v.is_zero() for v in f.entries()):
        return Verdict.vanishing("zero", "identically zero signature")
    # B0: purely outer signature
    if all(v.is_zero() for v in inner):
        cert = make_certificate(f, (), "P")
        if cert is None:
            raise AssertionError("outer-only signature must lie in P")
        return Verdict.tractable("B0", cert)
    # B1: six-vertex regime
    if (f.a * f.x).is_zero():
        return six_vertex_classify(f)
    # fast path: direct or lightly twisted membership
    cert = _search(f, FAST_CANDIDATES)
    if cert is not None:
        return Verdict.tractable("fast-path", cert)
    zero_pairs = sum(1 for pv, qv in f.pairs()
                     if pv.is_zero() and qv.is_zero())
    # B2: spin-like core
    if zero_pairs >= 2:
        return _spin_classify(f)
    # B3: remaining zero patterns are hard
    zeros = sum(1 for v in inner if v.is_zero())
    if zeros:
        return Verdict.hard(
            "B3",
            ("zero pattern",
             f"{zeros} zero inner entries with nonzero corner product and "
             "fewer than two (0,0) pairs"))
    # B4: three equal or three opposite pairs
    for eps in (1, -1):
        if f.y == eps * f.b and f.z == eps * f.c and f.w == eps * f.d:
            return _b4_classify(f, eps)
    # B5: equal pair products
    if f.b * f.y == f.c * f.z and f.c * f.z == f.d * f.w:
        return _b5_classify(f)
    # B6: generic
    return _b6_classify(f)
