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

from .numeric import (
    ALPHA,
    ONE,
    SQRT2,
    ZERO,
    Cyclo8,
    DivisionByZero,
    I,
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


class Certificate:
    """A verified tractability witness: transform steps, the target
    class, and the transformed signature the checker compares against.
    Immutable."""

    __slots__ = ("steps", "target", "transformed")

    def __init__(self, steps: tuple, target: str, transformed: Signature):
        _set_steps(self, steps)
        _set_target(self, target)
        _set_transformed(self, transformed)

    def __setattr__(self, name, value):
        raise AttributeError("Certificate is immutable")

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
        shape raises ValueError (KeyError for a missing field)."""
        _cert_field(data, dict, "a certificate is an object")
        steps = []
        for enc in _cert_field(data["steps"], list, "steps is a list"):
            kind = _cert_field(enc, dict, "a step is an object")["kind"]
            if kind not in STEP_KINDS:
                raise ValueError(f"unknown step kind {kind!r}")
            steps.append((kind, *(_cert_scalar(enc[k])
                                  for k in STEP_FIELDS.get(kind, ()))))
        vals = [_cert_scalar(v) for v in _cert_field(
            data["transformed"], list, "transformed is a list")]
        target = _cert_field(data["target"], str, "target is a string")
        arity = (len(vals) - 1).bit_length()
        return Certificate(tuple(steps), target, Signature(arity, vals))


_set_steps = Certificate.steps.__set__
_set_target = Certificate.target.__set__
_set_transformed = Certificate.transformed.__set__


def _cert_field(value, kind, rule: str):
    """value if it is a kind; else ValueError naming the rule."""
    if isinstance(value, kind):
        return value
    raise ValueError(f"bad certificate: {rule}, got {value!r:.40}")


def _cert_scalar(value) -> Cyclo8:
    """A scalar string of a certificate file, parsed."""
    return parse_cyclo8(_cert_field(value, str, "a value is a scalar string"))


def _images(f: EightVertexSig, steps):
    """The images of f and of the disequality under steps, or None when
    a step does not apply."""
    try:
        return apply_steps_signature(f, steps), transform_disequality(steps)
    except (ValueError, DivisionByZero):
        return None


def _search(f: EightVertexSig, candidates):
    """The certificate of the first candidate that carries f and the
    disequality into its target class, or None."""
    cache = {}
    for steps, target in candidates:
        if steps not in cache:
            cache[steps] = _images(f, steps)
        pair = cache[steps]
        if pair is None:
            continue
        g, b = pair
        if _in_class(g, target) and _in_class(b, target):
            return Certificate(steps, target, g)
    return None


def make_certificate(f: EightVertexSig, steps, target: str):
    """Build a Certificate if the step sequence carries both f and the
    disequality into the target class; None otherwise."""
    return _search(f, ((tuple(steps), target),))


def check_certificate(f: EightVertexSig, cert: Certificate) -> bool:
    """Independently re-apply the transform and re-run membership on
    both sides; compare the transformed signature up to a scalar."""
    if cert.target not in _TARGETS:
        return False
    found = make_certificate(f, cert.steps, cert.target)
    return (found is not None
            and found.transformed.proportional_to(cert.transformed)
            is not None)


# -- verdicts --------------------------------------------------------------

class Verdict:
    """Classification outcome.

    kind is "hard", "tractable", or "vanishing"; branch names the
    decision-tree branch; trace is a tuple of (rule, detail) pairs for
    hard outcomes; certificate is set for tractable outcomes; reason
    describes vanishing outcomes.  Immutable.
    """

    __slots__ = ("kind", "branch", "trace", "certificate", "reason")

    def __init__(self, kind: str, branch: str, trace: tuple = (),
                 certificate: Certificate = None, reason: str = None):
        _set_kind(self, kind)
        _set_branch(self, branch)
        _set_trace(self, trace)
        _set_certificate(self, certificate)
        _set_reason(self, reason)

    def __setattr__(self, name, value):
        raise AttributeError("Verdict is immutable")

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


_set_kind = Verdict.kind.__set__
_set_branch = Verdict.branch.__set__
_set_trace = Verdict.trace.__set__
_set_certificate = Verdict.certificate.__set__
_set_reason = Verdict.reason.__set__


# -- candidate transforms ---------------------------------------------------
#
# Each branch tries a finite, deterministically ordered list of
# (steps, target-class) pairs.  Every candidate is verified before use,
# so listing a transform never makes an intractable signature look
# tractable; the lists only need to be large enough to contain a witness
# whenever one exists.

def _i_pow(k: int) -> Cyclo8:
    return I ** (k % 4)


# the fast path: direct or lightly twisted membership
FAST_CANDIDATES = (
    ((), "P"),
    ((), "A"),
    *(((("half_diag", _i_pow(k)),), "A") for k in (1, 2, 3)),
    *(((("half_diag", ALPHA * _i_pow(k)),), "A") for k in range(4)),
    ((), "alphaA"),
)

# the targets tried, in order, after the symmetrizing z step of B4 and B5
_SYMMETRIC_TARGETS = ("A", "P", "alphaA", "L")


# -- branch deciders -------------------------------------------------------

def six_vertex_classify(f: EightVertexSig) -> Verdict:
    """The six-vertex sub-dichotomy, for signatures with ax = 0.

    Tractable iff the a=x=0 form lies in P or in A, or every inner pair
    contains a zero (the latter reported as Vanishing).
    """
    if not (f.a * f.x).is_zero():
        raise ValueError("six_vertex_classify requires ax = 0")
    candidates = [((), "P"), ((), "A")]
    if not (f.a.is_zero() and f.x.is_zero()):
        clear = (("outer_rewrite", ZERO, ZERO),)
        candidates += [(clear, "P"), (clear, "A")]
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
    tractable core, so a core in P, A or alphaA means a certificate is
    missing."""
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
    """No zero entries, (y, z, w) = eps (b, c, d) with eps = +-1."""
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
    candidates = []
    half_i = ("half_diag", I)
    for pre, prod, root in (((), s, mu), ((half_i,), -s, I * mu)):
        norm = ("outer_rewrite", root, root)
        candidates.append((pre + (norm,), "A"))
        candidates.append((pre + (norm,), "alphaA"))
        for k in (1, 2, 3):
            candidates.append((pre + (norm, ("half_diag", _i_pow(k))), "A"))
        flat = ("outer_rewrite", ONE, prod)
        for k in range(4):
            sym = pre + (flat, ("half_diag", _i_pow(k) / root), ("z",))
            candidates += [(sym, t) for t in _SYMMETRIC_TARGETS]
    cert = _search(f, candidates)
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
    flat = ("outer_rewrite", ONE, ax)
    base = f.b * f.c * f.d / (ax * ax)
    candidates = []
    for k in range(4):
        sym = (flat, ("half_diag", base * _i_pow(k)), ("z",))
        candidates += [(sym, t) for t in _SYMMETRIC_TARGETS]
    cert = _search(f, candidates)
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
    powers = {}
    for name in ("b", "y", "d", "w", "z"):
        k = as_power_of_i(getattr(f, name) / f.c)
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
    cert = make_certificate(f, (("half_diag", f.a / f.c * _i_pow(s)),), "A")
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
