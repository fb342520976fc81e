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
branch-specific candidate list and verifying it.  A verified
certificate is sound by construction, so trying extra candidates never
produces a wrong Tractable verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numeric import (
    ALPHA,
    Cyclo8,
    DivisionByZero,
    I,
    Scalar,
    as_power_of_i,
    parse_scalar,
    scalar,
    sqrt_in_field,
)
from .signatures import (
    EightVertexSig,
    OddSupportWithHalfTransform,
    Signature,
    Transform2x2,
    disequality2,
    eight_vertex_readoff,
    holographic_transform,
)
from .classes import in_A, in_L, in_P, in_alphaA


# -- transform steps -----------------------------------------------------
#
# A certificate transform is a sequence of steps, each a tuple:
#
#   ("identity",)                the identity matrix
#   ("diag_i",)                  diag(1, i)
#   ("hadamard",)                [[1, 1], [1, -1]]
#   ("z",)                       (1/sqrt2) [[1, 1], [i, -i]]
#   ("half_diag", gamma_sq)      diag(1, gamma) known through gamma^2
#   ("outer_rewrite", a~, x~)    replace the corner entries (a, x) by
#                                (a~, x~); valid only when a~ x~ = a x,
#                                since the partition function depends on
#                                the corners only through their product
#
# Matrix steps act on f as S applied to every tensor slot, and on the
# binary disequality as the inverse matrix applied to both slots (the
# contravariant side of a holographic transformation).  Proportional
# rescalings are dropped throughout; class membership is scale free.

STEP_KINDS = ("identity", "diag_i", "hadamard", "z", "half_diag",
              "outer_rewrite")


def step_matrix(step):
    """The Transform2x2 of a matrix step, or None for outer_rewrite."""
    kind = step[0]
    if kind == "identity":
        return Transform2x2.identity()
    if kind == "diag_i":
        return Transform2x2.diag(1, I)
    if kind == "hadamard":
        return Transform2x2(rows=((1, 1), (1, -1)))
    if kind == "z":
        h = scalar(Cyclo8.sqrt2()) / 2
        hi = h * scalar(I)
        return Transform2x2(rows=((h, h), (hi, -hi)))
    if kind == "half_diag":
        return Transform2x2.half_diag(step[1])
    if kind == "outer_rewrite":
        return None
    raise ValueError(f"unknown step kind {kind!r}")


def apply_steps_signature(f: EightVertexSig, steps) -> Signature:
    """The image of f under the step sequence, as an arity-4 signature.

    Raises ValueError when an outer_rewrite step does not preserve the
    corner product or hits a non-eight-vertex intermediate signature,
    and OddSupportWithHalfTransform when a half-specified diagonal
    meets odd-weight support.
    """
    sig = f.to_signature()
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
                                 ev.w, ev.z, ev.y, nx).to_signature()
        else:
            sig = holographic_transform(sig, step_matrix(step))
    return sig


def transform_disequality(steps) -> Signature:
    """The image of the binary disequality under the same transform.

    The binary side transforms by the inverse matrix on both slots.
    Half-specified diagonals are applied up to a scalar: the support
    must have uniform weight parity, and a common leftover factor of
    gamma^{+-1} is dropped.
    """
    g = disequality2()
    for step in steps:
        if step[0] == "outer_rewrite":
            continue
        t = step_matrix(step)
        if t.is_half:
            inv = scalar(1) / scalar(t.gamma_sq)
            parities = {m.bit_count() % 2 for m in g.support()}
            if len(parities) > 1:
                raise OddSupportWithHalfTransform(
                    "binary side has mixed-parity support under a "
                    "half-specified diagonal")
            p = parities.pop() if parities else 0
            vals = []
            for m, v in enumerate(g.values):
                if v.is_zero():
                    vals.append(v)
                else:
                    vals.append(v * inv ** ((m.bit_count() - p) // 2))
            g = Signature(2, vals)
        else:
            r = t.inverse().full_rows()
            vals = []
            for m in range(4):
                y1, y2 = (m >> 1) & 1, m & 1
                acc = scalar(0)
                for n in range(4):
                    x1, x2 = (n >> 1) & 1, n & 1
                    acc = acc + g.values[n] * r[x1][y1] * r[x2][y2]
                vals.append(acc)
            g = Signature(2, vals)
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


@dataclass(frozen=True)
class Certificate:
    """A verified tractability witness: transform steps, the target
    class, and the transformed signature the checker compares against."""

    steps: tuple
    target: str
    transformed: Signature

    def describe(self) -> str:
        parts = []
        for step in self.steps:
            if step[0] == "half_diag":
                parts.append(f"half_diag({step[1]})")
            elif step[0] == "outer_rewrite":
                parts.append(f"outer_rewrite({step[1]}, {step[2]})")
            else:
                parts.append(step[0])
        chain = " . ".join(parts) if parts else "identity"
        return f"{chain} -> {self.target}"

    def to_json_dict(self) -> dict:
        enc = []
        for step in self.steps:
            if step[0] == "half_diag":
                enc.append({"kind": "half_diag", "gamma_sq": str(step[1])})
            elif step[0] == "outer_rewrite":
                enc.append({"kind": "outer_rewrite",
                            "a": str(step[1]), "x": str(step[2])})
            else:
                enc.append({"kind": step[0]})
        return {
            "steps": enc,
            "target": self.target,
            "transformed": [str(v) for v in self.transformed.values],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        steps = []
        for enc in data["steps"]:
            kind = enc["kind"]
            if kind == "half_diag":
                steps.append(("half_diag", parse_scalar(enc["gamma_sq"])))
            elif kind == "outer_rewrite":
                steps.append(("outer_rewrite",
                              parse_scalar(enc["a"]), parse_scalar(enc["x"])))
            elif kind in STEP_KINDS:
                steps.append((kind,))
            else:
                raise ValueError(f"unknown step kind {kind!r}")
        vals = [parse_scalar(v) for v in data["transformed"]]
        arity = (len(vals) - 1).bit_length()
        return Certificate(tuple(steps), data["target"],
                           Signature(arity, vals))


def make_certificate(f: EightVertexSig, steps, target: str):
    """Build a Certificate if the step sequence carries both f and the
    disequality into the target class; None otherwise."""
    try:
        g = apply_steps_signature(f, steps)
        b = transform_disequality(steps)
    except (OddSupportWithHalfTransform, ValueError, DivisionByZero):
        return None
    if not _in_class(g, target):
        return None
    if not _in_class(b, target):
        return None
    return Certificate(tuple(steps), target, g)


def check_certificate(f: EightVertexSig, cert: Certificate) -> bool:
    """Independently re-apply the transform and re-run membership on
    both sides; compare the transformed signature up to a scalar."""
    try:
        g = apply_steps_signature(f, cert.steps)
        b = transform_disequality(cert.steps)
    except (OddSupportWithHalfTransform, ValueError, DivisionByZero):
        return False
    if cert.target not in _TARGETS:
        return False
    if not _in_class(g, cert.target):
        return False
    if not _in_class(b, cert.target):
        return False
    if g.proportional_to(cert.transformed) is None:
        return False
    return True


# -- verdicts --------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
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

    @property
    def is_hard(self) -> bool:
        return self.kind == "hard"

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

def _i_pow(k: int) -> Scalar:
    return scalar(I) ** (k % 4)


def candidate_transforms(context: dict):
    """The finite, deterministically ordered candidate list of
    (steps, target-class) pairs for a branch context.

    Every candidate is verified before use, so listing a transform here
    never makes an intractable signature look tractable; the lists only
    need to be large enough to contain a witness whenever one exists.
    """
    branch = context["branch"]
    out = []
    if branch in ("fast", "B2"):
        out.append(((), "P"))
        out.append(((), "A"))
        for k in (1, 2, 3):
            out.append(((("half_diag", _i_pow(k)),), "A"))
        for k in range(4):
            out.append(((("half_diag", scalar(ALPHA) * _i_pow(k)),), "A"))
        out.append(((), "alphaA"))
        return out
    if branch == "B1":
        prefix = context["prefix"]
        out.append(((), "P"))
        out.append(((), "A"))
        if prefix:
            out.append((prefix, "P"))
            out.append((prefix, "A"))
        return out
    if branch == "B4":
        f: EightVertexSig = context["f"]
        mu = context["mu"]
        ax = f.a * f.x
        half_i = ("half_diag", scalar(I))
        for pre, prod, root in (((), ax, mu), ((half_i,), -ax, scalar(I) * mu)):
            norm = ("outer_rewrite", root, root)
            out.append((pre + (norm,), "A"))
            out.append((pre + (norm,), "alphaA"))
            for k in (1, 2, 3):
                out.append((pre + (norm, ("half_diag", _i_pow(k))), "A"))
            flat = ("outer_rewrite", scalar(1), prod)
            for k in range(4):
                gam = _i_pow(k) / root
                sym = pre + (flat, ("half_diag", gam), ("z",))
                for target in ("A", "P", "alphaA", "L"):
                    out.append((sym, target))
        return out
    if branch == "B5":
        f = context["f"]
        ax = f.a * f.x
        flat = ("outer_rewrite", scalar(1), ax)
        base = f.b * f.c * f.d / (ax * ax)
        for k in range(4):
            sym = (flat, ("half_diag", base * _i_pow(k)), ("z",))
            for target in ("A", "P", "alphaA", "L"):
                out.append((sym, target))
        return out
    if branch == "B6":
        c = context["c"]
        for t in range(4):
            out.append(((("half_diag", _i_pow(t) / c),), "A"))
        return out
    raise ValueError(f"unknown branch context {branch!r}")


def _search(f: EightVertexSig, candidates):
    cache = {}
    for steps, target in candidates:
        if steps not in cache:
            try:
                cache[steps] = (apply_steps_signature(f, steps),
                                transform_disequality(steps))
            except (OddSupportWithHalfTransform, ValueError, DivisionByZero):
                cache[steps] = None
        pair = cache[steps]
        if pair is None:
            continue
        g, b = pair
        if _in_class(g, target) and _in_class(b, target):
            return Certificate(tuple(steps), target, g)
    return None


# -- branch deciders -------------------------------------------------------

def six_vertex_classify(f: EightVertexSig) -> Verdict:
    """The six-vertex sub-dichotomy, for signatures with ax = 0.

    Tractable iff the a=x=0 form lies in P or in A, or every inner pair
    contains a zero (the latter reported as Vanishing).
    """
    if not (f.a * f.x).is_zero():
        raise ValueError("six_vertex_classify requires ax = 0")
    if f.a.is_zero() and f.x.is_zero():
        prefix = ()
    else:
        prefix = (("outer_rewrite", scalar(0), scalar(0)),)
    cert = _search(f, candidate_transforms({"branch": "B1", "prefix": prefix}))
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
    binary signature on the corner entries and the surviving pair."""
    pair = next(((p, q) for p, q in f.pairs()
                 if not (p.is_zero() and q.is_zero())), None)
    if pair is None:
        raise AssertionError("all-zero inner entries belong to branch B0")
    g = Signature(2, [f.a, pair[0], pair[1], f.x])
    member = (in_P(g) is not None or in_A(g) is not None
              or in_alphaA(g) is not None)
    if member:
        cert = _search(f, candidate_transforms({"branch": "B2"}))
        if cert is None:
            raise AssertionError(
                "binary core is tractable but no certificate was found")
        return Verdict.tractable("B2", cert)
    return Verdict.hard(
        "B2",
        ("spin core",
         "the induced binary signature lies outside P, A, and alphaA"))


def _b4_classify(f: EightVertexSig, eps: int) -> Verdict:
    """No zero entries, (y, z, w) = eps (b, c, d) with eps = +-1."""
    if eps == 1:
        bp, cp, dp = f.b, f.c, f.d
    else:
        bp, cp, dp = scalar(I) * f.b, scalar(I) * f.c, scalar(I) * f.d
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
    mu = sqrt_in_field(s.cyclo)
    if mu is None:
        return Verdict.hard(
            "B4",
            ("corner normalization",
             "the corner product has no square root in Q(zeta_8), which "
             "every symmetric membership route requires"))
    cert = _search(f, candidate_transforms(
        {"branch": "B4", "f": f, "mu": scalar(mu), "eps": eps}))
    if cert is not None:
        return Verdict.tractable("B4", cert)
    return Verdict.hard(
        "B4",
        ("membership routes",
         "no symmetric-form transform lands in P, A, alphaA, or L"))


def _b5_classify(f: EightVertexSig) -> Verdict:
    """No zero entries, equal pair products by = cz = dw."""
    if not (f.b * f.y == f.a * f.x):
        return Verdict.hard(
            "B5",
            ("pair products",
             "by = cz = dw differs from the corner product, enabling the "
             "interpolation gadget"))
    cert = _search(f, candidate_transforms({"branch": "B5", "f": f}))
    if cert is not None:
        return Verdict.tractable("B5", cert)
    return Verdict.hard(
        "B5",
        ("membership routes",
         "the symmetrized transform lands outside P, A, alphaA, and L"))


def _b6_classify(f: EightVertexSig) -> Verdict:
    """No zero entries, generic inner matrix."""
    powers = {}
    for name in ("b", "y", "d", "w", "z"):
        k = as_power_of_i((getattr(f, name) / f.c).cyclo)
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
    cert = _search(f, candidate_transforms({"branch": "B6", "c": f.c}))
    if cert is None:
        raise AssertionError(
            "generic-branch conditions hold but no certificate was found")
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
    cert = _search(f, candidate_transforms({"branch": "fast"}))
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
        sgn = scalar(eps)
        if (f.y == sgn * f.b and f.z == sgn * f.c and f.w == sgn * f.d):
            return _b4_classify(f, eps)
    # B5: equal pair products
    if f.b * f.y == f.c * f.z and f.c * f.z == f.d * f.w:
        return _b5_classify(f)
    # B6: generic
    return _b6_classify(f)
