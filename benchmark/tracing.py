"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions of the traced layers at
module attribute level, including every name bound to the same function
by ``from .x import y`` in another module of the package, so calls
between modules are traced too.  Each wrapped call records a span
``(name, start_ns, end_ns, parent, op)`` in memory.  Field arithmetic
(``Cyclo8`` and ``Scalar``) is called hundreds of thousands of times per
op, so it gets call counters and one aggregate busy time instead of spans.
``Tracer.uninstall`` restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute path, span name).  A dotted attribute path names a
# class attribute.
SPANNED = (
    ("signatures", "holographic_transform", "holographic_transform"),
    ("signatures", "EightVertexSig.parse", "parse"),
    ("classes", "in_A", "in_A"),
    ("classes", "in_P", "in_P"),
    ("classes", "in_L", "in_L"),
    ("classes", "in_alphaA", "in_alphaA"),
    ("classify", "classify", "classify"),
    ("classify", "apply_steps_signature", "apply_steps_signature"),
    ("classify", "transform_disequality", "transform_disequality"),
    ("classify", "check_certificate", "check_certificate"),
    ("evaluate", "brute_force", "brute_force"),
    ("evaluate", "affine_eval", "affine_eval"),
    ("evaluate", "Grid.validate", "validate"),
    ("evaluate", "Grid.from_json", "from_json"),
    ("evaluate", "Graph.parse", "graph_parse"),
)

# (attribute path in numeric, counter name or None for busy time only)
COUNTED = (
    ("Cyclo8.__mul__", "cyclo_mul"),
    ("Cyclo8.__rmul__", "cyclo_mul"),
    ("Cyclo8.__add__", "cyclo_add"),   # subtraction adds the negation
    ("Cyclo8.__radd__", "cyclo_add"),
    ("Cyclo8.inverse", "cyclo_inv"),
    ("Cyclo8.__sub__", None),
    ("Cyclo8.__rsub__", None),
    ("Cyclo8.__neg__", None),
    ("Cyclo8.__truediv__", None),
    ("Cyclo8.__rtruediv__", None),
    ("Cyclo8.__pow__", None),
    ("Cyclo8.galois", None),
    ("Cyclo8.__eq__", None),
    ("Scalar._binop", "scalar_ops"),
    ("Scalar.__neg__", None),
    ("Scalar.__pow__", None),
    ("Scalar.__eq__", None),
    ("sqrt_in_field", "sqrt_calls"),
    ("as_power_of_i", "pow_i_calls"),
    ("parse_cyclo8", None),
)

BRANCHES = ("zero", "B0", "B1-six-vertex", "fast-path", "B2", "B3", "B4",
            "B5", "B6")
MEMBERSHIP = ("in_A", "in_P", "in_L", "in_alphaA")


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent, op)
        self.counts = Counter()
        self.busy_ns = 0
        self.op = -1
        self._stack = []
        self._depth = 0
        self._saved = []         # (owner, attribute, original raw value)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
                self.counts[name] += 1
            self._observe(name, result)
            return result
        return traced

    def _observe(self, name, result):
        if name in MEMBERSHIP:
            if result is not None and result is not False:
                self.counts["member_hits"] += 1
        elif name == "classify":
            self.counts["branch." + result.branch] += 1
            if result.kind == "tractable":
                self.counts["tractable"] += 1

    def _counted(self, fn, key):
        counts = self.counts
        clock = time.perf_counter_ns

        def counted(*args):
            if key is not None:
                counts[key] += 1
            if self._depth:
                return fn(*args)
            self._depth = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                self.busy_ns += clock() - start
                self._depth = 0
        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrap):
        raw = owner.__dict__[attr] if isinstance(owner, type) else None
        fn = getattr(owner, attr)
        new = wrap(fn)
        if isinstance(raw, staticmethod):
            new = staticmethod(new)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            # names bound by "from .module import attr" elsewhere
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("eightvertex.") and mod is not owner:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            targets.append((mod, name))
        for tgt, name in targets:
            self._saved.append((tgt, name, vars(tgt)[name]))
            setattr(tgt, name, new)

    def install(self, package):
        """Wrap the layers of the imported package (its modules are read
        as attributes of ``package``)."""
        numeric = package.numeric
        for path, key in COUNTED:
            owner, attr = _resolve(numeric, path)
            self._patch(owner, attr, lambda fn, k=key: self._counted(fn, k))
        for mod, path, name in SPANNED:
            owner, attr = _resolve(getattr(package, mod), path)
            self._patch(owner, attr, lambda fn, n=name: self._spanned(fn, n))

    def uninstall(self):
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def self_seconds(self):
        """Self time per span name: span time minus the time covered by
        its child spans.  Field arithmetic has no spans, so it stays in
        the self time of the span that called it."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[idx]
        return {name: ns / 1e9 for name, ns in out.items()}

    def layer_metrics(self):
        c = self.counts
        s = self.self_seconds()
        calls = sum(c[m] for m in MEMBERSHIP)
        chains = c["apply_steps_signature"]
        out = {
            "numeric.cyclo_mul": (c["cyclo_mul"], "count"),
            "numeric.cyclo_add": (c["cyclo_add"], "count"),
            "numeric.cyclo_inv": (c["cyclo_inv"], "count"),
            "numeric.scalar_ops": (c["scalar_ops"], "count"),
            "numeric.sqrt_calls": (c["sqrt_calls"], "count"),
            "numeric.pow_i_calls": (c["pow_i_calls"], "count"),
            "numeric.busy_s": (self.busy_ns / 1e9, "s"),
            "signatures.transform_calls": (c["holographic_transform"],
                                           "count"),
            "signatures.transform_s": (s.get("holographic_transform", 0.0),
                                       "s"),
            "signatures.parse_s": (s.get("parse", 0.0), "s"),
            "classes.in_A_calls": (c["in_A"], "count"),
            "classes.in_P_calls": (c["in_P"], "count"),
            "classes.in_L_calls": (c["in_L"], "count"),
            "classes.in_alphaA_calls": (c["in_alphaA"], "count"),
            "classes.member_s": (sum(s.get(m, 0.0) for m in MEMBERSHIP), "s"),
            "classes.hit_ratio": (c["member_hits"] / calls if calls else 0.0,
                                  "ratio"),
            "classify.calls": (c["classify"], "count"),
            "classify.self_s": (s.get("classify", 0.0), "s"),
            "classify.chains": (chains, "count"),
            "classify.chain_s": (s.get("apply_steps_signature", 0.0)
                                 + s.get("transform_disequality", 0.0), "s"),
            "classify.cert_yield": (c["tractable"] / chains if chains else 0.0,
                                    "ratio"),
            "classify.check_cert_s": (s.get("check_certificate", 0.0), "s"),
        }
        for b in BRANCHES:
            out["classify.branch." + b] = (c["branch." + b], "count")
        out.update({
            "evaluate.brute_force_s": (s.get("brute_force", 0.0), "s"),
            "evaluate.affine_eval_s": (s.get("affine_eval", 0.0), "s"),
            "evaluate.validate_s": (s.get("validate", 0.0), "s"),
            "evaluate.grid_parse_s": (s.get("from_json", 0.0)
                                      + s.get("graph_parse", 0.0), "s"),
        })
        return out

    def dump(self, path):
        """Write the spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "op"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "busy_ns": self.busy_ns}, fh, separators=(",", ":"))
