"""The program side of the benchmark: loading the checked-out package,
parsing generated inputs with the program's own parsers, running one op,
and checking its output.

Every call into the package goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("numeric", "signatures", "classes", "classify", "evaluate", "cli")


class Package:
    """The eightvertex modules imported from the checkout's src/."""

    def __init__(self):
        if not (SRC / "eightvertex" / "__init__.py").is_file():
            raise FileNotFoundError(f"no package source under {SRC}")
        sys.path.insert(0, str(SRC))
        self.root = importlib.import_module("eightvertex")
        origin = Path(self.root.__file__).resolve()
        if SRC not in origin.parents:
            raise ImportError(f"eightvertex imported from {origin}, "
                              f"not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"eightvertex.{name}"))


def parse(pkg: Package, kind: str, item: dict):
    """The op argument for one generated input, built the way the CLI
    builds it."""
    if kind == "classify":
        return pkg.signatures.EightVertexSig.parse(item["sig"])
    if kind == "torus":
        sig = pkg.signatures.EightVertexSig.parse(item["sig"])
        graph = pkg.evaluate.Graph.parse(item["graph"])
        return pkg.evaluate.grid_from_graph(graph, sig.to_signature(), "f")
    if kind == "affine":
        return pkg.evaluate.Grid.from_json(item["grid"])
    raise ValueError(f"unknown op kind {kind!r}")


def run(pkg: Package, kind: str, arg):
    """One op.  A classify op also re-checks the certificate of a
    tractable verdict."""
    if kind == "classify":
        v = pkg.classify.classify(arg)
        ok = None
        if v.kind == "tractable":
            ok = pkg.classify.check_certificate(arg, v.certificate)
        return (v.kind, v.branch, ok)
    if kind == "torus":
        return pkg.evaluate.brute_force(arg)
    if kind == "affine":
        return pkg.evaluate.affine_eval(arg)
    raise ValueError(f"unknown op kind {kind!r}")


def record(kind: str, out) -> dict:
    """The table entry for an op output."""
    if kind == "classify":
        return {"kind": out[0], "branch": out[1]}
    return {"value": str(out)}


def mismatch(pkg: Package, kind: str, out, expected: dict):
    """None if the op output agrees with the recorded entry, else a
    description.  Branch names are reported, not gated; a tractable
    verdict must carry a certificate that checks, whether or not the
    table has an entry."""
    if kind == "classify":
        verdict, _branch, cert_ok = out
        if verdict == "tractable" and not cert_ok:
            return "certificate does not check"
        if "kind" in expected and verdict != expected["kind"]:
            return f"verdict {verdict}, recorded {expected['kind']}"
        return None
    if "value" in expected:
        want = pkg.numeric.parse_scalar(expected["value"])
        if not out == want:
            return f"value {out}, recorded {expected['value']}"
    return None
