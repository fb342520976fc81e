import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import eightvertex
import eightvertex.cli as cli
from eightvertex.cli import main
import eightvertex.classes as classes
import eightvertex.evaluate as evaluate
from eightvertex.classes import in_A
from eightvertex.evaluate import brute_force

from util import (
    prism_grid, quadratic_signature, random_affine_signature, random_grid,
)


DIPOLE_TEXT = """\
0 1
0 1
0 1
0 1
rot 0: 0 1 2 3
rot 1: 0 1 2 3
"""

K3_TEXT = """\
0 1
0 2
1 2
rot 0: 0 1
rot 1: 0 2
rot 2: 1 2
"""

GRID_JSON = json.dumps({
    "signatures": {"F": {"eightvertex": "1,0,0,0,0,0,0,1"}},
    "vertices": [{"sig": "F"}, {"sig": "F"}],
    "edges": [[[0, p], [1, p]] for p in range(1, 5)],
})


@pytest.fixture
def runner():
    return main


def invoke(runner, *args):
    """Run the CLI in process on args: its exit code, its stdout and
    stderr, and the two together (no command writes to both)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runner(list(args))
        except SystemExit as e:
            code = e.code
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue())


def test_classify_hard_json(runner):
    r = invoke(runner, "classify", "--sig", "0,1,1,1,1,1,1,0", "--json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["verdict"] == "hard"


def test_classify_preset_tractable(runner):
    r = invoke(runner, "classify", "--preset", "sample-tractable", "--json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["verdict"] == "tractable"
    assert data["class"] in ("A", "P", "L", "alphaA")
    assert "certificate" in data


def test_classify_human_output(runner):
    r = invoke(runner, "classify", "--sig", "0,1,1,1,1,1,1,0")
    assert r.exit_code == 0
    assert "hard" in r.output


def test_classify_bad_sig_exits_2(runner):
    r = invoke(runner, "classify", "--sig", "zzz")
    assert r.exit_code == 2


def test_classify_gaussian_entry_with_unit_imaginary_part(runner):
    r = invoke(runner, "classify", "--sig", "1-i,1,1,1,1,1,1,1")
    assert r.exit_code == 0, r.output
    for text in ("1+", "1+-i", "i1"):
        r = invoke(runner, "classify", "--sig", f"{text},1,1,1,1,1,1,1")
        assert r.exit_code == 2
        assert r.output == f"error: cannot parse scalar: {text!r}\n"


def test_classify_requires_one_source(runner):
    assert invoke(runner, "classify").exit_code == 2
    r = invoke(runner, "classify", "--sig", "0,1,1,1,1,1,1,0",
               "--preset", "eo")
    assert r.exit_code == 2


def test_eval_graph_preset(runner, tmp_path):
    p = tmp_path / "dipole.txt"
    p.write_text(DIPOLE_TEXT)
    r = invoke(runner, "eval", "--graph", str(p), "--preset", "eo")
    assert r.exit_code == 0
    assert r.output.split()[0] == "6"


def test_eval_grid_file(runner, tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(GRID_JSON)
    r = invoke(runner, "eval", "--grid", str(p), "--json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["exact"] == "2"


def test_eval_threads_agree(runner, tmp_path):
    # eval runs brute force in one thread; its value on the dipole with
    # the eo preset is the Eulerian orientation count
    p = tmp_path / "dipole.txt"
    p.write_text(DIPOLE_TEXT)
    val = invoke(runner, "eval", "--graph", str(p), "--preset", "eo", "--json")
    count = invoke(runner, "eo", "--graph", str(p), "--json")
    assert val.exit_code == count.exit_code == 0
    assert json.loads(val.output)["exact"] == str(
        json.loads(count.output)["count"])


def _grid_with(**changes):
    data = json.loads(GRID_JSON)
    data.update(changes)
    return json.dumps(data)


def _values_grid(value):
    values = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, value]
    return _grid_with(signatures={"F": {"arity": 4, "values": values}})


@pytest.mark.parametrize("text", [
    json.dumps([json.loads(GRID_JSON)]),
    _grid_with(edges=[[[0, 1], [1, 1]], 5, [[0, 3], [1, 3]],
                      [[0, 4], [1, 4]]]),
    _grid_with(edges=[[[0, p], [1, p], [1, 1]] for p in range(1, 5)]),
    _grid_with(edges=[[[0, p], [1, "1"]] for p in range(1, 5)]),
    _values_grid([0]),
    _values_grid(1.0),
    _values_grid(0.5),
    _values_grid(True),
    _values_grid(None),
    _grid_with(signatures=["F"]),
    _grid_with(vertices=[0, 0]),
], ids=["array", "int-edge", "three-ends", "string-port", "list-value",
        "float-one", "float-half", "bool-value", "null-value",
        "signature-list", "int-vertex"])
def test_eval_malformed_grid_exit_2(runner, tmp_path, text):
    p = tmp_path / "grid.json"
    p.write_text(text)
    for cmd in ("eval", "eval-affine"):
        r = invoke(runner, cmd, "--grid", str(p))
        assert r.exit_code == 2, r.output
        assert r.output.startswith("error: bad grid:")


def _grid_without(*path):
    """GRID_JSON with the field at the end of path removed."""
    data = json.loads(GRID_JSON)
    data["signatures"]["B"] = {"arity": 2, "values": [1, 0, 0, 1]}
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    return json.dumps(data)


@pytest.mark.parametrize("text, message", [
    (_grid_without("signatures"), "the grid has no 'signatures' field"),
    (_grid_without("vertices"), "the grid has no 'vertices' field"),
    (_grid_without("edges"), "the grid has no 'edges' field"),
    (_grid_without("signatures", "B", "arity"),
     "signature 'B' has no 'arity' field"),
    (_grid_without("signatures", "B", "values"),
     "signature 'B' has no 'values' field"),
    (_grid_without("vertices", 1, "sig"), "vertex 1 has no 'sig' field"),
    (_grid_with(vertices=[{"sig": "F"}, {"sig": "Q"}]),
     "vertex 1 names undefined signature 'Q'"),
    (_grid_with(vertices=[{"sig": "F"}, {"sig": 0}]),
     "sig is a string, got 0"),
    (_grid_with(signatures={"F": {"eightvertex": [1] * 8}}),
     "eightvertex is a string, got [1, 1, 1, 1, 1, 1, 1, 1]"),
], ids=["signatures", "vertices", "edges", "arity", "values", "sig",
        "undefined-name", "int-sig", "list-eightvertex"])
def test_eval_grid_missing_field_exit_2(runner, tmp_path, text, message):
    p = tmp_path / "grid.json"
    p.write_text(text)
    for cmd in ("eval", "eval-affine"):
        r = invoke(runner, cmd, "--grid", str(p))
        assert r.exit_code == 2, r.output
        assert r.output == f"error: bad grid: {message}\n"


def test_eval_max_edges_exit_3(runner, tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(GRID_JSON)
    r = invoke(runner, "eval", "--grid", str(p), "--max-edges", "2")
    assert r.exit_code == 3


def test_eval_negative_max_edges_exit_2(runner, tmp_path):
    # a negative limit is bad input, not a size limit that was hit
    p = tmp_path / "grid.json"
    p.write_text(GRID_JSON)
    for value in ("-1", "-28"):
        r = invoke(runner, "eval", "--grid", str(p), "--max-edges", value)
        assert (r.exit_code, r.stdout) == (2, ""), r.output
        assert r.stderr == "error: --max-edges must be at least 0\n"


TORUS5_TEXT = "".join(
    f"{v} {v // 5 * 5 + (v % 5 + 1) % 5}\n{v} {(v // 5 + 1) % 5 * 5 + v % 5}\n"
    for v in range(25))

CYCLE15_TEXT = "".join(f"{v} {(v + 1) % 15}\n" for v in range(15))

# 15 slot vertices in a ring, each joined to the next by two edges
SLOT_RING_JSON = json.dumps({
    "signatures": {"SLOT": {"arity": 4, "values": [0] * 16}},
    "vertices": [{"sig": "SLOT"}] * 15,
    "edges": [[[v, 3 + k], [(v + 1) % 15, 1 + k]]
              for v in range(15) for k in (0, 1)],
})


@pytest.mark.parametrize("command, flag, text, edges", [
    ("eo", "--graph", TORUS5_TEXT, 50),
    ("tutte33", "--graph", CYCLE15_TEXT, 30),
    ("demo-interp", "--grid", SLOT_RING_JSON, 30),
], ids=["eo-torus5", "tutte33-cycle15", "demo-interp-slot-ring"])
def test_size_limit_exit_3(runner, tmp_path, command, flag, text, edges):
    # every command that sums over orientations stops at 28 edges
    p = tmp_path / "input"
    p.write_text(text)
    for extra in ((), ("--json",)):
        r = invoke(runner, command, flag, str(p), *extra)
        assert (r.exit_code, r.stdout) == (3, ""), r.output
        assert r.stderr == f"error: {edges} edges exceeds 28\n"


def test_eval_class_a_grid_takes_affine_path(runner, tmp_path, monkeypatch):
    # a 48-edge prism of full-support class-A signatures: eval gives
    # brute_force's value without running the exponential sum
    rng = random.Random(5)
    pool = {"q0": quadratic_signature(rng, 3),
            "q1": quadratic_signature(rng, 3)}
    grid = prism_grid(rng, 16, pool)
    value = str(brute_force(grid, max_edges=60))
    p = tmp_path / "prism.json"
    p.write_text(json.dumps({
        "signatures": {name: {"arity": f.arity,
                              "values": [str(v) for v in f.values]}
                       for name, f in pool.items()},
        "vertices": [{"sig": name} for name in grid.vertices],
        "edges": [[list(a), list(b)] for a, b in grid.edges],
    }))
    # the edge limit still comes first
    r = invoke(runner, "eval", "--grid", str(p), "--json")
    assert r.exit_code == 3

    def no_brute_force(grid, max_edges=28):
        raise AssertionError("brute_force called on a class-A grid")

    monkeypatch.setattr(cli, "brute_force", no_brute_force)
    r = invoke(runner, "eval", "--grid", str(p), "--max-edges", "60",
               "--json")
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["exact"] == value == "-268435456-268435456i"


def test_eval_tests_each_signature_name_once(runner, tmp_path, monkeypatch):
    # a class-A grid of three names over 14 vertices: eval tests each
    # name for class A once, in affine_eval, and gives brute_force's value
    rng = random.Random(16)
    pool = {f"s{k}": random_affine_signature(rng, ar)
            for k, ar in enumerate((1, 2, 3))}
    grid = random_grid(rng, pool, 10)
    assert len(grid.vertices) > len(pool) == len(set(grid.vertices))
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({
        "signatures": {name: {"arity": f.arity,
                              "values": [str(v) for v in f.values]}
                       for name, f in pool.items()},
        "vertices": [{"sig": name} for name in grid.vertices],
        "edges": [[list(a), list(b)] for a, b in grid.edges],
    }))
    names = {tuple(f.values): name for name, f in pool.items()}
    calls = []

    def counting_in_A(f):
        calls.append(names[tuple(f.values)])
        return in_A(f)

    for module in (cli, classes, evaluate):
        monkeypatch.setattr(module, "in_A", counting_in_A, raising=False)
    r = invoke(runner, "eval", "--grid", str(p), "--json")
    assert r.exit_code == 0, r.output
    assert sorted(calls) == sorted(pool)
    assert json.loads(r.output)["exact"] == str(brute_force(grid))


def test_eval_deep_ring(runner, tmp_path):
    # 1500 binary equalities in a ring: the two consistent orientations
    # alternate around the (even) ring.  Every signature is in class A, so
    # eval sums it through affine_eval; test_evaluate.py runs brute_force
    # on the same ring
    n = 1500
    p = tmp_path / "ring.json"
    p.write_text(json.dumps({
        "signatures": {"eq": {"arity": 2, "values": [1, 0, 0, 1]}},
        "vertices": [{"sig": "eq"}] * n,
        "edges": [[[v, 2], [(v + 1) % n, 1]] for v in range(n)],
    }))
    r = invoke(runner, "eval", "--grid", str(p), "--max-edges", "5000")
    assert r.exit_code == 0, r.output
    assert r.output.startswith("2  ")


def test_eval_missing_file_exit_2(runner):
    r = invoke(runner, "eval", "--grid", "/nonexistent/grid.json")
    assert r.exit_code == 2


def test_eval_affine(runner, tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(GRID_JSON)
    r = invoke(runner, "eval-affine", "--grid", str(p), "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["exact"] == "2"


def test_eo_command(runner, tmp_path):
    p = tmp_path / "dipole.txt"
    p.write_text(DIPOLE_TEXT)
    r = invoke(runner, "eo", "--graph", str(p), "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["count"] == 6


def test_tutte33_command(runner, tmp_path):
    p = tmp_path / "k3.txt"
    p.write_text(K3_TEXT)
    r = invoke(runner, "tutte33", "--graph", str(p), "--json")
    assert r.exit_code == 0
    assert json.loads(r.output)["value"] == "15"


def test_ising_exact(runner):
    r = invoke(runner, "ising", "--jh", "0", "--jv", "2", "--j", "-1",
               "--jp", "-1", "--jpp", "0", "--json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["signature"].split(";")[0].strip() == "1"
    assert data["classification"]["verdict"] == "tractable"


def test_ising_inexact_needs_approx(runner):
    r = invoke(runner, "ising", "--jh", "1/2", "--jv", "0", "--j", "0",
               "--jp", "0", "--jpp", "0")
    assert r.exit_code == 2
    r = invoke(runner, "ising", "--jh", "1/2", "--jv", "0", "--j", "0",
               "--jp", "0", "--jpp", "0", "--approx")
    assert r.exit_code == 0


def test_ising_zero_denominator_exit_2(runner):
    r = invoke(runner, "ising", "--jh", "1/0", "--jv", "0", "--j", "0",
               "--jp", "0", "--jpp", "0")
    assert r.exit_code == 2
    assert r.output == "error: --jh 1/0: zero denominator\n"


def test_ising_approx_overflow_exit_2(runner):
    r = invoke(runner, "ising", "--jh=-1000", "--jv", "0", "--j", "0",
               "--jp", "0", "--jpp", "0", "--approx")
    assert r.exit_code == 2
    assert r.output == ("error: the weight of entry w (energy -1000) "
                        "overflows a float\n")


def test_check_cert_round_trip(runner, tmp_path):
    r = invoke(runner, "classify", "--preset", "sample-tractable", "--json")
    verdict = json.loads(r.output)
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(verdict))
    r = invoke(runner, "check-cert", "--sig", "1,1,1,0,0,1,1,0",
               "--cert", str(p))
    assert r.exit_code == 0
    assert "true" in r.output

    # same certificate against the wrong signature
    r = invoke(runner, "check-cert", "--sig", "0,1,1,1,1,1,1,0",
               "--cert", str(p))
    assert r.exit_code == 0
    assert "false" in r.output


def test_check_cert_against_zero_signature_is_false(runner, tmp_path):
    # every step of the certificate applies to the all-zero signature,
    # whose images are proportional to the certificate's only through 0
    r = invoke(runner, "classify", "--sig", "1,1,1,0,0,1,1,0", "--json")
    p = tmp_path / "v.json"
    p.write_text(r.output)
    r = invoke(runner, "check-cert", "--sig", "0,0,0,0,0,0,0,0",
               "--cert", str(p), "--json")
    assert r.exit_code == 0
    assert r.output == '{"valid": false}\n'


def test_classify_z_route_certificate(runner, tmp_path):
    # branch B5, through the symmetrizing z step
    sig = "2i,1,1,-1,-i,i,i,1/2"
    r = invoke(runner, "classify", "--sig", sig)
    assert r.exit_code == 0, r.output
    assert r.output == ("verdict: tractable  (branch B5)\n"
                        "  certificate: outer_rewrite(1, i) . half_diag(1)"
                        " . z -> A\n")
    r = invoke(runner, "classify", "--sig", sig, "--json")
    assert json.loads(r.output)["branch"] == "B5"
    p = tmp_path / "b5.json"
    p.write_text(r.output)
    r = invoke(runner, "check-cert", "--sig", sig, "--cert", str(p),
               "--json")
    assert r.exit_code == 0
    assert r.output == '{"valid": true}\n'


def test_classify_generic_branch_certificate(runner, tmp_path):
    # branch B6 with a = 2, not a power of i: no half_diag(i^t / c) fits,
    # and the diagonal is (a / c) i^s = -2i
    sig = "2,1,-1,-i,-1,i,i,-1/2i"
    r = invoke(runner, "classify", "--sig", sig, "--json")
    assert r.exit_code == 0, r.output
    data = json.loads(r.output)
    assert (data["verdict"], data["branch"], data["class"]) == (
        "tractable", "B6", "A")
    assert data["certificate"]["steps"] == [
        {"kind": "half_diag", "gamma_sq": "-2i"}]
    p = tmp_path / "b6.json"
    p.write_text(r.output)
    r = invoke(runner, "check-cert", "--sig", sig, "--cert", str(p),
               "--json")
    assert r.exit_code == 0
    assert r.output == '{"valid": true}\n'


@pytest.mark.parametrize("sig, kind", [("0,1,1,1,1,1,1,0", "hard"),
                                       ("0,0,0,0,0,0,0,0", "vanishing")])
def test_check_cert_verdict_without_certificate(runner, tmp_path, sig, kind):
    r = invoke(runner, "classify", "--sig", sig, "--json")
    p = tmp_path / "verdict.json"
    p.write_text(r.output)
    r = invoke(runner, "check-cert", "--sig", sig, "--cert", str(p))
    assert r.exit_code == 2
    assert r.output == f"error: a {kind} verdict carries no certificate\n"


@pytest.mark.parametrize("cert, rule", [
    ([1, 2], "a certificate is an object"),
    ({"steps": "identity", "target": "A", "transformed": ["1", "1"]},
     "steps is a list"),
    ({"steps": [3], "target": "A", "transformed": ["1", "1"]},
     "a step is an object"),
    ({"steps": [], "target": "A", "transformed": "1,1"},
     "transformed is a list"),
    ({"steps": [], "target": "A", "transformed": [1, 1]},
     "a value is a scalar string"),
    ({"steps": [], "target": 5, "transformed": ["1", "1"]},
     "target is a string"),
    ({"verdict": "tractable", "certificate": [1]},
     "a certificate is an object"),
    *(({"steps": [], "target": "A", "transformed": ["1"] * n},
       "transformed has 2^n values for n in 1..6") for n in (0, 1, 5)),
])
def test_check_cert_malformed_exit_2(runner, tmp_path, cert, rule):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    r = invoke(runner, "check-cert", "--sig", "1,1,1,0,0,1,1,0",
               "--cert", str(p))
    assert r.exit_code == 2
    assert r.output.startswith(f"error: bad certificate: {rule}, got ")


_T16 = ["1"] + ["0"] * 15


@pytest.mark.parametrize("cert, message", [
    ({"target": "A", "transformed": _T16},
     "the certificate has no 'steps' field"),
    ({"steps": [], "transformed": _T16},
     "the certificate has no 'target' field"),
    ({"steps": [], "target": "A"},
     "the certificate has no 'transformed' field"),
    ({"steps": [{}], "target": "A", "transformed": _T16},
     "a step has no 'kind' field"),
    ({"steps": [{"kind": "half_diag"}], "target": "A", "transformed": _T16},
     "a half_diag step has no 'gamma_sq' field"),
    ({"steps": [{"kind": "outer_rewrite", "x": "1"}], "target": "A",
      "transformed": _T16},
     "an outer_rewrite step has no 'a' field"),
    ({"steps": [{"kind": "outer_rewrite", "a": "1"}], "target": "A",
      "transformed": _T16},
     "an outer_rewrite step has no 'x' field"),
    ({"verdict": "tractable", "certificate": {"target": "A",
                                              "transformed": _T16}},
     "the certificate has no 'steps' field"),
    # a value that breaks a rule is written as JSON, as in grid messages
    ({"steps": [{"kind": "rot"}], "target": "A", "transformed": _T16},
     "unknown step kind 'rot'"),
    ({"steps": [{"kind": 5}], "target": "A", "transformed": _T16},
     "kind is a string, got 5"),
    ({"steps": [{"kind": "half_diag", "gamma_sq": 4}], "target": "A",
      "transformed": _T16},
     "gamma_sq is a string, got 4"),
    ({"steps": [], "target": True, "transformed": _T16},
     "target is a string, got true"),
    ({"steps": [], "target": None, "transformed": _T16},
     "target is a string, got null"),
    ({"steps": [], "target": "A", "transformed": "1,1"},
     'transformed is a list, got "1,1"'),
], ids=["steps", "target", "transformed", "kind", "gamma_sq", "a", "x",
        "verdict-steps", "unknown-kind", "int-kind", "int-gamma_sq",
        "true-target", "null-target", "string-transformed"])
def test_check_cert_missing_field_exit_2(runner, tmp_path, cert, message):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    r = invoke(runner, "check-cert", "--sig", "1,1,1,0,0,1,1,0",
               "--cert", str(p))
    assert (r.exit_code, r.stdout) == (2, ""), r.output
    assert r.stderr == f"error: bad certificate: {message}\n"


def test_check_cert_zero_gamma_sq_is_false(runner, tmp_path):
    p = tmp_path / "cert.json"
    p.write_text(json.dumps({
        "steps": [{"kind": "half_diag", "gamma_sq": "0"}],
        "target": "A",
        "transformed": ["1", "0", "0", "1", "0", "1", "0", "0",
                        "0", "0", "1", "0", "0", "0", "0", "0"],
    }))
    r = invoke(runner, "check-cert", "--sig", "1,1,1,0,0,1,1,0",
               "--cert", str(p))
    assert r.exit_code == 0
    assert r.output == "false\n"


def test_check_cert_missing_file(runner):
    r = invoke(runner, "check-cert", "--sig", "1,1,1,0,0,1,1,0",
               "--cert", "/nonexistent/cert.json")
    assert r.exit_code == 2


_JSON_FILE_ARGS = {
    "eval": (["eval", "--grid"], "grid"),
    "eval-affine": (["eval-affine", "--grid"], "grid"),
    "demo-interp": (["demo-interp", "--grid"], "grid"),
    "check-cert": (["check-cert", "--sig", "1,1,1,0,0,1,1,0", "--cert"],
                   "certificate"),
}
_GRAPH_FILE_ARGS = {
    "eval-graph": ["eval", "--preset", "eo", "--graph"],
    "eo": ["eo", "--graph"],
    "tutte33": ["tutte33", "--graph"],
}
# file contents and the start of the message after the prefix; an int
# past the interpreter's int-to-string limit is refused by the decoder
_NOT_UTF8 = (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in "
             "position 0: invalid start byte")
_CONTENTS = {"not-utf8": _NOT_UTF8,
             "deep": (b"[" * 100000, "maximum recursion depth exceeded"),
             "long-int": (b"[" + b"1" * 5000 + b"]", "")}


@pytest.mark.parametrize("args, what, content", [
    *(pytest.param(args, what, content, id=f"{cmd}-{name}")
      for cmd, (args, what) in _JSON_FILE_ARGS.items()
      for name, content in _CONTENTS.items()),
    *(pytest.param(args, "graph", _NOT_UTF8, id=f"{cmd}-not-utf8")
      for cmd, args in _GRAPH_FILE_ARGS.items()),
])
def test_undecodable_file_exit_2(runner, tmp_path, args, what, content):
    # bytes that are not UTF-8, or JSON nested deeper than the decoder
    # goes, get the prefix of the file's format like any other fault
    p = tmp_path / "input"
    p.write_bytes(content[0])
    r = invoke(runner, *args, str(p))
    assert (r.exit_code, r.stdout) == (2, ""), r.output
    assert r.stderr.startswith(f"error: bad {what}: {content[1]}")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")


def _grid_value_file(tmp_path, value):
    p = tmp_path / "grid.json"
    p.write_text(_values_grid(value))
    return str(p)


@pytest.mark.parametrize("args, text", [
    (["classify", "--sig", "1,1,1,1,1,1,1,1/0"], "1/0"),
    (["classify", "--sig", "1,1,1,1,1,1,1,0/0"], "0/0"),
    (["classify", "--sig", "1;1;1;1;1;1;1;0,1/0,0,0"], "0,1/0,0,0"),
    (["eval", "--grid", "GRID"], "1/0"),
    (["eval-affine", "--grid", "GRID"], "1/0"),
    (["demo-interp", "--t", "1/0"], "1/0"),
    (["demo-interp", "--lambdas", "1/0"], "1/0"),
], ids=["sig", "sig-0/0", "sig-coefficients", "eval-grid",
        "eval-affine-grid", "demo-t", "demo-lambdas"])
def test_zero_denominator_exit_2(runner, tmp_path, args, text):
    args = [_grid_value_file(tmp_path, "1/0") if a == "GRID" else a
            for a in args]
    r = invoke(runner, *args)
    assert r.exit_code == 2, r.output
    assert r.output == f"error: zero denominator in scalar: {text!r}\n"


@pytest.mark.parametrize("text, vertex, edges", [
    ("0 1\n0 1\nrot 0: 5\n", 0, [0, 1]),
    ("0 1\n1 2\n0 2\nrot 0: 0 1\n", 0, [0, 2]),
], ids=["unknown-edge", "edge-not-at-vertex"])
def test_tutte33_bad_rotation_exit_2(runner, tmp_path, text, vertex, edges):
    p = tmp_path / "g.txt"
    p.write_text(text)
    r = invoke(runner, "tutte33", "--graph", str(p))
    assert r.exit_code == 2, r.output
    assert r.output == (f"error: rotation at vertex {vertex} is not a "
                        f"permutation of its edges {edges}\n")


@pytest.mark.parametrize("command", ["eval", "eo"])
@pytest.mark.parametrize("text, message", [
    ("0 1\n1 2\n", "vertex 0 has degree 1"),
    ("0 0\n0 1\n", "vertex 0 has degree 3"),
    ("10 20\n10 20\n10 20\n10 20\n20 30\n", "vertex 20 has degree 5"),
], ids=["path", "loop", "labels"])
def test_graph_degree_mismatch_exit_2(runner, tmp_path, command, text,
                                      message):
    # the graph's own vertex label and degree, where the generated grid
    # would name one of its ports; a loop counts twice
    p = tmp_path / "g.txt"
    p.write_text(text)
    preset = ("--preset", "eo") if command == "eval" else ()
    r = invoke(runner, command, "--graph", str(p), *preset)
    assert r.exit_code == 2, r.output
    assert r.output == (f"error: {message}, but the signature has "
                        "arity 4\n")


@pytest.mark.parametrize("command", ["eo", "tutte33"])
@pytest.mark.parametrize("line", ["0 x", "rot 0: 0 1 2 x", "0 1 2"])
def test_graph_bad_line_exit_2(runner, tmp_path, command, line):
    # a label that is no integer is reported like an edge of wrong length
    p = tmp_path / "g.txt"
    p.write_text(f"0 1\n{line}  # comment\n")
    r = invoke(runner, command, "--graph", str(p))
    assert r.exit_code == 2, r.output
    assert r.output == f"error: bad graph line: {line!r}\n"


def test_tutte33_dipole_rotations(runner, tmp_path):
    # four parallel edges listed in the same order around both ends wrap
    # the dipole around a torus (2 faces); reversed at one end, it is
    # plane (4 faces) and T(G; 3, 3) = 42
    p = tmp_path / "dipole.txt"
    p.write_text(DIPOLE_TEXT)
    r = invoke(runner, "tutte33", "--graph", str(p))
    assert r.exit_code == 2, r.output
    assert r.output == (
        "error: the rotations are not a plane embedding: V - E + F = "
        "2 - 4 + 2 = 0, but a plane graph with 1 component(s) with edges "
        "has 2\n")
    p.write_text(DIPOLE_TEXT.replace("rot 1: 0 1 2 3", "rot 1: 3 2 1 0"))
    r = invoke(runner, "tutte33", "--graph", str(p), "--json")
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["value"] == "42"


@pytest.mark.parametrize("t", ["0", "1", "-1", "i"])
def test_demo_interp_singular_t_exit_2(runner, t):
    r = invoke(runner, "demo-interp", "--t", t)
    assert r.exit_code == 2, r.output
    assert r.output == (f"error: t = {t} gives a singular interpolation "
                        "system\n")


def test_demo_interp_slot_arity_exit_2(runner, tmp_path):
    # the chain block that goes into each slot has arity 4; an arity-2
    # SLOT is named as such, not by a port of the substituted grid
    p = tmp_path / "slot2.json"
    p.write_text(json.dumps({
        "signatures": {"SLOT": {"arity": 2, "values": [1, 0, 0, 1]}},
        "vertices": [{"sig": "SLOT"}] * 2,
        "edges": [[[0, 1], [1, 1]], [[0, 2], [1, 2]]]}))
    r = invoke(runner, "demo-interp", "--grid", str(p))
    assert r.exit_code == 2, r.output
    assert r.output == ("error: the SLOT signature has arity 2, but the "
                        "chain block placed in each slot has arity 4\n")


@pytest.mark.parametrize("args, kind", [
    (["eval", "--grid"], "grid"),
    (["eval-affine", "--grid"], "grid"),
    (["demo-interp", "--grid"], "grid"),
    (["check-cert", "--sig", "1,1,1,0,0,1,1,0", "--cert"], "certificate"),
], ids=["eval", "eval-affine", "demo-interp", "check-cert"])
def test_file_not_json_exit_2(runner, tmp_path, args, kind):
    p = tmp_path / "file.json"
    p.write_text("{x")
    r = invoke(runner, *args, str(p))
    assert r.exit_code == 2, r.output
    assert r.output == (f"error: bad {kind}: Expecting property name "
                        "enclosed in double quotes: line 1 column 2 "
                        "(char 1)\n")


def test_demo_interp_default(runner):
    r = invoke(runner, "demo-interp", "--json")
    assert r.exit_code == 0
    data = json.loads(r.output)
    assert data["agrees"] is True
    assert set(data["values"]) == {"0", "3", "-1"}


@pytest.mark.parametrize("module", ["eightvertex", "eightvertex.cli"])
def test_python_m_entry_points(runner, module):
    src = str(Path(eightvertex.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    r = run("classify", "--preset", "eo", "--json")
    assert r.returncode == 0, r.stderr
    assert r.stdout == invoke(runner, "classify", "--preset", "eo",
                              "--json").output
    assert json.loads(r.stdout)["verdict"] == "hard"
    bad = run("classify", "--sig", "1,2,3")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


def test_no_subcommand_exit_2_with_usage(runner):
    r = invoke(runner)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.startswith("usage: eightvertex")


def test_option_value_may_start_with_a_dash(runner):
    # the value after --sig is taken as it stands, '-' first or not
    r = invoke(runner, "classify", "--sig", "-i,1,1,1,1,1,1,-i", "--json")
    assert r.exit_code == 0, r.output
    assert r.output == invoke(runner, "classify", "--sig=-i,1,1,1,1,1,1,-i",
                              "--json").output
    data = json.loads(r.output)
    assert (data["verdict"], data["branch"]) == ("hard", "B4")


@pytest.mark.parametrize("args", [
    ["classify", "--si", "1"],
    ["classify", "--preset", "nope"],
    ["classify", "--sig"],
    ["classify", "--preset", "eo", "extra"],
    ["eval", "--max-edges", "q"],
    ["eval-affine"],
    ["frobnicate"],
], ids=["abbreviation", "unknown-preset", "missing-value", "extra-argument",
        "non-int-max-edges", "missing-required", "unknown-command"])
def test_usage_errors_exit_2(runner, args):
    r = invoke(runner, *args)
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert "usage: eightvertex" in r.stderr


@pytest.mark.parametrize("args", [
    ["classify", "--sig", "1,2,3"],
    ["eval", "--grid", "/nonexistent/grid.json"],
    ["eval-affine", "--grid", "GRID"],
    ["eo", "--graph", "GRAPH"],
    ["tutte33", "--graph", "GRAPH"],
    ["ising", "--jh", "x", "--jv", "0", "--j", "0", "--jp", "0",
     "--jpp", "0"],
    ["check-cert", "--sig", "1,1,1,0,0,1,1,0", "--cert", "GRID"],
    ["demo-interp", "--lambdas", "1,zzz"],
], ids=lambda a: a[0])
def test_bad_input_exit_2(runner, tmp_path, args):
    # a grid whose signature is not in class A, a graph with a self-loop
    # and no 4-regular vertex, and a grid file that is no certificate:
    # one line on stderr
    grid = tmp_path / "grid.json"
    grid.write_text(_grid_with(signatures={
        "F": {"eightvertex": "1,2,3,1,1,2,1,3"}}))
    graph = tmp_path / "graph.txt"
    graph.write_text("0 0\n0 1\n")
    args = [{"GRID": str(grid), "GRAPH": str(graph)}.get(a, a) for a in args]
    for extra in ((), ("--json",)):
        r = invoke(runner, *args, *extra)
        assert (r.exit_code, r.stdout) == (2, ""), r.output
        assert r.stderr.startswith("error: ")
        assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")


def test_handlers_return_without_printing(tmp_path, capsys):
    # a handler returns (payload, text) and leaves printing to main
    p = tmp_path / "dipole.txt"
    p.write_text(DIPOLE_TEXT)
    assert cli.eo_cmd(str(p)) == ({"count": 6}, "6")
    payload, text = cli.classify_cmd(sig=None, preset="eo")
    assert payload["verdict"] == "hard"
    assert text.startswith("verdict: hard")
    with pytest.raises(ValueError, match="exactly one of --sig"):
        cli.classify_cmd(sig=None, preset=None)
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", [
    [], ["classify"], ["eval"], ["eval-affine"], ["eo"], ["tutte33"],
    ["ising"], ["check-cert"], ["demo-interp"]],
    ids=lambda c: " ".join(c) or "eightvertex")
def test_help_exit_0(runner, command):
    r = invoke(runner, *command, "--help")
    assert r.exit_code == 0, r.output
    assert r.stdout.startswith(" ".join(["usage: eightvertex", *command]))
    assert r.stderr == ""


def test_import_loads_only_the_standard_library():
    # importing the CLI loads neither gadgets (only the interpolation
    # demonstration imports it, when it runs) nor mobius (no command uses
    # it); with mobius, it loads no third-party package, nor dataclasses
    # or inspect; and the package declares no runtime dependency
    src = Path(eightvertex.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, eightvertex.cli; "
            "print(*(m for m in ('eightvertex.gadgets', 'eightvertex.mobius') "
            "if m in sys.modules)); "
            "import eightvertex.mobius; "
            "print(*(m for m in ('click', 'dataclasses', 'inspect') "
            "if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "\n\n"
    pyproject = (src.parent / "pyproject.toml").read_text()
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert "dependencies" not in project
