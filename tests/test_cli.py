import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import eightvertex
from eightvertex.cli import main


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
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


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
        r = runner.invoke(main, [cmd, "--grid", str(p)])
        assert r.exit_code == 2, r.output
        assert r.output.startswith("error: bad grid:")


def test_eval_max_edges_exit_3(runner, tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(GRID_JSON)
    r = invoke(runner, "eval", "--grid", str(p), "--max-edges", "2")
    assert r.exit_code == 3


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


@pytest.mark.parametrize("sig, kind", [("0,1,1,1,1,1,1,0", "hard"),
                                       ("0,0,0,0,0,0,0,0", "vanishing")])
def test_check_cert_verdict_without_certificate(runner, tmp_path, sig, kind):
    r = invoke(runner, "classify", "--sig", sig, "--json")
    p = tmp_path / "verdict.json"
    p.write_text(r.output)
    r = invoke(runner, "check-cert", "--sig", sig, "--cert", str(p))
    assert r.exit_code == 2
    assert r.output == f"error: a {kind} verdict carries no certificate\n"


def test_check_cert_missing_file(runner):
    r = invoke(runner, "check-cert", "--sig", "1,1,1,0,0,1,1,0",
               "--cert", "/nonexistent/cert.json")
    assert r.exit_code == 2


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
