"""Command-line front end.

Subcommands: classify, eval, eval-affine, eo, tutte33, ising,
check-cert, demo-interp.  JSON output is the machine interface
(--json); the default output is a short human-readable summary.

Exit codes: 0 on success (a hard verdict is data, not an error),
2 on input errors, 3 on size-limit violations.
"""

import json
import math
import sys
from fractions import Fraction

import click

from .numeric import DivisionByZero, parse_cyclo8
from .signatures import EightVertexSig, Signature
from .classify import Certificate, check_certificate, classify as classify_sig
from .evaluate import (
    DanglingPort,
    Graph,
    Grid,
    NotAffineSignature,
    NotRepresentable,
    TooManyEdges,
    affine_eval,
    brute_force,
    eo_count,
    grid_from_graph,
    interpolation_demo,
    ising_energies,
    ising_signature,
    tutte33 as tutte33_value,
)

PRESETS = {
    "eo": "0,1,1,1,1,1,1,0",
    "tutte": "0,1,1,2,2,1,1,0",
    "sample-tractable": "1,1,1,0,0,1,1,0",
}

_INPUT_ERRORS = (ValueError, KeyError, DivisionByZero, NotRepresentable,
                 NotAffineSignature, DanglingPort, json.JSONDecodeError,
                 OSError)


def _fail(msg: str, code: int = 2):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _sig_from_options(sig, preset) -> EightVertexSig:
    if (sig is None) == (preset is None):
        _fail("exactly one of --sig and --preset is required")
    text = sig if sig is not None else PRESETS[preset]
    return EightVertexSig.parse(text)


def _load_grid(path: str) -> Grid:
    with open(path) as fh:
        return Grid.from_json(fh.read())


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return Graph.parse(fh.read())


def _print_value(val, as_json: bool):
    z = val.to_complex()
    if as_json:
        click.echo(json.dumps({"approx": [z.real, z.imag], "exact": str(val)}))
    else:
        click.echo(f"{val}  (~ {z.real:g} {z.imag:+g}i)")


@click.group()
def main():
    """Exact tools for eight-vertex Holant problems."""


@main.command("classify")
@click.option("--sig", help="signature a,b,c,d,w,z,y,x")
@click.option("--preset", type=click.Choice(sorted(PRESETS)))
@click.option("--json", "as_json", is_flag=True)
def classify_cmd(sig, preset, as_json):
    """Classify a signature as hard, tractable, or vanishing."""
    try:
        f = _sig_from_options(sig, preset)
        verdict = classify_sig(f)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    if as_json:
        click.echo(json.dumps(verdict.to_json_dict()))
        return
    click.echo(f"verdict: {verdict.kind}  (branch {verdict.branch})")
    for rule, detail in verdict.trace:
        click.echo(f"  {rule}: {detail}")
    if verdict.certificate is not None:
        click.echo(f"  certificate: {verdict.certificate.describe()}")
    if verdict.reason is not None:
        click.echo(f"  reason: {verdict.reason}")


@main.command("eval")
@click.option("--grid", "grid_path", help="grid JSON file")
@click.option("--graph", "graph_path", help="graph file (with --sig/--preset)")
@click.option("--sig", help="signature to place on every graph vertex")
@click.option("--preset", type=click.Choice(sorted(PRESETS)))
@click.option("--json", "as_json", is_flag=True)
@click.option("--max-edges", default=28, show_default=True)
def eval_cmd(grid_path, graph_path, sig, preset, as_json, max_edges):
    """Evaluate a Holant partition function exactly: as a Gauss sum when
    every vertex signature is in class A, by brute force otherwise."""
    try:
        if grid_path is not None:
            grid = _load_grid(grid_path)
        elif graph_path is not None:
            f = _sig_from_options(sig, preset)
            grid = grid_from_graph(_load_graph(graph_path),
                                   f.to_signature(), "f")
        else:
            _fail("one of --grid or --graph is required")
        # max_edges bounds both paths: over it, brute_force raises
        # TooManyEdges.  affine_eval tests each signature name for class A
        # once and raises NotAffineSignature at the first that is not
        if len(grid.edges) > max_edges:
            val = brute_force(grid, max_edges=max_edges)
        else:
            try:
                val = affine_eval(grid)
            except NotAffineSignature:
                val = brute_force(grid, max_edges=max_edges)
    except TooManyEdges as e:
        _fail(str(e), code=3)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    _print_value(val, as_json)


@main.command("eval-affine")
@click.option("--grid", "grid_path", required=True, help="grid JSON file")
@click.option("--json", "as_json", is_flag=True)
def eval_affine_cmd(grid_path, as_json):
    """Evaluate an all-affine grid through the polynomial-time path."""
    try:
        val = affine_eval(_load_grid(grid_path))
    except _INPUT_ERRORS as e:
        _fail(str(e))
    _print_value(val, as_json)


@main.command("eo")
@click.option("--graph", "graph_path", required=True)
@click.option("--json", "as_json", is_flag=True)
def eo_cmd(graph_path, as_json):
    """Count Eulerian orientations of a 4-regular graph."""
    try:
        n = eo_count(_load_graph(graph_path))
    except TooManyEdges as e:
        _fail(str(e), code=3)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    click.echo(json.dumps({"count": n}) if as_json else str(n))


@main.command("tutte33")
@click.option("--graph", "graph_path", required=True,
              help="planar graph file with rotation lines")
@click.option("--json", "as_json", is_flag=True)
def tutte33_cmd(graph_path, as_json):
    """Evaluate T(G; 3, 3) through the medial-graph Holant."""
    try:
        val = tutte33_value(_load_graph(graph_path))
    except TooManyEdges as e:
        _fail(str(e), code=3)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    if as_json:
        click.echo(json.dumps({"value": str(val)}))
    else:
        click.echo(str(val))


@main.command("ising")
@click.option("--jh", required=True)
@click.option("--jv", required=True)
@click.option("--j", required=True)
@click.option("--jp", required=True)
@click.option("--jpp", required=True)
@click.option("--approx", is_flag=True,
              help="allow energies off the i*pi/4 lattice (float weights)")
@click.option("--json", "as_json", is_flag=True)
def ising_cmd(jh, jv, j, jp, jpp, approx, as_json):
    """Build the eight-vertex signature of an Ising-type energy
    function (couplings in units of i*pi/4) and classify it; with
    --approx, print its float weights instead."""
    try:
        params = [_coupling(flag, v) for flag, v in
                  zip(("--jh", "--jv", "--j", "--jp", "--jpp"),
                      (jh, jv, j, jp, jpp))]
        if not approx:
            f = ising_signature(*params)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    if approx:
        # the real weights e^{-energy}, written as Python complexes
        energies = ising_energies(*params)
        weights = []
        for k in "abcdwzyx":
            try:
                weights.append(math.exp(-float(energies[k])))
            except OverflowError:
                _fail(f"the weight of entry {k} (energy {energies[k]}) "
                      "overflows a float")
        payload = {"signature": ";".join(f"{w}+0.0j" for w in weights)}
    else:
        payload = {"signature": str(f),
                   "classification": classify_sig(f).to_json_dict()}
    if as_json:
        click.echo(json.dumps(payload))
    else:
        click.echo(f"signature: {payload['signature']}")
        if "classification" in payload:
            click.echo(f"verdict: {payload['classification']['verdict']}")


def _coupling(flag: str, text: str) -> Fraction:
    """The rational coupling given to flag; ValueError if it is none."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} {text}: zero denominator") from None


@main.command("check-cert")
@click.option("--sig", required=True)
@click.option("--cert", "cert_path", required=True,
              help="certificate JSON file (as emitted by classify)")
@click.option("--json", "as_json", is_flag=True)
def check_cert_cmd(sig, cert_path, as_json):
    """Re-verify a tractability certificate."""
    try:
        f = EightVertexSig.parse(sig)
        with open(cert_path) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "verdict" in data:
            if "certificate" not in data:
                raise ValueError(f"a {data['verdict']} verdict carries no "
                                 "certificate")
            data = data["certificate"]
        cert = Certificate.from_json_dict(data)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    ok = check_certificate(f, cert)
    click.echo(json.dumps({"valid": ok}) if as_json else str(ok).lower())


def _demo_grid() -> Grid:
    """Two slot vertices joined by four edges."""
    edges = [((0, p), (1, p)) for p in range(1, 5)]
    return Grid({"SLOT": Signature(4, [0] * 16)}, ["SLOT", "SLOT"], edges)


@main.command("demo-interp")
@click.option("--grid", "grid_path", help="grid JSON with SLOT vertices")
@click.option("--t", default="2", show_default=True)
@click.option("--lambdas", default="0,3,-1", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def demo_interp_cmd(grid_path, t, lambdas, as_json):
    """Interpolation demo: recover slot-family Holant values from
    chain-gadget evaluations and compare with direct evaluation."""
    try:
        grid = _load_grid(grid_path) if grid_path else _demo_grid()
        tval = parse_cyclo8(t)
        lams = [parse_cyclo8(p.strip()) for p in lambdas.split(",")]
        report = interpolation_demo(grid, tval, lams)
    except TooManyEdges as e:
        _fail(str(e), code=3)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    if as_json:
        click.echo(json.dumps({
            "slots": report["slots"],
            "channel_sums": [str(v) for v in report["channel_sums"]],
            "values": {k: str(v) for k, v in report["values"].items()},
            "direct": {k: str(v) for k, v in report["direct"].items()},
            "agrees": report["agrees"],
        }))
        return
    click.echo(f"slots: {report['slots']}")
    for k, v in report["values"].items():
        click.echo(f"lambda={k}: {v}  direct={report['direct'][k]}")
    click.echo(f"agrees: {report['agrees']}")


if __name__ == "__main__":
    main()
