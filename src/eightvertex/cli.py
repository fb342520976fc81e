"""Command-line front end, on the standard library's argparse.

Subcommands: classify, eval, eval-affine, eo, tutte33, ising,
check-cert, demo-interp.  JSON output is the machine interface
(--json); the default output is a short human-readable summary.
Options are never abbreviated, and an option's value is the argument
after it even when that starts with '-' (``--sig -i,1,1,1,1,1,1,-i``).

Exit codes: 0 on success (a hard verdict is data, not an error),
2 on input errors and usage errors, 3 on size-limit violations.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

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
    print(f"error: {msg}", file=sys.stderr)
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
        print(json.dumps({"approx": [z.real, z.imag], "exact": str(val)}))
    else:
        print(f"{val}  (~ {z.real:g} {z.imag:+g}i)")


# (name, handler, options) of each subcommand, in the order of the help;
# an option is (flag, keywords of add_argument), and the handler takes
# the options' values as keywords
_COMMANDS = []


def _command(name: str, *options):
    def register(handler):
        _COMMANDS.append((name, handler, options))
        return handler
    return register


_JSON = ("--json", {"dest": "as_json", "action": "store_true"})
_SIG = ("--sig", {"help": "signature a,b,c,d,w,z,y,x"})
_PRESET = ("--preset", {"choices": sorted(PRESETS)})


@_command("classify", _SIG, _PRESET, _JSON)
def classify_cmd(sig, preset, as_json):
    """Classify a signature as hard, tractable, or vanishing."""
    try:
        f = _sig_from_options(sig, preset)
        verdict = classify_sig(f)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    if as_json:
        print(json.dumps(verdict.to_json_dict()))
        return
    print(f"verdict: {verdict.kind}  (branch {verdict.branch})")
    for rule, detail in verdict.trace:
        print(f"  {rule}: {detail}")
    if verdict.certificate is not None:
        print(f"  certificate: {verdict.certificate.describe()}")
    if verdict.reason is not None:
        print(f"  reason: {verdict.reason}")


@_command("eval",
          ("--grid", {"dest": "grid_path", "help": "grid JSON file"}),
          ("--graph", {"dest": "graph_path",
                       "help": "graph file (with --sig/--preset)"}),
          ("--sig", {"help": "signature to place on every graph vertex"}),
          _PRESET, _JSON,
          ("--max-edges", {"type": int, "default": 28,
                           "help": "(default: %(default)s)"}))
def eval_cmd(grid_path, graph_path, sig, preset, as_json, max_edges):
    """Evaluate a Holant partition function exactly: as a Gauss sum when
    every vertex signature is in class A, by brute force otherwise."""
    try:
        if grid_path is not None:
            grid = _load_grid(grid_path)
        elif graph_path is not None:
            f = _sig_from_options(sig, preset)
            grid = grid_from_graph(_load_graph(graph_path), f, "f")
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


@_command("eval-affine",
          ("--grid", {"dest": "grid_path", "required": True,
                      "help": "grid JSON file"}),
          _JSON)
def eval_affine_cmd(grid_path, as_json):
    """Evaluate an all-affine grid through the polynomial-time path."""
    try:
        val = affine_eval(_load_grid(grid_path))
    except _INPUT_ERRORS as e:
        _fail(str(e))
    _print_value(val, as_json)


@_command("eo", ("--graph", {"dest": "graph_path", "required": True}), _JSON)
def eo_cmd(graph_path, as_json):
    """Count Eulerian orientations of a 4-regular graph."""
    try:
        n = eo_count(_load_graph(graph_path))
    except TooManyEdges as e:
        _fail(str(e), code=3)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    print(json.dumps({"count": n}) if as_json else str(n))


@_command("tutte33",
          ("--graph", {"dest": "graph_path", "required": True,
                       "help": "planar graph file with rotation lines"}),
          _JSON)
def tutte33_cmd(graph_path, as_json):
    """Evaluate T(G; 3, 3) through the medial-graph Holant."""
    try:
        val = tutte33_value(_load_graph(graph_path))
    except TooManyEdges as e:
        _fail(str(e), code=3)
    except _INPUT_ERRORS as e:
        _fail(str(e))
    if as_json:
        print(json.dumps({"value": str(val)}))
    else:
        print(str(val))


@_command("ising",
          *((flag, {"required": True})
            for flag in ("--jh", "--jv", "--j", "--jp", "--jpp")),
          ("--approx", {"action": "store_true", "help": "allow energies "
                        "off the i*pi/4 lattice (float weights)"}),
          _JSON)
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
        print(json.dumps(payload))
    else:
        print(f"signature: {payload['signature']}")
        if "classification" in payload:
            print(f"verdict: {payload['classification']['verdict']}")


def _coupling(flag: str, text: str) -> Fraction:
    """The rational coupling given to flag; ValueError if it is none."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} {text}: zero denominator") from None


@_command("check-cert",
          ("--sig", {"required": True}),
          ("--cert", {"dest": "cert_path", "required": True,
                      "help": "certificate JSON file (as emitted by "
                              "classify)"}),
          _JSON)
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
    print(json.dumps({"valid": ok}) if as_json else str(ok).lower())


def _demo_grid() -> Grid:
    """Two slot vertices joined by four edges."""
    edges = [((0, p), (1, p)) for p in range(1, 5)]
    return Grid({"SLOT": Signature(4, [0] * 16)}, ["SLOT", "SLOT"], edges)


@_command("demo-interp",
          ("--grid", {"dest": "grid_path",
                      "help": "grid JSON with SLOT vertices"}),
          ("--t", {"default": "2", "help": "(default: %(default)s)"}),
          ("--lambdas", {"default": "0,3,-1",
                         "help": "(default: %(default)s)"}),
          _JSON)
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
        print(json.dumps({
            "slots": report["slots"],
            "channel_sums": [str(v) for v in report["channel_sums"]],
            "values": {k: str(v) for k, v in report["values"].items()},
            "direct": {k: str(v) for k, v in report["direct"].items()},
            "agrees": report["agrees"],
        }))
        return
    print(f"slots: {report['slots']}")
    for k, v in report["values"].items():
        print(f"lambda={k}: {v}  direct={report['direct'][k]}")
    print(f"agrees: {report['agrees']}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eightvertex", allow_abbrev=False,
        description="Exact tools for eight-vertex Holant problems.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for name, handler, options in _COMMANDS:
        summary = " ".join(handler.__doc__.split())
        sub = commands.add_parser(name, help=summary, description=summary,
                                  allow_abbrev=False)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def _joined(argv) -> list:
    """argv with each option that takes a value joined to the argument
    after it, as --option=value, so that argparse reads that argument as
    the value even when it starts with '-'."""
    takes_value = {flag for _, _, options in _COMMANDS
                   for flag, keywords in options if "action" not in keywords}
    out = []
    args = iter(argv)
    for arg in args:
        if arg in takes_value:
            value = next(args, None)
            if value is not None:
                arg = f"{arg}={value}"
        out.append(arg)
    return out


def main(argv=None):
    """Run the command line argv (default: the process's arguments).
    Errors end the process through SystemExit with code 2 or 3."""
    args = vars(_parser().parse_args(
        _joined(sys.argv[1:] if argv is None else argv)))
    del args["command"]
    args.pop("handler")(**args)


if __name__ == "__main__":
    main()
