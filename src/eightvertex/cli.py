"""Command-line front end, on the standard library's argparse.

Subcommands: classify, eval, eval-affine, eo, tutte33, ising,
check-cert, demo-interp.  JSON output is the machine interface
(--json); the default output is a short human-readable summary.
Options are never abbreviated, and an option's value is the argument
after it even when that starts with '-' (``--sig -i,1,1,1,1,1,1,-i``).

Each handler is a plain function of its options' values: it returns
(payload, text), the object printed under --json and the human-readable
text, and raises on bad input.  Only main prints or exits.  Every
input file is read by _read, as UTF-8.

Exit codes: 0 on success (a hard verdict is data, not an error),
2 on input errors and usage errors, 3 on size-limit violations.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .numeric import DivisionByZero, InputFormat, parse_cyclo8
from .signatures import EightVertexSig, Signature
from .classify import (CERTIFICATE, Certificate, check_certificate,
                       classify as classify_sig)
from .evaluate import (
    GRID,
    Graph,
    Grid,
    NotAffineSignature,
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


def _sig_from_options(sig, preset) -> EightVertexSig:
    if (sig is None) == (preset is None):
        raise ValueError("exactly one of --sig and --preset is required")
    return EightVertexSig.parse(sig if sig is not None else PRESETS[preset])


_GRAPH = InputFormat("graph")


def _read(path: str, fmt: InputFormat) -> str:
    """The text of the file at path, read as UTF-8; bytes that do not
    decode raise ValueError with fmt's prefix."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise fmt.fault(str(e)) from None


def _value(val):
    """The (payload, text) of a field value."""
    z = val.to_complex()
    return ({"approx": [z.real, z.imag], "exact": str(val)},
            f"{val}  (~ {z.real:g} {z.imag:+g}i)")


# (name, handler, options) of each subcommand, in the order of the help;
# an option is (flag, keywords of add_argument), and the handler takes
# the options' values, all but --json, as keywords
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
def classify_cmd(sig, preset):
    """Classify a signature as hard, tractable, or vanishing."""
    verdict = classify_sig(_sig_from_options(sig, preset))
    lines = [f"verdict: {verdict.kind}  (branch {verdict.branch})",
             *(f"  {rule}: {detail}" for rule, detail in verdict.trace)]
    if verdict.certificate is not None:
        lines.append(f"  certificate: {verdict.certificate.describe()}")
    if verdict.reason is not None:
        lines.append(f"  reason: {verdict.reason}")
    return verdict.to_json_dict(), "\n".join(lines)


@_command("eval",
          ("--grid", {"dest": "grid_path", "help": "grid JSON file"}),
          ("--graph", {"dest": "graph_path",
                       "help": "graph file (with --sig/--preset)"}),
          ("--sig", {"help": "signature to place on every graph vertex"}),
          _PRESET, _JSON,
          ("--max-edges", {"type": int, "default": 28,
                           "help": "(default: %(default)s)"}))
def eval_cmd(grid_path, graph_path, sig, preset, max_edges):
    """Evaluate a Holant partition function exactly: as a Gauss sum when
    every vertex signature is in class A, by brute force otherwise."""
    if max_edges < 0:
        raise ValueError("--max-edges must be at least 0")
    if grid_path is not None:
        grid = Grid.from_json(_read(grid_path, GRID))
    elif graph_path is not None:
        f = _sig_from_options(sig, preset)
        grid = grid_from_graph(Graph.parse(_read(graph_path, _GRAPH)), f,
                               "f")
    else:
        raise ValueError("one of --grid or --graph is required")
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
    return _value(val)


@_command("eval-affine",
          ("--grid", {"dest": "grid_path", "required": True,
                      "help": "grid JSON file"}),
          _JSON)
def eval_affine_cmd(grid_path):
    """Evaluate an all-affine grid through the polynomial-time path."""
    return _value(affine_eval(Grid.from_json(_read(grid_path, GRID))))


@_command("eo", ("--graph", {"dest": "graph_path", "required": True}), _JSON)
def eo_cmd(graph_path):
    """Count Eulerian orientations of a 4-regular graph."""
    n = eo_count(Graph.parse(_read(graph_path, _GRAPH)))
    return {"count": n}, str(n)


@_command("tutte33",
          ("--graph", {"dest": "graph_path", "required": True,
                       "help": "planar graph file with rotation lines"}),
          _JSON)
def tutte33_cmd(graph_path):
    """Evaluate T(G; 3, 3) through the medial-graph Holant."""
    val = str(tutte33_value(Graph.parse(_read(graph_path, _GRAPH))))
    return {"value": val}, val


@_command("ising",
          *((flag, {"required": True})
            for flag in ("--jh", "--jv", "--j", "--jp", "--jpp")),
          ("--approx", {"action": "store_true", "help": "allow energies "
                        "off the i*pi/4 lattice (float weights)"}),
          _JSON)
def ising_cmd(jh, jv, j, jp, jpp, approx):
    """Build the eight-vertex signature of an Ising-type energy
    function (couplings in units of i*pi/4) and classify it; with
    --approx, print its float weights instead."""
    params = [_coupling(flag, v) for flag, v in
              zip(("--jh", "--jv", "--j", "--jp", "--jpp"),
                  (jh, jv, j, jp, jpp))]
    if approx:
        # the real weights e^{-energy}, written as Python complexes
        energies = ising_energies(*params)
        weights = []
        for k in "abcdwzyx":
            try:
                weights.append(math.exp(-float(energies[k])))
            except OverflowError:
                raise ValueError(f"the weight of entry {k} (energy "
                                 f"{energies[k]}) overflows a float") from None
        text = ";".join(f"{w}+0.0j" for w in weights)
        return {"signature": text}, f"signature: {text}"
    f = ising_signature(*params)
    verdict = classify_sig(f).to_json_dict()
    return ({"signature": str(f), "classification": verdict},
            f"signature: {f}\nverdict: {verdict['verdict']}")


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
def check_cert_cmd(sig, cert_path):
    """Re-verify a tractability certificate."""
    f = EightVertexSig.parse(sig)
    data = CERTIFICATE.decode(_read(cert_path, CERTIFICATE))
    if isinstance(data, dict) and "verdict" in data:
        if "certificate" not in data:
            raise ValueError(f"a {data['verdict']} verdict carries no "
                             "certificate")
        data = data["certificate"]
    ok = check_certificate(f, Certificate.from_json_dict(data))
    return {"valid": ok}, str(ok).lower()


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
def demo_interp_cmd(grid_path, t, lambdas):
    """Interpolation demo: recover slot-family Holant values from
    chain-gadget evaluations and compare with direct evaluation."""
    grid = (Grid.from_json(_read(grid_path, GRID)) if grid_path
            else _demo_grid())
    tval = parse_cyclo8(t)
    lams = [parse_cyclo8(p.strip()) for p in lambdas.split(",")]
    report = interpolation_demo(grid, tval, lams)
    values, direct = report["values"], report["direct"]
    payload = {
        "slots": report["slots"],
        "channel_sums": [str(v) for v in report["channel_sums"]],
        "values": {k: str(v) for k, v in values.items()},
        "direct": {k: str(v) for k, v in direct.items()},
        "agrees": report["agrees"],
    }
    return payload, "\n".join([
        f"slots: {report['slots']}",
        *(f"lambda={k}: {v}  direct={direct[k]}" for k, v in values.items()),
        f"agrees: {report['agrees']}"])


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
    """Run the command line argv (default: the process's arguments) and
    print its result.  Bad input and size limits end the process through
    SystemExit with code 2 or 3, after one 'error:' line on stderr; a
    usage error ends it with code 2 after argparse's usage message."""
    args = vars(_parser().parse_args(
        _joined(sys.argv[1:] if argv is None else argv)))
    del args["command"]
    handler, as_json = args.pop("handler"), args.pop("as_json")
    try:
        payload, text = handler(**args)
    except (ValueError, DivisionByZero, OSError) as e:
        # bad input, or over a size limit (TooManyEdges is a ValueError)
        print(f"error: {e}", file=sys.stderr)
        sys.exit(3 if isinstance(e, TooManyEdges) else 2)
    print(json.dumps(payload) if as_json else text)


if __name__ == "__main__":
    main()
