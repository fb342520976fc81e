"""The eightvertex benchmark: one command per workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout, against the package source in its
``src/`` (the package need not be installed).  One process, one
closed-loop client, one op at a time, no threads.

A run:

1. generates the workload's pool (``gen.py``) and checks it against the
   recorded table (``expected.json``), then takes the ``--seed``'s
   stratified sample of it: one *pass*;
2. set-up: with ``--trace 0``, starts a fresh interpreter several times
   that imports ``eightvertex.cli`` and parses the pass's inputs with the
   program's parsers (``probe.py``); ``setup_s`` is their median time,
   each scaled by a bare interpreter start (``setup_seconds``);
3. parses the pass in process, runs its first tenth untimed as warm-up,
   then repeats whole passes until ``--seconds`` have elapsed, timing
   each op; an op's latency is the median of its repeats;
4. checks every op output against the table, plus checks that need no
   table (certificates; the tractable verdict every planted input has;
   brute force and an independent oracle on small instances), and exits
   1 on any mismatch.

Every op timing is scaled by REFERENCE_S / (the time of a fixed reference
kernel, taken at most KERNEL_EVERY_S before it) (``Speed``).  The line
before the last holds the unscaled values, the median kernel time and
the median bare interpreter start as
JSON, under the key ``unscaled``.

``--trace 1`` instead runs one untraced pass, then parses and runs the
same pass again with the layer wrappers of ``tracing.py`` installed, and
reports per-layer metrics and the overhead (traced minus untraced wall
time).  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import gen
import ops
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"
OUT_DIR = ops.ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
# Kernel time, and the start of a bare interpreter (BARE_START), on the
# 2-core Xeon virtual machine the benchmark was defined on, when not
# slowed by other load.
REFERENCE_S = 0.005
REFERENCE_START_S = 0.045
KERNEL_EVERY_S = 0.1
BARE_START = [sys.executable, "-c", "import json"]


class Workload:
    def __init__(self, kind, pool, stratum, take, verdict=None):
        self.kind = kind          # op kind in ops.py
        self.pool = pool          # () -> list of input dicts
        self.stratum = stratum    # (item, recorded entry) -> stratum name
        self.take = take          # (stratum, size) -> items per pass
        self.verdict = verdict    # verdict kind every input has by design


WORKLOADS = {
    # The soundness-sweep corpus, stratified by recorded verdict and
    # branch so that every pass has the corpus's mix of them.
    "classify-sweep": Workload(
        "classify", gen.sweep_pool,
        lambda item, rec: f"{rec.get('kind')}/{rec.get('branch')}",
        lambda name, n: max(1, round(0.2 * n))),
    # Stratified by zone and recorded outcome, so that every pass has the
    # same number of ops that raise on the recorded code.  Every input is
    # tractable by construction, including those that raise.
    "classify-planted": Workload(
        "classify", gen.planted_pool,
        lambda item, rec: f"{item['zone']}/{rec.get('branch', 'error')}",
        lambda name, n: max(1, round(0.5 * n)), verdict="tractable"),
    # The four named tori in every pass, plus ten random 2x3 tori of
    # each kind.
    "eval-torus": Workload(
        "torus", gen.torus_pool,
        lambda item, rec: item["stratum"],
        lambda name, n: n if name == "named" else 10),
    # Grids whose values vanish and grids whose values do not.  Grid costs
    # vary several-fold at one size, so every pass takes the whole pool;
    # the seed sets the order and the small grids checked against brute
    # force.
    "eval-affine": Workload(
        "affine", gen.affine_pool,
        lambda item, rec: item["stratum"],
        lambda name, n: n),
}


def pool_digest(pool) -> str:
    return hashlib.sha256(
        json.dumps(pool, sort_keys=True).encode()).hexdigest()


def load_pass(name: str, seed: int):
    """The pool items of this seed's pass and their recorded entries."""
    wl = WORKLOADS[name]
    pool = wl.pool()
    table = json.loads(EXPECTED.read_text())[name]
    if table["digest"] != pool_digest(pool):
        raise RuntimeError(f"{name}: generated pool differs from the pool "
                           f"recorded in {EXPECTED.name}")
    recs = table["outputs"]
    strata = [wl.stratum(item, rec) for item, rec in zip(pool, recs)]
    idxs = gen.sample(strata, wl.take, seed)
    return [pool[i] for i in idxs], [recs[i] for i in idxs]


def reference_kernel():
    """Fixed pure-Python work (standard-library Fraction arithmetic and a
    dict), independent of the package."""
    acc = Fraction(1)
    xs = [Fraction(k, k + 1) for k in range(1, 60)]
    seen = {}
    for r in range(20):
        for x in xs:
            acc = acc * x + Fraction(1, 3)
            acc = Fraction(acc.numerator % 1000003,
                           acc.denominator % 1000003 or 1)
            seen[(r, x.numerator)] = acc
    return acc


class Speed:
    """The reference kernel, timed between ops.  Other load on a shared
    host slows stretches of a run, or a whole run, by up to 2x, and the
    kernel slows with it; an op's latency times REFERENCE_S / (the kernel
    time taken just before it) reads alike on a quiet and a busy host,
    while a change to the program moves it in full."""

    def __init__(self):
        self.latest = None
        self.taken_at = -math.inf
        self.samples = []

    def sample(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        self.taken_at = time.perf_counter()
        self.latest = self.taken_at - start
        self.samples.append(self.latest)
        return self.latest

    def scale(self) -> float:
        """REFERENCE_S over a kernel time at most KERNEL_EVERY_S old."""
        if time.perf_counter() - self.taken_at >= KERNEL_EVERY_S:
            self.sample()
        return REFERENCE_S / self.latest


def setup_seconds(kind: str, items):
    """Median wall time of a fresh interpreter that imports the CLI and
    parses the pass's inputs, each start scaled by REFERENCE_START_S over
    the time of a bare interpreter started just before it; the unscaled
    median; and the bare start's median.  One untimed pair first writes
    bytecode caches.

    Starting an interpreter is only partly CPU work, so the reference
    kernel tracks other load on the host badly here; a bare start is the
    same kind of work and slows with it."""
    payload = json.dumps({"kind": kind, "items": items}).encode()
    cmd = [sys.executable, str(BENCH / "probe.py")]

    def wall(args, stdin=None):
        start = time.perf_counter()
        subprocess.run(args, input=stdin, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    raw, bare, scaled = [], [], []
    for k in range(SETUP_REPEATS + 1):
        b = wall(BARE_START)
        t = wall(cmd, payload)
        if k:
            raw.append(t)
            bare.append(b)
            scaled.append(t * REFERENCE_START_S / b)
    return (statistics.median(scaled), statistics.median(raw),
            statistics.median(bare))


class Outcomes:
    """Op latencies, outputs and failures of a run."""

    def __init__(self):
        self.latencies = []
        self.scaled = []         # latency * REFERENCE_S / kernel time
        self.results = []        # (pass position, output or None, error)
        self.errors = Counter()
        self.first_traceback = {}

    def run_op(self, pkg, kind, pos, arg, scale=1.0):
        start = time.perf_counter()
        try:
            out = ops.run(pkg, kind, arg)
            err = None
        except Exception as exc:   # an op failure is data: count, go on
            out, err = None, type(exc).__name__
            self.first_traceback.setdefault(err, traceback.format_exc())
        self.latencies.append(time.perf_counter() - start)
        self.scaled.append(self.latencies[-1] * scale)
        self.results.append((pos, out, err))
        if err:
            self.errors[err] += 1

    def run_pass(self, pkg, kind, args):
        for pos, arg in enumerate(args):
            self.run_op(pkg, kind, pos, arg)

    def typical(self, n, scaled=True):
        """Per pass position, the median of its timed repeats."""
        by_pos = [[] for _ in range(n)]
        lats = self.scaled if scaled else self.latencies
        for (pos, _out, _err), lat in zip(self.results, lats):
            by_pos[pos].append(lat)
        return [statistics.median(v) for v in by_pos]

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def gate(pkg, name, recs, outcomes, seed) -> list:
    """Every mismatch between the outputs and what is known to be right."""
    wl = WORKLOADS[name]
    bad = []
    for pos, out, err in outcomes.results:
        rec = recs[pos]
        if err is not None:
            if "error" not in rec:
                bad.append(f"op {pos}: raised {err}, recorded an output")
            continue
        if wl.verdict:
            rec = {**rec, "kind": wl.verdict}
        why = ops.mismatch(pkg, wl.kind, out, rec)
        if why:
            bad.append(f"op {pos}: {why}")
    if name == "eval-torus":
        bad += torus_oracle_check(pkg)
    if name == "eval-affine":
        for k, (text, nonzero) in enumerate(gen.small_affine_grids(seed)):
            grid = pkg.evaluate.Grid.from_json(text)
            want = pkg.evaluate.brute_force(grid)
            if not pkg.evaluate.affine_eval(grid) == want:
                bad.append(f"small grid {k}: affine_eval != brute_force")
            if nonzero and want.is_zero():
                bad.append(f"small grid {k}: brute_force 0, nonzero by "
                           f"construction")
    return bad


def torus_oracle_check(pkg) -> list:
    """The 3x3 EO count against direct orientation enumeration by the
    test suite's independent oracle."""
    path = ops.ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    graph = pkg.evaluate.Graph.parse(gen.torus_graph(3, 3))
    want = oracles.count_eulerian_orientations(graph.edges)
    grid = ops.parse(pkg, "torus", {"sig": gen.EO,
                                    "graph": gen.torus_graph(3, 3)})
    got = pkg.evaluate.brute_force(grid)
    if not got == pkg.numeric.parse_scalar(str(want)):
        return [f"EO 3x3: brute_force {got}, oracle {want}"]
    return []


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def warm_up(pkg, kind, args):
    """Run the first tenth of the pass, untimed and unchecked."""
    warm = Outcomes()
    for pos in range(math.ceil(len(args) / 10)):
        warm.run_op(pkg, kind, pos, args[pos])


def timed_run(pkg, kind, items, seconds, speed: Speed) -> Outcomes:
    """Whole passes until `seconds` have elapsed."""
    args = [ops.parse(pkg, kind, item) for item in items]
    warm_up(pkg, kind, args)
    res = Outcomes()
    start = time.perf_counter()
    while True:
        for pos, arg in enumerate(args):
            res.run_op(pkg, kind, pos, arg, speed.scale())
        if time.perf_counter() - start >= seconds:
            return res


def traced_run(pkg, kind, items):
    """One untraced pass, then the same pass parsed and run traced."""
    warm_up(pkg, kind, [ops.parse(pkg, kind, item) for item in items])
    res = Outcomes()
    start = time.perf_counter()
    args = [ops.parse(pkg, kind, item) for item in items]
    res.run_pass(pkg, kind, args)
    untraced = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(pkg.root)
    try:
        start = time.perf_counter()
        args = [ops.parse(pkg, kind, item) for item in items]
        for pos, arg in enumerate(args):
            tracer.op = pos
            res.run_op(pkg, kind, pos, arg)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return res, tracer, untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    try:
        pkg = ops.Package()
        items, recs = load_pass(a.workload, a.seed)
    except (OSError, ImportError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind = WORKLOADS[a.workload].kind

    unscaled = None
    if a.trace:
        res, tracer, untraced, traced = traced_run(pkg, kind, items)
        metrics = tracer.layer_metrics()
        metrics.update({
            "ops.count": (len(items), "count"),
            "ops.failed": (res.failed, "count"),
            "ops.fail_frac": (res.failed / len(res.results), "ratio"),
            "trace.untraced_s": (untraced, "s"),
            "trace.traced_s": (traced, "s"),
            "trace.overhead_s": (traced - untraced, "s"),
        })
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{a.workload}-{a.seed}.json")
    else:
        speed = Speed()
        setup, setup_raw, bare = setup_seconds(kind, items)
        res = timed_run(pkg, kind, items, a.seconds, speed)
        raw = res.typical(len(items), scaled=False)
        unscaled = {
            "setup_s": setup_raw,
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": percentile(raw, 0.5) * 1e3,
            "op_p90_ms": percentile(raw, 0.9) * 1e3,
            "kernel_median_s": statistics.median(speed.samples),
            "bare_start_median_s": bare}
        lat = res.typical(len(items))
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (len(lat) / sum(lat), "ops/s"),
            "op_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
            "op_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024, "MB"),
        }

    bad = gate(pkg, a.workload, recs, res, a.seed)
    attempted, failed = len(res.results), res.failed
    by_type = ", ".join(f"{k} {v}" for k, v in sorted(res.errors.items()))
    print(f"{a.workload} seed {a.seed}: {attempted} ops, {len(items)} per "
          f"pass; failed {failed}/{attempted} = {failed / attempted:.4f}"
          + (f" ({by_type})" if by_type else ""))
    for err, tb in sorted(res.first_traceback.items()):
        print(f"first {err}:\n{tb}", file=sys.stderr)
    for line in bad[:20]:
        print(f"MISMATCH {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if unscaled:
        print(json.dumps({"unscaled": unscaled}))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
