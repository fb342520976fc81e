"""Run the benchmark on a parent revision and on this checkout, in pairs.

    python3 scripts/bench_pairs.py --base REV --workloads W [W ...]
        [--seeds S [S ...]] [--pairs N] [--seconds T] --out BENCH_<n>.json

The parent side is REV's committed tree, unpacked with
``git archive REV | tar -x`` into a temporary directory, so the
repository's ``.git`` is only read.  The change side is this checkout as
it stands.  For each workload, each seed and each of the N pairs, both
sides run ``python3 benchmark/run.py --workload W --seed S --seconds T``
from their own root, one after the other; the side that runs first
alternates from pair to pair.  Nothing under ``benchmark/`` is written.

The output file holds every run (side, order, seed, its ``correct``,
``attempted`` and ``failed``, and the value of each metric) and, per
workload and side, the median and quartiles of each metric over its
runs, with the number of pairs the change won on each metric by the
direction ``BENCHMARK.json`` gives it (ties count for neither side).
Exits 1 if any run is not correct or has a failed op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> str:
    """Unpack the tree of rev into dest; return its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from root: the JSON object of its last line."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{proc.returncode}: {proc.stderr[-400:]}") from None
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: m["value"] for k, m in out["metrics"].items()}}


def summary(runs: list, better: dict) -> dict:
    """Per workload and side: each metric's median and quartiles; per
    workload: the pairs the change won on each metric."""
    out = {}
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        entry = out[wl] = {"pairs": len(mine) // 2}
        for side in ("parent", "change"):
            values = {}
            for r in mine:
                if r["side"] == side:
                    for k, v in r["metrics"].items():
                        values.setdefault(k, []).append(v)
            entry[side] = {k: dict(zip(("q1", "median", "q3"),
                                       _quartiles(v)))
                           for k, v in values.items()}
        wins = entry["change_wins"] = {}
        for k, direction in better.items():
            sign = 1 if direction == "lower" else -1
            wins[k] = sum(
                1 for p, c in zip(mine[0::2], mine[1::2])
                if k in p["metrics"] and sign * (
                    _side(p, c, "parent")["metrics"][k]
                    - _side(p, c, "change")["metrics"][k]) > 0)
    return out


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _side(a: dict, b: dict, side: str) -> dict:
    return a if a["side"] == side else b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True, type=Path)
    a = ap.parse_args(argv)

    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        commit = unpack(a.base, parent)
        roots = {"parent": parent, "change": ROOT}
        for wl in a.workloads:
            for seed in a.seeds:
                for k in range(a.pairs):
                    order = (("parent", "change") if k % 2 == 0
                             else ("change", "parent"))
                    for first, side in enumerate(order):
                        r = run_once(roots[side], wl, seed, a.seconds)
                        runs.append({"workload": wl, "seed": seed, "pair": k,
                                     "side": side, "first": first == 0, **r})
                        print(f"{wl} seed {seed} pair {k} {side}: "
                              f"correct {r['correct']}, failed {r['failed']}, "
                              f"op_p50_ms {r['metrics'].get('op_p50_ms')}",
                              file=sys.stderr)
    a.out.write_text(json.dumps({
        "base": a.base, "base_commit": commit,
        "change": {"head": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain",
                                                    "--untracked-files=no"))},
        "seconds": a.seconds, "runs": runs,
        "summary": summary(runs, better)}, indent=1) + "\n")
    return 0 if all(r["correct"] and r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
