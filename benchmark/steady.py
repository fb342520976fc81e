"""Steadiness check: run every workload on ten seeds and report the
spread of every end-to-end metric, and repeat a traced run to show that
its counts are exact.

    python3 benchmark/steady.py --first-seed N --out FILE [--against FILE]

For each workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json.  It
also keeps the medians of the unscaled values.  With ``--against`` it
compares each median with that of an earlier ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(cmd, workload, seed, seconds, trace):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if out.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout}\n{out.stderr}")
    if not trace:
        result["unscaled"] = json.loads(lines[-2])["unscaled"]
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--against")
    a = ap.parse_args()
    cmd = spec["command"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    before = json.loads(Path(a.against).read_text()) if a.against else {}
    seeds = list(range(a.first_seed, a.first_seed + RUNS))
    report = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [run_once(cmd, wl, seed, spec["run_seconds"], 0)
                for seed in seeds]
        rows = {}
        print(f"{wl}: seeds {seeds[0]}..{seeds[-1]}, attempted "
              f"{[r['attempted'] for r in runs]}, failed "
              f"{[r['failed'] for r in runs]}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
            flag = "" if spread < bound / 3 else "  <-- over bound/3"
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:.4f}  bound {bound}{flag}")
            if wl in before:
                old = before[wl]["runs"][name]["median"]
                change = med / old - 1
                flag = "" if abs(change) <= bound else "  <-- over bound"
                print(f"  {'':12s} median vs {a.against}: {change:+.4f}"
                      f"{flag}")
        unscaled = {k: statistics.median(r["unscaled"][k] for r in runs)
                    for k in runs[0]["unscaled"]}
        print(f"  unscaled medians: {unscaled}")
        t1, t2 = (run_once(cmd, wl, seeds[0], spec["run_seconds"], 1)
                  for _ in range(2))
        counts = {k: (v["value"], t2["metrics"][k]["value"])
                  for k, v in t1["metrics"].items() if v["unit"] == "count"}
        same = all(x == y for x, y in counts.values())
        print(f"  traced counts identical across two runs: {same}")
        report[wl] = {
            "seeds": seeds, "runs": rows, "unscaled_medians": unscaled,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "trace_counts": {"identical": same,
                             "counts": {k: v[0] for k, v in counts.items()}},
            "trace_overhead_s": [t["metrics"]["trace.overhead_s"]["value"]
                                 for t in (t1, t2)]}
    Path(a.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
