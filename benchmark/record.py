"""Record the expected-output table, ``expected.json``.

    python3 benchmark/record.py

Runs every pool item of every workload once on the checked-out code and
writes its output (verdict kind and branch, or exact value) or the name
of the exception it raised.  The committed table was recorded from the
code the benchmark was introduced with; re-recording it on a later
commit would make the correctness gate compare that commit with itself.
"""

import json

import ops
import run


def main():
    pkg = ops.Package()
    table = {}
    for name, wl in run.WORKLOADS.items():
        pool = wl.pool()
        outputs = []
        for item in pool:
            try:
                out = ops.run(pkg, wl.kind, ops.parse(pkg, wl.kind, item))
                outputs.append(ops.record(wl.kind, out))
            except Exception as exc:   # a failing op has no table entry
                outputs.append({"error": type(exc).__name__})
        table[name] = {"digest": run.pool_digest(pool), "outputs": outputs}
        print(name, len(pool), "items")
    run.EXPECTED.write_text(json.dumps(table, indent=0) + "\n")


if __name__ == "__main__":
    main()
