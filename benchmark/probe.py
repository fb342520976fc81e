"""Set-up probe: what a one-shot CLI call pays before its first op.

Reads {"kind": ..., "items": [...]} from standard input, imports
``eightvertex.cli`` from the checkout's ``src/`` and parses every input
with the program's own parsers.  ``run.py`` times this whole process.
"""

import json
import sys

import ops


def main():
    job = json.load(sys.stdin)
    pkg = ops.Package()
    for item in job["items"]:
        ops.parse(pkg, job["kind"], item)


if __name__ == "__main__":
    main()
