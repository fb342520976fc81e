"""Classify every signature over {0, 1, -1, i, -i}^8 and check the digest
of the verdicts.

The 390,625 signatures are taken in itertools.product order.  Each
contributes one line to a sha256: the verdict's JSON
(``json.dumps(v.to_json_dict(), sort_keys=True)``), or the name of the
exception classify raised.  A refactor of classify that changes any
verdict, certificate or exception changes the digest.  Exits 1 unless
the digest is EXPECTED; a change that alters verdicts on purpose records
the new digest here and names it in CHANGES.md.

Usage: python3 scripts/verdict_digest.py
"""

import hashlib
import itertools
import json
import sys
import time

from eightvertex.classify import classify
from eightvertex.numeric import I, scalar
from eightvertex.signatures import EightVertexSig

EXPECTED = "3e7007f48f7ab34d41aec10182274f6506908b07b0e73735f475caa5a3519d7a"

POOL = [scalar(v) for v in (0, 1, -1, I, -I)]


def digest() -> str:
    h = hashlib.sha256()
    for entries in itertools.product(POOL, repeat=8):
        try:
            verdict = classify(EightVertexSig(*entries))
            line = json.dumps(verdict.to_json_dict(), sort_keys=True)
        except Exception as e:   # an exception is part of the outcome
            line = type(e).__name__
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def main():
    start = time.monotonic()
    got = digest()
    print(f"{got}  ({time.monotonic() - start:.1f} s)")
    if got != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
