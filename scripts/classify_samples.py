"""Classify a batch of signatures and print a verdict table.

Runs the three worked sample signatures, a few hand-picked members of
each decision branch, and a seeded random sweep with entries from
{0, +-1, +-i}, then prints kind counts and certificate targets.  Exits 1
if a certificate fails its re-check, or if the sweep re-checked no
certificate at all.

Usage: python3 scripts/classify_samples.py [n_random] [seed]
"""

import random
import sys
import time

from eightvertex.signatures import EightVertexSig
from eightvertex.classify import classify, check_certificate
from eightvertex.numeric import I, scalar

NAMED = [
    ("eulerian orientations", "0,1,1,1,1,1,1,0"),
    ("tutte (3,3) medial", "0,1,1,2,2,1,1,0"),
    ("sample tractable", "1,1,1,0,0,1,1,0"),
    ("all equal pairs", "1,1,1,1,1,1,1,1"),
    ("product corners", "3,0,0,0,0,0,0,5"),
    ("power-of-i generic", "1,2,2,2,2,-2,2,-4"),
    ("one inner zero", "1,0,1,1,1,1,1,1"),
    ("six-vertex pair zeros", "0,1,0,0,1,1,0,0"),
]

# with +-2 and +-alpha in the pool as well, a sweep of a few hundred
# signatures can meet no tractable one and so re-check no certificate
POOL = [scalar(v) for v in (0, 1, -1, I, -I)]


def main():
    n_random = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    rng = random.Random(seed)

    print(f"{'name':28s} {'verdict':10s} {'branch':18s} certificate")
    for name, text in NAMED:
        f = EightVertexSig.parse(text)
        v = classify(f)
        cert = v.certificate.describe() if v.certificate is not None else ""
        print(f"{name:28s} {v.kind:10s} {v.branch:18s} {cert}")
        if v.kind == "tractable":
            assert check_certificate(f, v.certificate)

    counts = {}
    targets = {}
    checked = bad = 0
    start = time.monotonic()
    for _ in range(n_random):
        f = EightVertexSig(*(rng.choice(POOL) for _ in range(8)))
        v = classify(f)
        counts[v.kind] = counts.get(v.kind, 0) + 1
        if v.kind == "tractable":
            targets[v.certificate.target] = \
                targets.get(v.certificate.target, 0) + 1
            checked += 1
            if not check_certificate(f, v.certificate):
                bad += 1
    elapsed = time.monotonic() - start

    print()
    print(f"random sweep: {n_random} signatures in {elapsed:.2f}s "
          f"(seed {seed})")
    print(f"verdict counts: {counts}")
    print(f"certificate targets: {targets}")
    print(f"re-checked certificates: {checked}")
    print(f"failed certificates: {bad}")
    return 1 if bad or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
