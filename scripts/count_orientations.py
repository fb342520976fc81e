"""Eulerian orientation counts and T(G; 3, 3) on small graphs.

Compares the Holant-based counts with the direct-enumeration and
deletion-contraction oracles of tests/oracles.py, so it runs from a
checkout of the repository.  Exits 1 if any count disagrees.

Usage: python3 scripts/count_orientations.py
"""

import sys
import time
from pathlib import Path

from eightvertex.evaluate import Graph, eo_count, tutte33

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import (  # noqa: E402
    complete_graph, count_eulerian_orientations, tutte_polynomial,
)


def main():
    mismatches = 0
    dipole = Graph([(0, 1)] * 4, {0: [0, 1, 2, 3], 1: [0, 1, 2, 3]})
    k5 = Graph(complete_graph(5))
    print("Eulerian orientations")
    for name, g in (("dipole", dipole), ("K5", k5)):
        t0 = time.monotonic()
        holant = eo_count(g)
        direct = count_eulerian_orientations(g.edges)
        dt = time.monotonic() - t0
        flag = "ok" if holant == direct else "MISMATCH"
        mismatches += holant != direct
        print(f"  {name:8s} holant={holant:6d} direct={direct:6d} "
              f"[{flag}] {dt:.3f}s")

    k3 = Graph(complete_graph(3), {0: [0, 1], 1: [0, 2], 2: [1, 2]})
    k4 = Graph(complete_graph(4),
               {0: [0, 1, 2], 1: [0, 4, 3], 2: [1, 3, 5], 3: [2, 5, 4]})
    print("T(G; 3, 3) via the medial Holant")
    for name, g in (("K3", k3), ("K4", k4)):
        t0 = time.monotonic()
        holant = tutte33(g)
        direct = tutte_polynomial(g.edges, 3, 3)
        dt = time.monotonic() - t0
        flag = "ok" if holant == direct else "MISMATCH"
        mismatches += holant != direct
        print(f"  {name:8s} holant={holant} direct={direct} "
              f"[{flag}] {dt:.3f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
