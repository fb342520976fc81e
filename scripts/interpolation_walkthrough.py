"""Walk through the chain-interpolation argument on a small grid.

Places chains of a diagonalizable building block into the slots of a
grid, reads off the per-channel sums from a Vandermonde solve, and
reconstructs the Holant values of several target signatures without
evaluating them directly.  Exits 1 if an interpolated value disagrees
with the directly evaluated one.

Usage: python3 scripts/interpolation_walkthrough.py [t] [lambdas]
e.g.   python3 scripts/interpolation_walkthrough.py 2 0,3,-1
"""

import sys
from fractions import Fraction

from eightvertex.evaluate import Grid, slot_signature, interpolation_demo


def demo_grid():
    return Grid(
        {"SLOT": slot_signature(0)},
        ["SLOT", "SLOT"],
        [((0, p), (1, p)) for p in range(1, 5)],
    )


def main():
    t = Fraction(sys.argv[1]) if len(sys.argv) > 1 else Fraction(2)
    lambdas = ([Fraction(s) for s in sys.argv[2].split(",")]
               if len(sys.argv) > 2 else [Fraction(0), Fraction(3),
                                          Fraction(-1)])
    out = interpolation_demo(demo_grid(), t, lambdas)
    print(f"slots: {out['slots']}, chain parameter t = {t}")
    print("channel sums:", ", ".join(str(c) for c in out["channel_sums"]))
    for lam in lambdas:
        k = str(lam)
        print(f"lambda = {k}: interpolated {out['values'][k]}, "
              f"direct {out['direct'][k]}")
    print("agreement:", out["agrees"])
    return 0 if out["agrees"] else 1


if __name__ == "__main__":
    sys.exit(main())
