"""Count CM curves by conductor and look at the growth rate.

The thirteen rational CM j-invariants each carry a twist family (quadratic in
eleven cases, quartic at j = 1728, sextic at j = 0). Counting members with
conductor up to N and fitting log(count) against log(N) shows growth a bit
above the square-root trend: several characters share each conductor in the
quartic and sextic families, which adds log powers at these scales. The
count/(sqrt(N) log N) column shows how much of that excess one log factor takes.

The census counts through sorted per-class lists of local factors rather than
listing every member, so ceilings up to 10^10 run in seconds.

Run: python3 demos/cm_census_growth.py [ceiling]
"""

import math
import sys

from ellgal.family import cm_census


def main():
    ceiling = int(sys.argv[1]) if len(sys.argv) > 1 else 10**5
    rep = cm_census(ceiling)
    print(f"{'ceiling':>12} {'count':>9} {'count/sqrt(N)':>14} {'count/(sqrt(N)log N)':>21}")
    for n, c, r in zip(rep["ceilings"], rep["counts"], rep["ratioToSqrt"]):
        print(f"{n:>12} {c:>9} {r:>14.3f} {r / math.log(n):>21.4f}")
    if rep["fittedExponent"] is not None:
        print(f"\nfitted exponent: {rep['fittedExponent']:.4f}"
              f"  (residual {rep['fitResidual']:.2e})")
    print("\nper j-invariant at the top ceiling:")
    for j, c in sorted(rep["perJInvariant"].items(), key=lambda kv: -kv[1]):
        print(f"  j = {j:>22}: {c:>6}  ({c / rep['counts'][-1]:.1%})")
    total = sum(rep["perJInvariant"].values())
    assert total == rep["counts"][-1]
    print(f"\nsqrt({ceiling}) = {math.sqrt(ceiling):.0f} for comparison")


if __name__ == "__main__":
    main()
