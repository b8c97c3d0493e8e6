#!/usr/bin/env python3
"""Print degree tables for a sweep of Veronese varieties.

For each (n, d) in the requested ranges, prints one row per admissible m
with the dimension, the exact degree, and a consistency column comparing
the general sum against every other method of the registry that applies
there (the inclusion-exclusion form, the dimension-specific closed form,
and the m = n+1 and m = N-1 endpoint forms).

Usage: python scripts/degree_tables.py --max-n 3 --max-d 4
"""

import argparse

from gaussdeg.degrees import METHODS, degree_main
from gaussdeg.schur import VeroneseVariety


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-d", type=int, default=4)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        for d in range(2, args.max_d + 1):
            v = VeroneseVariety(n, d)
            print(f"\nn={n} d={d} N={v.N}")
            print(f"  {'m':>4}  {'dim':>6}  {'degree':>24}  consistent")
            for m in range(n, v.N):
                report = degree_main(v, m)
                agree = all(
                    method.compute(v, m).deg_xm == report.deg_xm
                    for name, method in METHODS.items()
                    if name != "main" and method.applies(v, m)
                )
                flag = "yes" if agree else "NO"
                print(f"  {m:>4}  {report.dim_xm:>6}  {report.deg_xm:>24}  {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
