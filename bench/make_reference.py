#!/usr/bin/env python3
"""Write bench/data/reference.json: the expected value of every cell a seed can draw.

Each degree is computed by the program's main sum with the decimal digit
limit lifted, and must agree with an independent route before it is
written: the closed form for n <= 3, the inclusion-exclusion form
(`degree_alternate`) for n >= 4.  Table rows also carry the ratio against
a reference product built from `reference.rectangle_syt_count`, and small
varieties are checked once more through their Jacobi-Trudi integral
table.  Run from the repository root (takes several minutes):

    python3 bench/make_reference.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from gaussdeg import (  # noqa: E402
    VeroneseVariety,
    bounds,
    degree_alternate,
    degree_curve_closed,
    degree_main,
    degree_surface_closed,
    degree_threefold_closed,
)
from gaussdeg.verify import run_suite  # noqa: E402

CLOSED = {1: degree_curve_closed, 2: degree_surface_closed, 3: degree_threefold_closed}


def independent_degree(n: int, d: int, m: int) -> int:
    if n in CLOSED:
        return CLOSED[n](d, m).deg_xm
    return degree_alternate(VeroneseVariety(n, d), m).deg_xm


def generic_total(n: int, d: int, m: int) -> int:
    """Table-driven sum over the Jacobi-Trudi integrals, without the program."""
    big_n = wl.ambient(n, d)
    height, width = big_n - m, m - n
    total = 0
    for lam in wl.partitions_of(n):
        if len(lam) > height:
            continue
        padded = list(lam) + [0] * (height - len(lam))
        total += ref.syt_count([p + width for p in padded]) * wl.veronese_integral(n, d, lam)
    return total


def main() -> int:
    sys.set_int_max_str_digits(0)
    row_varieties = set(wl.small_varieties()) | set(wl.TABLE_FIXED)
    row_varieties |= {(1, d) for d in wl.TABLE_CURVE_BAND}
    scan_varieties = set(wl.conjecture_grid())
    small = set(wl.small_varieties())
    varieties = sorted(set(wl.LADDER) | row_varieties | scan_varieties)
    cells = {}
    for n, d in varieties:
        v = VeroneseVariety(n, d)
        big_n = v.N
        for m in range(n, big_n):
            degree = degree_main(v, m).deg_xm
            if independent_degree(n, d, m) != degree:
                raise SystemExit(f"independent route disagrees at {(n, d, m)}")
            if (n, d) in small and generic_total(n, d, m) != degree:
                raise SystemExit(f"Jacobi-Trudi table disagrees at {(n, d, m)}")
            text = str(degree)
            entry = {"digits": len(text), "deg": ref.digest(text)}
            if (n, d) in small:
                entry["value"] = text
            if (n, d) in row_varieties or (n, d) in scan_varieties:
                product = ref.reference_product(n, d, big_n, m)
                ratio = Fraction(degree, product)
                upper = ref.power_bound(n, big_n, m)
                within = "true" if ratio <= upper else "false"
                if bounds(v, m).ratio != ratio:
                    raise SystemExit(f"bounds ratio disagrees at {(n, d, m)}")
                if (n, d) in row_varieties:
                    dim = n + (big_n - m) * (m - n)
                    entry["row"] = ref.digest(ref.table_row_text(dim, text, str(ratio), within))
                if (n, d) in scan_varieties:
                    entry["scan"] = ref.digest(
                        ref.scan_row_text(text, product, ratio, upper, upper * product, within)
                    )
            cells[ref.cell_key(n, d, m)] = entry
        print(f"({n}, {d}): {big_n - n} cells", flush=True)
    verify_checks = {
        "identity/5": run_suite("identity", max_n=5),
        "identity/6": run_suite("identity", max_n=6),
        "syt/8": run_suite("syt", max_weight=8),
        "syt/10": run_suite("syt", max_weight=10),
        "schur": run_suite("schur"),
        "crossform": run_suite("crossform"),
        "bounds": run_suite("bounds"),
    }
    for key, result in verify_checks.items():
        if result.failed:
            raise SystemExit(f"verify suite {key} fails: {result.failures[:3]}")
    doc = {
        "about": "sha256[:16] of each decimal field; see bench/make_reference.py",
        "cells": cells,
        "verify_checks": {key: result.passed for key, result in verify_checks.items()},
    }
    ref.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    ref.REFERENCE_PATH.write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="ascii"
    )
    print(f"wrote {len(cells)} cells to {ref.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
