#!/usr/bin/env python3
"""Run the benchmark on several seeds and write the medians and spreads.

Run from the root of a checkout, for example:

    python3 bench/collect.py --seeds 1-10 --out bench/results/baseline.json

Each workload in BENCHMARK.json runs once per seed with `--trace 0`, then
once with `--trace 1` on the first seed.  The output holds, per workload
and metric, the ten values, their median and the quartile distance over
the median (Python's `statistics.quantiles(values, n=4)`), plus the
provenance `run.py` printed for the first run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1]), lines[0]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    doc = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, provenance, failed = {}, None, []
        for seed in seeds:
            result, first_line = run_once(spec, workload, seed, 0)
            provenance = provenance or first_line
            failed.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", file=sys.stderr, flush=True)
        traced, _ = run_once(spec, workload, seeds[0], 1)
        doc["workloads"][workload] = {
            "provenance": provenance,
            "end_to_end": {name: summarize(vs) for name, vs in values.items()},
            "failed_frac": summarize(failed),
            "per_layer_seed": seeds[0],
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        for name, summary in entry["end_to_end"].items():
            print(f"{workload:12s} {name:14s} median {summary['median']:<12.6g} "
                  f"spread {summary['spread']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
