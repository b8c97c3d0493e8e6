#!/usr/bin/env python3
"""gaussdeg benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload ladder_cold --seed 1 --seconds 20 --trace 0

It times several set-ups of the child (`bench/child.py`), runs the child
once over the seeded command list, checks every output against
`bench/data/reference.json` and independent formulas, and prints a report
followed by one JSON line: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
traced child runs the same commands, then an untraced child repeats them
to measure the tracing overhead, and the metrics are the per-layer ones.
Exit status: 0 when every output is correct, 1 when one is wrong, 2 when
the run cannot be made (no program in ./src, a child that died, a changed
digit limit).  See bench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import check
import reference
import tracing
import workloads

SETUPS = 5
CHILD_TIMEOUT_S = 170
# Times are reported at the machine speed where the child's calibration
# kernel takes this many CPU seconds: each command's CPU time is scaled by
# REFERENCE_CALIBRATION_S over the kernel time measured around it.
REFERENCE_CALIBRATION_S = 0.010
END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_cmds_per_s": "1/s",
    "cells_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("GAUSSDEG_") and key not in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH")
    }
    env["PYTHONNOUSERSITE"] = "1"
    return env


def spawn(root: Path, args, mode: str, out: Path | None = None, spans: Path | None = None):
    """Run one child to the end; return its set-up CPU seconds at reference speed."""
    argv = [
        sys.executable, str(Path("bench") / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if out is not None:
        argv += ["--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.Popen(
        argv, cwd=root, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline().split()
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} child did not finish within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first[:1] != ["ready"] or proc.returncode != 0:
        raise RunError(f"{mode} child exited {proc.returncode}: {err.strip()[-400:]}")
    setup_cpu, calibration = float(first[1]), float(first[2])
    return setup_cpu * REFERENCE_CALIBRATION_S / calibration


class Row(NamedTuple):
    """One command the child ran, with the checker's verdict.

    `time_s` is the CPU time at reference speed; `cpu_s` and `wall_s` are
    as the child measured them.
    """

    argv: list
    time_s: float
    cpu_s: float
    wall_s: float
    verdict: check.Verdict
    err: str


def read_results(path: Path, checker: check.Checker):
    """Check every command the child ran; return (rows, summary)."""
    records = []
    summary = None
    with open(path, encoding="utf-8") as source:
        for line in source:
            record = json.loads(line)
            if "summary" in record:
                summary = record["summary"]
                continue
            record["verdict"] = checker.check(record["argv"], record["exit"], record.pop("out"))
            records.append(record)
    if summary is None:
        raise RunError(f"{path} has no summary line")
    calibrations = summary["calibration_s"]
    rows = []
    for record in records:
        # the kernel times just before and just after the command
        index = record["calibration"]
        local = (calibrations[index] + calibrations[index + 1]) / 2
        rows.append(Row(
            record["argv"], record["cpu_s"] * REFERENCE_CALIBRATION_S / local,
            record["cpu_s"], record["wall_s"], record["verdict"], record["err"],
        ))
    limits = summary["int_max_str_digits"]
    default = summary["default_int_max_str_digits"]
    if limits != [default, default]:
        raise RunError(f"child digit limit was {limits}, not the default {default}")
    return rows, summary


def end_to_end(rows, summary, setup_times, clock: str = "time_s") -> dict:
    """The end-to-end metrics, timed by the Row field `clock`."""
    times = [getattr(row, clock) for row in rows]
    busy = sum(times)
    ok = [row.verdict for row in rows if row.verdict.status == "ok"]
    return {
        "setup_s": statistics.median(setup_times),
        "ok_cmds_per_s": len(ok) / busy,
        "cells_per_s": sum(verdict.cells for verdict in ok) / busy,
        "cmd_p50_ms": 1000 * statistics.median(times),
        "cmd_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "ok_frac": len(ok) / len(rows),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }


def provenance(root: Path, args, rows, summary) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except OSError:
            commit = "unknown (git not found)"
    source = hashlib.sha256()
    for path in sorted((root / "src" / "gaussdeg").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "int_max_str_digits": summary["default_int_max_str_digits"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": summary["rounds"],
        "commands": len(rows),
        "calibration_ms": [
            round(1000 * value, 3)
            for value in (min(summary["calibration_s"]), statistics.median(summary["calibration_s"]),
                          max(summary["calibration_s"]))
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gaussdeg" / "cli.py").is_file():
        print("error: run from the root of a gaussdeg checkout (no src/gaussdeg/cli.py)", file=sys.stderr)
        return 2
    try:
        return measure(root, args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def measure(root: Path, args) -> int:
    checker = check.Checker(reference.load())
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    setup_times = [spawn(root, args, "setup") for _ in range(SETUPS)]
    plain_out = work / f"{tag}.jsonl"
    if args.trace:
        traced_out = work / f"{tag}-traced.jsonl"
        spawn(root, args, "trace", traced_out, work / f"{args.workload}-spans.bin")
        traced_rows, summary = read_results(traced_out, checker)
        traced_out.unlink()
    spawn(root, args, "run", plain_out)
    rows, plain_summary = read_results(plain_out, checker)
    plain_out.unlink()

    wrong = [row for row in rows if row.verdict.status == "wrong"]
    failed = [row for row in rows if row.verdict.status != "ok"]
    if args.trace:
        wrong += [row for row in traced_rows if row.verdict.status == "wrong"]
        metrics = dict(summary["layers"])
        scale = REFERENCE_CALIBRATION_S / statistics.median(summary["calibration_s"])
        for layer in tracing.LAYERS:
            metrics[f"{layer}.self_s"] *= scale
        metrics["trace.overhead_s"] = sum(row.time_s for row in traced_rows) - sum(row.time_s for row in rows)
        units = tracing.metric_units()
        raw = {}
    else:
        summary = plain_summary
        metrics = end_to_end(rows, summary, setup_times)
        units = END_TO_END_UNITS
        raw = {clock: end_to_end(rows, summary, setup_times, clock) for clock in ("cpu_s", "wall_s")}

    meta = provenance(root, args, rows, summary)
    report(meta, rows, metrics, units, failed, wrong, raw)
    result = {
        "correct": not wrong,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "results").mkdir(exist_ok=True)
    (work / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if not wrong else 1


def report(meta, rows, metrics, units, failed, wrong, raw) -> None:
    """Human-readable lines before the JSON result."""
    print(" ".join(f"{key}={value}" for key, value in meta.items()))
    attempted = len(rows)
    beyond = attempted - int(0.9 * (attempted - 1)) - 1
    notes = {
        "setup_s": f"median of {SETUPS} set-ups",
        "cmd_p50_ms": f"n={attempted}",
        "cmd_p90_ms": f"n={attempted}, {beyond} beyond",
        "trace.overhead_s": "traced minus untraced command time",
    }
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"{'failed_frac':44s} {len(failed) / attempted:>14.6g} {'ratio':6s} "
          f"{len(failed)} of {attempted} failed, {len(wrong)} wrong")
    calibrations = meta["calibration_ms"]
    print(f"times are CPU at reference speed (calibration kernel {1000 * REFERENCE_CALIBRATION_S:g} ms); "
          f"this run's kernel took {calibrations[0]:.3g}..{calibrations[2]:.3g} ms, "
          f"median {calibrations[1]:.3g}")
    for clock, metrics_as_measured in raw.items():
        for name in ("ok_cmds_per_s", "cells_per_s", "cmd_p50_ms", "cmd_p90_ms"):
            label = f"{clock[:-2]}.{name}"
            print(f"{label:44s} {metrics_as_measured[name]:>14.6g} {units[name]:6s} as measured")
    reasons = {}
    for row in failed:
        err = row.err.strip()
        key = f"{row.verdict.status}: {row.verdict.reason} {err.splitlines()[-1] if err else ''}"
        reasons.setdefault(key[:160], []).append(" ".join(row.argv))
    for key, argvs in sorted(reasons.items()):
        print(f"  {len(argvs):4d} x {key}  e.g. {argvs[0]}")


if __name__ == "__main__":
    raise SystemExit(main())
