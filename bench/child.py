#!/usr/bin/env python3
"""Measured child: imports the program once and runs one workload's commands.

Run from the root of a checkout by `bench/run.py`:

    python3 bench/child.py --workload W --seed S --seconds T --mode run --out FILE

It imports `gaussdeg` from `./src`, generates the seeded argv lists (and,
for `small_mixed`, the table files), prints `ready` with the CPU seconds
used so far and one calibration time, then calls `gaussdeg.cli.main(argv)`
for each command in turn with stdout and stderr captured.  Each command's
exit code, CPU and wall time and output go to FILE as one JSON line; a
last line holds the run summary.  Between commands it times a fixed
calibration kernel (see `calibrate`).  `--mode setup` stops after
`ready`; `--mode trace` records per-layer spans while it runs.  The
decimal digit limit is left at the interpreter default.
"""

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

# Command CPU seconds between two calibrations.
CALIBRATE_EVERY_S = 0.25


def run_command(main, argv: list[str]):
    """Call `main(argv)` with output captured; return (exit, cpu s, wall s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is one failed command, not the end of the run
        exit_code = "raised"
        err.write(traceback.format_exc())
    cpu = time.process_time() - cpu_start
    return exit_code, cpu, time.perf_counter() - start, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """CPU seconds of a fixed kernel that uses nothing from the program.

    Big-integer products and an interpreter loop, the two kinds of work
    the program does.  On a shared machine its time swings by more than a
    half within one run, and `run.py` divides command times by it.
    """
    start = time.process_time()
    x = 1
    for i in range(1, 3000):
        x *= i * i + 1
    acc = 0
    for i in range(100000):
        acc += i % 7
    return time.process_time() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import gaussdeg.cli as cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "gaussdeg").resolve():
        print(f"gaussdeg imported from {cli.__file__}, not from ./src", file=sys.stderr)
        return 2
    table_dir = ".bench_work/tables"
    rounds = workloads.generate(args.workload, args.seed, args.seconds, table_dir)
    if args.workload == "small_mixed":
        workloads.write_tables(table_dir)
    setup_cpu = time.process_time()
    print(f"ready {setup_cpu!r} {calibrate()!r}", flush=True)
    if args.mode == "setup":
        return 0

    limit_before = sys.get_int_max_str_digits()
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = [argv for batch in rounds for argv in batch]
    calibrations = [calibrate()]
    since = 0.0
    with open(args.out, "w", encoding="utf-8") as sink:
        for index, argv in enumerate(commands):
            if tracer is not None:
                tracer.command_id = index
            exit_code, cpu, wall, out, err = run_command(cli.main, argv)
            if tracer is not None:
                tracer.note_command(out, exit_code)
            record = {
                "argv": argv, "exit": exit_code, "cpu_s": cpu, "wall_s": wall,
                "calibration": len(calibrations) - 1, "out": out, "err": err[-400:],
            }
            sink.write(json.dumps(record) + "\n")
            since += cpu
            if since >= CALIBRATE_EVERY_S or index == len(commands) - 1:
                calibrations.append(calibrate())
                since = 0.0
        summary = {
            "rounds": len(rounds),
            "calibration_s": calibrations,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "int_max_str_digits": [limit_before, sys.get_int_max_str_digits()],
            "default_int_max_str_digits": sys.int_info.default_max_str_digits,
        }
        if tracer is not None:
            summary["layers"] = tracer.layer_metrics()
            tracer.write(Path(args.spans))
        sink.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
