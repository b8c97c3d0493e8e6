"""Tests of the benchmark itself: inputs, checker, failure counting, child set-up.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import child  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gaussdeg import cli  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return check.Checker(reference.load())


def _run_checked(checker, commands):
    rows = []
    for argv in commands:
        exit_code, cpu, wall, out, _ = child.run_command(cli.main, argv)
        rows.append(run.Row(argv, cpu, cpu, wall, checker.check(argv, exit_code, out), ""))
    return rows


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_commands_other_seed_other_commands(workload):
    first = workloads.generate(workload, 7, 20)
    assert first == workloads.generate(workload, 7, 20)
    assert first != workloads.generate(workload, 8, 20)


def test_ladder_cells_are_distinct_and_on_the_ladder():
    commands = [argv for batch in workloads.generate("ladder_cold", 3, 20) for argv in batch]
    cells = {tuple(argv[2::2]) for argv in commands}
    assert len(cells) == len(commands) >= 100
    assert {(int(n), int(d)) for n, d, _ in cells} == set(workloads.LADDER)


def test_every_drawable_cell_has_a_reference(checker):
    for workload in workloads.WORKLOADS:
        for batch in workloads.generate(workload, 11, 60):
            for argv in batch:
                opts = dict(zip(argv[1::2], argv[2::2]))
                if argv[0] == "degree":
                    key = reference.cell_key(int(opts["--n"]), int(opts["--d"]), int(opts["--m"]))
                    assert key in checker.cells


def test_small_commands_pass_the_checker(checker, tmp_path):
    table_dir = str(tmp_path / "tables")
    workloads.write_tables(table_dir)
    rounds = workloads._small_rounds(random.Random(5), 2, table_dir)
    rows = _run_checked(checker, [argv for batch in rounds for argv in batch])
    assert [row.verdict.reason for row in rows if row.verdict.status != "ok"] == []
    assert sum(row.verdict.cells for row in rows) > 0


def test_forced_failing_command_raises_failed_frac(checker):
    commands = [["degree", "--n", "2", "--d", "3", "--m", str(m)] for m in range(2, 9)]
    before = _run_checked(checker, commands)
    after = _run_checked(checker, commands + [["degree", "--n", "2", "--d", "3", "--m", "99"]])
    summary = {"peak_rss_kb": 1}
    ok_before = run.end_to_end(before, summary, [0.1])["ok_frac"]
    ok_after = run.end_to_end(after, summary, [0.1])["ok_frac"]
    assert ok_before == 1.0
    assert ok_after < ok_before
    assert after[-1].verdict.status == "failed"


@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--n", "2", "--d", "2", "--m", "3"],
        ["degree", "--n", "2", "--d", "4", "--m", "9", "--format", "csv"],
        ["table", "--n", "2", "--d", "3", "--format", "table"],
        ["conjecture", "--n", "1..2", "--d", "2..3"],
        ["grassmann", "--d", "3", "--r", "8", "--format", "table"],
        ["syt", "--shape", "4,3,1"],
    ],
)
def test_corrupted_output_is_rejected(checker, argv):
    exit_code, _, _, out, _ = child.run_command(cli.main, argv)
    assert checker.check(argv, exit_code, out).status == "ok"
    # bump the last digit of the longest number in the output
    last = max(re.finditer(r"\d+", out), key=lambda match: len(match.group())).end() - 1
    corrupted = out[:last] + str((int(out[last]) + 1) % 10) + out[last + 1 :]
    verdict = checker.check(argv, exit_code, corrupted)
    assert verdict.status == "wrong", verdict


def test_failing_verify_is_wrong_not_failed(checker):
    assert checker.check(["verify"], 1, "").status == "wrong"
    assert checker.check(["degree", "--n", "2", "--d", "20", "--m", "116"], 2, "").status == "failed"


def test_child_keeps_the_default_digit_limit(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    monkeypatch.setenv("GAUSSDEG_BRUTE_CAP", "3")
    assert "PYTHONINTMAXSTRDIGITS" not in run.child_env()
    for name in ("src", "bench"):
        (tmp_path / name).symlink_to(ROOT / name)
    out = tmp_path / "results.jsonl"
    args = Namespace(workload="small_mixed", seed=1, seconds=0)
    run.spawn(tmp_path, args, "run", out)
    rows, summary = run.read_results(out, check.Checker(reference.load()))
    default = sys.int_info.default_max_str_digits
    assert summary["int_max_str_digits"] == [default, default]
    assert all(row.verdict.status == "ok" for row in rows)


def test_ladder_keeps_the_4300_digit_failures(checker):
    # the child must not lift the limit: a 21,743-digit degree fails to render
    argv = ["degree", "--n", "2", "--d", "20", "--m", "116"]
    if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
        pytest.skip("this interpreter runs with a non-default digit limit")
    exit_code, _, _, _, err = child.run_command(cli.main, argv)
    assert checker.cells[reference.cell_key(2, 20, 116)]["digits"] > 4300
    assert exit_code == 2 and "4300" in err


def test_tracing_reports_every_layer_and_restores(monkeypatch):
    original = cli.main
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for index, argv in enumerate(
            [["table", "--n", "2", "--d", "3"], ["verify", "--suite", "identity"],
             ["degree", "--n", "1", "--d", "5", "--m", "2", "--method", "curve_closed"]]
        ):
            tracer.command_id = index
            exit_code, _, _, out, _ = child.run_command(cli.main, argv)
            tracer.note_command(out, exit_code)
    finally:
        restore()
    assert cli.main is original
    metrics = tracer.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.metric_units())
    assert metrics["cli.main.calls"] == 3
    assert metrics["degrees.degree_main.calls"] == 2 * 7  # table calls it once directly, once via bounds
    assert metrics["verify.run_suite.calls"] == 1 and metrics["verify.run_suite.checks"] == 6
    assert metrics["degrees.degree_curve_closed.calls"] == 1
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=dict(os.environ),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
