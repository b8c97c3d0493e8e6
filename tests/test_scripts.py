"""Smoke tests for the experiment drivers under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_degree_tables_all_consistent():
    proc = run_script("degree_tables.py", "--max-n", "2", "--max-d", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines() if line.startswith("  ")]
    flags = [row[-1] for row in rows if row[0].isdigit()]
    assert flags and set(flags) == {"yes"}


def test_conjecture_scan_finds_no_violations():
    proc = run_script("conjecture_scan.py", "--n", "1..2", "--d", "2..3")
    assert proc.returncode == 0, proc.stderr
    assert "no violations" in proc.stdout
