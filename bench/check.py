"""Output checker: one verdict per command, outside the measured child.

A command is `ok` when it exits 0 and every number it printed matches the
committed reference or an independent formula; `wrong` when it exits 0
(or `verify` exits 1) with numbers that do not match; `failed` when it
exits non-zero, raises, or cannot be parsed.  Only `ok` commands deliver
cells: one per `degree` or `generic` result, table row or conjecture row.
"""

import csv
import io
import json
import re
from dataclasses import dataclass

import reference as ref
import workloads as wl

SUITES = ("identity", "syt", "schur", "crossform", "bounds")
TABLE_FILE = re.compile(r"veronese-n(\d+)-d(\d+)-x(\d+)\.json$")


@dataclass(frozen=True)
class Verdict:
    status: str  # "ok", "failed" or "wrong"
    cells: int = 0
    reason: str = ""


class Mismatch(Exception):
    """An output field disagrees with its expected value."""


def _expect(got, want, what: str) -> None:
    if str(got) != str(want):
        raise Mismatch(f"{what}: got {str(got)[:60]!r}, want {str(want)[:60]!r}")


def _bool_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _aligned_rows(lines: list[str]) -> list[dict]:
    """Rows of the program's aligned text table, split at the header's column starts."""
    header = lines[0]
    starts = [match.start() for match in re.finditer(r"\S+", header)]
    names = header.split()
    rows = []
    for line in lines[1:]:
        bounds = starts[1:] + [None]
        rows.append(
            {name: line[begin:end].strip() for name, begin, end in zip(names, starts, bounds)}
        )
    return rows


def _rows(text: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return _aligned_rows(text.rstrip("\n").split("\n"))


class Checker:
    def __init__(self, reference: dict):
        self.cells = reference["cells"]
        self.verify_checks = reference["verify_checks"]

    def check(self, argv: list[str], exit_code, stdout: str) -> Verdict:
        command = argv[0]
        if exit_code == 1 and command == "verify":
            return Verdict("wrong", reason="verify reported a failed check")
        if exit_code != 0:
            return Verdict("failed", reason=f"exit {exit_code}")
        opts = dict(zip(argv[1::2], argv[2::2]))
        fmt = opts.get("--format", "json")
        try:
            cells = getattr(self, f"_{command}")(opts, fmt, stdout)
        except Mismatch as exc:
            return Verdict("wrong", reason=str(exc))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, csv.Error) as exc:
            return Verdict("wrong", reason=f"unreadable output: {exc!r}")
        return Verdict("ok", cells=cells)

    def _cell(self, n: int, d: int, m: int) -> dict:
        return self.cells[ref.cell_key(n, d, m)]

    def _object(self, stdout: str, fmt: str) -> dict:
        if fmt == "json":
            return json.loads(stdout)
        rows = _rows(stdout, fmt)
        if len(rows) != 1:
            raise Mismatch(f"expected one row, got {len(rows)}")
        return rows[0]

    def _degree(self, opts, fmt, stdout) -> int:
        n, d, m = int(opts["--n"]), int(opts["--d"]), int(opts["--m"])
        big_n = wl.ambient(n, d)
        doc = self._object(stdout, fmt)
        want = {"n": n, "d": d, "N": big_n, "m": m, "dim": n + (big_n - m) * (m - n),
                "method": opts.get("--method", "main")}
        for key, value in want.items():
            _expect(doc[key], value, key)
        _expect(ref.digest(str(doc["degree"])), self._cell(n, d, m)["deg"], "degree digest")
        return 1

    def _generic(self, opts, fmt, stdout) -> int:
        n, d, scale = map(int, TABLE_FILE.search(opts["--table"]).groups())
        m = int(opts["--m"])
        big_n = wl.ambient(n, d)
        doc = self._object(stdout, fmt)
        want = {"n": n, "N": big_n, "m": m, "dim": n + (big_n - m) * (m - n), "method": "generic",
                "degree": scale * int(self._cell(n, d, m)["value"])}
        for key, value in want.items():
            _expect(doc[key], value, key)
        return 1

    def _table(self, opts, fmt, stdout) -> int:
        n, d = int(opts["--n"]), int(opts["--d"])
        big_n = wl.ambient(n, d)
        if fmt == "json":
            doc = json.loads(stdout)
            for key, value in {"n": n, "d": d, "N": big_n}.items():
                _expect(doc[key], value, key)
            rows = doc["rows"]
        else:
            rows = _rows(stdout, fmt)
        _expect(len(rows), big_n - n, "row count")
        for m, row in zip(range(n, big_n), rows):
            _expect(row["m"], m, "m")
            text = ref.table_row_text(
                row["dim"], row["degree"], row["ratio"], _bool_text(row["within_conjecture"])
            )
            _expect(ref.digest(text), self._cell(n, d, m)["row"], f"row m={m}")
        return len(rows)

    def _conjecture(self, opts, fmt, stdout) -> int:
        expected = []
        for n in _inclusive(opts["--n"]):
            for d in _inclusive(opts["--d"]):
                expected += [(n, d, m) for m in range(n, wl.ambient(n, d))]
        violations = None
        if fmt == "json":
            doc = json.loads(stdout)
            rows, violations = doc["rows"], doc["violations"]
        elif fmt == "csv":
            rows = _rows(stdout, fmt)
        else:
            *lines, last = stdout.rstrip("\n").split("\n")
            rows = _aligned_rows(lines)
            violations = int(last.removeprefix("violations: "))
        _expect(len(rows), len(expected), "row count")
        for (n, d, m), row in zip(expected, rows):
            for key, value in {"n": n, "d": d, "N": wl.ambient(n, d), "m": m}.items():
                _expect(row[key], value, key)
            text = ref.scan_row_text(
                row["degree"], row["product"], row["ratio"], row["conjecture_upper"],
                row["conjecture_value"], _bool_text(row["within_conjecture"]),
            )
            _expect(ref.digest(text), self._cell(n, d, m)["scan"], f"scan row {(n, d, m)}")
        if violations is not None:
            outside = sum(_bool_text(row["within_conjecture"]) == "false" for row in rows)
            _expect(violations, outside, "violations")
        return len(rows)

    def _verify(self, opts, fmt, stdout) -> int:
        names = [opts["--suite"]] if "--suite" in opts else list(SUITES)
        want = {
            "identity": self.verify_checks[f"identity/{opts.get('--max-n', '6')}"],
            "syt": self.verify_checks[f"syt/{opts.get('--max-weight', '8')}"],
            "schur": self.verify_checks["schur"],
            "crossform": self.verify_checks["crossform"],
            "bounds": self.verify_checks["bounds"],
        }
        if fmt == "json":
            doc = json.loads(stdout)
            _expect(doc["ok"], True, "ok")
            got = [(s["suite"], s["passed"], s["failed"]) for s in doc["suites"]]
        elif fmt == "csv":
            got = [(r["suite"], r["passed"], r["failed"]) for r in _rows(stdout, fmt)]
        else:
            pattern = re.compile(r"suite (\w+): (\d+) passed, (\d+) failed")
            got = [pattern.fullmatch(line).groups() for line in stdout.rstrip("\n").split("\n")]
        _expect(len(got), len(names), "suite count")
        for name, (suite, passed, failed) in zip(names, got):
            _expect(suite, name, "suite")
            _expect(passed, want[name], f"{name} passed")
            _expect(failed, 0, f"{name} failed")
        return 0

    def _syt(self, opts, fmt, stdout) -> int:
        shape = [int(part) for part in opts["--shape"].split(",")]
        doc = self._object(stdout, fmt)
        shown = doc["shape"] if fmt == "json" else [int(p) for p in doc["shape"].split()]
        _expect(shown, shape, "shape")
        _expect(doc["weight"], sum(shape), "weight")
        count = ref.syt_count(shape)
        _expect(doc["hook"], count, "hook")
        brute = doc["bruteforce"] or ""
        _expect(brute, count if sum(shape) <= wl.BRUTE_CAP else "", "bruteforce")
        return 0

    def _grassmann(self, opts, fmt, stdout) -> int:
        d, r = int(opts["--d"]), int(opts["--r"])
        doc = self._object(stdout, fmt)
        want = {"d": d, "r": r, "dim": d * (r - d), "degree": ref.rectangle_syt_count(d, r - d)}
        for key, value in want.items():
            _expect(doc[key], value, key)
        return 0


def _inclusive(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)
