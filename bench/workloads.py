"""Seeded command lists for the three benchmark workloads.

A workload is a sequence of rounds; each round is a list of argv lists for
`gaussdeg.cli.main`.  Every round of a workload has the same kinds of
command in the same proportions, and the seed only chooses parameters and
order, so runs on different seeds do comparable work.  Nothing here imports
the program: the program receives only these argv lists and the table
files written by `write_tables`.
"""

import json
import math
import random
from itertools import permutations
from pathlib import Path

# CPU seconds per round, measured at the seed commit on a 2-core shared
# x86-64 machine.  A run executes ceil(seconds / ROUND_COST_S) rounds, at
# least MIN_ROUNDS, so every run of one (workload, seed, seconds) does
# exactly the same work and order statistics sit at the same ranks.
ROUND_COST_S = {"ladder_cold": 1.0, "table_sweep": 10.0, "small_mixed": 0.15}
MIN_ROUNDS = {"ladder_cold": 20, "table_sweep": 2, "small_mixed": 20}
WORKLOADS = tuple(ROUND_COST_S)

# The ROADMAP size ladder: (n, d) whose degrees reach tens of thousands of
# digits in the middle of the m range.
LADDER = ((1, 200), (2, 20), (3, 10), (4, 5), (6, 3))
# Mid-size varieties for whole-m tables.  n = 1 is drawn from a band; the
# other bands are so narrow that every round runs all of them.
TABLE_CURVE_BAND = tuple(range(80, 111))
TABLE_FIXED = ((2, 11), (2, 12), (2, 13), (3, 6), (3, 7), (4, 4), (5, 3))
# Small varieties: N <= 20 keeps every integer below a hundred digits.
SMALL_MAX_N = 20
# Conjecture boxes stay inside n <= 4, d <= 5 with N <= 55; (4, 4) and
# (4, 5) are left out because their integers are not small.
CONJECTURE_MAX_N = 55
METHODS = (
    "main",
    "alternate",
    "curve_closed",
    "surface_closed",
    "threefold_closed",
    "m_eq_n_plus_1",
    "boole",
)
FORMATS = ("json", "csv", "table")
VERIFY_CHOICES = (
    (),
    ("--suite", "identity", "--max-n", "5"),
    ("--suite", "syt", "--max-weight", "10"),
    ("--suite", "schur"),
    ("--suite", "crossform"),
    ("--suite", "bounds"),
)
BRUTE_CAP = 12  # the program's default brute-force cap
GENERIC_SCALES = (1, 2, 3, 5)  # factors on the Veronese tables `generic` reads


def ambient(n: int, d: int) -> int:
    """N = C(n+d, d) - 1 for the degree-d Veronese embedding of P^n."""
    return math.comb(n + d, d) - 1


def small_varieties() -> list[tuple[int, int]]:
    out = []
    for n in range(1, 5):
        d = 2
        while ambient(n, d) <= SMALL_MAX_N:
            out.append((n, d))
            d += 1
    return out


def conjecture_boxes() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Inclusive (n range, d range) boxes inside 1..4 x 2..5 whose N <= 55."""
    spans = lambda lo, hi: [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]
    return [
        (ns, ds)
        for ns in spans(1, 4)
        for ds in spans(2, 5)
        if ambient(ns[1], ds[1]) <= CONJECTURE_MAX_N
    ]


def conjecture_grid() -> list[tuple[int, int]]:
    cells = set()
    for (n_lo, n_hi), (d_lo, d_hi) in conjecture_boxes():
        cells.update((n, d) for n in range(n_lo, n_hi + 1) for d in range(d_lo, d_hi + 1))
    return sorted(cells)


def even_sample(values, count: int, rng: random.Random) -> list:
    """`count` distinct items spaced evenly over `values`, in seeded order.

    A systematic sample: positions (k + u) * len / count for k < count.
    The seed draws u from [0.45, 0.55) and shuffles the order.  Cost grows
    steeply with the cell (as e^2 along the ladder), so a shift by a whole
    grid step would move the slowest commands by a fifth; this band keeps
    the mix of cheap and costly cells the same on every seed.
    """
    values = list(values)
    if count > len(values):
        raise ValueError(f"cannot draw {count} distinct items from {len(values)}")
    offset = 0.45 + 0.1 * rng.random()
    sample = [values[int((k + offset) * len(values) / count)] for k in range(count)]
    rng.shuffle(sample)
    return sample


def _cycle(items, rng: random.Random):
    """Endless seeded permutations of `items`, one full pass at a time."""
    items = list(items)
    while True:
        batch = items[:]
        rng.shuffle(batch)
        yield from batch


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload], math.ceil(seconds / ROUND_COST_S[workload]))


def _ladder_rounds(rng: random.Random, rounds: int) -> list[list[list[str]]]:
    rounds = min(rounds, min(ambient(n, d) - n for n, d in LADDER))
    orders = {(n, d): even_sample(range(n, ambient(n, d)), rounds, rng) for n, d in LADDER}
    out = []
    for r in range(rounds):
        batch = [
            ["degree", "--n", str(n), "--d", str(d), "--m", str(orders[(n, d)][r])]
            for n, d in LADDER
        ]
        rng.shuffle(batch)
        out.append(batch)
    return out


def _table_rounds(rng: random.Random, rounds: int) -> list[list[list[str]]]:
    curves = even_sample(TABLE_CURVE_BAND, min(2 * rounds, len(TABLE_CURVE_BAND)), rng)
    out = []
    for r in range(rounds):
        picks = [(1, curves[(2 * r) % len(curves)]), (1, curves[(2 * r + 1) % len(curves)])]
        batch = [["table", "--n", str(n), "--d", str(d)] for n, d in picks + list(TABLE_FIXED)]
        rng.shuffle(batch)
        out.append(batch)
    return out


def _degree_args(rng: random.Random, method: str, varieties) -> list[str]:
    if method == "curve_closed":
        varieties = [v for v in varieties if v[0] == 1]
    elif method == "surface_closed":
        varieties = [v for v in varieties if v[0] == 2]
    elif method == "threefold_closed":
        varieties = [v for v in varieties if v[0] == 3]
    elif method == "m_eq_n_plus_1":
        varieties = [v for v in varieties if v[0] + 1 <= ambient(*v) - 1]
    n, d = rng.choice(varieties)
    big_n = ambient(n, d)
    if method == "m_eq_n_plus_1":
        m = n + 1
    elif method == "boole":
        m = big_n - 1
    else:
        m = rng.randrange(n, big_n)
    return ["degree", "--n", str(n), "--d", str(d), "--m", str(m), "--method", method]


def table_file_name(n: int, d: int, scale: int) -> str:
    return f"veronese-n{n}-d{d}-x{scale}.json"


def _small_rounds(rng: random.Random, rounds: int, table_dir: str) -> list[list[list[str]]]:
    small = small_varieties()
    boxes = _cycle(conjecture_boxes(), rng)
    verifies = _cycle(VERIFY_CHOICES, rng)
    tables = _cycle(small, rng)
    methods = _cycle(METHODS, rng)
    generics = _cycle([(n, d, k) for n, d in small for k in GENERIC_SCALES], rng)
    out = []
    for _ in range(rounds):
        batch = []
        for _ in range(2):
            (n_lo, n_hi), (d_lo, d_hi) = next(boxes)
            batch.append(["conjecture", "--n", f"{n_lo}..{n_hi}", "--d", f"{d_lo}..{d_hi}"])
        batch.append(["verify", *next(verifies)])
        for _ in range(3):
            n, d = next(tables)
            batch.append(["table", "--n", str(n), "--d", str(d)])
        for _ in range(10):
            batch.append(_degree_args(rng, next(methods), small))
        for weight in (rng.randint(6, 10), rng.randint(10, BRUTE_CAP), rng.randint(13, 40)):
            parts = _random_partition(rng, weight)
            batch.append(["syt", "--shape", ",".join(map(str, parts))])
        for _ in range(3):
            r = rng.randint(2, 30)
            batch.append(["grassmann", "--d", str(rng.randint(0, r)), "--r", str(r)])
        for _ in range(3):
            n, d, k = next(generics)
            m = rng.randrange(n, ambient(n, d))
            path = f"{table_dir}/{table_file_name(n, d, k)}"
            batch.append(["generic", "--table", path, "--m", str(m)])
        for argv in batch:
            argv += ["--format", rng.choice(FORMATS)]
        rng.shuffle(batch)
        out.append(batch)
    return out


def _random_partition(rng: random.Random, weight: int) -> list[int]:
    parts = []
    left = weight
    while left:
        part = rng.randint(1, min(left, parts[-1] if parts else left))
        parts.append(part)
        left -= part
    return parts


def generate(workload: str, seed: int, seconds: float, table_dir: str = ".bench_work/tables"):
    """The argv lists of one run, grouped in rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = rounds_for(workload, seconds)
    if workload == "ladder_cold":
        return _ladder_rounds(rng, rounds)
    if workload == "table_sweep":
        return _table_rounds(rng, rounds)
    return _small_rounds(rng, rounds, table_dir)


def _segre(n: int, d: int, i: int) -> int:
    return math.comb(n + 1, i) * (d - 1) ** i if 0 <= i <= n + 1 else 0


def veronese_integral(n: int, d: int, lam) -> int:
    """Jacobi-Trudi determinant det[s_(lam_i + j - i)] by Leibniz expansion.

    s_i = C(n+1, i) (d-1)^i are the Segre coefficients of the twisted
    normal sheaf of the Veronese n-fold; the determinant of size n is the
    Schur integral a table-driven degree consumes.
    """
    padded = list(lam) + [0] * (n - len(lam))
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= _segre(n, d, padded[i] + perm[i] - i)
        total += term
    return total


def partitions_of(total: int) -> list[tuple[int, ...]]:
    out = []

    def descend(left, largest, prefix):
        if left == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(left, largest), 0, -1):
            descend(left - part, part, prefix + [part])

    descend(total, total, [])
    return out


def write_tables(table_dir: str) -> None:
    """Write the scaled Veronese integral tables that `generic` commands read."""
    path = Path(table_dir)
    path.mkdir(parents=True, exist_ok=True)
    for n, d in small_varieties():
        for k in GENERIC_SCALES:
            doc = {
                "n": n,
                "N": ambient(n, d),
                "entries": [
                    {"partition": list(lam), "integral": str(k * veronese_integral(n, d, lam))}
                    for lam in partitions_of(n)
                ],
            }
            (path / table_file_name(n, d, k)).write_text(json.dumps(doc), encoding="utf-8")
