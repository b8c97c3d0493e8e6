"""Independent formulas and the committed reference values.

The benchmark checks the program's numbers against values written once by
`make_reference.py` and against the small formulas below, none of which
call the program.  Degrees are stored as short SHA-256 digests of their
decimal text (with the digit count), because the ladder's degrees run to
35,000 digits and the table bands hold several thousand of them.
"""

import hashlib
import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "data" / "reference.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def cell_key(n: int, d: int, m: int) -> str:
    return f"{n},{d},{m}"


def syt_count(shape) -> int:
    """Standard Young tableaux of `shape` by the hook length formula."""
    rows = [part for part in shape if part]
    if not rows:
        return 1
    cols = [sum(1 for part in rows if part > j) for j in range(rows[0])]
    hooks = 1
    for i, part in enumerate(rows):
        for j in range(part):
            hooks *= (part - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(rows)) // hooks


def rectangle_syt_count(height: int, width: int) -> int:
    """Tableaux of the height x width rectangle: hook h occurs min(h, height, width, height+width-h) times."""
    hooks = 1
    for h in range(1, height + width):
        hooks *= h ** min(h, height, width, height + width - h)
    return factorial(height * width) // hooks


def reference_product(n: int, d: int, big_n: int, m: int) -> int:
    """C(n + dim G, n) deg G (n+1)^n (d-1)^n for G the Grassmannian of (m-n)-quotients of an (N-n)-space."""
    height, width = m - n, big_n - m
    return comb(n + height * width, n) * rectangle_syt_count(height, width) * (n + 1) ** n * (d - 1) ** n


def power_bound(n: int, big_n: int, m: int) -> Fraction:
    """The conjectured upper bound ((N-m)/(N-n))^n on degree / product."""
    return Fraction(big_n - m, big_n - n) ** n


def table_row_text(dim, degree: str, ratio: str, within: str) -> str:
    return f"{dim}|{degree}|{ratio}|{within}"


def scan_row_text(degree, product, ratio, upper, value, within) -> str:
    return f"{degree}|{product}|{ratio}|{upper}|{value}|{within}"


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="ascii"))
