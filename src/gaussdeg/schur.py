"""Schur polynomial values in Segre classes, exactly.

Two independent routes to the same number: a Jacobi-Trudi determinant over
the raw Segre coefficients, and a factorial closed form special to
Veronese varieties.  Integrals of these values over the variety are
collected in tables keyed by partitions, with a JSON interchange format.
"""

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import index, sub
from types import MappingProxyType

from .partitions import (
    Partition,
    _clear_primes,
    _kept_count,
    _strip_zeros,
    canonical,
    check_partition_terms,
    enumerate_partitions,
    exact_quotient,
    falling_factorial_product,
    integer,
    message,
    pad,
    partition_count,
    syt_count,
    weight,
)


@dataclass(frozen=True)
class VeroneseVariety:
    """Image of projective n-space under the embedding by forms of degree d.

    The ambient projective space has dimension N = C(n+d, d) - 1.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 2:
            raise ValueError("d must be >= 2 (d = 1 embeds nothing new)")

    @cached_property
    def N(self) -> int:
        """C(n+d, d) - 1, formed on first use: at large n and d a slow binomial."""
        return comb(self.n + self.d, self.d) - 1

    @property
    def kept(self) -> bool:
        """Whether the process keeps its table and swept records: n <= KEPT_TABLE_N, d < 2^64."""
        return self.n <= KEPT_TABLE_N and not self.d >> 64

    @cached_property
    def integral_table(self) -> "SegreIntegralTable":
        """`veronese_integral_table` of this variety, built once per instance.

        A kept variety's table is read from `_kept_table`: every variety of
        the same (n, d) shares it, and its `plan`, while the process keeps it.
        """
        return _kept_table(self.n, self.d) if self.kept else veronese_integral_table(self)


@dataclass(frozen=True)
class SegreSequence:
    """Coefficients s_0..s_K of a Segre series; s_i = 0 outside 0 <= i <= K."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[0] != 1:
            raise ValueError("Segre sequence must start with s_0 = 1")


def veronese_segre(v: VeroneseVariety, i: int) -> int:
    """Coefficient of h^i in the Segre series of the twisted normal sheaf.

    Equals C(n+1, i) (d-1)^i, the expansion of (1 + (d-1)h)^(n+1); zero
    outside 0 <= i <= n+1.
    """
    if i < 0 or i > v.n + 1:
        return 0
    return comb(v.n + 1, i) * (v.d - 1) ** i


def veronese_segre_sequence(v: VeroneseVariety) -> SegreSequence:
    return SegreSequence(tuple(veronese_segre(v, i) for i in range(v.n + 2)))


def _det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, its rows any sequences.

    Sizes 0-3 are expanded directly, a handful of products; from size 4 on
    it is fraction-free Gaussian elimination (Bareiss), on a copy.
    """
    size = len(matrix)
    if size <= 3:
        if size == 3:
            (a, b, c), (d, e, f), (g, h, i) = matrix
            return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if size == 2:
            (a, b), (c, d) = matrix
            return a * d - b * c
        return matrix[0][0] if size else 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def schur_delta_determinant(s: SegreSequence, lam, length: int) -> int:
    """Jacobi-Trudi value det[ s_(lam_i + j - i) ] of the given size.

    `lam` is zero-padded to `length` rows; the empty shape gives 1 at any
    positive length.  Row i, s_(lam_i - i) .. s_(lam_i - i + length - 1),
    is one slice of the coefficients with length - 1 zeros on each side.
    """
    if length < 1:
        raise ValueError("length must be positive")
    padded = pad(lam, length)
    coefficients = s.coefficients
    if padded[0] >= len(coefficients):
        return 0  # the first row reads past s_K: all zeros
    # s_i sits at index i + length - 1; row i starts at s_(lam_i - i), at
    # most s_K, so it ends within the zeros after s_K
    zeros = (0,) * (length - 1)
    shifted = zeros + coefficients + zeros
    starts = map(sub, padded, range(1 - length, 1))
    return _det_int([shifted[start : start + length] for start in starts])


def schur_delta_veronese_closed(v: VeroneseVariety, lam, length: int) -> int:
    """Factorial closed form for the Schur value on a Veronese variety.

    Returns (d-1)^|lam| / |lam|! times the tableau count of `lam` times the
    product over rows i = 1..length of (n+i)! / (n+i-lam_i)!.  Shapes
    heavier than n are rejected; the division must be exact (`exact_quotient`).
    """
    if length < 1:
        raise ValueError("length must be positive")
    padded = pad(lam, length)
    shape = _strip_zeros(padded)
    total = weight(shape)
    if total > v.n:
        raise ValueError(message("|lam| = %s exceeds the variety dimension %s", total, v.n))
    return exact_quotient(
        (v.d - 1) ** total * syt_count(shape) * falling_factorial_product(v.n, shape),
        factorial(total),
        "closed form for %s",
        padded,
    )


@dataclass(frozen=True)
class SegreIntegralTable:
    """Integrals of Schur values over an n-fold, keyed by partitions of n: the one table check.

    n and N are ints, not bools, 1 <= n < N, N the ambient dimension; `entries`, a mapping or
    (partition, integral) pairs, holds each partition of n once (keys read by `canonical`), at
    most `partitions.MAX_PARTITIONS`, each integral read by `operator.index`: a float, Fraction,
    Decimal or str raises TypeError.  The table keeps them read-only: it, and the plan made from
    it, may be shared by every caller in the process (`VeroneseVariety.integral_table`).
    """

    n: int
    N: int
    entries: Mapping[Partition, int]

    def __post_init__(self):
        if not _is_int(self.n) or not _is_int(self.N):
            raise ValueError("'n' and 'N' must be integers")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_partition_terms(self.n)  # before p(n) is formed
        if self.N <= self.n:
            raise ValueError("N must exceed n")
        cleaned: dict[Partition, int] = {}
        entries = self.entries.items() if isinstance(self.entries, Mapping) else self.entries
        for key, value in entries:
            lam = canonical(key)
            if weight(lam) != self.n:
                raise ValueError(message("entry %s does not have weight %s", lam, self.n))
            if lam in cleaned:
                raise ValueError(message("duplicate entry for partition %s", lam))
            cleaned[lam] = index(value)
        # the keys are distinct partitions of n, so the table is complete iff
        # it has p(n) of them
        expected = partition_count(self.n)
        if len(cleaned) != expected:
            template = "table is missing %s of the %s partitions of %s"
            raise ValueError(message(template, expected - len(cleaned), expected, self.n))
        object.__setattr__(self, "entries", MappingProxyType(cleaned))

    @cached_property
    def plan(self):
        """The table's `degrees.TermPlan`, built on first use and kept with the table."""
        from .degrees import TermPlan  # degrees imports this module

        return TermPlan(self)

    def lookup(self, lam) -> int:
        key = canonical(lam)
        if key not in self.entries:
            raise KeyError(message("no entry for partition %s", key))
        return self.entries[key]

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "N": self.N,
            "entries": [
                {"partition": list(lam), "integral": str(value)}
                for lam, value in sorted(self.entries.items(), reverse=True)
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SegreIntegralTable":
        """Check the document's and entries' shapes and read each integral by `partitions.integer`;
        the constructor, given the (partition, integral) pairs, checks the rest."""
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("table document must be a JSON object")
        for key in ("n", "N", "entries"):
            if key not in doc:
                raise ValueError(f"table document is missing '{key}'")
        if not isinstance(doc["entries"], list):
            raise ValueError("'entries' must be a list")
        entries: list[tuple[list[int], int]] = []
        for item in doc["entries"]:
            if not isinstance(item, dict):
                raise ValueError(message("entry is not an object: %r", item))
            if "partition" not in item or "integral" not in item:
                raise ValueError(message("entry needs 'partition' and 'integral': %r", item))
            parts = item["partition"]
            if not isinstance(parts, list) or not all(_is_int(p) for p in parts):
                raise ValueError(message("'partition' must be a list of integers: %r", parts))
            raw = item["integral"]
            if not isinstance(raw, str):
                raise ValueError(message("'integral' must be a decimal string: %r", raw))
            try:
                entries.append((parts, integer(raw)))
            except ValueError as exc:
                raise ValueError(message("bad integral value %r", raw)) from exc
        return cls(n=doc["n"], N=doc["N"], entries=entries)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def veronese_integral_table(v: VeroneseVariety, schur_value=None) -> SegreIntegralTable:
    """Table of all weight-n Schur integrals of a Veronese variety.

    Entry lam is `schur_value(v, lam, n)`, by default the closed form
    `schur_delta_veronese_closed` (looked up when the table is built).
    """
    check_partition_terms(v.n)
    value = schur_value or schur_delta_veronese_closed
    entries = {lam: value(v, lam, v.n) for lam in enumerate_partitions(v.n, v.n)}
    return SegreIntegralTable(n=v.n, N=v.N, entries=entries)


# Veronese tables, with their plans, kept for the life of the process: the
# KEPT_TABLES of (n, d) used most recently, each of n <= KEPT_TABLE_N, so at
# most p(13) = 101 terms, and of d < 2^64, so no entry passes 864 bits, its
# size at (13, 2^64 - 1): a kept table holds at most about 14 kB of entries.
# A seeded `small_mixed` benchmark run asks for 29 distinct (n, d); every
# variety of the benchmark and of the golden file has n <= 6.  The same two
# bounds, read once as `VeroneseVariety.kept`, pick the varieties whose
# swept records may be kept, within their own digit budget
# (`degrees.KEPT_SWEEP_DIGITS`).
KEPT_TABLE_N = 13
KEPT_TABLES = 32


@lru_cache(maxsize=KEPT_TABLES)
def _kept_table(n: int, d: int) -> SegreIntegralTable:
    """`veronese_integral_table` of the variety (n, d), kept (`VeroneseVariety.integral_table`)."""
    return veronese_integral_table(VeroneseVariety(n, d))


def cache_clear() -> None:
    """Empty what the process keeps: tables, tableau counts, alternate-sum weights, primes, sweeps.

    They are the Veronese tables, the small tableau counts, the alternate
    sum's partition weights, the list of primes below
    `partitions.PRIME_CAP` that the prime-power kernel reads
    (`partitions._primes`) and the swept records that `table` and
    `conjecture` read (`degrees._swept_records`); the last two stores are
    replaced whole, so a call from another thread is safe.  A library
    caller who replaces a formula behind them (the closed form, the
    tableau kernel, a term of the plan, the sweep's step, a row's bounds)
    calls this first, so that no value made before reaches a later call.
    """
    from .degrees import _clear_sweeps, _kept_alternate_weights  # degrees imports this module

    _kept_table.cache_clear()
    _kept_count.cache_clear()
    _kept_alternate_weights.cache_clear()
    _clear_primes()
    _clear_sweeps()
