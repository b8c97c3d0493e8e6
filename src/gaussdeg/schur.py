"""Schur polynomial values in Segre classes, exactly, and the sum a table of them feeds.

Two independent routes to the same number: a Jacobi-Trudi determinant over
the raw Segre coefficients, and a factorial closed form special to
Veronese varieties.  Integrals of these values over the variety are
collected in tables keyed by partitions, with a JSON interchange format.

A table owns the tableau-weighted sum that pushes its integrals forward to
a degree: its `plan`, a `TermPlan` laid out once, whose `row` is the one
evaluator of the sum for every cell and every sweep row.
"""

import json
from collections.abc import Mapping, Sequence
from functools import cached_property
from math import comb, factorial, lcm
from operator import index, sub
from types import MappingProxyType

from .partitions import (
    KEPT,
    Count,
    Partition,
    Record,
    _kept_count,
    _strip_zeros,
    canonical,
    charge,
    check_partition_terms,
    count_divmod,
    count_fma,
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


class VeroneseVariety(Record):
    """Image of projective n-space under the embedding by forms of degree d.

    The ambient projective space has dimension N = C(n+d, d) - 1.  n and d
    are read as a table reads n and N (`_integers`).
    """

    _fields = ("n", "d")

    def __init__(self, n: int, d: int):
        if type(n) is not int or type(d) is not int:
            n, d = _integers("'n' and 'd'", n, d)
        if n < 1:
            raise ValueError("n must be >= 1")
        if d < 2:
            raise ValueError("d must be >= 2 (d = 1 embeds nothing new)")
        self._set(n=n, d=d)

    @cached_property
    def N(self) -> int:
        """C(n+d, d) - 1, formed on first use: at large n and d a slow binomial."""
        return comb(self.n + self.d, self.d) - 1

    @property
    def kept(self) -> bool:
        """Whether the process may keep this variety's values: n <= KEPT_TABLE_N."""
        return self.n <= KEPT_TABLE_N

    @cached_property
    def integral_table(self) -> "SegreIntegralTable":
        """`veronese_integral_table` of this variety, built once per instance.

        A kept variety's table is read from `partitions.KEPT`, made with its
        `plan` and charged for the integers of both: every variety of the
        same (n, d) shares them while the process keeps them.
        """
        if not self.kept:
            return veronese_integral_table(self)
        key = ("table", self.n, self.d)
        table = KEPT.get(key)
        if table is None:
            table = veronese_integral_table(self)
            plan = table.plan
            held = [*table.entries.values(), plan.lcd]
            for _, count, den, scaled, _ in plan.terms:
                held += count, den, scaled
            KEPT.keep(key, table, charge(held))
        return table


class SegreSequence(Record):
    """Coefficients s_0..s_K of a Segre series; s_i = 0 outside 0 <= i <= K."""

    _fields = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]):
        if not coefficients or coefficients[0] != 1:
            raise ValueError("Segre sequence must start with s_0 = 1")
        self._set(coefficients=coefficients)


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


class SegreIntegralTable(Record):
    """Integrals of Schur values over an n-fold, keyed by partitions of n: the one table check.

    n and N are integers read by `_integers`, 1 <= n < N, N the ambient dimension; `entries`, a
    mapping or (partition, integral) pairs, holds each partition of n once (keys read by
    `canonical`), at most `partitions.MAX_PARTITIONS`, each integral read by `operator.index`: a
    float, Fraction, Decimal or str raises TypeError.  The table keeps them read-only: it, and the
    plan made from it, may be shared by every caller in the process
    (`VeroneseVariety.integral_table`).  Equal tables hash equal.
    """

    _fields = ("n", "N", "entries")

    def __init__(self, n: int, N: int, entries):
        if type(n) is not int or type(N) is not int:
            n, N = _integers("'n' and 'N'", n, N)
        if n < 1:
            raise ValueError("n must be >= 1")
        check_partition_terms(n)  # before p(n) is formed
        if N <= n:
            raise ValueError("N must exceed n")
        cleaned: dict[Partition, int] = {}
        for key, value in entries.items() if isinstance(entries, Mapping) else entries:
            lam = canonical(key)
            if weight(lam) != n:
                raise ValueError(message("entry %s does not have weight %s", lam, n))
            if lam in cleaned:
                raise ValueError(message("duplicate entry for partition %s", lam))
            cleaned[lam] = index(value)
        # the keys are distinct partitions of n, so the table is complete iff
        # it has p(n) of them
        expected = partition_count(n)
        if len(cleaned) != expected:
            template = "table is missing %s of the %s partitions of %s"
            raise ValueError(message(template, expected - len(cleaned), expected, n))
        self._set(n=n, N=N, entries=MappingProxyType(cleaned))

    @cached_property
    def plan(self):
        """The table's `TermPlan`, built on first use and kept with the table."""
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


def _integers(names: str, *values) -> tuple[int, ...]:
    """`values` read by `operator.index`, none a bool, or ValueError "<names> must be integers"."""
    if bool not in map(type, values):
        try:
            return tuple(map(index, values))
        except TypeError:
            pass
    raise ValueError(f"{names} must be integers")


class NotGenericallyFiniteError(Exception):
    """Raised when a table-driven degree comes out non-positive.

    A vanishing total means the order-m Gauss map is not generically
    finite onto its image (the fibres are positive-dimensional), so no
    degree exists; a negative total means the table itself is not the
    Segre data of any variety.  Either way the number must not be
    reported as a degree.
    """


class TermPlan:
    """The tableau-weighted sum of one table, laid out once for every m.

    With unit = `degrees.reference_product(n, N, m, 1)` = C(dim X_m, n) * deg G,
    G = G(m-n, N-n), the degree is unit * S / L, where S sums
    f(lam) * num * (L / den) * T[lam] over the partitions lam of n:
    num / den is `degrees.binomial_ratio_product(lam, n, N, m)`, with
    num = prod_i C(N-m + lam_i-i, lam_i) and den the same at m = n, free
    of m.  L = `lcd` is the lcm of the dens.  `pairs` holds every row
    offset (lam_i - i, lam_i) once, and `terms`, for each lam, (lam,
    f(lam), den, (L / den) * T[lam], the indices of its rows' offsets in
    `pairs`).  A lam of more than N - n rows has a zero term at every m
    and is left out.  `row` evaluates the plan at one m.
    """

    def __init__(self, table: SegreIntegralTable):
        n, N = table.n, table.N
        offsets, terms = {}, []
        for lam, integral in table.entries.items():
            if len(lam) <= N - n:
                rows = enumerate(lam, start=1)
                indices = tuple([offsets.setdefault((p - i, p), len(offsets)) for i, p in rows])
                terms.append((lam, integral, indices, *_plan_term(lam, n, N)))
        self.n, self.N, self.pairs = n, N, tuple(offsets)
        self.lcd = lcd = lcm(*[den for *_, den in terms])
        self.terms = tuple(
            (lam, count, den, lcd // den * integral, indices)
            for lam, integral, indices, count, den in terms
        )

    def split(self, pluecker: Count) -> tuple[Count, int]:
        """(pluecker // L, pluecker % L), the remainder an int: one long `count_divmod`."""
        return count_divmod(pluecker, self.lcd)

    def row(self, m: int, pluecker: Count, split: tuple | None = None) -> tuple[int, int, Count]:
        """(C(dim X_m, n), S, degree) at an m in range; `pluecker` is deg G.

        `split` is `self.split(pluecker)`, made here when not given: a
        sweep passes the split it made once for a count it reads twice.
        With pluecker = quot * L + rest, unit = C(dim X_m, n) * pluecker is
        never formed: `_weighted_sum` needs only unit mod L, from the short
        rest.  The sign of S decides whether a degree exists: S <= 0 raises
        NotGenericallyFiniteError, naming S, an int, before any long
        operation on the degree.  Otherwise, with q = C(dim X_m, n) * S,
        the degree pluecker * q / L is quot * q + (rest * q) / L: the short
        division is the checked `exact_quotient`, and the degree one long
        fused multiply-add, `count_fma`.  The check is the one the degree
        needs: with k = gcd(q, L), gcd(q/k, L/k) = 1, so L divides rest * q,
        or pluecker * q, exactly when L/k divides pluecker.
        """
        n, lcd = self.n, self.lcd
        quotient, rest = self.split(pluecker) if split is None else split
        coefficient = comb(n + (self.N - m) * (m - n), n)
        total = _weighted_sum(self, m, rest * coefficient % lcd)
        if total <= 0:
            template = (
                "weighted total %s <= 0 at m = %s: the order-%s Gauss map is not generically "
                "finite onto its image, or the table is not the Segre data of a variety"
            )
            raise NotGenericallyFiniteError(message(template, total, m, m))
        q = coefficient * total
        low = exact_quotient(rest * q, lcd, "the weighted total at m = %s", m)
        return coefficient, total, count_fma(quotient, q, low)


def _plan_term(lam: Partition, n: int, N: int) -> tuple[int, int]:
    """f(lam) and its row-binomial denominator prod_i C(N-n+lam_i-i, lam_i)."""
    den = 1
    for i, part in enumerate(lam, start=1):
        den *= comb(N - n + part - i, part)
    return syt_count(lam), den


def _row_binomials(pairs: Sequence, height: int) -> list[int]:
    """C(height + offset, part) for each (offset, part) of `pairs`, 0 where height + offset < 0.

    A pair whose top is negative belongs only to shapes of more than
    `height` rows, whose terms are 0 and are skipped.
    """
    return [comb(height + offset, part) if height + offset >= 0 else 0 for offset, part in pairs]


_TERM = "tableau count of %s plus the %s-wide rectangle of height %s"


def _weighted_sum(plan: TermPlan, m: int, residue: int) -> int:
    """S of `plan` at m, each term checked; `residue` is unit mod L.

    The row's binomials are formed once, one per offset pair.  A term's
    tableau count, unit * f(lam) * num / den, is checked integral on its
    own as residue * f(lam) * num over den: one short remainder per term,
    made for a zero integral too, and a remainder raises as
    `exact_quotient` does.
    """
    height = plan.N - m
    binomials = _row_binomials(plan.pairs, height)
    total = 0
    for lam, count, den, weight, indices in plan.terms:
        if len(indices) > height:
            continue
        for k in indices:
            count *= binomials[k]
        if residue * count % den:
            exact_quotient(residue * count, den, _TERM, lam, m - plan.n, height)
        total += count * weight
    return total


def veronese_integral_table(v: VeroneseVariety, schur_value=None) -> SegreIntegralTable:
    """Table of all weight-n Schur integrals of a Veronese variety.

    Entry lam is `schur_value(v, lam, n)`, by default the closed form
    `schur_delta_veronese_closed` (looked up when the table is built).
    """
    check_partition_terms(v.n)
    value = schur_value or schur_delta_veronese_closed
    entries = {lam: value(v, lam, v.n) for lam in enumerate_partitions(v.n, v.n)}
    return SegreIntegralTable(n=v.n, N=v.N, entries=entries)


KEPT_TABLE_N = 13  # `VeroneseVariety.kept`: a kept table has at most p(13) = 101 terms


def cache_clear() -> None:
    """Empty what the process keeps: `partitions.KEPT` and the small tableau counts.

    `KEPT` holds the Veronese tables with their plans, the swept records,
    the alternate weights and the primes; the counts below
    `partitions.PRIME_POWER_CELLS` cells stay on their `lru_cache`.  A
    library caller who replaces a formula behind them (the closed form, the
    tableau kernel, a term of the plan, the sweep's step, a row's bounds)
    calls this first, so that no value made before reaches a later call.
    """
    KEPT.clear()
    _kept_count.cache_clear()
