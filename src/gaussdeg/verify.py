"""Self-check suites: each one recomputes a family of values two ways.

These are the same cross-checks the test suite runs, packaged as plain
functions returning structured results so the command line can execute
them on demand.  Every suite runs its checks through one recorder with
one failure rule: a check fails when its two values differ, or when
computing them raises ArithmeticError (a route broke one of its own
invariants).  The failure is recorded under the check's label and the
suite goes on, so a failing check never stops a suite or its count.
"""

from dataclasses import dataclass
from functools import cache

from .degrees import (
    METHODS,
    NotGenericallyFiniteError,
    bounds,
    degree_general_curve,
    degree_generic,
    degree_main,
    ordinary_gauss_degree,
    verify_identity,
)
from .partitions import (
    DEFAULT_BRUTE_CAP,
    check_partition_terms,
    enumerate_partitions,
    message,
    syt_count_bruteforce,
    syt_count_hook,
)
from .schur import (
    VeroneseVariety,
    schur_delta_determinant,
    schur_delta_veronese_closed,
    veronese_integral_table,
    veronese_segre_sequence,
)

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    failed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0


class _Checks:
    """A suite's recorder: `check(template, *args, pair=...)` counts a check and computes pair().

    Unequal (got, want) record `label: <mismatch.format(got, want)>`, an
    ArithmeticError `label: <message>`; anything else (a guard's refusal)
    propagates.  The label, `template.format(*args)`, is formatted only
    when the check fails, from the arguments as they were at the call.
    """

    def __init__(self, name: str, mismatch: str):
        self.name, self.mismatch = name, mismatch
        self.checks, self.failures = 0, []

    def __call__(self, template: str, *args, pair) -> None:
        self.checks += 1
        try:
            got, want = pair()
        except ArithmeticError as exc:
            self.failures.append(f"{template.format(*args)}: {exc}")
            return
        if got != want:
            self.failures.append(f"{template.format(*args)}: {self.mismatch.format(got, want)}")

    def result(self) -> SuiteResult:
        failed = len(self.failures)
        return SuiteResult(self.name, self.checks - failed, failed, tuple(self.failures))


def run_identity_suite(max_n: int = 6) -> SuiteResult:
    """Square-sum identity for n = 1..max_n; each n sums over its partitions."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    check_partition_terms(max_n)
    check = _Checks("identity", "lhs={} rhs={}")
    for n in range(1, max_n + 1):
        check("identity n={}", n, pair=lambda: verify_identity(n)[:2])
    return check.result()


def run_syt_suite(max_weight: int = 8, cap: int = DEFAULT_BRUTE_CAP) -> SuiteResult:
    """Hook-formula tableau counts against the brute-force path count."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    if max_weight > cap:
        raise ValueError(message("max_weight %s exceeds the brute-force cap %s", max_weight, cap))
    check = _Checks("syt", "hook={} bruteforce={}")
    for k in range(max_weight + 1):
        for lam in enumerate_partitions(k, max(k, 1)):
            check(
                "syt {}",
                lam,
                pair=lambda: (syt_count_hook(lam), syt_count_bruteforce(lam, cap=cap)),
            )
    return check.result()


def run_schur_suite(max_n: int = 4, max_d: int = 5) -> SuiteResult:
    """Jacobi-Trudi determinants against the Veronese closed form."""
    check = _Checks("schur", "determinant={} closed={}")
    for n in range(1, max_n + 1):
        for d in range(2, max_d + 1):
            v = VeroneseVariety(n, d)
            s = veronese_segre_sequence(v)
            for k in range(n + 1):
                for lam in enumerate_partitions(k, max(k, 1)):
                    for length in range(max(len(lam), 1), n + 1):
                        check(
                            "schur (n={}, d={}, lam={}, length={})",
                            n,
                            d,
                            lam,
                            length,
                            pair=lambda: (
                                schur_delta_determinant(s, lam, length),
                                schur_delta_veronese_closed(v, lam, length),
                            ),
                        )
    return check.result()


def run_crossform_suite(n_values=(1, 2, 3), d_values=(2, 3, 4)) -> SuiteResult:
    """Every other degree route against `degree_main`, all m.

    The routes are each applicable registry method, the generic sum over a
    Jacobi-Trudi integral table, the general-curve form at genus 0, and
    the ordinary Gauss degree at m = n.  If `degree_main` raises, every
    check of its cell fails with its message.
    """
    check, cell = _Checks("crossform", "got {}, want {}"), "{} (n={}, d={}, m={})"
    for n in n_values:
        for d in d_values:
            v = VeroneseVariety(n, d)
            s = veronese_segre_sequence(v)
            # Jacobi-Trudi determinants, not the closed form
            table = veronese_integral_table(
                v, lambda v, lam, length: schur_delta_determinant(s, lam, length)
            )
            for m in range(n, v.N):
                # `cache` keeps no exception: if it raises, each check re-raises it
                want = cache(lambda: degree_main(v, m).deg_xm)
                for name, method in METHODS.items():
                    if name != "main" and method.applies(v, m):
                        check(
                            cell, name, n, d, m, pair=lambda: (method.compute(v, m).deg_xm, want())
                        )
                check(cell, "generic", n, d, m, pair=lambda: (_generic_degree(table, m), want()))
                if n == 1:
                    check(
                        "general_curve (N={}, d={}, g=0, m={})",
                        d,
                        d,
                        m,
                        pair=lambda: (degree_general_curve(d, d, 0, m).deg_xm, want()),
                    )
                if m == n:
                    check(
                        cell, "ordinary", n, d, m, pair=lambda: (ordinary_gauss_degree(v), want())
                    )
    return check.result()


def _generic_degree(table, m: int) -> int:
    """`degree_generic(table, m).deg_xm`, or 0 where no degree exists."""
    try:
        return degree_generic(table, m).deg_xm
    except NotGenericallyFiniteError:
        return 0


def run_bounds_suite(n_values=(1, 2, 3), d_values=(2, 3, 4)) -> SuiteResult:
    """Sandwich bounds everywhere; exact equality throughout for curves."""
    check = _Checks("bounds", "expected equality, got lower={0[0]} ratio={0[1]} upper={0[2]}")
    for n in n_values:
        for d in d_values:
            v = VeroneseVariety(n, d)
            for m in range(n, v.N):
                check("bounds (n={}, d={}, m={})", n, d, m, pair=lambda: _bounds_pair(v, m))
    return check.result()


def _bounds_pair(v: VeroneseVariety, m: int) -> tuple:
    """For a curve, `bounds(v, m)`'s (lower, ratio, upper) and its ratio thrice."""
    b = bounds(v, m)
    if v.n > 1:
        return None, None  # `bounds` enforces the sandwich itself
    return (b.lower, b.ratio, b.upper), (b.ratio,) * 3


# The suites, in the order `verify` runs them; the keys are its --suite choices.
SUITES = {
    "identity": run_identity_suite,
    "syt": run_syt_suite,
    "schur": run_schur_suite,
    "crossform": run_crossform_suite,
    "bounds": run_bounds_suite,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(message("unknown suite %r; choose from %s", name, SUITE_NAMES))
    return SUITES[name](**kwargs)
