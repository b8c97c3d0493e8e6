"""Self-check suites: each one recomputes a family of values two ways.

These are the same cross-checks the test suite runs, packaged as plain
functions returning structured results so the command line can execute
them on demand.  A suite never raises on a mismatch; it records the
failing tuple verbatim.
"""

from dataclasses import dataclass

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

SUITE_NAMES = ("identity", "syt", "schur", "crossform", "bounds")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    failed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _result(name: str, checks: int, failures: list[str]) -> SuiteResult:
    return SuiteResult(
        name=name,
        passed=checks - len(failures),
        failed=len(failures),
        failures=tuple(failures),
    )


def run_identity_suite(max_n: int = 6) -> SuiteResult:
    """Square-sum identity for n = 1..max_n; each n sums over its partitions."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    check_partition_terms(max_n)
    checks = 0
    failures = []
    for n in range(1, max_n + 1):
        checks += 1
        lhs, rhs, equal = verify_identity(n)
        if not equal:
            failures.append(f"identity n={n}: lhs={lhs} rhs={rhs}")
    return _result("identity", checks, failures)


def run_syt_suite(max_weight: int = 8, cap: int = DEFAULT_BRUTE_CAP) -> SuiteResult:
    """Hook-formula tableau counts against the brute-force path count."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    if max_weight > cap:
        raise ValueError(message("max_weight %s exceeds the brute-force cap %s", max_weight, cap))
    checks = 0
    failures = []
    for k in range(max_weight + 1):
        for lam in enumerate_partitions(k, max(k, 1)):
            checks += 1
            by_hook = syt_count_hook(lam)
            by_force = syt_count_bruteforce(lam, cap=cap)
            if by_hook != by_force:
                failures.append(f"syt {lam}: hook={by_hook} bruteforce={by_force}")
    return _result("syt", checks, failures)


def run_schur_suite(max_n: int = 4, max_d: int = 5) -> SuiteResult:
    """Jacobi-Trudi determinants against the Veronese closed form."""
    checks = 0
    failures = []
    for n in range(1, max_n + 1):
        for d in range(2, max_d + 1):
            v = VeroneseVariety(n, d)
            s = veronese_segre_sequence(v)
            for k in range(n + 1):
                for lam in enumerate_partitions(k, max(k, 1)):
                    for length in range(max(len(lam), 1), n + 1):
                        checks += 1
                        det = schur_delta_determinant(s, lam, length)
                        closed = schur_delta_veronese_closed(v, lam, length)
                        if det != closed:
                            failures.append(
                                f"schur (n={n}, d={d}, lam={lam}, length={length}): "
                                f"determinant={det} closed={closed}"
                            )
    return _result("schur", checks, failures)


def run_crossform_suite(n_values=(1, 2, 3), d_values=(2, 3, 4)) -> SuiteResult:
    """Every other degree route against `degree_main`, all m.

    The routes are each applicable registry method, the generic sum over a
    Jacobi-Trudi integral table, the general-curve form at genus 0, and
    the ordinary Gauss degree at m = n.
    """
    checks = 0
    failures = []

    def expect(context: str, got: int, want: int) -> None:
        nonlocal checks
        checks += 1
        if got != want:
            failures.append(f"{context}: got {got}, want {want}")

    for n in n_values:
        for d in d_values:
            v = VeroneseVariety(n, d)
            s = veronese_segre_sequence(v)
            # Jacobi-Trudi determinants, not the closed form
            table = veronese_integral_table(
                v, lambda v, lam, length: schur_delta_determinant(s, lam, length)
            )
            for m in range(n, v.N):
                cell = f"(n={n}, d={d}, m={m})"
                want = degree_main(v, m).deg_xm
                for name, method in METHODS.items():
                    if name != "main" and method.applies(v, m):
                        # a route's own invariant check (such as the curve
                        # form's dual Grassmannian) fails as a mismatch
                        try:
                            expect(f"{name} {cell}", method.compute(v, m).deg_xm, want)
                        except ArithmeticError as exc:
                            checks += 1
                            failures.append(f"{name} {cell}: {exc}")
                try:
                    generic = degree_generic(table, m).deg_xm
                except NotGenericallyFiniteError:
                    generic = 0
                expect(f"generic {cell}", generic, want)
                if n == 1:
                    expect(
                        f"general_curve (N={d}, d={d}, g=0, m={m})",
                        degree_general_curve(d, d, 0, m).deg_xm,
                        want,
                    )
                if m == n:
                    expect(f"ordinary {cell}", ordinary_gauss_degree(v), want)
    return _result("crossform", checks, failures)


def run_bounds_suite(n_values=(1, 2, 3), d_values=(2, 3, 4)) -> SuiteResult:
    """Sandwich bounds everywhere; exact equality throughout for curves."""
    checks = 0
    failures = []
    for n in n_values:
        for d in d_values:
            v = VeroneseVariety(n, d)
            for m in range(n, v.N):
                checks += 1
                try:
                    b = bounds(v, m)
                except ArithmeticError as exc:
                    failures.append(f"bounds (n={n}, d={d}, m={m}): {exc}")
                    continue
                if n == 1 and not (b.lower == b.ratio == b.upper):
                    failures.append(
                        f"bounds (n=1, d={d}, m={m}): expected equality, "
                        f"got lower={b.lower} ratio={b.ratio} upper={b.upper}"
                    )
    return _result("bounds", checks, failures)


def run_suite(name: str, **kwargs) -> SuiteResult:
    runners = {
        "identity": run_identity_suite,
        "syt": run_syt_suite,
        "schur": run_schur_suite,
        "crossform": run_crossform_suite,
        "bounds": run_bounds_suite,
    }
    if name not in runners:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return runners[name](**kwargs)
