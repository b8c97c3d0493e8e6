"""Exact dimensions and degrees of tangent m-plane varieties.

For the degree-d Veronese embedding of projective n-space, the closure of
the union of tangent m-planes (n <= m <= N-1, N = C(n+d,d) - 1) is a
projective variety whose dimension and degree this package computes in
exact arithmetic, along with several independent closed forms, sandwich
bounds, and combinatorial oracles used to cross-check every formula.

The package exports what users call; every other name is imported from
its submodule (`partitions`, `grassmann`, `schur`, `cost`, `degrees`,
`verify`).
"""

from .degrees import (
    BoundsReport,
    DegreeReport,
    NotGenericallyFiniteError,
    bounds,
    degree_alternate,
    degree_curve_closed,
    degree_generic,
    degree_main,
    degree_surface_closed,
    degree_threefold_closed,
)
from .schur import SegreIntegralTable, VeroneseVariety

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "DegreeReport",
    "NotGenericallyFiniteError",
    "SegreIntegralTable",
    "VeroneseVariety",
    "bounds",
    "degree_alternate",
    "degree_curve_closed",
    "degree_generic",
    "degree_main",
    "degree_surface_closed",
    "degree_threefold_closed",
]
