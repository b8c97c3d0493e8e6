"""Grassmannians of quotients: dimension, Pluecker degree, pushforwards.

G(d, r) parametrizes rank-d quotient spaces of a fixed r-dimensional
space.  Its Pluecker degree is the tableau count of the (r-d) x d
rectangle; pushing a power of the tautological hyperplane class down a
Grassmann bundle produces tableau-count coefficients attached to shifted
partitions, which are the weights of `degrees.degree_generic`.
"""

from dataclasses import dataclass

from .partitions import (
    Partition,
    add_rectangle,
    enumerate_partitions,
    syt_count_hook,
)


@dataclass(frozen=True)
class GrassmannShape:
    """Grassmannian of rank-`d` quotients of a rank-`r` space."""

    d: int
    r: int

    def __post_init__(self):
        if not 0 <= self.d <= self.r:
            raise ValueError(f"need 0 <= d <= r, got d={self.d}, r={self.r}")

    @property
    def rectangle(self) -> Partition:
        """Rectangle ((r-d)^d) whose tableau count is the Pluecker degree."""
        return add_rectangle((), self.d, self.r - self.d)


def grassmann_dim(shape: GrassmannShape) -> int:
    return shape.d * (shape.r - shape.d)


def grassmann_degree(shape: GrassmannShape) -> int:
    """Degree under the Pluecker embedding.

    Degenerate shapes (d = 0 or d = r) are single points of degree 1,
    which the empty rectangle already yields.
    """
    return syt_count_hook(shape.rectangle)


def pushforward_coefficients(shape: GrassmannShape, k: int) -> list[tuple[Partition, int]]:
    """Coefficients of the degree-k pushforward along a Grassmann bundle.

    For the bundle of rank-d quotients of a rank-r bundle, the k-th power
    of the tautological class pushes down to a sum over partitions `lam` of
    k - d(r-d) with at most d parts, each weighted by the tableau count of
    `lam` plus the (r-d)-wide rectangle.  Parts of `lam` are not clipped at
    r - d here; wide shapes are handled by vanishing at evaluation time.
    """
    dim = grassmann_dim(shape)
    if k < dim:
        raise ValueError(f"k = {k} is below the fibre dimension {dim}")
    width = shape.r - shape.d
    return [
        (lam, syt_count_hook(add_rectangle(lam, shape.d, width)))
        for lam in enumerate_partitions(k - dim, shape.d)
    ]
