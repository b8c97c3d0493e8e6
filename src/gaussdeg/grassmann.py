"""Grassmannians of quotients: dimension and Pluecker degree.

G(d, r) parametrizes rank-d quotient spaces of a fixed r-dimensional
space.  Its Pluecker degree is the tableau count of the (r-d) x d
rectangle; `degrees.reference_product` carries it into every degree.
"""

from dataclasses import dataclass

from .partitions import Partition, add_rectangle, syt_count_hook


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
