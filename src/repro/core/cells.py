"""Cell and sub-cell geometry (paper Definitions 3.1 and 4.1).

A *cell* is a ``d``-dimensional hypercube whose **diagonal** is ``eps``,
so any two points inside one cell are within ``eps`` of each other —
the property that lets RP-DBSCAN reason about whole cells instead of
points (Figure 3a).

A *sub-cell* refines a cell for the two-level cell dictionary: with the
approximation parameter ``rho`` and ``h = 1 + ceil(log2(1/rho))``, each
cell splits into ``2^(h-1)`` sub-cells per dimension, each a hypercube
with diagonal ``eps / 2^(h-1) <= rho * eps``.  A point is approximated by
the center of its sub-cell, so the approximation error per point is at
most ``rho * eps / 2`` (the premise of Lemma 5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.spatial.grid import GridSpec

__all__ = ["CellGeometry", "h_for_rho", "CellId", "MAX_CELL_COORD"]

#: A cell identifier: the integer grid coordinates of the cell.
CellId = tuple[int, ...]

#: Largest ``|floor(x / side)|`` the grid accepts: int64, with headroom
#: for the neighbour offsets and packed keys of the candidate search.
MAX_CELL_COORD = 2.0**62


def h_for_rho(rho: float) -> int:
    """Dictionary height ``h = 1 + ceil(log2(1/rho))`` (Definition 4.1)."""
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    return 1 + math.ceil(math.log2(1.0 / rho))


@dataclass(frozen=True)
class CellGeometry:
    """Joint geometry of the cell grid and its sub-cell refinement.

    Attributes
    ----------
    eps:
        DBSCAN radius; equals the cell diagonal.
    dim:
        Dimensionality of the data space.
    rho:
        Approximation parameter in ``(0, 1]``; determines the sub-cell
        size (Definition 4.1).
    """

    eps: float
    dim: int
    rho: float = 0.01
    grid: GridSpec = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", GridSpec(self.eps, self.dim))
        h_for_rho(self.rho)  # validates rho

    @property
    def side(self) -> float:
        """Cell side length ``eps / sqrt(d)``."""
        return self.grid.side

    @property
    def h(self) -> int:
        """Tree height parameter ``h`` (Definition 4.1)."""
        return h_for_rho(self.rho)

    @property
    def splits_per_dim(self) -> int:
        """Number of sub-cells per dimension, ``2^(h-1)``."""
        return 1 << (self.h - 1)

    @property
    def sub_side(self) -> float:
        """Sub-cell side length."""
        return self.side / self.splits_per_dim

    @property
    def sub_diagonal(self) -> float:
        """Sub-cell diagonal, ``eps / 2^(h-1)``; at most ``rho * eps``."""
        return self.eps / self.splits_per_dim

    @property
    def subcells_per_cell(self) -> int:
        """Total sub-cells per cell, ``2^(d(h-1))`` (may be astronomically
        large for high ``d``; only non-empty sub-cells are ever stored)."""
        return self.splits_per_dim**self.dim

    # ------------------------------------------------------------------
    # Point -> (cell, sub-cell) assignment
    # ------------------------------------------------------------------

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates for each row of ``points`` — ``(n, d)``."""
        pts = np.asarray(points, dtype=np.float64)
        return np.floor(pts / self.side).astype(np.int64)

    def check_range(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Raise ``ValueError`` unless every coordinate in ``[lo, hi]``
        has a cell coordinate ``floor(x / side)`` within
        :data:`MAX_CELL_COORD` — beyond it the int64 cast in
        :meth:`cell_ids` would wrap and cluster silently wrong cells."""
        lo_min = float(np.min(lo))
        hi_max = float(np.max(hi))
        with np.errstate(over="ignore"):
            reach = max(abs(lo_min), abs(hi_max)) / self.side
        if not reach < MAX_CELL_COORD:
            raise ValueError(
                f"eps={self.eps:g} gives cell side {self.side:g}, and the "
                f"data range [{lo_min:g}, {hi_max:g}] needs cell "
                f"coordinates up to {reach:.3g}, beyond the int64 grid "
                f"bound 2**62; use a larger eps or rescale the data"
            )

    def sub_cell_coords(self, points: np.ndarray, cell_ids: np.ndarray) -> np.ndarray:
        """Local sub-cell coordinates of each point within its cell.

        Returns an ``(n, d)`` uint16 array with entries in
        ``[0, splits_per_dim)``.  Points sitting exactly on the upper cell
        border (possible through floating-point rounding) are clamped
        into the last sub-cell.
        """
        pts = np.asarray(points, dtype=np.float64)
        origins = np.asarray(cell_ids, dtype=np.float64) * self.side
        local = np.floor((pts - origins) / self.sub_side).astype(np.int64)
        np.clip(local, 0, self.splits_per_dim - 1, out=local)
        return local.astype(np.uint16)

    def sub_cell_centers(self, cell_id: CellId, local_coords: np.ndarray) -> np.ndarray:
        """Centers of the sub-cells ``local_coords`` inside ``cell_id``.

        ``local_coords`` is ``(k, d)`` (uint16); the result is ``(k, d)``
        float64.  These centers are the approximate point positions used
        by ``(eps, rho)``-region queries.
        """
        origin = np.asarray(cell_id, dtype=np.float64) * self.side
        coords = np.asarray(local_coords, dtype=np.float64)
        return origin + (coords + 0.5) * self.sub_side

    def cell_box(self, cell_id: CellId) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the cell's bounding box."""
        lo = np.asarray(cell_id, dtype=np.float64) * self.side
        return lo, lo + self.side

    # ------------------------------------------------------------------
    # Cell-to-cell geometry
    # ------------------------------------------------------------------

    def cell_box_min_distance(self, a: CellId, b: CellId) -> float:
        """Minimum distance between the boxes of cells ``a`` and ``b``.

        Two cells can contain mutually ``eps``-reachable points only when
        this distance is at most ``eps``.
        """
        delta = np.abs(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64))
        gap = np.maximum(delta - 1, 0).astype(np.float64) * self.side
        return float(np.sqrt(np.dot(gap, gap)))

    def max_reach_in_cells(self) -> int:
        """Max per-axis cell-index offset that can hold an ``eps``-neighbor."""
        return 1 + int(math.isqrt(self.dim))
