"""Spatial substrate: distances, integer grids, MBRs, and a kd-tree.

These are the geometric building blocks shared by the RP-DBSCAN core
(:mod:`repro.core`) and by every baseline algorithm.  Everything here is
implemented from scratch on top of numpy; nothing depends on the rest of
the package.
"""

from repro.spatial.distance import (
    euclidean,
    points_within,
    squared_distances,
)
from repro.spatial.grid import (
    GridSpec,
    cell_box_bounds,
    cell_ids_for_points,
    group_points_by_cell,
    neighbor_cell_offsets,
)
from repro.spatial.kdtree import KDTree
from repro.spatial.mbr import MBR

__all__ = [
    "euclidean",
    "points_within",
    "squared_distances",
    "GridSpec",
    "cell_box_bounds",
    "cell_ids_for_points",
    "group_points_by_cell",
    "neighbor_cell_offsets",
    "KDTree",
    "MBR",
]
