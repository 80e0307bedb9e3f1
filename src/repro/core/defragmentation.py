"""Dictionary defragmentation via binary space partitioning (Sec 4.2.2).

A worker may not be able to hold the whole two-level cell dictionary in
memory at once, so the dictionary is kept as a set of disjoint
*sub-dictionaries* (Definition 4.4).  Defragmentation reallocates cells
so that contiguous cells land in the same sub-dictionary and
sub-dictionaries are of similar size, using binary space partitioning
(BSP): recursively pick the axis-aligned cut that best balances the two
halves' entry counts until each piece fits a capacity budget.

Each sub-dictionary carries the MBR of its sub-cell centers
(Definition 5.9) so region queries can skip irrelevant sub-dictionaries
(Lemma 5.10).  Skipping never changes query results; it only reduces the
number of sub-dictionaries that must be resident, which
:class:`FlatDefragmentedDictionary` tracks for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.core.dictionary import FlatCellDictionary, segment_distinct_counts
from repro.spatial.mbr import MBR

__all__ = [
    "FlatSubDictionary",
    "FlatDefragmentedDictionary",
    "defragment",
]


@dataclass
class FlatSubDictionary:
    """A disjoint piece of a :class:`FlatCellDictionary`.

    Instead of copying cell summaries, the piece is the set of dense
    *rows* it owns — a view into the shared columnar arrays.

    Attributes
    ----------
    rows:
        Ascending dense row indices into the owning flat dictionary.
    mbr:
        Minimum bounding rectangle of the piece's sub-cell centers.
    num_entries:
        Root entries plus leaf entries — the BSP balance weight.
    """

    rows: np.ndarray
    mbr: MBR
    num_entries: int


def _best_cut(
    cell_ids: np.ndarray, weights: np.ndarray
) -> tuple[int, int] | None:
    """Best balancing cut over all axes and positions.

    Returns ``(axis, index)`` meaning: sort cells by coordinate on
    ``axis``; the first ``index`` sorted cells go left.  ``None`` when no
    axis admits a cut (all cells share every coordinate).
    """
    total = float(weights.sum())
    best: tuple[float, int, int] | None = None
    for axis in range(cell_ids.shape[1]):
        order = np.argsort(cell_ids[:, axis], kind="stable")
        coords = cell_ids[order, axis]
        prefix = np.cumsum(weights[order].astype(np.float64))
        # Valid cut positions: between two distinct coordinate values, so
        # that the cut is a geometric hyperplane (contiguity).
        cut_positions = np.nonzero(coords[1:] != coords[:-1])[0] + 1
        if cut_positions.size == 0:
            continue
        left = prefix[cut_positions - 1]
        imbalance = np.abs(total - 2.0 * left)
        best_local = int(np.argmin(imbalance))
        candidate = (float(imbalance[best_local]), axis, int(cut_positions[best_local]))
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None:
        return None
    return best[1], best[2]


def defragment(
    dictionary: FlatCellDictionary, *, capacity: int = 4096
) -> "FlatDefragmentedDictionary":
    """Split ``dictionary`` into balanced, contiguous sub-dictionaries.

    Parameters
    ----------
    dictionary:
        The full two-level cell dictionary; the pieces are index-range
        views into its columnar arrays, not cell copies.
    capacity:
        Maximum number of entries (cells + sub-cells) per sub-dictionary,
        modeling the worker's available memory.

    Returns
    -------
    FlatDefragmentedDictionary
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    ids = dictionary.cell_ids
    weights = 1 + np.diff(dictionary.offsets)
    pieces: list[np.ndarray] = []

    def recurse(rows: np.ndarray) -> None:
        weight = int(weights[rows].sum())
        if weight <= capacity or rows.size <= 1:
            pieces.append(rows)
            return
        cut = _best_cut(ids[rows], weights[rows])
        if cut is None:
            pieces.append(rows)
            return
        axis, index = cut
        order = np.argsort(ids[rows, axis], kind="stable")
        recurse(np.sort(rows[order[:index]]))
        recurse(np.sort(rows[order[index:]]))

    if dictionary.num_cells:
        recurse(np.arange(dictionary.num_cells, dtype=np.int64))
    sub_dicts = []
    for rows in pieces:
        if rows.size == 0:
            continue
        centers, _, _ = dictionary.gather_subcells(rows)
        sub_dicts.append(
            FlatSubDictionary(
                rows=rows,
                mbr=MBR(centers.min(axis=0), centers.max(axis=0)),
                num_entries=int(weights[rows].sum()),
            )
        )
    return FlatDefragmentedDictionary(dictionary, sub_dicts)


class FlatDefragmentedDictionary:
    """A columnar cell dictionary organized as disjoint row-range views.

    Ownership is a dense ``(C,)`` array of piece indices; the pieces a
    query consults are computed from its candidate *rows* with one
    ``np.unique``, and :meth:`relevant_sub_dicts` is the Lemma 5.10
    skip test.
    """

    def __init__(
        self, dictionary: FlatCellDictionary, sub_dicts: list[FlatSubDictionary]
    ) -> None:
        covered = sum(s.rows.size for s in sub_dicts)
        if covered != dictionary.num_cells:
            raise ValueError("sub-dictionaries do not exactly cover the dictionary")
        self.dictionary = dictionary
        self.sub_dicts = sub_dicts
        owner = np.full(dictionary.num_cells, -1, dtype=np.int64)
        for index, sub in enumerate(sub_dicts):
            if np.any(owner[sub.rows] >= 0):
                raise ValueError("a cell row appears in two sub-dictionaries")
            owner[sub.rows] = index
        self._owner = owner
        # Query-time statistics (ablation: value of skipping).
        self.queries = 0
        self.subdicts_consulted = 0

    @property
    def geometry(self) -> CellGeometry:
        """Shared cell geometry."""
        return self.dictionary.geometry

    @property
    def num_sub_dicts(self) -> int:
        """Number of sub-dictionaries after defragmentation."""
        return len(self.sub_dicts)

    def owner_of(self, cell_id: CellId) -> int:
        """Index of the sub-dictionary holding ``cell_id``."""
        return int(self._owner[self.dictionary.row_of(cell_id)])

    def relevant_sub_dicts(self, point: np.ndarray, eps: float) -> list[int]:
        """Sub-dictionaries that survive the Lemma 5.10 skip test for a
        query at ``point`` with radius ``eps``.  Updates counters."""
        kept = [
            i for i, sub in enumerate(self.sub_dicts) if not sub.mbr.can_skip(point, eps)
        ]
        self.queries += 1
        self.subdicts_consulted += len(kept)
        return kept

    def record_rows_consulted_batch(
        self, rows: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Track which sub-dictionaries many candidate-row sets touch:
        query ``g``'s candidate rows are ``rows[offsets[g]:offsets[g +
        1]]``.  Returns each query's distinct sub-dictionary count."""
        touched = segment_distinct_counts(
            self._owner[np.asarray(rows, dtype=np.int64)], offsets
        )
        self.queries += touched.size
        self.subdicts_consulted += int(touched.sum())
        return touched

    def record_cells_consulted(self, cell_ids: list[CellId]) -> int:
        """One query's :meth:`record_rows_consulted_batch` for a list of
        cell ids; ids the dictionary does not hold are ignored."""
        ids = np.asarray(cell_ids, dtype=np.int64).reshape(-1, self.geometry.dim)
        rows = self.dictionary.find_rows(ids)
        rows = rows[rows >= 0]
        bounds = np.array([0, rows.size], dtype=np.int64)
        return int(self.record_rows_consulted_batch(rows, bounds)[0])

    def average_consulted(self) -> float:
        """Mean sub-dictionaries consulted per query (1.0 is ideal)."""
        if self.queries == 0:
            return 0.0
        return self.subdicts_consulted / self.queries
