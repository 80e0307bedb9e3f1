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
:class:`DefragmentedDictionary` tracks for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.core.dictionary import (
    CellDictionary,
    CellSummary,
    FlatCellDictionary,
    segment_distinct_counts,
)
from repro.spatial.mbr import MBR

__all__ = [
    "SubDictionary",
    "DefragmentedDictionary",
    "FlatSubDictionary",
    "FlatDefragmentedDictionary",
    "defragment",
]


@dataclass
class SubDictionary:
    """A disjoint piece of the two-level cell dictionary.

    Attributes
    ----------
    cells:
        The cell summaries owned by this piece.
    mbr:
        Minimum bounding rectangle of the piece's sub-cell centers.
    """

    cells: dict[CellId, CellSummary]
    mbr: MBR

    @property
    def num_entries(self) -> int:
        """Root entries plus leaf entries — the BSP balance weight."""
        return len(self.cells) + sum(s.num_subcells for s in self.cells.values())


def _subcell_center_mbr(
    cells: dict[CellId, CellSummary], geometry: CellGeometry
) -> MBR:
    """MBR over all sub-cell centers of ``cells`` (Definition 5.9)."""
    lo = np.full(geometry.dim, np.inf)
    hi = np.full(geometry.dim, -np.inf)
    for cell_id, summary in cells.items():
        origin = np.asarray(cell_id, dtype=np.float64) * geometry.side
        coords = summary.sub_coords.astype(np.float64)
        centers_lo = origin + (coords.min(axis=0) + 0.5) * geometry.sub_side
        centers_hi = origin + (coords.max(axis=0) + 0.5) * geometry.sub_side
        np.minimum(lo, centers_lo, out=lo)
        np.maximum(hi, centers_hi, out=hi)
    return MBR(lo, hi)


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
    dictionary: CellDictionary | FlatCellDictionary, *, capacity: int = 4096
) -> "DefragmentedDictionary | FlatDefragmentedDictionary":
    """Split ``dictionary`` into balanced, contiguous sub-dictionaries.

    Parameters
    ----------
    dictionary:
        The full two-level cell dictionary (either layout; the columnar
        layout yields index-range views instead of cell copies).
    capacity:
        Maximum number of entries (cells + sub-cells) per sub-dictionary,
        modeling the worker's available memory.

    Returns
    -------
    DefragmentedDictionary | FlatDefragmentedDictionary
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    if isinstance(dictionary, FlatCellDictionary):
        return _defragment_flat(dictionary, capacity)
    geometry = dictionary.geometry
    items = sorted(dictionary.cells.items())
    pieces: list[dict[CellId, CellSummary]] = []

    def recurse(chunk: list[tuple[CellId, CellSummary]]) -> None:
        weight = len(chunk) + sum(s.num_subcells for _, s in chunk)
        if weight <= capacity or len(chunk) <= 1:
            pieces.append(dict(chunk))
            return
        ids = np.array([cid for cid, _ in chunk], dtype=np.int64)
        weights = np.array(
            [1 + summary.num_subcells for _, summary in chunk], dtype=np.int64
        )
        cut = _best_cut(ids, weights)
        if cut is None:
            pieces.append(dict(chunk))
            return
        axis, index = cut
        order = np.argsort(ids[:, axis], kind="stable")
        left = [chunk[i] for i in order[:index]]
        right = [chunk[i] for i in order[index:]]
        recurse(left)
        recurse(right)

    if items:
        recurse(items)
    sub_dicts = [
        SubDictionary(cells=piece, mbr=_subcell_center_mbr(piece, geometry))
        for piece in pieces
        if piece
    ]
    return DefragmentedDictionary(dictionary, sub_dicts)


class DefragmentedDictionary:
    """A two-level cell dictionary organized as disjoint sub-dictionaries.

    Exposes the same query-support surface as :class:`CellDictionary`
    (delegation) plus sub-dictionary iteration with MBR-based skipping
    and counters of how many sub-dictionaries each query touched.
    """

    def __init__(self, dictionary: CellDictionary, sub_dicts: list[SubDictionary]) -> None:
        covered = sum(len(s.cells) for s in sub_dicts)
        if covered != len(dictionary.cells):
            raise ValueError("sub-dictionaries do not exactly cover the dictionary")
        self.dictionary = dictionary
        self.sub_dicts = sub_dicts
        self._owner: dict[CellId, int] = {}
        for index, sub in enumerate(sub_dicts):
            for cell_id in sub.cells:
                if cell_id in self._owner:
                    raise ValueError(f"cell {cell_id} in two sub-dictionaries")
                self._owner[cell_id] = index
        self._owner_rows: np.ndarray | None = None
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
        return self._owner[cell_id]

    def relevant_sub_dicts(self, point: np.ndarray, eps: float) -> list[int]:
        """Sub-dictionaries that survive the Lemma 5.10 skip test for a
        query at ``point`` with radius ``eps``.  Updates counters."""
        kept = [
            i for i, sub in enumerate(self.sub_dicts) if not sub.mbr.can_skip(point, eps)
        ]
        self.queries += 1
        self.subdicts_consulted += len(kept)
        return kept

    def record_cells_consulted(self, cell_ids: list[CellId]) -> int:
        """Track which sub-dictionaries a candidate-cell set touches.

        Used by batched per-cell queries: returns the number of distinct
        sub-dictionaries those candidate cells live in (the pieces that
        would have to be resident) and updates counters.
        """
        touched = {self._owner[cid] for cid in cell_ids if cid in self._owner}
        self.queries += 1
        self.subdicts_consulted += len(touched)
        return len(touched)

    def record_rows_consulted_batch(
        self, rows: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """:meth:`record_cells_consulted` for many queries at once.

        ``rows`` are dense dictionary rows (sorted cell order), query
        ``g`` owning ``rows[offsets[g]:offsets[g + 1]]``; counts one
        query per segment and returns each one's distinct pieces.
        """
        if self._owner_rows is None:
            self._owner_rows = np.array(
                [self._owner[cid] for cid in sorted(self._owner)], dtype=np.int64
            )
        touched = segment_distinct_counts(
            self._owner_rows[np.asarray(rows, dtype=np.int64)], offsets
        )
        self.queries += touched.size
        self.subdicts_consulted += int(touched.sum())
        return touched

    def average_consulted(self) -> float:
        """Mean sub-dictionaries consulted per query (1.0 is ideal)."""
        if self.queries == 0:
            return 0.0
        return self.subdicts_consulted / self.queries


# ----------------------------------------------------------------------
# Columnar (flat) layout: sub-dictionaries as index views
# ----------------------------------------------------------------------


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


def _defragment_flat(
    flat: FlatCellDictionary, capacity: int
) -> "FlatDefragmentedDictionary":
    """BSP defragmentation over the columnar layout (no cell copies)."""
    ids = flat.cell_ids
    weights = 1 + np.diff(flat.offsets)
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

    if flat.num_cells:
        recurse(np.arange(flat.num_cells, dtype=np.int64))
    sub_dicts = []
    for rows in pieces:
        if rows.size == 0:
            continue
        centers, _, _ = flat.gather_subcells(rows)
        sub_dicts.append(
            FlatSubDictionary(
                rows=rows,
                mbr=MBR(centers.min(axis=0), centers.max(axis=0)),
                num_entries=int(weights[rows].sum()),
            )
        )
    return FlatDefragmentedDictionary(flat, sub_dicts)


class FlatDefragmentedDictionary:
    """A columnar cell dictionary organized as disjoint row-range views.

    The flat twin of :class:`DefragmentedDictionary`: same counters and
    skip test, but ownership is a dense ``(C,)`` array and consulted
    pieces are computed from candidate *rows* with one ``np.unique``.
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

    def record_rows_consulted(self, rows: np.ndarray) -> int:
        """Track which sub-dictionaries a candidate-row set touches."""
        rows = np.asarray(rows, dtype=np.int64)
        bounds = np.array([0, rows.size], dtype=np.int64)
        return int(self.record_rows_consulted_batch(rows, bounds)[0])

    def record_rows_consulted_batch(
        self, rows: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """:meth:`record_rows_consulted` for many queries at once: query
        ``g``'s candidate rows are ``rows[offsets[g]:offsets[g + 1]]``.
        Returns each query's distinct sub-dictionary count."""
        touched = segment_distinct_counts(
            self._owner[np.asarray(rows, dtype=np.int64)], offsets
        )
        self.queries += touched.size
        self.subdicts_consulted += int(touched.sum())
        return touched

    def record_cells_consulted(self, cell_ids: list[CellId]) -> int:
        """Tuple-keyed twin of :meth:`record_rows_consulted` (API parity
        with :class:`DefragmentedDictionary`)."""
        if not cell_ids:
            self.queries += 1
            return 0
        rows = self.dictionary.find_rows(np.asarray(cell_ids, dtype=np.int64))
        return self.record_rows_consulted(rows[rows >= 0])

    def average_consulted(self) -> float:
        """Mean sub-dictionaries consulted per query (1.0 is ideal)."""
        if self.queries == 0:
            return 0.0
        return self.subdicts_consulted / self.queries
