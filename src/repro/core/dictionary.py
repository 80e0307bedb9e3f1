"""The two-level cell dictionary (paper Definition 4.2, Lemma 4.3).

The dictionary is the compact global summary broadcast to every worker.
Its root level has one entry per non-empty *cell* (exact position +
density); each root entry points to a leaf holding the cell's non-empty
*sub-cells* (local position encoded in ``d(h-1)`` bits + density).

:class:`FlatCellDictionary` is the data plane every phase runs on: a
columnar structure of lexicographically sorted ``(C, d)`` cell ids,
``(C,)`` densities, and a CSR layout (``offsets (C+1,)`` into ``(S, d)``
sub-coordinates, ``(S,)`` sub-densities, precomputed ``(S, d)``
sub-centers).  Lookups are binary searches, multi-cell gathers are
vectorized CSR slices, and the whole structure is six contiguous arrays
— which is what makes zero-copy shared-memory broadcast
(:mod:`repro.engine.shm`) and near-free serialization possible.

:class:`CellSummary` / :class:`CellDictionary` keep the same logical
structure as a python mapping from cell id tuples to per-cell
summaries.  No pipeline path builds or accepts it: it is the reference
implementation the columnar layout is tested against, reachable through
:meth:`FlatCellDictionary.from_cell_dictionary` and
:meth:`FlatCellDictionary.to_cell_dictionary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cells import CellGeometry, CellId
from repro.spatial.grid import group_points_by_cell

__all__ = [
    "CellSummary",
    "CellDictionary",
    "FlatCellDictionary",
    "DictionarySizeModel",
    "summarize_cell",
    "lex_keys",
    "csr_gather_indices",
    "segment_distinct_counts",
]


def lex_keys(ids: np.ndarray) -> np.ndarray:
    """A 1-D structured view of an ``(m, d)`` int64 array whose element
    comparison order is the rows' lexicographic order.

    ``np.searchsorted`` over such a view is a vectorized binary search
    for whole rows — the flat dictionary's lookup primitive.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError("ids must be (m, d)")
    return ids.view([("", ids.dtype)] * ids.shape[1]).reshape(ids.shape[0])


def csr_gather_indices(
    starts: np.ndarray, sizes: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Row indices selecting ``m`` variable-length runs from a CSR pool.

    Given run ``j`` starting at ``starts[j]`` with ``sizes[j]`` rows,
    returns the ``sizes.sum()`` indices enumerating every run in order —
    without a python-level loop.  Empty runs are allowed.  ``out`` (int64,
    exactly ``sizes.sum()`` long) receives them instead of a new array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    nonzero = sizes > 0
    if not nonzero.all():
        starts, sizes = starts[nonzero], sizes[nonzero]
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64) if out is None else out
    # Within a run the index advances by 1; at each run boundary it jumps
    # to the next run's start.  Encode the deltas, then prefix-sum.
    deltas = np.empty(total, dtype=np.int64) if out is None else out
    deltas.fill(1)
    deltas[0] = starts[0]
    boundaries = np.cumsum(sizes)[:-1]
    deltas[boundaries] = starts[1:] - (starts[:-1] + sizes[:-1] - 1)
    return np.cumsum(deltas, out=deltas)


def segment_distinct_counts(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Number of distinct non-negative ``values`` in each CSR segment.

    Segment ``g`` is ``values[offsets[g]:offsets[g + 1]]``; the result
    is ``(len(offsets) - 1,)`` int64.  One ``np.unique`` over
    ``(segment, value)`` keys instead of one per segment.
    """
    values = np.asarray(values, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_segments = offsets.shape[0] - 1
    if values.size == 0:
        return np.zeros(n_segments, dtype=np.int64)
    span = int(values.max()) + 1
    segment = np.repeat(np.arange(n_segments, dtype=np.int64), np.diff(offsets))
    distinct = np.unique(segment * span + values) // span
    return np.bincount(distinct, minlength=n_segments).astype(np.int64)


@dataclass
class CellSummary:
    """Summary of one cell: its total density and its non-empty sub-cells.

    Attributes
    ----------
    count:
        Number of points in the cell (the root-entry density).
    sub_coords:
        ``(k, d)`` uint16 array of local sub-cell coordinates.
    sub_counts:
        ``(k,)`` int64 array of per-sub-cell densities.
    """

    count: int
    sub_coords: np.ndarray
    sub_counts: np.ndarray

    def __post_init__(self) -> None:
        if self.sub_coords.ndim != 2 or self.sub_counts.ndim != 1:
            raise ValueError("sub_coords must be (k, d), sub_counts (k,)")
        if self.sub_coords.shape[0] != self.sub_counts.shape[0]:
            raise ValueError("sub_coords and sub_counts disagree on k")
        if int(self.sub_counts.sum()) != self.count:
            raise ValueError("sub-cell densities must sum to the cell density")

    @property
    def num_subcells(self) -> int:
        """Number of non-empty sub-cells in this cell."""
        return self.sub_coords.shape[0]


@dataclass(frozen=True)
class DictionarySizeModel:
    """Size of a dictionary per Lemma 4.3, in bits.

    ``size = 32(|cell| + |sub-cell|) + 32 d |cell| + d(h-1)|sub-cell|``
    (densities as 32-bit ints, cell positions as ``d`` 32-bit floats,
    sub-cell positions as ``d(h-1)``-bit local orderings).
    """

    num_cells: int
    num_subcells: int
    dim: int
    h: int

    @property
    def density_bits(self) -> int:
        """Bits spent on (sub-)cell densities."""
        return 32 * (self.num_cells + self.num_subcells)

    @property
    def position_bits(self) -> int:
        """Bits spent on (sub-)cell positions."""
        return 32 * self.dim * self.num_cells + self.dim * (self.h - 1) * self.num_subcells

    @property
    def total_bits(self) -> int:
        """Total dictionary size in bits."""
        return self.density_bits + self.position_bits

    @property
    def total_bytes(self) -> float:
        """Total dictionary size in bytes."""
        return self.total_bits / 8.0

    def ratio_to_data(self, num_points: int, *, bytes_per_point: float | None = None) -> float:
        """Dictionary size as a fraction of the raw data set size.

        The paper stores points as ``d`` 32-bit floats (Table 3 lists all
        data sets as ``float``), so the data set occupies
        ``32 * d * N`` bits unless ``bytes_per_point`` overrides it.
        """
        if num_points <= 0:
            raise ValueError("num_points must be positive")
        if bytes_per_point is None:
            data_bits = 32 * self.dim * num_points
        else:
            data_bits = 8.0 * bytes_per_point * num_points
        return self.total_bits / data_bits


class CellDictionary:
    """Reference two-level cell dictionary over a set of points.

    The oracle :class:`FlatCellDictionary` is tested against; no
    pipeline path builds or accepts it.

    Parameters
    ----------
    geometry:
        The cell/sub-cell geometry (fixes ``eps``, ``d``, ``rho``).
    cells:
        Mapping from cell id to :class:`CellSummary`.

    Notes
    -----
    Construction cost is ``O(n log n)`` (one grouping sort); lookups are
    hash lookups.  Sub-cell centers are materialized lazily per cell and
    cached.
    """

    def __init__(self, geometry: CellGeometry, cells: dict[CellId, CellSummary]) -> None:
        self.geometry = geometry
        self.cells = cells
        self._center_cache: dict[CellId, np.ndarray] = {}
        self._index: dict[CellId, int] | None = None
        self._cells_in_order: list[CellId] | None = None

    # ------------------------------------------------------------------
    # Construction (Algorithm 2, Phase I-2)
    # ------------------------------------------------------------------

    @classmethod
    def from_points(cls, points: np.ndarray, geometry: CellGeometry) -> "CellDictionary":
        """Build the dictionary for ``points`` in one pass.

        Equivalent to running ``Cell_Dictionary_Building`` over a single
        partition holding all cells.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        if pts.shape[1] != geometry.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]} but geometry has dim {geometry.dim}"
            )
        groups = group_points_by_cell(pts, geometry.side)
        cells: dict[CellId, CellSummary] = {}
        for cell_id, indices in groups.items():
            cells[cell_id] = summarize_cell(pts[indices], cell_id, geometry)
        return cls(geometry, cells)

    @classmethod
    def merge(cls, dictionaries: list["CellDictionary"]) -> "CellDictionary":
        """Union of per-partition dictionaries (Algorithm 2, lines 18-20).

        Pseudo random partitioning assigns each cell to exactly one
        partition, so the per-partition dictionaries are disjoint; a
        shared cell id is a programming error and raises.
        """
        if not dictionaries:
            raise ValueError("merge requires at least one dictionary")
        geometry = dictionaries[0].geometry
        merged: dict[CellId, CellSummary] = {}
        for dictionary in dictionaries:
            if dictionary.geometry != geometry:
                raise ValueError("cannot merge dictionaries with different geometry")
            overlap = merged.keys() & dictionary.cells.keys()
            if overlap:
                raise ValueError(f"partitions share cells: {sorted(overlap)[:3]}...")
            merged.update(dictionary.cells)
        return cls(geometry, merged)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell_id: CellId) -> bool:
        return cell_id in self.cells

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return len(self.cells)

    @property
    def num_subcells(self) -> int:
        """Number of non-empty sub-cells across all cells."""
        return sum(summary.num_subcells for summary in self.cells.values())

    @property
    def num_points(self) -> int:
        """Total density — must equal the data set size."""
        return sum(summary.count for summary in self.cells.values())

    def size_model(self) -> DictionarySizeModel:
        """Lemma 4.3 size accounting for this dictionary."""
        return DictionarySizeModel(
            num_cells=self.num_cells,
            num_subcells=self.num_subcells,
            dim=self.geometry.dim,
            h=self.geometry.h,
        )

    @property
    def index_map(self) -> dict[CellId, int]:
        """Dense index per cell (sorted order), built lazily — the same
        numbering as the rows of :class:`FlatCellDictionary`."""
        if self._index is None:
            self._cells_in_order = sorted(self.cells)
            self._index = {cid: i for i, cid in enumerate(self._cells_in_order)}
        return self._index

    def cell_at(self, index: int) -> CellId:
        """Inverse of :attr:`index_map`."""
        self.index_map  # ensure built
        assert self._cells_in_order is not None
        return self._cells_in_order[index]

    def cell_ids_array(self) -> np.ndarray:
        """All cell ids as an ``(m, d)`` int64 array (stable order)."""
        if not self.cells:
            return np.empty((0, self.geometry.dim), dtype=np.int64)
        return np.array(sorted(self.cells.keys()), dtype=np.int64)

    # ------------------------------------------------------------------
    # Query support
    # ------------------------------------------------------------------

    def sub_cell_centers(self, cell_id: CellId) -> np.ndarray:
        """Cached ``(k, d)`` array of the cell's sub-cell centers."""
        centers = self._center_cache.get(cell_id)
        if centers is None:
            summary = self.cells[cell_id]
            centers = self.geometry.sub_cell_centers(cell_id, summary.sub_coords)
            self._center_cache[cell_id] = centers
        return centers

    def add_points(self, points: np.ndarray) -> None:
        """Fold new points into the summary (incremental maintenance).

        The two-level cell dictionary is a pure additive sketch —
        densities per (sub-)cell — so appending data never requires the
        old points: new cells and sub-cells are created, existing
        densities increase.  After an update the dictionary equals the
        one built from scratch on the union (tested), which is what
        makes periodic re-clustering of a growing data set cheap: Phase
        I-2 becomes O(batch) instead of O(total).
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        if pts.shape[1] != self.geometry.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]} but geometry has dim "
                f"{self.geometry.dim}"
            )
        groups = group_points_by_cell(pts, self.geometry.side)
        for cell_id, indices in groups.items():
            fresh = summarize_cell(pts[indices], cell_id, self.geometry)
            current = self.cells.get(cell_id)
            if current is None:
                self.cells[cell_id] = fresh
            else:
                merged_coords = np.concatenate(
                    [current.sub_coords, fresh.sub_coords]
                )
                merged_counts = np.concatenate(
                    [current.sub_counts, fresh.sub_counts]
                )
                coords, inverse = np.unique(
                    merged_coords, axis=0, return_inverse=True
                )
                counts = np.zeros(coords.shape[0], dtype=np.int64)
                np.add.at(counts, inverse, merged_counts)
                self.cells[cell_id] = CellSummary(
                    count=current.count + fresh.count,
                    sub_coords=coords.astype(np.uint16),
                    sub_counts=counts,
                )
            self._center_cache.pop(cell_id, None)
        # New cells invalidate the dense index.
        self._index = None
        self._cells_in_order = None

    def densities(self, cell_id: CellId) -> np.ndarray:
        """Per-sub-cell densities of ``cell_id`` as float64 (for matmul)."""
        return self.cells[cell_id].sub_counts.astype(np.float64)


class FlatCellDictionary:
    """Columnar (structure-of-arrays) two-level cell dictionary.

    The same logical structure as :class:`CellDictionary`, stored as six
    contiguous arrays.  Cells are kept in lexicographic id order, so a
    cell's *row* equals its dense index in the reference's
    :attr:`CellDictionary.index_map`; rows are the vertex ids of every
    cell graph.

    Attributes
    ----------
    cell_ids:
        ``(C, d)`` int64, rows sorted lexicographically.
    cell_counts:
        ``(C,)`` int64 root-entry densities.
    offsets:
        ``(C + 1,)`` int64 CSR offsets: cell ``i`` owns sub-cell rows
        ``offsets[i]:offsets[i + 1]``.
    sub_coords:
        ``(S, d)`` uint16 local sub-cell coordinates, lexicographically
        sorted within each cell.
    sub_counts:
        ``(S,)`` int64 sub-cell densities.
    sub_centers:
        ``(S, d)`` float64 precomputed sub-cell centers — the approximate
        point positions consulted by every (eps, rho)-region query.

    Notes
    -----
    The structure is frozen after construction (arrays may be read-only
    shared-memory views); :meth:`add_points` returns a *new* dictionary
    for the union rather than mutating in place, bit-identical to
    :meth:`from_points` on the concatenated points — the model plane's
    incremental-ingest contract rests on that equivalence.
    """

    __slots__ = (
        "geometry",
        "cell_ids",
        "cell_counts",
        "offsets",
        "sub_coords",
        "sub_counts",
        "sub_centers",
        "_keys",
    )

    def __init__(
        self,
        geometry: CellGeometry,
        cell_ids: np.ndarray,
        cell_counts: np.ndarray,
        offsets: np.ndarray,
        sub_coords: np.ndarray,
        sub_counts: np.ndarray,
        sub_centers: np.ndarray | None = None,
        *,
        validate: bool = True,
    ) -> None:
        self.geometry = geometry
        self.cell_ids = np.ascontiguousarray(cell_ids, dtype=np.int64)
        self.cell_counts = np.ascontiguousarray(cell_counts, dtype=np.int64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.sub_coords = np.ascontiguousarray(sub_coords, dtype=np.uint16)
        self.sub_counts = np.ascontiguousarray(sub_counts, dtype=np.int64)
        if sub_centers is None:
            sub_centers = self._compute_centers()
        self.sub_centers = np.ascontiguousarray(sub_centers, dtype=np.float64)
        self._keys = lex_keys(self.cell_ids)
        if validate:
            self._validate()

    def _compute_centers(self) -> np.ndarray:
        reps = np.diff(self.offsets)
        origins = (
            np.repeat(self.cell_ids, reps, axis=0).astype(np.float64)
            * self.geometry.side
        )
        return origins + (
            self.sub_coords.astype(np.float64) + 0.5
        ) * self.geometry.sub_side

    def _validate(self) -> None:
        C = self.cell_ids.shape[0]
        if self.cell_ids.ndim != 2 or self.cell_ids.shape[1] != self.geometry.dim:
            raise ValueError("cell_ids must be (C, d) matching the geometry")
        if self.cell_counts.shape != (C,):
            raise ValueError("cell_counts must be (C,)")
        if self.offsets.shape != (C + 1,) or (C == 0 and self.offsets[0] != 0):
            raise ValueError("offsets must be (C + 1,) starting at 0")
        S = self.sub_coords.shape[0]
        if self.offsets[0] != 0 or self.offsets[-1] != S:
            raise ValueError("offsets must span the sub-cell arrays")
        if np.any(np.diff(self.offsets) < 1) and C:
            raise ValueError("every cell must own at least one sub-cell")
        if self.sub_counts.shape != (S,) or self.sub_centers.shape != (
            S,
            self.geometry.dim,
        ):
            raise ValueError("sub arrays disagree on S")
        if C > 1:
            a, b = self.cell_ids[:-1], self.cell_ids[1:]
            neq = a != b
            rows = np.arange(C - 1)
            first = neq.argmax(axis=1)
            if not (
                neq.any(axis=1).all() and np.all(a[rows, first] < b[rows, first])
            ):
                raise ValueError(
                    "cell_ids must be lexicographically sorted and unique"
                )

    # ------------------------------------------------------------------
    # Construction (Algorithm 2, Phase I-2 — over arrays)
    # ------------------------------------------------------------------

    @classmethod
    def from_points(
        cls, points: np.ndarray, geometry: CellGeometry
    ) -> "FlatCellDictionary":
        """Build the columnar dictionary for ``points`` in one pass.

        One ``np.unique`` over the combined ``(cell, sub-cell)`` rows:
        ``O(n log n)`` with no per-cell interpreter work.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        if pts.shape[1] != geometry.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]} but geometry has dim {geometry.dim}"
            )
        d = geometry.dim
        if pts.shape[0] == 0:
            return cls._empty(geometry)
        cids = geometry.cell_ids(pts)
        subs = geometry.sub_cell_coords(pts, cids).astype(np.int64)
        combined = np.concatenate([cids, subs], axis=1)
        uniq, counts = np.unique(combined, axis=0, return_counts=True)
        cell_part = uniq[:, :d]
        new_cell = np.empty(uniq.shape[0], dtype=bool)
        new_cell[0] = True
        np.any(cell_part[1:] != cell_part[:-1], axis=1, out=new_cell[1:])
        starts = np.nonzero(new_cell)[0]
        offsets = np.concatenate([starts, [uniq.shape[0]]]).astype(np.int64)
        return cls(
            geometry,
            cell_part[starts],
            np.add.reduceat(counts, starts).astype(np.int64),
            offsets,
            uniq[:, d:].astype(np.uint16),
            counts.astype(np.int64),
            validate=False,
        )

    def add_points(self, points: np.ndarray) -> "FlatCellDictionary":
        """A new dictionary summarizing this one's points plus ``points``.

        The union-with-sum counterpart of :meth:`merge` (which requires
        disjoint cells): existing ``(cell, sub-cell)`` rows have the new
        points' counts added, new rows are spliced into lexicographic
        position.  The result is **bit-identical** to
        :meth:`from_points` on the concatenated point set — the existing
        rows are expanded back into weighted ``(cell, sub-cell)``
        occurrence rows and pushed through the same ``np.unique`` tail,
        and :meth:`_compute_centers` is a per-row formula, so grouping
        history cannot leak into any array.  ``self`` is not mutated.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be (n, d)")
        if pts.shape[1] != self.geometry.dim:
            raise ValueError(
                f"points have dim {pts.shape[1]} but geometry has dim "
                f"{self.geometry.dim}"
            )
        if pts.shape[0] == 0:
            return self
        geometry = self.geometry
        d = geometry.dim
        cids = geometry.cell_ids(pts)
        subs = geometry.sub_cell_coords(pts, cids).astype(np.int64)
        fresh = np.concatenate([cids, subs], axis=1)
        reps = np.diff(self.offsets)
        existing = np.concatenate(
            [
                np.repeat(self.cell_ids, reps, axis=0),
                self.sub_coords.astype(np.int64),
            ],
            axis=1,
        )
        combined = np.concatenate([existing, fresh])
        weights = np.concatenate(
            [self.sub_counts, np.ones(fresh.shape[0], dtype=np.int64)]
        )
        uniq, inverse = np.unique(combined, axis=0, return_inverse=True)
        counts = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(counts, inverse.reshape(-1), weights)
        cell_part = uniq[:, :d]
        new_cell = np.empty(uniq.shape[0], dtype=bool)
        new_cell[0] = True
        np.any(cell_part[1:] != cell_part[:-1], axis=1, out=new_cell[1:])
        starts = np.nonzero(new_cell)[0]
        offsets = np.concatenate([starts, [uniq.shape[0]]]).astype(np.int64)
        return type(self)(
            geometry,
            cell_part[starts],
            np.add.reduceat(counts, starts).astype(np.int64),
            offsets,
            uniq[:, d:].astype(np.uint16),
            counts.astype(np.int64),
            validate=False,
        )

    @classmethod
    def _empty(cls, geometry: CellGeometry) -> "FlatCellDictionary":
        d = geometry.dim
        return cls(
            geometry,
            np.empty((0, d), dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty((0, d), dtype=np.uint16),
            np.empty(0, dtype=np.int64),
            np.empty((0, d), dtype=np.float64),
            validate=False,
        )

    @classmethod
    def from_cell_dictionary(cls, dictionary: CellDictionary) -> "FlatCellDictionary":
        """Flatten a dict-backed dictionary (same cells, same order)."""
        geometry = dictionary.geometry
        if not dictionary.cells:
            return cls._empty(geometry)
        items = sorted(dictionary.cells.items())
        sizes = np.array([s.num_subcells for _, s in items], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        return cls(
            geometry,
            np.array([cid for cid, _ in items], dtype=np.int64),
            np.array([s.count for _, s in items], dtype=np.int64),
            offsets,
            np.concatenate([s.sub_coords for _, s in items]),
            np.concatenate([s.sub_counts for _, s in items]),
            validate=False,
        )

    def to_cell_dictionary(self) -> CellDictionary:
        """Materialize the dict-backed layout (copies the leaf arrays)."""
        cells: dict[CellId, CellSummary] = {}
        for row in range(self.num_cells):
            start, stop = self.offsets[row], self.offsets[row + 1]
            cells[self.cell_at(row)] = CellSummary(
                count=int(self.cell_counts[row]),
                sub_coords=self.sub_coords[start:stop].copy(),
                sub_counts=self.sub_counts[start:stop].copy(),
            )
        return CellDictionary(self.geometry, cells)

    @classmethod
    def merge(cls, dictionaries: list["FlatCellDictionary"]) -> "FlatCellDictionary":
        """Union of disjoint per-partition dictionaries, over arrays.

        Algorithm 2 lines 18-20: concatenate the partials, lexsort the
        cell rows, and gather each cell's sub-cell block into its sorted
        slot — no per-cell python objects.  A shared cell id is a
        programming error (pseudo random partitioning assigns each cell
        to exactly one partition) and raises.
        """
        if not dictionaries:
            raise ValueError("merge requires at least one dictionary")
        geometry = dictionaries[0].geometry
        for dictionary in dictionaries:
            if dictionary.geometry != geometry:
                raise ValueError("cannot merge dictionaries with different geometry")
        if len(dictionaries) == 1:
            return dictionaries[0]
        ids = np.concatenate([d.cell_ids for d in dictionaries])
        if ids.shape[0] == 0:
            return cls._empty(geometry)
        counts = np.concatenate([d.cell_counts for d in dictionaries])
        sizes = np.concatenate([np.diff(d.offsets) for d in dictionaries])
        # Sub-block starts within the concatenated sub arrays.
        base = 0
        starts_parts = []
        for d in dictionaries:
            starts_parts.append(d.offsets[:-1] + base)
            base += d.offsets[-1]
        starts = np.concatenate(starts_parts)
        order = np.lexsort(ids.T[::-1])
        sorted_keys = lex_keys(ids[order])
        if sorted_keys.shape[0] > 1 and np.any(
            sorted_keys[:-1] == sorted_keys[1:]
        ):
            dupe = ids[order][
                np.nonzero(sorted_keys[:-1] == sorted_keys[1:])[0][0]
            ]
            raise ValueError(
                f"partitions share cells: {tuple(int(v) for v in dupe)}..."
            )
        gather = csr_gather_indices(starts[order], sizes[order])
        sub_coords = np.concatenate([d.sub_coords for d in dictionaries])[gather]
        sub_counts = np.concatenate([d.sub_counts for d in dictionaries])[gather]
        sub_centers = np.concatenate([d.sub_centers for d in dictionaries])[gather]
        offsets = np.concatenate([[0], np.cumsum(sizes[order])]).astype(np.int64)
        return cls(
            geometry,
            ids[order],
            counts[order],
            offsets,
            sub_coords,
            sub_counts,
            sub_centers,
            validate=False,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.cell_ids.shape[0]

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return self.cell_ids.shape[0]

    @property
    def num_subcells(self) -> int:
        """Number of non-empty sub-cells across all cells."""
        return self.sub_coords.shape[0]

    @property
    def num_points(self) -> int:
        """Total density — must equal the data set size."""
        return int(self.cell_counts.sum())

    def size_model(self) -> DictionarySizeModel:
        """Lemma 4.3 size accounting for this dictionary."""
        return DictionarySizeModel(
            num_cells=self.num_cells,
            num_subcells=self.num_subcells,
            dim=self.geometry.dim,
            h=self.geometry.h,
        )

    def cell_at(self, row: int) -> CellId:
        """Cell id of dense ``row`` (inverse of :meth:`row_of`)."""
        return tuple(int(v) for v in self.cell_ids[row])

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def find_rows(self, query_ids: np.ndarray) -> np.ndarray:
        """Vectorized binary search: dense row per query id, ``-1`` when
        the cell is not in the dictionary.  ``query_ids`` is ``(m, d)``."""
        query = np.ascontiguousarray(query_ids, dtype=np.int64)
        if query.ndim != 2:
            raise ValueError("query_ids must be (m, d)")
        if query.shape[0] == 0 or self.num_cells == 0:
            return np.full(query.shape[0], -1, dtype=np.int64)
        pos = np.searchsorted(self._keys, lex_keys(query))
        pos_clipped = np.minimum(pos, self.num_cells - 1)
        hit = np.all(self.cell_ids[pos_clipped] == query, axis=1) & (
            pos < self.num_cells
        )
        return np.where(hit, pos_clipped, -1)

    def row_of(self, cell_id: CellId) -> int:
        """Dense row of ``cell_id``; raises ``KeyError`` when absent."""
        row = int(self.find_rows(np.asarray(cell_id, dtype=np.int64)[None, :])[0])
        if row < 0:
            raise KeyError(cell_id)
        return row

    # ------------------------------------------------------------------
    # Query support
    # ------------------------------------------------------------------

    def sub_cell_centers(self, cell_id: CellId) -> np.ndarray:
        """``(k, d)`` view of the cell's precomputed sub-cell centers."""
        row = self.row_of(cell_id)
        return self.sub_centers[self.offsets[row] : self.offsets[row + 1]]

    def densities(self, cell_id: CellId) -> np.ndarray:
        """Per-sub-cell densities of ``cell_id`` as float64 (for matmul)."""
        row = self.row_of(cell_id)
        return self.sub_counts[self.offsets[row] : self.offsets[row + 1]].astype(
            np.float64
        )

    def gather_subcells(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated sub-cell blocks of the given dense rows.

        Returns ``(centers, densities, sizes)``: the ``(M, d)`` centers
        and ``(M,)`` float64 densities of every sub-cell of every
        requested cell, in row order, plus the ``(m,)`` per-cell block
        sizes — one vectorized CSR gather instead of a python loop of
        per-cell array concatenations.
        """
        rows = np.asarray(rows, dtype=np.int64)
        sizes = self.offsets[rows + 1] - self.offsets[rows]
        gather = csr_gather_indices(self.offsets[rows], sizes)
        return (
            self.sub_centers[gather],
            self.sub_counts[gather].astype(np.float64),
            sizes,
        )


def summarize_cell(
    cell_points: np.ndarray, cell_id: CellId, geometry: CellGeometry
) -> CellSummary:
    """Build a :class:`CellSummary` from the points of one cell."""
    ids = np.tile(np.asarray(cell_id, dtype=np.int64), (cell_points.shape[0], 1))
    local = geometry.sub_cell_coords(cell_points, ids)
    coords, counts = np.unique(local, axis=0, return_counts=True)
    return CellSummary(
        count=cell_points.shape[0],
        sub_coords=coords.astype(np.uint16),
        sub_counts=counts.astype(np.int64),
    )
