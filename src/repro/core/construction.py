"""Phase II: core marking and cell-subgraph building (Algorithm 3).

Each worker receives one pseudo random partition plus the broadcast
two-level cell dictionary and, without any communication:

1. runs an (eps, rho)-region query for every point of every cell it
   owns, summing neighbor sub-cell densities to mark **core points**
   (line 8-10) and thereby **core cells** (line 11-12);
2. for each core cell, adds a directed edge to every cell that contains
   at least one neighbor sub-cell of one of its core points
   (line 13-16).

Edge types are determined locally where possible: a target cell owned by
the same partition is known to be core or non-core (full/partial edge);
a target in another partition yields an *undetermined* edge resolved
during Phase III.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cell_graph import (
    V_CORE,
    V_NONCORE,
    V_UNDETERMINED,
    CellGraph,
    EdgeType,
    FlatCellGraph,
)
from repro.core.cells import CellGeometry
from repro.core.defragmentation import (
    DefragmentedDictionary,
    FlatDefragmentedDictionary,
    defragment,
)
from repro.core.dictionary import CellDictionary, FlatCellDictionary, index_rows
from repro.core.partitioning import Partition
from repro.core.region_query import RegionQueryEngine
from repro.core.sharding import PartialFlatDictionary

__all__ = ["QueryContext", "SubgraphResult", "build_cell_subgraph"]


@dataclass
class QueryContext:
    """Broadcast payload for Phase II: dictionary + query configuration.

    The :class:`RegionQueryEngine` is excluded from the pickled state
    (``__getstate__``), so each ``process``-mode worker constructs its
    own engine (kd-tree, offset table, center caches) from the
    one-time-shipped dictionary — mirroring Spark, where the broadcast
    is deserialized per executor.  The orchestrator triggers that build
    through the engine's *warm-up hook* during broadcast installation
    (worker initialization), so the construction cost lands in the
    ``engine.setup`` counter bucket rather than in the first Phase II
    task's timing; the lazy :attr:`engine` property remains as a
    fallback for direct/driver-side use.
    """

    dictionary: CellDictionary | FlatCellDictionary | PartialFlatDictionary
    strategy: str = "auto"
    defragment_capacity: int | None = None
    kernel: str = "numpy"
    _engine: RegionQueryEngine | None = field(default=None, repr=False, compare=False)
    _defrag: DefragmentedDictionary | FlatDefragmentedDictionary | None = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_engine"] = None
        state["_defrag"] = None
        return state

    @property
    def engine(self) -> RegionQueryEngine:
        """The (lazily built) region-query engine."""
        if self._engine is None:
            if isinstance(self.dictionary, PartialFlatDictionary):
                # Sharded broadcast: the dictionary *is* the defragmented
                # layout (one shard per sub-dictionary), so wrapping it
                # again would be redundant — residency accounting lives
                # on the partial dictionary itself.
                self._engine = RegionQueryEngine(
                    self.dictionary, strategy=self.strategy, kernel=self.kernel
                )
            elif self.defragment_capacity is not None:
                self._defrag = defragment(
                    self.dictionary, capacity=self.defragment_capacity
                )
                self._engine = RegionQueryEngine(
                    self._defrag, strategy=self.strategy, kernel=self.kernel
                )
            else:
                self._engine = RegionQueryEngine(
                    self.dictionary, strategy=self.strategy, kernel=self.kernel
                )
            # Broadcast-load warm-up: see CellDictionary.materialize_centers.
            self.dictionary.materialize_centers()
        return self._engine

    @property
    def defragmented(
        self,
    ) -> DefragmentedDictionary | FlatDefragmentedDictionary | None:
        """The defragmented dictionary, when enabled (for stats)."""
        self.engine  # ensure built
        return self._defrag

    @property
    def geometry(self) -> CellGeometry:
        """Shared cell geometry."""
        return self.dictionary.geometry


@dataclass
class SubgraphResult:
    """Output of Phase II for one partition.

    Attributes
    ----------
    pid:
        Partition id.
    graph:
        The partition's cell subgraph (Definition 5.8) in the requested
        layout (columnar :class:`FlatCellGraph` or dict
        :class:`CellGraph`).  Vertices are dense cell *indices* into the
        broadcast dictionary's
        :attr:`~repro.core.dictionary.CellDictionary.index_map`.
    core_mask:
        Boolean per partition row: is the point core?  Aligned with
        ``partition.points``.
    num_queries:
        Number of (eps, rho)-region queries executed (one per point).
    """

    pid: int
    graph: CellGraph | FlatCellGraph
    core_mask: np.ndarray
    num_queries: int


def build_cell_subgraph(
    partition: Partition,
    context: QueryContext,
    min_pts: int,
    *,
    graph_layout: str = "dict",
) -> SubgraphResult:
    """Run Algorithm 3 for one partition.

    Parameters
    ----------
    partition:
        The pseudo random partition to process.
    context:
        Broadcast :class:`QueryContext` with the global dictionary.
    min_pts:
        DBSCAN ``minPts``; a point is core when the density sum of its
        (eps, rho)-neighbor sub-cells reaches it (the count includes the
        point's own sub-cell, matching ``|N_eps(p)| >= minPts``).
    graph_layout:
        ``"flat"`` emits a columnar :class:`FlatCellGraph` directly (the
        merge plane's hot path — no dict graph is ever materialized);
        ``"dict"`` emits the reference :class:`CellGraph`.  Both layouts
        carry the identical vertex classes and edge multiset.

    Returns
    -------
    SubgraphResult
    """
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    if graph_layout not in ("flat", "dict"):
        raise ValueError(f"unknown graph_layout {graph_layout!r}")
    dictionary = context.dictionary
    cell_ids, bounds = partition.cell_table(context.geometry.dim)
    # Graph vertices are the dictionary's dense cell indices (every
    # referenced cell is a dictionary cell), which keeps Phase III's
    # set/dict work cheap; one lookup serves the whole partition.
    rows = index_rows(dictionary.index_map, cell_ids)

    # One sweep answers every point of every cell (lines 8-10), then
    # marks core points and core cells (lines 11-12).
    result = context.engine.query_partition(
        cell_ids, partition.points, bounds, float(min_pts)
    )
    core_mask = result.counts >= float(min_pts)
    core_rows = rows[np.add.reduceat(core_mask, bounds[:-1]) > 0] if rows.size else rows

    # Edges (lines 13-16): cells reachable from a cell = the candidates
    # holding a neighbor sub-cell of one of its core points (the
    # sweep's touched slots at min_count = minPts).  Slots come grouped
    # by cell in partition order, ascending within a cell.
    touched = result.touched
    slot_cell = np.repeat(rows, np.diff(result.cand_offsets))
    src = slot_cell[touched]
    dst = result.cand_rows[touched]
    loop = src == dst
    if loop.any():
        src, dst = src[~loop], dst[~loop]

    if graph_layout == "flat":
        graph: CellGraph | FlatCellGraph = _assemble_flat_subgraph(
            dictionary.num_cells, rows, core_rows, src, dst
        )
    else:
        graph = _assemble_dict_subgraph(rows, core_rows, src, dst)
    return SubgraphResult(
        pid=partition.pid,
        graph=graph,
        core_mask=core_mask,
        num_queries=partition.num_points,
    )


def _assemble_dict_subgraph(
    owned_rows: np.ndarray,
    core_rows: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> CellGraph:
    """The reference :class:`CellGraph` of one partition: owned cells
    in partition order, then the edges in sweep order."""
    graph = CellGraph()
    core = set(core_rows.tolist())
    owned = owned_rows.tolist()
    for idx in owned:
        if idx in core:
            graph.add_core_cell(idx)
        else:
            graph.add_noncore_cell(idx)
    owned_set = set(owned)
    for s, d in zip(src.tolist(), dst.tolist()):
        if d in owned_set:
            edge_type = EdgeType.FULL if d in core else EdgeType.PARTIAL
        else:
            graph.add_undetermined_cell(d)
            edge_type = EdgeType.UNDETERMINED
        graph.add_edge(s, d, edge_type)
    return graph


def _assemble_flat_subgraph(
    n_slots: int,
    owned_rows: np.ndarray,
    core_rows: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> FlatCellGraph:
    """Assemble the columnar subgraph from the sweep's results.

    Vertex classes land in one int8 status array and edge types come
    from a single gather of destination ownership/core-ness — the same
    classification rules as the dict layout, so both carry identical
    edges.
    """
    status = np.zeros(n_slots, dtype=np.int8)
    status[owned_rows] = V_NONCORE
    status[core_rows] = V_CORE
    owned_mask = np.zeros(n_slots, dtype=bool)
    owned_mask[owned_rows] = True
    dst_owned = owned_mask[dst]
    dst_core = status[dst] == V_CORE
    etype = np.where(
        dst_owned,
        np.where(dst_core, int(EdgeType.FULL), int(EdgeType.PARTIAL)),
        int(EdgeType.UNDETERMINED),
    ).astype(np.int8)
    status[dst[~dst_owned]] = V_UNDETERMINED
    return FlatCellGraph.from_arrays(
        status, src.astype(np.int32), dst.astype(np.int32), etype
    )
