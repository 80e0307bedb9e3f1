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

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cell_graph import (
    V_CORE,
    V_NONCORE,
    V_UNDETERMINED,
    EdgeType,
    FlatCellGraph,
)
from repro.core.cells import CellGeometry
from repro.core.defragmentation import FlatDefragmentedDictionary, defragment
from repro.core.dictionary import FlatCellDictionary
from repro.core.partitioning import Partition
from repro.core.region_query import PartitionQueryResult, RegionQueryEngine
from repro.core.sharding import PartialFlatDictionary

__all__ = [
    "QueryContext",
    "SubgraphResult",
    "assemble_subgraph",
    "build_cell_subgraph",
    "touched_edges",
]


@dataclass
class QueryContext:
    """Broadcast payload for Phase II: dictionary + query configuration.

    The :class:`RegionQueryEngine` is excluded from the pickled state
    (``__getstate__``), so each ``process``-mode worker constructs its
    own engine (kd-tree or offset table) from the one-time-shipped
    dictionary — mirroring Spark, where the broadcast is deserialized
    per executor.  The orchestrator triggers that build
    through the engine's *warm-up hook* during broadcast installation
    (worker initialization), so the construction cost lands in the
    ``engine.setup`` counter bucket rather than in the first Phase II
    task's timing; the lazy :attr:`engine` property remains as a
    fallback for direct/driver-side use.
    """

    dictionary: FlatCellDictionary | PartialFlatDictionary
    strategy: str = "auto"
    defragment_capacity: int | None = None
    kernel: str = "numpy"
    _engine: RegionQueryEngine | None = field(default=None, repr=False, compare=False)
    _defrag: FlatDefragmentedDictionary | None = field(
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
        return self._engine

    @property
    def defragmented(self) -> FlatDefragmentedDictionary | None:
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
        The partition's cell subgraph (Definition 5.8).  Vertices are the
        broadcast dictionary's dense cell rows.
    core_mask:
        Boolean per partition row: is the point core?  Aligned with
        ``partition.points``.
    counts:
        ``(n,)`` float64 neighbor density of every partition row (the
        sums ``core_mask`` thresholds).  The model plane keeps them, so
        an ingest can add the new points' share instead of recounting.
    num_queries:
        Number of (eps, rho)-region queries executed (one per point).
    stage_seconds:
        Wall seconds of the task's Phase II stages: the sweep's
        ``candidates``, ``classify`` and ``distance``
        (:attr:`~repro.core.region_query.PartitionQueryResult.seconds`)
        and ``assembly`` (core cells, edges and the subgraph).
    """

    pid: int
    graph: FlatCellGraph
    core_mask: np.ndarray
    counts: np.ndarray
    num_queries: int
    stage_seconds: dict[str, float] = field(default_factory=dict)


def build_cell_subgraph(
    partition: Partition,
    context: QueryContext,
    min_pts: int,
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

    Returns
    -------
    SubgraphResult
    """
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    dictionary = context.dictionary
    # Graph vertices are the dictionary's dense cell rows, which is how
    # the partition names its cells.
    rows, bounds = partition.rows, partition.offsets

    # One sweep answers every point of every cell (lines 8-10), then
    # marks core points and core cells (lines 11-12).
    result = context.engine.query_partition(
        dictionary.cell_ids[rows], partition.points, bounds, float(min_pts)
    )
    clock = time.perf_counter()
    core_mask = result.counts >= float(min_pts)
    core_rows = rows[np.add.reduceat(core_mask, bounds[:-1]) > 0] if rows.size else rows

    src, dst = touched_edges(rows, result)
    graph = assemble_subgraph(dictionary.num_cells, rows, core_rows, src, dst)
    return SubgraphResult(
        pid=partition.pid,
        graph=graph,
        core_mask=core_mask,
        counts=result.counts,
        num_queries=partition.num_points,
        stage_seconds={**result.seconds, "assembly": time.perf_counter() - clock},
    )


def touched_edges(
    rows: np.ndarray,
    result: PartitionQueryResult,
    dst_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Edges (lines 13-16) read off a sweep: ``(src, dst)`` dense rows.

    The cells reachable from a cell are the candidates holding a
    neighbor sub-cell of one of its core points — the sweep's touched
    slots at ``min_count = minPts``.  Group ``g`` of the sweep is cell
    ``rows[g]``; slots come grouped by cell, ascending within a cell.
    When the sweep ran against another dictionary than the one ``rows``
    index (the ingest's delta), ``dst_rows`` maps its candidate rows to
    ``rows``' dictionary.  Self-loops are dropped after that mapping.
    """
    touched = result.touched
    src = np.repeat(rows, np.diff(result.cand_offsets))[touched]
    dst = result.cand_rows[touched]
    if dst_rows is not None:
        dst = dst_rows[dst]
    loop = src == dst
    if loop.any():
        src, dst = src[~loop], dst[~loop]
    return src, dst


def assemble_subgraph(
    n_slots: int,
    owned_rows: np.ndarray,
    core_rows: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> FlatCellGraph:
    """Assemble the columnar subgraph from the sweep's results.

    Vertex classes land in one int8 status array and edge types come
    from a single gather of destination ownership/core-ness: an owned
    destination is determined (full when core, partial otherwise), any
    other destination is undetermined until Phase III-1.
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
