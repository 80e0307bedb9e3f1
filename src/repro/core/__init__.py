"""The RP-DBSCAN core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.rp_dbscan.RPDBSCAN` — the parallel clustering
  algorithm (Algorithm 1).
* :class:`~repro.core.cells.CellGeometry` — cell / sub-cell geometry.
* :class:`~repro.core.dictionary.FlatCellDictionary` — the columnar
  two-level cell dictionary broadcast to workers
  (:class:`~repro.core.dictionary.CellDictionary` is its reference
  implementation, kept for tests).
* :class:`~repro.core.region_query.RegionQueryEngine` — (eps, rho)-region
  queries, usable standalone for approximate density estimation.

The phase modules (:mod:`partitioning`, :mod:`construction`,
:mod:`merging`, :mod:`labeling`) are public too; the orchestrator is a
thin composition of them, so each phase can be driven and tested on its
own.
"""

from repro.core.cell_graph import CellGraph, EdgeType, FlatCellGraph
from repro.core.cells import CellGeometry, h_for_rho
from repro.core.cluster_state import ClusterState, IngestReport
from repro.core.construction import QueryContext, SubgraphResult, build_cell_subgraph
from repro.core.defragmentation import (
    FlatDefragmentedDictionary,
    FlatSubDictionary,
    defragment,
)
from repro.core.dictionary import (
    CellDictionary,
    CellSummary,
    DictionarySizeModel,
    FlatCellDictionary,
    summarize_cell,
)
from repro.core.labeling import (
    NOISE,
    LabelingContext,
    build_labeling_context,
    label_partition,
)
from repro.core.merging import (
    MergeStats,
    merge_match,
    merge_pair,
    progressive_merge,
)
from repro.core.partitioning import (
    Partition,
    pseudo_random_partition,
)
from repro.core.prediction import ClusterModel
from repro.core.region_query import CellBatchQueryResult, RegionQueryEngine
from repro.core.serialization import (
    deserialize_cluster_state,
    deserialize_dictionary,
    deserialize_flat_dictionary,
    load_cluster_state,
    save_cluster_state,
    serialize_cluster_state,
    serialize_dictionary,
)
from repro.core.rp_dbscan import (
    EXACT_RHO,
    PHASE_CELL_GRAPH,
    PHASE_DICTIONARY,
    PHASE_LABEL,
    PHASE_MERGE,
    PHASE_PARTITION,
    PHASES,
    RPDBSCAN,
    RPDBSCANResult,
)

__all__ = [
    "RPDBSCAN",
    "RPDBSCANResult",
    "EXACT_RHO",
    "CellGeometry",
    "h_for_rho",
    "CellDictionary",
    "CellSummary",
    "DictionarySizeModel",
    "FlatCellDictionary",
    "summarize_cell",
    "CellGraph",
    "EdgeType",
    "FlatCellGraph",
    "QueryContext",
    "SubgraphResult",
    "build_cell_subgraph",
    "FlatDefragmentedDictionary",
    "FlatSubDictionary",
    "defragment",
    "LabelingContext",
    "build_labeling_context",
    "label_partition",
    "NOISE",
    "MergeStats",
    "merge_match",
    "merge_pair",
    "progressive_merge",
    "Partition",
    "pseudo_random_partition",
    "CellBatchQueryResult",
    "RegionQueryEngine",
    "ClusterModel",
    "ClusterState",
    "IngestReport",
    "serialize_dictionary",
    "deserialize_dictionary",
    "deserialize_flat_dictionary",
    "serialize_cluster_state",
    "deserialize_cluster_state",
    "save_cluster_state",
    "load_cluster_state",
    "PHASES",
    "PHASE_PARTITION",
    "PHASE_DICTIONARY",
    "PHASE_CELL_GRAPH",
    "PHASE_MERGE",
    "PHASE_LABEL",
]
