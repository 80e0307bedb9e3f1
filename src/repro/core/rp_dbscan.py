"""The RP-DBSCAN orchestrator (Algorithm 1).

Ties the three phases together on top of the execution engine:

* **Phase I** — pseudo random partitioning (I-1), per-partition
  dictionary building and merging (I-2), and "broadcast" of the merged
  dictionary (handing it to the engine as the broadcast value).
* **Phase II** — per-partition core marking and cell-subgraph building,
  run as one engine task per partition.
* **Phase III** — progressive graph merging (III-1) on the driver and
  per-partition point labeling (III-2) as engine tasks.

All phase wall-times and per-task statistics land in the engine's
:class:`~repro.engine.counters.Counters`, which is what the efficiency
figures (12, 13, 14, 21) read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cell_graph import FlatCellGraph
from repro.core.cells import CellGeometry
from repro.core.cluster_state import ClusterState
from repro.core.construction import QueryContext, SubgraphResult, build_cell_subgraph
from repro.core.defragmentation import defragment
from repro.core.dictionary import DictionarySizeModel, FlatCellDictionary
from repro.core.labeling import (
    LabelingContext,
    build_labeling_context,
    label_partition,
)
from repro.core.merging import (
    MERGE_MODES,
    PHASE_MERGE,
    MergeStats,
    progressive_merge,
)
from repro.core.partitioning import Partition, pseudo_random_partition
from repro.core.sharding import PartialFlatDictionary, ShardedFlatDictionary
from repro.data.streaming import PointSource, as_point_source
from repro.engine.counters import Counters
from repro.engine.executors import Engine
from repro.engine.faults import FaultPolicy
from repro.kernels import resolve_kernel

__all__ = [
    "RPDBSCAN",
    "RPDBSCANResult",
    "EXACT_RHO",
    "PHASE_PARTITION",
    "PHASE_DICTIONARY",
    "PHASE_CELL_GRAPH",
    "PHASE_MERGE",
    "PHASE_LABEL",
    "PHASES",
]

#: ``rho=0`` requests the exact limit of the approximation.  A literal
#: zero is not representable (the dictionary height ``h = 1 +
#: ceil(log2(1/rho))`` diverges), so it aliases to the finest refinement
#: whose sub-cell coordinates still fit the dictionary's uint16 layout:
#: ``2**-16`` gives ``h = 17`` and a center-approximation error of at
#: most ``eps * 2**-17`` per point — exact DBSCAN on any data whose
#: pairwise distances do not sit within that sliver of ``eps``.
EXACT_RHO = 2.0**-16

PHASE_PARTITION = "I-1 partitioning"
PHASE_DICTIONARY = "I-2 dictionary"
PHASE_CELL_GRAPH = "II cell graph"
# PHASE_MERGE is defined in repro.core.merging (the module that owns the
# bucket) and re-exported here alongside its siblings.
PHASE_LABEL = "III-2 labeling"

#: The five phases in execution order (Figure 12's legend).
PHASES = (
    PHASE_PARTITION,
    PHASE_DICTIONARY,
    PHASE_CELL_GRAPH,
    PHASE_MERGE,
    PHASE_LABEL,
)


def _dictionary_worker(
    partition: Partition, geometry: CellGeometry
) -> FlatCellDictionary:
    """Algorithm 2, ``Cell_Dictionary_Building.Map`` for one partition:
    one vectorized pass over the partition's points."""
    try:
        return FlatCellDictionary.from_points(partition.points, geometry)
    finally:
        partition.release()


def _phase2_worker(task, broadcast) -> SubgraphResult:
    """One Phase II task: ``(partition, shard_hint)``.

    ``shard_hint`` is the driver's Lemma 5.10 reachable-shard set for the
    partition (``None`` when the broadcast is not sharded).  Restricting
    the partial dictionary before querying makes any missed shard a hard
    error instead of a silent budget violation — the skip test is proved
    correct on every task, not just in tests.
    """
    partition, shard_hint = task
    context, min_pts = broadcast
    dictionary = context.dictionary
    restricted = shard_hint is not None and isinstance(
        dictionary, PartialFlatDictionary
    )
    if restricted:
        dictionary.restrict(shard_hint)
    try:
        return build_cell_subgraph(partition, context, min_pts)
    finally:
        if restricted:
            dictionary.restrict(None)
        # Out-of-core partitions drop their materialized block as soon
        # as the task is done — per-task residency, not per-run.
        partition.release()


def _phase2_warmup(broadcast) -> None:
    """Engine warm-up hook: build the region-query engine per worker.

    Runs during broadcast installation (worker initialization in process
    mode, driver-side in serial mode), so candidate-index construction
    never lands in the first Phase II task's timing — that is what keeps Fig 13's slowest/fastest ratio a load
    measurement instead of a warm-up artifact.  With ``kernel="numba"``
    the same hook JIT-compiles the Phase II kernels, so compile cost also
    lands in the ``engine.setup`` bucket — and a respawned worker pool
    automatically re-warms, because the engine re-ships the broadcast
    (with this hook) to every fresh pool.
    """
    context = broadcast[0]
    context.engine.warmup_kernel()


def _phase3_worker(partition: Partition, context: LabelingContext):
    return label_partition(partition, context)


@dataclass
class RPDBSCANResult:
    """Everything a run of RP-DBSCAN produced.

    Attributes
    ----------
    labels:
        ``(n,)`` int64 cluster labels; ``-1`` marks noise.
    core_mask:
        ``(n,)`` bool: whether each point was marked core.
    n_clusters:
        Number of clusters found.
    counters:
        Phase wall-times and per-task stats.
    merge_stats:
        Per-round edge counts of the tournament (Fig 17 / Table 7).
    dictionary_model:
        Lemma 4.3 size accounting of the broadcast dictionary (Table 5).
    partition_sizes:
        Points per pseudo random partition.
    num_points:
        Size of the input data set.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    n_clusters: int
    counters: Counters
    merge_stats: MergeStats
    dictionary_model: DictionarySizeModel
    partition_sizes: list[int] = field(default_factory=list)
    num_points: int = 0
    #: The resolved Phase II kernel backend this run executed with
    #: (``"numpy"``, ``"numba"``, or the testing-only ``"python"`` —
    #: never ``"auto"``, which resolves before the run starts).
    kernel: str = "numpy"
    global_graph: FlatCellGraph | None = None
    subdict_stats: tuple[int, float] | None = None
    #: Shard-residency ledger of a budgeted run (``--broadcast-budget``):
    #: the driver-side sharded dictionary's stats plus, in process mode,
    #: the per-worker ledgers gathered after Phase II.  ``None`` for
    #: full-broadcast runs.
    broadcast_residency: dict | None = None
    #: Remote mode only: per-node counters (ships, bytes, tasks, deaths,
    #: rejoins) from the cluster at the end of the run.  ``None`` for
    #: serial/process runs.
    node_ledger: list[dict] | None = None
    #: The persistent model plane: geometry + flat dictionary + global
    #: cell graph + canonical cell labels + per-point arrays, ready for
    #: serving (:class:`~repro.core.prediction.ClusterModel`),
    #: serialization (``RPST``), and incremental refit
    #: (:meth:`~repro.core.cluster_state.ClusterState.ingest`).  ``None``
    #: when the fit streamed from a :class:`~repro.data.streaming.PointSource`
    #: — the model plane holds the fitted points, which an out-of-core
    #: run deliberately never materializes in full.
    state: ClusterState | None = None

    @property
    def noise_count(self) -> int:
        """Number of points labeled as noise."""
        return int(np.count_nonzero(self.labels == -1))

    @property
    def total_seconds(self) -> float:
        """Total elapsed time across all phases."""
        return self.counters.total_seconds()

    @property
    def load_imbalance(self) -> float:
        """Slowest/fastest Phase II task ratio (Fig 13's metric)."""
        return self.counters.load_imbalance(PHASE_CELL_GRAPH)

    @property
    def worker_imbalance(self) -> float:
        """Busiest/idlest worker ratio for Phase II.

        The per-worker companion to :attr:`load_imbalance`, comparable
        across ``serial`` and ``process`` engine modes now that worker
        warm-up is excluded from task timings.
        """
        return self.counters.worker_imbalance(PHASE_CELL_GRAPH)

    @property
    def setup_seconds(self) -> float:
        """Engine setup time (pool startup, broadcast shipping, warm-up).

        Accounted separately from the five phases; see
        :meth:`~repro.engine.counters.Counters.setup_total`.
        """
        return self.counters.setup_total()

    @property
    def fault_events(self) -> dict[str, int]:
        """Fault-recovery events of this run (retries, timeouts,
        respawns, speculations) — counts, kept out of phase breakdowns
        like the setup bucket.  Empty for a fault-free run."""
        return dict(self.counters.fault_events)

    @property
    def broadcast_bytes(self) -> dict[str, int]:
        """Broadcast payload bytes of this run, by channel (``"pickle"``,
        ``"shm"``, ``"shm_segment"``) — the serialized-bytes side of the
        engine's fan-outs.  Empty when nothing was shipped (serial
        mode)."""
        return dict(self.counters.broadcast_bytes)

    @property
    def points_processed(self) -> int:
        """Total points processed across splits in local clustering.

        For RP-DBSCAN this always equals ``num_points`` — random
        partitioning never duplicates a point (Fig 14's invariant).
        """
        return self.counters.items_processed(PHASE_CELL_GRAPH)

    def phase_breakdown(self) -> dict[str, float]:
        """Phase -> fraction of elapsed time, in phase order (Fig 12)."""
        raw = self.counters.breakdown()
        return {phase: raw.get(phase, 0.0) for phase in PHASES}


class RPDBSCAN:
    """Random Partitioning DBSCAN (the paper's Algorithm 1).

    Parameters
    ----------
    eps:
        Neighborhood radius (also the cell diagonal).
    min_pts:
        Minimum neighborhood size for a core point.
    num_partitions:
        Number of pseudo random partitions ``k`` (one engine task each).
    rho:
        Approximation parameter; ``0.01`` reproduces exact DBSCAN on the
        paper's data sets (Table 4) and is the paper's default.  ``0``
        requests the exact limit and aliases to :data:`EXACT_RHO`
        (``2**-16``, the finest refinement the dictionary's uint16
        sub-cell coordinates can hold).
    seed:
        Seed for the partitioning RNG.
    engine:
        An :class:`~repro.engine.executors.Engine`, or ``None`` for a
        fresh serial engine.  In ``process`` mode one persistent worker
        pool is threaded through the mapped phases (I-2, II, III-2) and
        survives across ``fit()`` calls; the caller owns its lifecycle
        (``with Engine("process") as e: ...`` or ``e.close()``).  Each
        ``fit()`` reports a per-run snapshot of the engine's counters,
        so results from repeated fits stay independent.
    partition_method:
        ``"random_key"`` (paper) or ``"shuffle"``.
    candidate_strategy:
        Candidate-cell search: ``"auto"``, ``"enumerate"``, ``"kdtree"``.
    kernel:
        Phase II inner-loop backend: ``"numpy"`` (vectorized reference),
        ``"numba"`` (compiled ``@njit(parallel=True)`` kernels over the
        columnar dictionary arrays; requires the ``kernels`` optional
        extra), or ``"auto"`` (default; numba when importable, silent
        numpy fallback otherwise).  Resolved at construction time —
        an explicit ``"numba"`` without numba raises
        :class:`~repro.kernels.KernelUnavailableError` immediately.
        All backends produce bit-identical labels, core flags, and
        density counts; JIT compilation happens in the engine's Phase II
        warm-up hook, so it lands in the ``engine.setup`` bucket and
        never in phase timings.
    fault_policy:
        Optional :class:`~repro.engine.faults.FaultPolicy` installed on
        the engine: parallel phases then run under the engine's recovery
        loop (retries, timeouts, pool re-spawn, straggler speculation),
        so one crashed or hung worker no longer kills the whole
        ``fit()``.  Recovery events are reported in the result counters'
        fault buckets, never in phase breakdowns.
    defragment_capacity:
        When set, the broadcast dictionary is defragmented into
        sub-dictionaries of at most this many entries (Sec 4.2.2) and
        sub-dictionary-skipping statistics are collected.
    broadcast_budget:
        When set (bytes), the broadcast dictionary is sharded into one
        leaf segment per sub-dictionary and each worker keeps at most
        this many leaf bytes resident (LRU) — the out-of-core partial
        broadcast.  The driver ships each Phase II task only the shards
        its partition can reach within ``eps`` (Lemma 5.10); labels are
        bit-identical to a full-broadcast run.  When
        ``defragment_capacity`` is unset, a capacity is derived from the
        budget so several shards fit under it at once.
    merge_mode:
        Phase III-1 tournament scheduling: ``"driver"`` runs every match
        on the driver, ``"engine"`` dispatches each round's matches
        through the engine, ``"auto"`` (default) picks per run via a
        cost model (engine only for process engines with enough work).
        The clustering is bit-identical across modes.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RPDBSCAN
    >>> rng = np.random.default_rng(0)
    >>> pts = np.concatenate([rng.normal(0, .1, (200, 2)),
    ...                       rng.normal(3, .1, (200, 2))])
    >>> result = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=4).fit(pts)
    >>> result.n_clusters
    2
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        num_partitions: int = 8,
        rho: float = 0.01,
        *,
        seed: int | None = 0,
        engine: Engine | None = None,
        partition_method: str = "random_key",
        candidate_strategy: str = "auto",
        kernel: str = "auto",
        fault_policy: FaultPolicy | None = None,
        defragment_capacity: int | None = None,
        broadcast_budget: int | None = None,
        merge_mode: str = "auto",
    ) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if merge_mode not in MERGE_MODES:
            raise ValueError(
                f"merge_mode must be one of {MERGE_MODES}, got {merge_mode!r}"
            )
        if broadcast_budget is not None and broadcast_budget < 1:
            raise ValueError("broadcast_budget must be >= 1 byte")
        self.eps = float(eps)
        self.min_pts = int(min_pts)
        self.num_partitions = int(num_partitions)
        self.rho = float(rho) if rho != 0 else EXACT_RHO
        self.seed = seed
        self.engine = engine if engine is not None else Engine("serial")
        self.partition_method = partition_method
        self.candidate_strategy = candidate_strategy
        # Resolve at construction time so kernel="numba" without numba
        # fails fast with the clear install hint, not mid-fit on a
        # worker; "auto" pins to its concrete backend here so every
        # worker of the run agrees on it.
        self.kernel = resolve_kernel(kernel)
        self.fault_policy = fault_policy
        if fault_policy is not None:
            self.engine.fault_policy = fault_policy
        self.defragment_capacity = defragment_capacity
        self.broadcast_budget = broadcast_budget
        self.merge_mode = merge_mode

    def fit(self, points: np.ndarray | PointSource) -> RPDBSCANResult:
        """Cluster ``points`` and return the full result object.

        ``points`` may be an eager ``(n, d)`` array or a
        :class:`~repro.data.streaming.PointSource` (a memory-mapped
        ``.npy``, a chunked ``.npz``, an ``np.memmap`` — anything
        :func:`~repro.data.streaming.open_point_source` produces).  With
        a source, partitions ship as index lists and materialize their
        point blocks per task — the driver never holds the whole data
        set.  Labels are bit-identical across the two ingestion paths.

        When the engine carries a :class:`~repro.obs.spans.Tracer`, the
        whole call is recorded as a ``fit`` span containing one span per
        phase: driver-side phases (I-1 partitioning, the I-2 dictionary
        merge, III-1 merging) as ``driver`` spans opened here, mapped
        phases (I-2, II, III-2) as ``phase`` spans opened by the engine
        with nested task/attempt spans.
        """
        if isinstance(points, np.memmap):
            points = as_point_source(points)
        if isinstance(points, PointSource):
            pts: np.ndarray | PointSource = points
            n, dim = points.num_points, points.dim
            # Streaming finiteness validation — same contract as the
            # eager path, one chunk resident at a time.
            bad = 0
            lo, hi = np.inf, -np.inf
            for _, chunk in points.iter_chunks():
                bad += int(np.count_nonzero(~np.isfinite(chunk).all(axis=1)))
                if chunk.size:
                    lo = min(lo, float(chunk.min()))
                    hi = max(hi, float(chunk.max()))
            if bad:
                raise ValueError(
                    f"points contain NaN/inf coordinates in {bad} row(s); "
                    "the cell grid requires finite coordinates"
                )
        else:
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim != 2:
                raise ValueError(
                    f"points must be a 2-d array of shape (n, d), got shape "
                    f"{pts.shape}"
                )
            if pts.size and not np.isfinite(pts).all():
                bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
                raise ValueError(
                    f"points contain NaN/inf coordinates in {bad} row(s); the "
                    "cell grid requires finite coordinates"
                )
            n, dim = pts.shape
            lo, hi = (float(pts.min()), float(pts.max())) if pts.size else (0.0, 0.0)
        # Counters accumulate for the engine's whole lifetime (it may be
        # shared across fits); snapshot here and report only this run's
        # delta so repeated fit() calls yield independent timings.
        engine_counters = self.engine.counters
        fit_mark = engine_counters.mark()
        tracer = self.engine.tracer
        geometry = CellGeometry(self.eps, max(dim, 1), self.rho)
        if n and dim:
            geometry.check_range(lo, hi)
        with tracer.span(
            "fit", "fit", annotations={"n": n, "dim": dim, "kernel": self.kernel}
        ):
            return self._fit_traced(pts, n, geometry, engine_counters, fit_mark)

    def _empty_state(self, geometry: CellGeometry) -> ClusterState:
        return ClusterState.empty(
            geometry,
            self.min_pts,
            kernel=self.kernel,
            candidate_strategy=self.candidate_strategy,
            merge_mode=self.merge_mode,
            num_tasks=self.num_partitions,
        )

    def _fit_traced(self, pts, n, geometry, engine_counters, fit_mark):
        dim = geometry.dim
        # The model plane holds the fitted points; a PointSource run
        # deliberately never materializes them in full, so it carries no
        # state (the result arrays are unaffected).
        build_state = isinstance(pts, np.ndarray)
        if n == 0:
            return RPDBSCANResult(
                labels=np.empty(0, dtype=np.int64),
                core_mask=np.empty(0, dtype=bool),
                n_clusters=0,
                counters=engine_counters.since(fit_mark),
                merge_stats=MergeStats(edges_per_round=[0]),
                dictionary_model=DictionarySizeModel(0, 0, dim or 1, geometry.h),
                num_points=0,
                kernel=self.kernel,
                state=self._empty_state(geometry) if build_state else None,
            )

        state = self._empty_state(geometry) if build_state else None
        partitions, dictionary, sharded, context = self._phase1(
            state, pts, geometry
        )
        subgraph_results, broadcast_residency = self._phase2(
            state, partitions, context, sharded, n
        )
        labels, global_graph, merge_stats, labeling_context = self._phase3(
            state, partitions, subgraph_results, dictionary, sharded, n
        )
        core_mask = np.zeros(n, dtype=bool)
        counts = np.zeros(n, dtype=np.float64)
        for partition, subgraph in zip(
            partitions, subgraph_results, strict=True
        ):
            core_mask[partition.global_indices] = subgraph.core_mask
            counts[partition.global_indices] = subgraph.counts
        if state is not None:
            state.labels = labels
            state.core_mask = core_mask
            state.counts = counts

        # Out-of-core partitions may still hold their Phase III-2 blocks;
        # the run is over, so drop them before reporting.
        for partition in partitions:
            partition.release()

        subdict_stats = None
        if sharded is not None:
            subdict_stats = (sharded.num_shards, sharded.average_consulted())
        elif self.defragment_capacity is not None:
            defrag_dict = context.defragmented
            if defrag_dict is not None:
                subdict_stats = (
                    defrag_dict.num_sub_dicts,
                    defrag_dict.average_consulted(),
                )
        return RPDBSCANResult(
            labels=labels,
            core_mask=core_mask,
            n_clusters=labeling_context.n_clusters,
            counters=engine_counters.since(fit_mark),
            merge_stats=merge_stats,
            dictionary_model=dictionary.size_model(),
            partition_sizes=[p.num_points for p in partitions],
            num_points=n,
            kernel=self.kernel,
            global_graph=global_graph,
            subdict_stats=subdict_stats,
            broadcast_residency=broadcast_residency,
            node_ledger=self.engine.node_ledger(),
            state=state,
        )

    # ------------------------------------------------------------------
    # The three pipeline steps (each reads/writes the ClusterState)
    # ------------------------------------------------------------------

    def _phase1(self, state, pts, geometry):
        """Phases I-1 + I-2: partition, build + merge the dictionary.

        Writes the state's point plane (``points``, ``point_cell_rows``)
        and ``dictionary``; returns the partitions plus the Phase II
        broadcast context (and the sharded dictionary, if budgeted).
        """
        counters = self.engine.counters
        tracer = self.engine.tracer
        dim = geometry.dim

        # ---------------- Phase I-1: pseudo random partitioning --------
        with counters.timed_phase(PHASE_PARTITION), tracer.span(
            PHASE_PARTITION, "driver", phase=PHASE_PARTITION
        ):
            partitions = pseudo_random_partition(
                pts,
                geometry,
                self.num_partitions,
                seed=self.seed,
                method=self.partition_method,
            )

        # ---------------- Phase I-2: dictionary building + broadcast ---
        # Per-partition dictionary building is a map over partitions
        # (Algorithm 2), so it runs as engine tasks; the union of the
        # disjoint partials and the broadcast warm-up stay driver-side.
        partials = self.engine.map_tasks(
            _dictionary_worker,
            [p for p in partitions if p.num_points > 0],
            broadcast=geometry,
            phase=PHASE_DICTIONARY,
            item_counter=lambda p: p.num_cells,
        )
        with counters.timed_phase(PHASE_DICTIONARY), tracer.span(
            f"{PHASE_DICTIONARY} (driver merge)", "driver", phase=PHASE_DICTIONARY
        ):
            dictionary = FlatCellDictionary.merge(partials)
            sharded: ShardedFlatDictionary | None = None
            if self.broadcast_budget is not None:
                capacity = self.defragment_capacity
                if capacity is None:
                    # Derive a capacity so ~4 leaf shards fit under the
                    # budget at once: enough residency for the LRU to
                    # absorb a query's cross-shard candidates without
                    # thrashing, small enough that the budget binds.
                    entry_bytes = dim * 8 + 8  # center row + count
                    capacity = max(1, self.broadcast_budget // (4 * entry_bytes))
                defrag = defragment(dictionary, capacity=capacity)
                sharded = ShardedFlatDictionary.from_defragmented(
                    defrag, budget_bytes=self.broadcast_budget
                )
                context = QueryContext(
                    sharded, strategy=self.candidate_strategy, kernel=self.kernel
                )
            else:
                context = QueryContext(
                    dictionary,
                    strategy=self.candidate_strategy,
                    defragment_capacity=self.defragment_capacity,
                    kernel=self.kernel,
                )

        if state is not None:
            state.dictionary = dictionary
            state.points = pts
            rows = np.empty(pts.shape[0], dtype=np.int64)
            for partition in partitions:
                if not partition.cell_slices:
                    continue
                owned = np.array(list(partition.cell_slices), dtype=np.int64)
                local = np.empty(partition.num_points, dtype=np.int64)
                for row, (start, stop) in zip(
                    dictionary.find_rows(owned).tolist(),
                    partition.cell_slices.values(),
                ):
                    local[start:stop] = row
                rows[partition.global_indices] = local
            state.point_cell_rows = rows
        return partitions, dictionary, sharded, context

    def _phase2(self, state, partitions, context, sharded, n):
        """Phase II: per-partition core marking + cell subgraphs.

        Reads the broadcast context built by :meth:`_phase1`; the
        per-point counts and core flags it produces land on the state
        after Phase III-2's scatter (the subgraph results are returned).
        """
        # The warm-up hook builds the region-query engine during worker
        # initialization (or once on the driver in serial mode), under
        # the engine.setup bucket: every mode pays index construction
        # outside the task timings, keeping Fig 12/13 comparable.
        # With a sharded broadcast, each task also carries the driver's
        # Lemma 5.10 reachable-shard hint: the worker may only attach
        # shards within eps of the partition's cells.
        shard_hints: list[tuple[int, ...] | None] = [None] * len(partitions)
        if sharded is not None:
            for i, partition in enumerate(partitions):
                if not partition.cell_slices:
                    shard_hints[i] = ()
                    continue
                owned_ids = np.array(list(partition.cell_slices), dtype=np.int64)
                rows = sharded.find_rows(owned_ids)
                shard_hints[i] = tuple(
                    int(s) for s in sharded.reachable_shards(rows)
                )
        subgraph_results: list[SubgraphResult] = self.engine.map_tasks(
            _phase2_worker,
            list(zip(partitions, shard_hints)),
            broadcast=(context, self.min_pts),
            phase=PHASE_CELL_GRAPH,
            item_counter=lambda t: t[0].num_points,
            warmup=_phase2_warmup,
        )
        broadcast_residency = None
        if sharded is not None:
            # Gather the residency ledgers while the pool (if any) still
            # holds the sharded epoch: driver-side stats plus one entry
            # per worker in process mode.
            broadcast_residency = {
                "driver": sharded.residency_stats(),
                "workers": [
                    {"pid": pid, **stats}
                    for pid, stats in self.engine.collect_broadcast_stats()
                ],
            }
        return subgraph_results, broadcast_residency

    def _phase3(
        self, state, partitions, subgraph_results, dictionary, sharded, n
    ):
        """Phase III: merge the subgraphs, then label every point.

        Writes the state's graph plane (``graph``, ``cell_labels``);
        per-point ``labels``/``core_mask``/``counts`` are committed by
        the caller once the scatter completes.
        """
        counters = self.engine.counters
        tracer = self.engine.tracer
        # progressive_merge owns the Phase III-1 accounting: driver-mode
        # tournaments run inside one driver span, engine-mode ones open
        # per-round phase spans via map_tasks (all in the PHASE_MERGE
        # counter bucket).  Only the labeling-context build stays here.
        graphs = [r.graph for r in subgraph_results]
        global_graph, merge_stats = progressive_merge(
            graphs, merge_mode=self.merge_mode, engine=self.engine
        )
        with counters.timed_phase(PHASE_MERGE), tracer.span(
            f"{PHASE_MERGE} (labeling context)", "driver", phase=PHASE_MERGE
        ):
            core_masks = {r.pid: r.core_mask for r in subgraph_results}
            # In a budgeted run the labeling context must reference the
            # sharded dictionary: its row lookups touch only the root
            # arrays, so the Phase III-2 broadcast hoists root + shards
            # (budget-bounded residency) instead of dragging the full
            # flat dictionary into a monolithic segment.
            labeling_context = build_labeling_context(
                global_graph, partitions, core_masks, self.eps,
                sharded if sharded is not None else dictionary,
            )

        if state is not None:
            state.graph = global_graph
            state.cell_labels = labeling_context.cell_label_array(
                state.dictionary.num_cells
            )

        # ---------------- Phase III-2: point labeling ------------------
        labels = np.full(n, -1, dtype=np.int64)
        label_chunks = self.engine.map_tasks(
            _phase3_worker,
            partitions,
            broadcast=labeling_context,
            phase=PHASE_LABEL,
            item_counter=lambda p: p.num_points,
        )
        # strict=True: a partition/result misalignment must raise, not
        # silently truncate and mislabel the tail.
        for _partition, (global_indices, chunk_labels) in zip(
            partitions, label_chunks, strict=True
        ):
            labels[global_indices] = chunk_labels
        return labels, global_graph, merge_stats, labeling_context

    def fit_predict(self, points: np.ndarray | PointSource) -> np.ndarray:
        """Cluster ``points`` and return only the label array."""
        return self.fit(points).labels
