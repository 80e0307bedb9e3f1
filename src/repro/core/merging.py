"""Phase III-1: progressive graph merging (Algorithm 4, Figure 9).

Cell subgraphs are merged pairwise in a *tournament*: each round halves
the number of graphs; every match (a) unions the two subgraphs
(Definition 6.2, promoting undetermined cells), (b) re-detects edge
types now that more cells are determined (Section 6.1.3), and
(c) removes redundant full edges with a spanning forest (Section 6.1.4).

The per-round edge counts — the measurements behind Figure 17 and
Table 7 — show why the tournament matters: edge reduction after every
match keeps any single merger small enough for one machine.

The tournament can run in two *modes* sharing one match implementation
(:func:`merge_match`):

* ``driver`` — every match executes sequentially on the driver; the
  parallel span of the paper's "multiple parallel rounds" (Sec 6.1.1)
  is then *modeled* from the serially-measured match times
  (:meth:`MergeStats.critical_path_seconds`).
* ``engine`` — each round's matches dispatch through
  ``Engine.map_tasks`` with compact serialized subgraph payloads
  (:func:`~repro.core.serialization.serialize_cell_graph`), so round
  wall times are *measured*, not modeled.  Blobs are the inter-round
  currency: the driver never deserializes between rounds.
* ``auto`` — a cost model picks per run (:func:`resolve_merge_mode`):
  small workloads stay on the driver where payload shipping would
  dominate the matches.

Labels, ``n_clusters``, and per-round MergeStats accounting are
bit-identical across modes: the pairing is identical,
resolved/removed counts are order-invariant (an edge's resolution
depends only on its destination's final class; removals are the
pending-count minus the graphic-matroid rank), and component numbering
is canonical under connectivity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cell_graph import FlatCellGraph
from repro.core.serialization import (
    deserialize_cell_graph,
    serialize_cell_graph,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine.executors import Engine

__all__ = [
    "MergeStats",
    "merge_match",
    "merge_pair",
    "progressive_merge",
    "resolve_merge_mode",
    "MERGE_MODES",
    "PHASE_MERGE",
    "AUTO_MIN_GRAPHS",
    "AUTO_MIN_EDGES",
]

#: Counter/phase bucket for Phase III-1 (re-exported by ``rp_dbscan``).
PHASE_MERGE = "III-1 merging"

#: Valid tournament scheduling modes.
MERGE_MODES = ("driver", "engine", "auto")

#: ``auto`` dispatches to the engine only from this many subgraphs up —
#: below it a tournament is one or two matches and shipping dominates.
AUTO_MIN_GRAPHS = 4

#: ... and only when the subgraphs carry at least this many edges in
#: total; tiny graphs merge in microseconds on the driver.
AUTO_MIN_EDGES = 20_000


@dataclass
class MergeStats:
    """Per-round accounting of the tournament.

    Attributes
    ----------
    edges_per_round:
        ``edges_per_round[0]`` is the total number of edges across all
        subgraphs before the tournament (paper's "Round 0"); entry ``i``
        is the total after round ``i`` completes.
    resolved_per_round:
        Undetermined edges whose type was detected in each round.
    removed_per_round:
        Redundant full edges removed in each round.
    match_seconds_per_round:
        Compute time of each match, per round (worker-measured in
        engine mode, driver-measured otherwise).  The matches of one
        round are independent ("multiple parallel rounds", Sec 6.1.1),
        so the *modeled* parallel span of the tournament is the sum over
        rounds of each round's slowest match — see
        :meth:`critical_path_seconds`.
    round_wall_seconds:
        Measured wall-clock of each round.  In engine mode this is the
        true parallel round time (dispatch to last result); in driver
        mode it is the serial execution of the round's matches.
    bytes_shipped_per_round:
        Serialized payload bytes dispatched to engine workers per round
        (0 in driver mode — nothing leaves the driver).
    mode:
        How matches actually executed after ``auto`` resolution:
        ``"driver"`` or ``"engine"``.
    """

    edges_per_round: list[int] = field(default_factory=list)
    resolved_per_round: list[int] = field(default_factory=list)
    removed_per_round: list[int] = field(default_factory=list)
    match_seconds_per_round: list[list[float]] = field(default_factory=list)
    round_wall_seconds: list[float] = field(default_factory=list)
    bytes_shipped_per_round: list[int] = field(default_factory=list)
    mode: str = "driver"

    @property
    def num_rounds(self) -> int:
        """Number of tournament rounds run."""
        return max(0, len(self.edges_per_round) - 1)

    @property
    def span_is_measured(self) -> bool:
        """Whether :meth:`span_seconds` reports a measured parallel span
        (engine mode) rather than a modeled one (driver mode)."""
        return self.mode == "engine"

    def critical_path_seconds(self) -> float:
        """*Modeled* parallel span: sum of per-round match maxima."""
        return sum(max(round_times, default=0.0) for round_times in
                   self.match_seconds_per_round)

    def measured_span_seconds(self) -> float:
        """Sum of measured per-round wall times."""
        return sum(self.round_wall_seconds)

    def span_seconds(self) -> float:
        """Tournament span for Fig 17 / Table 7 reporting: the measured
        round walls when the engine scheduled the rounds, else the
        modeled critical path."""
        if self.span_is_measured:
            return self.measured_span_seconds()
        return self.critical_path_seconds()


def merge_match(
    a: FlatCellGraph, b: FlatCellGraph, *, reduce_edges: bool = True
) -> tuple[FlatCellGraph, int, int]:
    """One in-place tournament match: merge, detect types, reduce.

    THE single match implementation — the driver tournament, the engine
    match task, :func:`merge_pair`, and the edge-reduction ablation
    bench all route through it, so they cannot drift.  The smaller graph
    (by edge count) is absorbed into the larger, which is mutated and
    returned along with ``(resolved_edges, removed_edges)``.
    """
    if a.num_edges < b.num_edges:
        a, b = b, a
    resolved = a.absorb_resolving(b)
    removed = a.reduce_full_edges() if reduce_edges else 0
    return a, resolved, removed


def merge_pair(
    a: FlatCellGraph, b: FlatCellGraph, *, reduce_edges: bool = True
) -> tuple[FlatCellGraph, int, int]:
    """Copying wrapper around :func:`merge_match` (callers keep their
    graphs).

    Returns ``(merged_graph, resolved_edges, removed_edges)``.
    ``reduce_edges=False`` disables the spanning-forest reduction (used
    by the ablation bench; the final clustering is unaffected, only the
    intermediate graph sizes grow).
    """
    winner, loser = (a, b) if a.num_edges >= b.num_edges else (b, a)
    return merge_match(winner.copy(), loser, reduce_edges=reduce_edges)


def _merge_match_task(
    payload: tuple[bytes, bytes, bool],
) -> tuple[bytes, int, int, int, float]:
    """Worker body of one engine-scheduled match.

    Deserializes the two subgraph blobs, runs :func:`merge_match`, and
    re-serializes the winner; the returned blob feeds the next round
    without the driver ever materializing the intermediate graph.
    Returns ``(blob, num_edges, resolved, removed, compute_s)`` —
    ``compute_s`` covers the match only (not codec time) and feeds
    :attr:`MergeStats.match_seconds_per_round`.
    """
    blob_a, blob_b, reduce_edges = payload
    a = deserialize_cell_graph(blob_a)
    b = deserialize_cell_graph(blob_b)
    start = time.perf_counter()
    merged, resolved, removed = merge_match(a, b, reduce_edges=reduce_edges)
    compute_s = time.perf_counter() - start
    return (
        serialize_cell_graph(merged),
        merged.num_edges,
        resolved,
        removed,
        compute_s,
    )


def resolve_merge_mode(
    merge_mode: str,
    subgraphs: list[FlatCellGraph],
    engine: "Engine | None",
) -> str:
    """Resolve ``merge_mode`` to the executed mode (the auto cost model).

    ``auto`` picks the engine only when it can actually parallelize
    (process or remote mode) and the workload is big enough that
    per-match compute can amortize payload shipping: at least
    :data:`AUTO_MIN_GRAPHS` subgraphs carrying at least
    :data:`AUTO_MIN_EDGES` edges in total.
    """
    if merge_mode not in MERGE_MODES:
        raise ValueError(
            f"unknown merge_mode {merge_mode!r}; expected one of {MERGE_MODES}"
        )
    if merge_mode == "driver":
        return "driver"
    if merge_mode == "engine":
        if engine is None:
            raise ValueError("merge_mode='engine' requires an engine")
        return "engine"
    if engine is None or engine.mode not in ("process", "remote"):
        return "driver"
    if len(subgraphs) < AUTO_MIN_GRAPHS:
        return "driver"
    if sum(g.num_edges for g in subgraphs) < AUTO_MIN_EDGES:
        return "driver"
    return "engine"


def progressive_merge(
    subgraphs: list[FlatCellGraph],
    *,
    reduce_edges: bool = True,
    merge_mode: str = "driver",
    engine: "Engine | None" = None,
    phase: str = PHASE_MERGE,
) -> tuple[FlatCellGraph, MergeStats]:
    """Merge all cell subgraphs into the global cell graph.

    Parameters
    ----------
    subgraphs:
        One cell subgraph per partition (Phase II output).
    reduce_edges:
        Toggle the Section 6.1.4 edge reduction.
    merge_mode:
        ``"driver"``, ``"engine"``, or ``"auto"`` (see the module
        docstring).  The clustering is bit-identical across modes.
    engine:
        Required for engine mode; when given, Phase III-1 time lands in
        its counters/tracer in every mode and the per-round merge ledger
        is recorded (:meth:`~repro.engine.counters.Counters.add_merge_round`).
    phase:
        Counter bucket / span label for the tournament.  Defaults to
        the fit pipeline's :data:`PHASE_MERGE`; the incremental-ingest
        path passes its own label so a shared engine's fit-phase
        breakdown is never polluted by refit work.

    Returns
    -------
    tuple
        ``(global_graph, stats)``.  The returned graph satisfies
        Definition 6.1: every vertex and edge is determined — pseudo
        random partitioning guarantees every cell is owned by exactly
        one partition, so the union over all partitions determines all.
    """
    mode = resolve_merge_mode(merge_mode, subgraphs, engine)
    if not subgraphs:
        return FlatCellGraph(0), MergeStats(edges_per_round=[0])
    if mode == "engine":
        assert engine is not None
        final, stats = _engine_merge(subgraphs, reduce_edges, engine, phase)
    elif engine is not None:
        with engine.counters.timed_phase(phase), engine.tracer.span(
            phase, "driver", phase=phase
        ):
            final, stats = _driver_merge(subgraphs, reduce_edges)
    else:
        final, stats = _driver_merge(subgraphs, reduce_edges)
    if engine is not None:
        for resolved, removed, shipped, wall in zip(
            stats.resolved_per_round,
            stats.removed_per_round,
            stats.bytes_shipped_per_round,
            stats.round_wall_seconds,
        ):
            engine.counters.add_merge_round(
                resolved=resolved,
                removed=removed,
                bytes_shipped=shipped,
                wall_s=wall,
            )
    return final, stats


def _driver_merge(
    subgraphs: list[FlatCellGraph], reduce_edges: bool
) -> tuple[FlatCellGraph, MergeStats]:
    """All matches on the driver, sequentially, round by round."""
    stats = MergeStats(mode="driver")
    stats.edges_per_round.append(sum(g.num_edges for g in subgraphs))
    # Copy once at entry (callers keep their subgraphs); matches then
    # absorb in place, which is what keeps a match linear in the edge
    # count rather than paying a fresh copy per round.
    current = [g.copy() for g in subgraphs]
    while len(current) > 1:
        round_start = time.perf_counter()
        next_round: list[FlatCellGraph] = []
        resolved_total = 0
        removed_total = 0
        match_times: list[float] = []
        for i in range(0, len(current) - 1, 2):
            start = time.perf_counter()
            merged, resolved, removed = merge_match(
                current[i], current[i + 1], reduce_edges=reduce_edges
            )
            match_times.append(time.perf_counter() - start)
            next_round.append(merged)
            resolved_total += resolved
            removed_total += removed
        if len(current) % 2 == 1:
            next_round.append(current[-1])  # bye: odd graph advances
        current = next_round
        stats.edges_per_round.append(sum(g.num_edges for g in current))
        stats.resolved_per_round.append(resolved_total)
        stats.removed_per_round.append(removed_total)
        stats.match_seconds_per_round.append(match_times)
        stats.round_wall_seconds.append(time.perf_counter() - round_start)
        stats.bytes_shipped_per_round.append(0)
    final = current[0]
    _finalize(final, reduce_edges, stats)
    return final, stats


def _engine_merge(
    subgraphs: list[FlatCellGraph],
    reduce_edges: bool,
    engine: "Engine",
    phase: str = PHASE_MERGE,
) -> tuple[FlatCellGraph, MergeStats]:
    """Each round's matches dispatched through ``Engine.map_tasks``.

    Serialized blobs are the inter-round currency; only the tournament
    winner is deserialized, once, for finalization.  Per-round phase
    spans are named ``"III-1 merging round N"`` (while counter time
    still lands in the :data:`PHASE_MERGE` bucket) and are annotated
    post-hoc with the merge ledger the run report renders.
    """
    counters = engine.counters
    tracer = engine.tracer
    stats = MergeStats(mode="engine")
    stats.edges_per_round.append(sum(g.num_edges for g in subgraphs))
    with counters.timed_phase(phase), tracer.span(
        f"{phase} (serialize)", "driver", phase=phase
    ):
        current = [(serialize_cell_graph(g), g.num_edges) for g in subgraphs]
    round_index = 0
    while len(current) > 1:
        round_index += 1
        round_name = f"{phase} round {round_index}"
        edges_in = sum(edges for _, edges in current)
        payloads = [
            (current[i][0], current[i + 1][0], reduce_edges)
            for i in range(0, len(current) - 1, 2)
        ]
        bytes_shipped = sum(len(a) + len(b) for a, b, _ in payloads)
        round_start = time.perf_counter()
        results = engine.map_tasks(
            _merge_match_task,
            payloads,
            phase=phase,
            trace_phase=round_name,
        )
        wall = time.perf_counter() - round_start
        next_round = [(blob, edges) for blob, edges, _, _, _ in results]
        if len(current) % 2 == 1:
            next_round.append(current[-1])  # bye: odd graph advances
        current = next_round
        stats.edges_per_round.append(sum(edges for _, edges in current))
        stats.resolved_per_round.append(sum(r[2] for r in results))
        stats.removed_per_round.append(sum(r[3] for r in results))
        stats.match_seconds_per_round.append([r[4] for r in results])
        stats.round_wall_seconds.append(wall)
        stats.bytes_shipped_per_round.append(bytes_shipped)
        _annotate_round_span(
            tracer,
            round_name,
            merge_round=round_index,
            matches=len(payloads),
            edges_in=edges_in,
            edges_out=stats.edges_per_round[-1],
            resolved=stats.resolved_per_round[-1],
            removed=stats.removed_per_round[-1],
            bytes_shipped=bytes_shipped,
        )
    with counters.timed_phase(phase), tracer.span(
        f"{phase} (finalize)", "driver", phase=phase
    ):
        final = deserialize_cell_graph(current[0][0])
        _finalize(final, reduce_edges, stats)
    return final, stats


def _finalize(
    final: FlatCellGraph, reduce_edges: bool, stats: MergeStats
) -> None:
    """Post-tournament pass: a lone subgraph (k = 1) never went through
    a match, and cross-branch duplicate full edges need one full-scan
    reduction."""
    final.detect_edge_types()
    if reduce_edges:
        final.reduce_all_full_edges()
        if stats.edges_per_round:
            stats.edges_per_round[-1] = final.num_edges


def _annotate_round_span(tracer, round_name: str, **ledger) -> None:
    """Attach the round's merge ledger to its just-closed phase span.

    Spans are mutable; annotating after ``map_tasks`` returns keeps the
    executor agnostic of merge semantics.  A ``NullTracer`` finds no
    span and this is a no-op.
    """
    spans = tracer.find(kind="phase", name=round_name)
    if spans:
        spans[-1].annotations.update(ledger)
