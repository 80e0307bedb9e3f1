"""Phase III-1: progressive graph merging (Algorithm 4, Figure 9).

Cell subgraphs are merged pairwise in a *tournament*: each round halves
the number of graphs; every match (a) unions the two subgraphs
(Definition 6.2, promoting undetermined cells), (b) re-detects edge
types now that more cells are determined (Section 6.1.3), and
(c) removes redundant full edges with a spanning forest (Section 6.1.4).

The per-round edge counts — the measurements behind Figure 17 and
Table 7 — show why the tournament matters: edge reduction after every
match keeps any single merger small enough for one machine.

Every match runs on the driver, round by round, in memory.  The matches
of one round are independent (the paper's "multiple parallel rounds",
Sec 6.1.1), so the tournament's parallel span is *modeled* from the
measured match times (:meth:`MergeStats.critical_path_seconds`).  When
an engine is given, the tournament runs inside one driver span of its
tracer, annotated with the per-round ledger
(:meth:`MergeStats.round_ledger`) the run report renders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cell_graph import FlatCellGraph

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.engine.executors import Engine

__all__ = [
    "MergeStats",
    "merge_match",
    "merge_pair",
    "progressive_merge",
    "PHASE_MERGE",
]

#: Counter/phase bucket for Phase III-1 (re-exported by ``rp_dbscan``).
PHASE_MERGE = "III-1 merging"


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
        Compute time of each match, per round.  The matches of one
        round are independent ("multiple parallel rounds", Sec 6.1.1),
        so the *modeled* parallel span of the tournament is the sum over
        rounds of each round's slowest match — see
        :meth:`critical_path_seconds`.
    round_wall_seconds:
        Measured wall-clock of each round: the driver's sequential
        execution of the round's matches.
    """

    edges_per_round: list[int] = field(default_factory=list)
    resolved_per_round: list[int] = field(default_factory=list)
    removed_per_round: list[int] = field(default_factory=list)
    match_seconds_per_round: list[list[float]] = field(default_factory=list)
    round_wall_seconds: list[float] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        """Number of tournament rounds run."""
        return max(0, len(self.edges_per_round) - 1)

    def critical_path_seconds(self) -> float:
        """*Modeled* parallel span: sum of per-round match maxima."""
        return sum(max(round_times, default=0.0) for round_times in
                   self.match_seconds_per_round)

    def round_ledger(self) -> list[dict]:
        """One row per round: ``round``, ``matches``, ``edges_in``,
        ``edges_out``, ``resolved``, ``removed`` and ``wall_s``."""
        return [
            {
                "round": r + 1,
                "matches": len(self.match_seconds_per_round[r]),
                "edges_in": self.edges_per_round[r],
                "edges_out": self.edges_per_round[r + 1],
                "resolved": self.resolved_per_round[r],
                "removed": self.removed_per_round[r],
                "wall_s": self.round_wall_seconds[r],
            }
            for r in range(self.num_rounds)
        ]


def merge_match(
    a: FlatCellGraph, b: FlatCellGraph, *, reduce_edges: bool = True
) -> tuple[FlatCellGraph, int, int]:
    """One in-place tournament match: merge, detect types, reduce.

    THE single match implementation — the tournament,
    :func:`merge_pair`, and the edge-reduction ablation bench all route
    through it, so they cannot drift.  The smaller graph (by edge count)
    is absorbed into the larger, which is mutated and returned along
    with ``(resolved_edges, removed_edges)``.
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


def progressive_merge(
    subgraphs: list[FlatCellGraph],
    *,
    reduce_edges: bool = True,
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
    engine:
        When given, the tournament's time lands in its counters under
        ``phase`` and its tracer records one driver span named ``phase``
        annotated with the round ledger (``merge_rounds``).
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
    if not subgraphs:
        return FlatCellGraph(0), MergeStats(edges_per_round=[0])
    if engine is None:
        return _driver_merge(subgraphs, reduce_edges)
    tracer = engine.tracer
    with engine.counters.timed_phase(phase), tracer.span(
        phase, "driver", phase=phase
    ) as span:
        final, stats = _driver_merge(subgraphs, reduce_edges)
        if tracer.enabled:
            span.annotations["merge_rounds"] = stats.round_ledger()
    return final, stats


def _driver_merge(
    subgraphs: list[FlatCellGraph], reduce_edges: bool
) -> tuple[FlatCellGraph, MergeStats]:
    """All matches on the driver, sequentially, round by round."""
    stats = MergeStats()
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
    final = current[0]
    # Post-tournament pass: a lone subgraph (k = 1) never went through
    # a match, and cross-branch duplicate full edges need one full-scan
    # reduction.
    final.detect_edge_types()
    if reduce_edges:
        final.reduce_all_full_edges()
        stats.edges_per_round[-1] = final.num_edges
    return final, stats
