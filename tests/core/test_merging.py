"""Unit tests for repro.core.merging (Phase III-1, Sec 6.1)."""

import numpy as np
import pytest

from repro.core.cell_graph import CellGraph, EdgeType, FlatCellGraph
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.merging import merge_pair, progressive_merge
from repro.core.partitioning import pseudo_random_partition
from repro.graph.spanning_forest import connected_components


def canonical(labels: dict) -> frozenset:
    """Partition induced by a labeling, invariant to label numbering."""
    groups: dict = {}
    for item, label in labels.items():
        groups.setdefault(label, set()).add(item)
    return frozenset(frozenset(g) for g in groups.values())


@pytest.fixture(scope="module")
def subgraphs():
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.normal([0, 0], 0.15, (400, 2)), rng.normal([3, 3], 0.15, (400, 2))]
    )
    geometry = CellGeometry(eps=0.4, dim=2, rho=0.01)
    partitions = pseudo_random_partition(pts, geometry, 6, seed=0)
    dictionary = FlatCellDictionary.from_points(pts, geometry)
    context = QueryContext(dictionary)
    return [build_cell_subgraph(p, context, 10).graph for p in partitions]


class TestProgressiveMerge:
    def test_final_graph_is_global(self, subgraphs):
        final, _ = progressive_merge(subgraphs)
        assert final.is_global()
        final.validate()

    def test_round_zero_is_total_edges(self, subgraphs):
        _, stats = progressive_merge(subgraphs)
        assert stats.edges_per_round[0] == sum(g.num_edges for g in subgraphs)

    def test_edges_monotonically_nonincreasing(self, subgraphs):
        # Merging only unions vertex knowledge and removes redundancy.
        _, stats = progressive_merge(subgraphs)
        rounds = stats.edges_per_round
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))

    def test_round_count_is_log2(self, subgraphs):
        _, stats = progressive_merge(subgraphs)
        # 6 graphs -> 3 -> 2 -> 1: three rounds.
        assert stats.num_rounds == 3

    def test_single_graph_still_finalized(self, subgraphs):
        final, stats = progressive_merge([subgraphs[0]])
        assert stats.num_rounds == 0
        undetermined = (final.etype == int(EdgeType.UNDETERMINED)).any()
        assert not undetermined or not final.is_global()

    def test_empty_input(self):
        final, stats = progressive_merge([])
        assert final.num_edges == 0
        assert stats.edges_per_round == [0]

    def test_order_insensitive_clustering(self, subgraphs):
        # The final connected components over full edges must not depend
        # on the tournament order.
        final_a, _ = progressive_merge(list(subgraphs))
        final_b, _ = progressive_merge(list(reversed(subgraphs)))
        comp_a = connected_components(
            sorted(final_a.core), final_a.edges_of_type(EdgeType.FULL)
        )
        comp_b = connected_components(
            sorted(final_b.core), final_b.edges_of_type(EdgeType.FULL)
        )
        assert canonical(comp_a) == canonical(comp_b)

    def test_reduction_off_preserves_components(self, subgraphs):
        with_red, _ = progressive_merge(list(subgraphs), reduce_edges=True)
        without, _ = progressive_merge(list(subgraphs), reduce_edges=False)
        comp_with = connected_components(
            sorted(with_red.core), with_red.edges_of_type(EdgeType.FULL)
        )
        comp_without = connected_components(
            sorted(without.core), without.edges_of_type(EdgeType.FULL)
        )
        assert canonical(comp_with) == canonical(comp_without)
        assert without.num_edges >= with_red.num_edges


class TestMergePair:
    def test_resolves_cross_partition_edges(self):
        a = FlatCellGraph(2)
        a.add_core_cell(0)
        a.add_undetermined_cell(1)
        a.add_edge(0, 1, EdgeType.UNDETERMINED)
        b = FlatCellGraph(2)
        b.add_core_cell(1)
        b.add_undetermined_cell(0)
        b.add_edge(1, 0, EdgeType.UNDETERMINED)
        merged, resolved, removed = merge_pair(a, b)
        assert resolved == 2
        # Both edges became FULL, forming a 2-cycle; one was removed.
        assert removed == 1
        assert merged.is_global()

    def test_reduce_disabled(self):
        a = FlatCellGraph(2)
        a.add_core_cell(0)
        a.add_core_cell(1)
        a.add_edge(0, 1, EdgeType.FULL)
        b = FlatCellGraph(2)
        b.add_core_cell(0)
        b.add_core_cell(1)
        b.add_edge(1, 0, EdgeType.FULL)
        merged, _, removed = merge_pair(a, b, reduce_edges=False)
        assert removed == 0
        assert merged.num_edges == 2


class TestAbsorbResolving:
    """The reference CellGraph's fused absorb+detect path must be exactly
    equivalent to Definition 6.2 followed by Section 6.1.3 (its inputs
    are pipeline subgraphs converted with ``to_cell_graph``)."""

    def _random_subgraphs(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.concatenate(
            [rng.normal([0, 0], 0.2, (60, 2)), rng.normal([4, 4], 0.2, (60, 2))]
        )
        geometry = CellGeometry(0.5, 2, 0.01)
        partitions = pseudo_random_partition(pts, geometry, 4, seed=seed)
        dictionary = FlatCellDictionary.from_points(pts, geometry)
        context = QueryContext(dictionary)
        return [
            build_cell_subgraph(p, context, 5).graph.to_cell_graph()
            for p in partitions
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equivalent_to_absorb_plus_detect(self, seed):
        graphs = self._random_subgraphs(seed)
        slow = graphs[0].copy().absorb(graphs[1].copy())
        slow_resolved = slow.detect_edge_types()
        fast = graphs[0].copy()
        fast_resolved = fast.absorb_resolving(graphs[1].copy())
        assert slow_resolved == fast_resolved
        assert slow.edges == fast.edges
        assert slow.core == fast.core
        assert slow.noncore == fast.noncore
        assert slow.undetermined == fast.undetermined

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_tournament_never_breaks_connectivity(self, seed):
        # Regression: a tree edge arriving from the other branch must not
        # be re-tested against the forest connectivity it itself
        # provides (that deleted it and fragmented clusters).
        graphs = self._random_subgraphs(seed)
        merged, _ = progressive_merge(graphs)
        single, _ = progressive_merge(
            [CellGraph.merge(CellGraph(), g) for g in graphs][:1]
            + [g.copy() for g in graphs[1:]]
        )
        one_shot = CellGraph()
        for g in graphs:
            one_shot.absorb(g)
        one_shot.detect_edge_types()
        expected = connected_components(
            sorted(one_shot.core), one_shot.edges_of_type(EdgeType.FULL)
        )
        got = connected_components(
            sorted(merged.core), merged.edges_of_type(EdgeType.FULL)
        )
        assert canonical(got) == canonical(expected)
