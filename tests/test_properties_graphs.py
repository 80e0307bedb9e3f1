"""Property-based tests of cell-graph merging over random tournaments.

Generates random *partition-consistent* families of cell subgraphs —
every cell owned by exactly one partition, edges sourced at core cells,
cross-partition targets undetermined — and checks that the progressive
tournament produces exactly the same clustering as a one-shot union, for
any partition count, ownership, and edge structure.  This fuzzes the
merge path where a hand-written test once missed a tree-edge deletion
bug (see TestAbsorbResolving in tests/core/test_merging.py).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cell_graph import CellGraph, EdgeType, FlatCellGraph
from repro.core.merging import progressive_merge
from repro.graph.spanning_forest import connected_components

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def partitioned_subgraphs(draw):
    """A random family of partition-consistent cell subgraphs.

    Cells are ints ``0..n_cells-1``; each is randomly owned by one of
    ``k`` partitions and randomly core or non-core.  Each partition's
    subgraph contains its own cells (classified) plus edges from its
    core cells to random targets (typed when the target is owned,
    undetermined otherwise) — exactly the shape Phase II emits.
    """
    n_cells = draw(st.integers(2, 24))
    k = draw(st.integers(1, 5))
    owner = [draw(st.integers(0, k - 1)) for _ in range(n_cells)]
    is_core = [draw(st.booleans()) for _ in range(n_cells)]
    n_edges = draw(st.integers(0, 40))
    edge_pairs = [
        (
            draw(st.integers(0, n_cells - 1)),
            draw(st.integers(0, n_cells - 1)),
        )
        for _ in range(n_edges)
    ]

    graphs = [FlatCellGraph(n_cells) for _ in range(k)]
    for cell in range(n_cells):
        graph = graphs[owner[cell]]
        if is_core[cell]:
            graph.add_core_cell(cell)
        else:
            graph.add_noncore_cell(cell)
    for src, dst in edge_pairs:
        if not is_core[src] or src == dst:
            continue  # only core cells initiate reachability
        graph = graphs[owner[src]]
        if owner[dst] == owner[src]:
            edge_type = EdgeType.FULL if is_core[dst] else EdgeType.PARTIAL
        else:
            graph.add_undetermined_cell(dst)
            edge_type = EdgeType.UNDETERMINED
        graph.add_edge(src, dst, edge_type)
    return graphs




def canonical_partition(labels: dict) -> frozenset:
    """Partition induced by a labeling, invariant to label numbering."""
    groups: dict = {}
    for item, label in labels.items():
        groups.setdefault(label, set()).add(item)
    return frozenset(frozenset(g) for g in groups.values())


def one_shot_reference(graphs):
    """Union everything at once in the reference :class:`CellGraph`,
    then detect — no tournament."""
    total = CellGraph()
    for graph in graphs:
        total.absorb(graph.to_cell_graph())
    total.detect_edge_types()
    return total


class TestTournamentProperties:
    @SETTINGS
    @given(graphs=partitioned_subgraphs())
    def test_components_match_one_shot_union(self, graphs):
        reference = one_shot_reference(graphs)
        expected = connected_components(
            sorted(reference.core), reference.edges_of_type(EdgeType.FULL)
        )
        merged, _ = progressive_merge(graphs)
        got = connected_components(
            sorted(merged.core), merged.edges_of_type(EdgeType.FULL)
        )
        assert canonical_partition(got) == canonical_partition(expected)

    @SETTINGS
    @given(graphs=partitioned_subgraphs())
    def test_final_graph_is_global_and_valid(self, graphs):
        merged, _ = progressive_merge(graphs)
        assert merged.is_global()
        merged.validate()

    @SETTINGS
    @given(graphs=partitioned_subgraphs())
    def test_partial_edges_never_lost(self, graphs):
        reference = one_shot_reference(graphs)
        merged, _ = progressive_merge(graphs)
        assert merged.edges_of_type(EdgeType.PARTIAL) == reference.edges_of_type(
            EdgeType.PARTIAL
        )

    @SETTINGS
    @given(graphs=partitioned_subgraphs())
    def test_edge_counts_nonincreasing(self, graphs):
        _, stats = progressive_merge(graphs)
        rounds = stats.edges_per_round
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))

    @SETTINGS
    @given(graphs=partitioned_subgraphs())
    def test_inputs_not_mutated(self, graphs):
        columns = ("status", "src", "dst", "etype")
        snapshots = [[getattr(g, c).copy() for c in columns] for g in graphs]
        progressive_merge(graphs)
        for graph, snapshot in zip(graphs, snapshots):
            for column, before in zip(columns, snapshot):
                assert np.array_equal(getattr(graph, column), before)

    @SETTINGS
    @given(graphs=partitioned_subgraphs(), order_seed=st.integers(0, 100))
    def test_order_insensitive(self, graphs, order_seed):
        import random

        shuffled = list(graphs)
        random.Random(order_seed).shuffle(shuffled)
        a, _ = progressive_merge(graphs)
        b, _ = progressive_merge(shuffled)
        comp_a = connected_components(sorted(a.core), a.edges_of_type(EdgeType.FULL))
        comp_b = connected_components(sorted(b.core), b.edges_of_type(EdgeType.FULL))
        assert canonical_partition(comp_a) == canonical_partition(comp_b)


class TestForestInvariants:
    @SETTINGS
    @given(graphs=partitioned_subgraphs())
    def test_full_edges_form_forest_after_merge(self, graphs):
        merged, _ = progressive_merge(graphs)
        full = merged.edges_of_type(EdgeType.FULL)
        # A spanning forest has |edges| = |vertices| - |components|.
        vertices = {v for edge in full for v in edge}
        labels = connected_components(sorted(vertices), full)
        n_components = len(set(labels.values()))
        assert len(full) == len(vertices) - n_components
