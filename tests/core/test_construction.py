"""Unit tests for repro.core.construction (Phase II, Algorithm 3)."""

import numpy as np
import pytest

from repro.core.cell_graph import EdgeType
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.partitioning import pseudo_random_partition


@pytest.fixture(scope="module")
def workload(two_blobs_module):
    return two_blobs_module


@pytest.fixture(scope="module")
def two_blobs_module():
    rng = np.random.default_rng(42)
    return np.concatenate(
        [rng.normal([0, 0], 0.1, (300, 2)), rng.normal([3, 0], 0.1, (300, 2))]
    )


@pytest.fixture(scope="module")
def setup(workload):
    geometry = CellGeometry(eps=0.3, dim=2, rho=0.01)
    partitions = pseudo_random_partition(workload, geometry, 4, seed=0)
    dictionary = FlatCellDictionary.from_points(workload, geometry)
    context = QueryContext(dictionary)
    return geometry, partitions, context


def edges(graph):
    """``(src, dst, EdgeType)`` triples of a flat cell graph."""
    columns = (graph.src.tolist(), graph.dst.tolist(), graph.etype.tolist())
    return [(s, d, EdgeType(t)) for s, d, t in zip(*columns)]


class TestCoreMarking:
    def test_core_mask_matches_exact_density(self, workload, setup):
        # With tiny rho, the approximate core decision must match the
        # exact |N_eps(p)| >= minPts one (up to boundary coincidences).
        geometry, partitions, context = setup
        min_pts = 10
        eps = geometry.eps
        mismatches = 0
        for partition in partitions:
            result = build_cell_subgraph(partition, context, min_pts)
            for row in range(partition.num_points):
                diff = workload - partition.points[row]
                exact = int(
                    np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= eps * eps)
                )
                if (exact >= min_pts) != bool(result.core_mask[row]):
                    mismatches += 1
        assert mismatches <= 2

    def test_all_dense_points_core(self, setup):
        geometry, partitions, context = setup
        results = [build_cell_subgraph(p, context, 5) for p in partitions]
        total_core = sum(int(r.core_mask.sum()) for r in results)
        # Blob points are very dense; nearly everything is core.
        assert total_core >= 590

    def test_min_pts_one_everything_core(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 1)
            assert bool(result.core_mask.all())

    def test_huge_min_pts_nothing_core(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10_000)
            assert not result.core_mask.any()
            assert not result.graph.core

    def test_rejects_bad_min_pts(self, setup):
        _, partitions, context = setup
        with pytest.raises(ValueError):
            build_cell_subgraph(partitions[0], context, 0)


class TestSubgraphStructure:
    def test_graph_validates(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10)
            result.graph.validate()

    def test_owned_cells_all_classified(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10)
            owned = set(partition.rows.tolist())
            classified = result.graph.core | result.graph.noncore
            assert owned == classified

    def test_intra_partition_edges_are_determined(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10)
            owned = set(partition.rows.tolist())
            for src, dst, edge_type in edges(result.graph):
                assert src in owned
                if dst in owned:
                    assert edge_type in (EdgeType.FULL, EdgeType.PARTIAL)
                else:
                    assert edge_type is EdgeType.UNDETERMINED
                    assert dst in result.graph.undetermined

    def test_no_self_edges(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10)
            assert all(src != dst for src, dst, _ in edges(result.graph))

    def test_query_count_equals_points(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10)
            assert result.num_queries == partition.num_points

    def test_edges_sources_are_core(self, setup):
        _, partitions, context = setup
        for partition in partitions:
            result = build_cell_subgraph(partition, context, 10)
            for src, _, _ in edges(result.graph):
                assert src in result.graph.core


class TestQueryContext:
    def test_engine_cached(self, setup):
        _, _, context = setup
        assert context.engine is context.engine

    def test_pickle_drops_engine(self, setup):
        import pickle

        _, _, context = setup
        context.engine  # force build
        clone = pickle.loads(pickle.dumps(context))
        assert clone._engine is None
        assert clone.engine is not None  # lazily rebuilt

    def test_defragment_capacity_enables_stats(self, workload):
        geometry = CellGeometry(eps=0.3, dim=2, rho=0.05)
        dictionary = FlatCellDictionary.from_points(workload, geometry)
        context = QueryContext(dictionary, defragment_capacity=50)
        [partition] = pseudo_random_partition(workload, geometry, 1, seed=0)
        build_cell_subgraph(partition, context, 10)
        assert context.defragmented is not None
        assert context.defragmented.queries > 0
