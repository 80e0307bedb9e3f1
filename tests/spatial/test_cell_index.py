"""Unit tests for repro.spatial.cell_index.

The critical contract: the two candidate strategies (offset enumeration
and kd-tree) return identical results, and both return exactly the
non-empty cells whose box is within eps of the query cell's box.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.spatial.cell_index import NeighborCellFinder


def brute_candidates(cells, query, side, eps):
    out = []
    q = np.asarray(query, dtype=np.int64)
    for cell in cells:
        delta = np.abs(np.asarray(cell, dtype=np.int64) - q)
        gap = np.maximum(delta - 1, 0) * side
        if math.sqrt(float(np.dot(gap, gap))) <= eps * (1 + 1e-12):
            out.append(cell)
    return sorted(out)


@pytest.fixture()
def random_cells_2d():
    rng = np.random.default_rng(0)
    return {tuple(int(v) for v in row) for row in rng.integers(-6, 7, (150, 2))}


class TestStrategiesAgree:
    def test_enumerate_matches_bruteforce(self, random_cells_2d):
        side = 0.5
        eps = side * math.sqrt(2)
        finder = NeighborCellFinder(random_cells_2d, side, eps, strategy="enumerate")
        for query in [(0, 0), (3, -2), (-6, 6), (100, 100)]:
            assert finder.candidates(query) == brute_candidates(
                random_cells_2d, query, side, eps
            )

    def test_kdtree_matches_bruteforce(self, random_cells_2d):
        side = 0.5
        eps = side * math.sqrt(2)
        finder = NeighborCellFinder(random_cells_2d, side, eps, strategy="kdtree")
        for query in [(0, 0), (3, -2), (-6, 6), (100, 100)]:
            assert finder.candidates(query) == brute_candidates(
                random_cells_2d, query, side, eps
            )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_strategies_agree_random(self, dim):
        rng = np.random.default_rng(dim)
        cells = {tuple(int(v) for v in row) for row in rng.integers(-4, 5, (80, dim))}
        side = 0.3
        eps = side * math.sqrt(dim)
        enum = NeighborCellFinder(cells, side, eps, strategy="enumerate")
        tree = NeighborCellFinder(cells, side, eps, strategy="kdtree")
        for _ in range(20):
            query = tuple(int(v) for v in rng.integers(-5, 6, dim))
            assert enum.candidates(query) == tree.candidates(query)


class TestBatchMatchesScalar:
    """``candidate_rows_batch`` must equal per-query ``candidate_rows``
    on both strategies, foreign (empty) query cells included."""

    @pytest.mark.parametrize("strategy", ["enumerate", "kdtree"])
    def test_fixed_queries(self, random_cells_2d, strategy):
        side = 0.5
        finder = NeighborCellFinder(
            random_cells_2d, side, side * math.sqrt(2), strategy=strategy
        )
        queries = np.array([(0, 0), (3, -2), (-6, 6), (100, 100), (0, 0)])
        rows, offsets = finder.candidate_rows_batch(queries)
        for g, query in enumerate(queries):
            np.testing.assert_array_equal(
                rows[offsets[g] : offsets[g + 1]],
                finder.candidate_rows(tuple(int(v) for v in query)),
            )

    @pytest.mark.parametrize("strategy", ["enumerate", "kdtree"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_random_queries(self, dim, strategy):
        rng = np.random.default_rng(10 + dim)
        cells = np.unique(rng.integers(-5, 6, (200, dim)), axis=0)
        side = 0.3
        finder = NeighborCellFinder(
            cells, side, side * math.sqrt(dim), strategy=strategy
        )
        queries = rng.integers(-7, 8, (300, dim))
        rows, offsets = finder.candidate_rows_batch(queries)
        for g, query in enumerate(queries):
            np.testing.assert_array_equal(
                rows[offsets[g] : offsets[g + 1]],
                finder.candidate_rows(tuple(int(v) for v in query)),
            )

    def test_kdtree_high_dimensional(self):
        rng = np.random.default_rng(13)
        cells = np.unique(rng.integers(-2, 3, (400, 13)), axis=0)
        side = 0.4
        finder = NeighborCellFinder(cells, side, side * math.sqrt(13))
        assert finder.strategy == "kdtree"
        queries = np.concatenate([cells[:50], rng.integers(-3, 4, (50, 13))])
        rows, offsets = finder.candidate_rows_batch(queries)
        for g, query in enumerate(queries):
            np.testing.assert_array_equal(
                rows[offsets[g] : offsets[g + 1]],
                finder.candidate_rows(tuple(int(v) for v in query)),
            )

    def test_sparse_high_dimensional_batch_memory_is_bounded(self):
        # Sparse 13-d cells: every query hits only its own cell, so hit
        # counts say nothing about the tree walk, which starts from a
        # 256-node frontier per query.  The walk's pair blocks must stay
        # bounded: an unbounded walk over this batch peaks above 100 MB.
        rng = np.random.default_rng(7)
        cells = np.unique(rng.integers(-(10**6), 10**6, (8000, 13)), axis=0)
        finder = NeighborCellFinder(cells, 1.0, math.sqrt(13))
        assert finder.strategy == "kdtree"
        tracemalloc.start()
        try:
            rows, offsets = finder.candidate_rows_batch(cells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(rows, np.arange(cells.shape[0]))
        np.testing.assert_array_equal(offsets, np.arange(cells.shape[0] + 1))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("strategy", ["enumerate", "kdtree"])
    def test_empty_batch(self, random_cells_2d, strategy):
        finder = NeighborCellFinder(random_cells_2d, 0.5, 0.5, strategy=strategy)
        rows, offsets = finder.candidate_rows_batch(np.empty((0, 2), dtype=np.int64))
        assert rows.size == 0 and offsets.tolist() == [0]


class TestAutoStrategy:
    def test_low_dim_auto_is_enumerate(self):
        finder = NeighborCellFinder({(0, 0)}, 1.0, math.sqrt(2))
        assert finder.strategy == "enumerate"

    def test_high_dim_auto_is_kdtree(self):
        cell = tuple([0] * 13)
        finder = NeighborCellFinder({cell}, 1.0, math.sqrt(13))
        assert finder.strategy == "kdtree"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            NeighborCellFinder({(0, 0)}, 1.0, 1.0, strategy="quantum")


class TestEdgeCases:
    def test_empty_cell_set(self):
        finder = NeighborCellFinder(set(), 1.0, 1.0, strategy="kdtree")
        assert finder.candidates((0,)) == []

    def test_query_from_empty_cell(self, random_cells_2d):
        side = 0.5
        eps = side * math.sqrt(2)
        finder = NeighborCellFinder(random_cells_2d, side, eps)
        query = (999, 999)  # definitely not a member
        assert finder.candidates(query) == []

    def test_self_included_when_nonempty(self):
        finder = NeighborCellFinder({(1, 1)}, 1.0, math.sqrt(2))
        assert (1, 1) in finder.candidates((1, 1))

    def test_rejects_nonpositive_side(self):
        with pytest.raises(ValueError):
            NeighborCellFinder({(0,)}, 0.0, 1.0)


class TestDeterministicOrdering:
    """Regression: candidates must come back in lexicographic order.

    The finder used to be built from ``set(...)`` cell ids, which made
    candidate order depend on hash iteration — harmless for correctness
    but fatal for bit-identical results across runs and engines.  The
    sorted-array finder pins both the row indices (ascending) and the
    tuple candidates (lexicographic).
    """

    @pytest.mark.parametrize("strategy", ["enumerate", "kdtree"])
    def test_candidate_rows_ascending(self, random_cells_2d, strategy):
        side = 0.5
        eps = side * math.sqrt(2)
        finder = NeighborCellFinder(random_cells_2d, side, eps, strategy=strategy)
        for query in sorted(random_cells_2d)[:25]:
            rows = finder.candidate_rows(query)
            assert rows.dtype == np.int64
            assert np.all(np.diff(rows) > 0)  # strictly ascending
            cells = [tuple(r) for r in finder.cell_ids[rows].tolist()]
            assert cells == sorted(cells)
            assert cells == finder.candidates(query)

    def test_rows_index_the_sorted_id_array(self, random_cells_2d):
        side = 0.5
        eps = side * math.sqrt(2)
        finder = NeighborCellFinder(random_cells_2d, side, eps)
        as_tuples = [tuple(r) for r in finder.cell_ids.tolist()]
        # The finder's id array is the canonical lexicographic order —
        # rows double as dense dictionary indices.
        assert as_tuples == sorted(set(as_tuples))
        for query in sorted(random_cells_2d)[:10]:
            expected = brute_candidates(random_cells_2d, query, side, eps)
            assert finder.candidates(query) == expected

    def test_set_and_array_inputs_agree(self, random_cells_2d):
        side = 0.5
        eps = side * math.sqrt(2)
        from_set = NeighborCellFinder(random_cells_2d, side, eps)
        ids = np.array(sorted(random_cells_2d), dtype=np.int64)
        from_array = NeighborCellFinder(ids, side, eps)
        assert np.array_equal(from_set.cell_ids, from_array.cell_ids)
        some = sorted(random_cells_2d)[0]
        assert np.array_equal(
            from_set.candidate_rows(some), from_array.candidate_rows(some)
        )
