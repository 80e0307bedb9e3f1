"""Unit tests for repro.core.dictionary (Def 4.2, Lemma 4.3)."""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.dictionary import (
    CellDictionary,
    CellSummary,
    DictionarySizeModel,
    summarize_cell,
)


@pytest.fixture()
def geometry():
    return CellGeometry(eps=0.5, dim=2, rho=0.05)


@pytest.fixture()
def dictionary(geometry, uniform_points):
    return CellDictionary.from_points(uniform_points, geometry)


@pytest.fixture(scope="module")
def uniform_points():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 3, (1000, 2))


class TestConstruction:
    def test_densities_sum_to_n(self, dictionary, uniform_points):
        assert dictionary.num_points == uniform_points.shape[0]

    def test_subcell_densities_sum_to_cell_density(self, dictionary):
        for summary in dictionary.cells.values():
            assert int(summary.sub_counts.sum()) == summary.count

    def test_subcells_at_most_points(self, dictionary):
        for summary in dictionary.cells.values():
            assert summary.num_subcells <= summary.count

    def test_dim_mismatch_rejected(self, geometry):
        with pytest.raises(ValueError):
            CellDictionary.from_points(np.zeros((5, 3)), geometry)

    def test_empty_points(self, geometry):
        d = CellDictionary.from_points(np.empty((0, 2)), geometry)
        assert d.num_cells == 0 and d.num_points == 0

    def test_contains_and_len(self, dictionary):
        assert len(dictionary) == dictionary.num_cells
        some_cell = next(iter(dictionary.cells))
        assert some_cell in dictionary


class TestSummarizeCell:
    def test_single_point(self, geometry):
        summary = summarize_cell(np.array([[0.1, 0.1]]), (0, 0), geometry)
        assert summary.count == 1 and summary.num_subcells == 1

    def test_coincident_points_share_subcell(self, geometry):
        pts = np.tile([0.12, 0.07], (5, 1))
        summary = summarize_cell(pts, (0, 0), geometry)
        assert summary.count == 5 and summary.num_subcells == 1

    def test_summary_validation(self):
        with pytest.raises(ValueError):
            CellSummary(
                count=3,
                sub_coords=np.zeros((1, 2), dtype=np.uint16),
                sub_counts=np.array([2]),
            )


class TestMerge:
    def test_merge_disjoint(self, geometry):
        a = CellDictionary.from_points(np.array([[0.1, 0.1]]), geometry)
        b = CellDictionary.from_points(np.array([[5.0, 5.0]]), geometry)
        merged = CellDictionary.merge([a, b])
        assert merged.num_cells == 2 and merged.num_points == 2

    def test_merge_overlapping_rejected(self, geometry):
        a = CellDictionary.from_points(np.array([[0.1, 0.1]]), geometry)
        b = CellDictionary.from_points(np.array([[0.2, 0.2]]), geometry)
        with pytest.raises(ValueError, match="share cells"):
            CellDictionary.merge([a, b])

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            CellDictionary.merge([])

    def test_merge_equals_global_build(self, geometry, uniform_points):
        # Per-partition build + merge == one global build.
        from repro.core.partitioning import pseudo_random_partition

        partitions = pseudo_random_partition(uniform_points, geometry, 4, seed=1)
        partials = [
            CellDictionary.from_points(p.points, geometry)
            for p in partitions
            if p.num_points
        ]
        merged = CellDictionary.merge(partials)
        direct = CellDictionary.from_points(uniform_points, geometry)
        assert set(merged.cells) == set(direct.cells)
        for cell_id in merged.cells:
            assert merged.cells[cell_id].count == direct.cells[cell_id].count


class TestSizeModel:
    """Lemma 4.3: size = 32(|cell|+|subcell|) + 32 d |cell| + d(h-1)|subcell|."""

    def test_formula(self):
        model = DictionarySizeModel(num_cells=10, num_subcells=40, dim=3, h=8)
        assert model.density_bits == 32 * 50
        assert model.position_bits == 32 * 3 * 10 + 3 * 7 * 40
        assert model.total_bits == model.density_bits + model.position_bits

    def test_ratio_to_data(self):
        model = DictionarySizeModel(num_cells=1, num_subcells=1, dim=2, h=2)
        # data = 32 * 2 * 100 bits; dict = 32*2 + 32*2*1 + 2*1*1 bits
        assert model.ratio_to_data(100) == pytest.approx((64 + 64 + 2) / 6400)

    def test_ratio_shrinks_with_more_points_per_cell(self):
        geometry = CellGeometry(eps=1.0, dim=2, rho=0.05)
        rng = np.random.default_rng(5)
        small = CellDictionary.from_points(rng.uniform(0, 2, (200, 2)), geometry)
        dense = CellDictionary.from_points(rng.uniform(0, 2, (20_000, 2)), geometry)
        assert dense.size_model().ratio_to_data(20_000) < small.size_model().ratio_to_data(200)

    def test_rejects_nonpositive_points(self):
        model = DictionarySizeModel(1, 1, 2, 2)
        with pytest.raises(ValueError):
            model.ratio_to_data(0)


class TestQuerySupport:
    def test_centers_cached_and_correct(self, dictionary, geometry):
        cell_id = next(iter(dictionary.cells))
        first = dictionary.sub_cell_centers(cell_id)
        second = dictionary.sub_cell_centers(cell_id)
        assert first is second  # cache hit
        lo, hi = geometry.cell_box(cell_id)
        assert np.all(first >= lo) and np.all(first <= hi)

    def test_densities_dtype(self, dictionary):
        cell_id = next(iter(dictionary.cells))
        assert dictionary.densities(cell_id).dtype == np.float64

    def test_cell_ids_array_sorted(self, dictionary):
        ids = dictionary.cell_ids_array()
        assert ids.shape[1] == 2
        as_tuples = [tuple(row) for row in ids.tolist()]
        assert as_tuples == sorted(as_tuples)


class TestIncrementalUpdate:
    def test_update_equals_fresh_build(self, geometry):
        rng = np.random.default_rng(9)
        first = rng.uniform(0, 3, (600, 2))
        second = rng.uniform(0, 3, (400, 2))
        incremental = CellDictionary.from_points(first, geometry)
        incremental.add_points(second)
        fresh = CellDictionary.from_points(np.concatenate([first, second]), geometry)
        assert set(incremental.cells) == set(fresh.cells)
        for cell_id in fresh.cells:
            a, b = incremental.cells[cell_id], fresh.cells[cell_id]
            assert a.count == b.count
            got = {
                (tuple(c), int(n)) for c, n in zip(a.sub_coords.tolist(), a.sub_counts)
            }
            want = {
                (tuple(c), int(n)) for c, n in zip(b.sub_coords.tolist(), b.sub_counts)
            }
            assert got == want

    def test_update_invalidates_caches(self, geometry):
        rng = np.random.default_rng(10)
        d = CellDictionary.from_points(rng.uniform(0, 1, (50, 2)), geometry)
        cell_id = next(iter(d.cells))
        before = d.sub_cell_centers(cell_id)
        d.index_map  # build the index
        d.add_points(rng.uniform(0, 1, (50, 2)))
        after = d.sub_cell_centers(cell_id)
        assert after.shape[0] >= 1
        assert d.num_points == 100
        # Index rebuilt consistently.
        assert set(d.index_map) == set(d.cells)

    def test_update_empty_batch(self, geometry):
        rng = np.random.default_rng(11)
        d = CellDictionary.from_points(rng.uniform(0, 1, (50, 2)), geometry)
        d.add_points(np.empty((0, 2)))
        assert d.num_points == 50

    def test_update_dim_mismatch(self, geometry):
        d = CellDictionary.from_points(np.zeros((1, 2)), geometry)
        with pytest.raises(ValueError):
            d.add_points(np.zeros((3, 3)))

    def test_queries_after_update(self, geometry):
        from repro.core.dictionary import FlatCellDictionary
        from repro.core.region_query import RegionQueryEngine

        rng = np.random.default_rng(12)
        first = rng.normal([1, 1], 0.2, (300, 2))
        second = rng.normal([1, 1], 0.2, (300, 2))
        d = CellDictionary.from_points(first, geometry)
        d.add_points(second)
        engine = RegionQueryEngine(FlatCellDictionary.from_cell_dictionary(d))
        count, _ = engine.query_point(np.array([1.0, 1.0]))
        both = np.concatenate([first, second])
        diff = both - np.array([1.0, 1.0])
        exact = int(
            np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= geometry.eps**2)
        )
        # Sandwich bound still holds over the union.
        rho, eps = geometry.rho, geometry.eps
        inner = int(np.count_nonzero(
            np.einsum("ij,ij->i", diff, diff) <= ((1 - rho / 2) * eps) ** 2
        ))
        outer = int(np.count_nonzero(
            np.einsum("ij,ij->i", diff, diff) <= ((1 + rho / 2) * eps) ** 2
        ))
        assert inner <= count <= outer
