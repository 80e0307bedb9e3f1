"""Unit tests for repro.core.partitioning (Sec 4.1, Algorithm 2)."""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.core.partitioning import pseudo_random_partition


@pytest.fixture()
def geometry():
    return CellGeometry(eps=0.5, dim=2, rho=0.05)


@pytest.fixture()
def points():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 4, (2000, 2))


class TestPseudoRandomPartition:
    def test_is_a_partition_of_points(self, points, geometry):
        partitions = pseudo_random_partition(points, geometry, 5, seed=0)
        indices = np.concatenate([p.global_indices for p in partitions])
        assert sorted(indices.tolist()) == list(range(points.shape[0]))

    def test_cells_never_split(self, points, geometry):
        # Every cell's points land in exactly one partition.
        partitions = pseudo_random_partition(points, geometry, 5, seed=0)
        rows = np.concatenate([p.rows for p in partitions])
        assert np.unique(rows).size == rows.size, "cell appears in two partitions"

    def test_cell_offsets_consistent(self, points, geometry):
        # Rows are the merged dictionary's rows, ascending; each CSR
        # range holds exactly that cell's points, ascending global index.
        dictionary = FlatCellDictionary.from_points(points, geometry)
        partitions = pseudo_random_partition(points, geometry, 4, seed=1)
        for p in partitions:
            assert np.all(np.diff(p.rows) > 0)
            assert p.offsets[0] == 0 and p.offsets[-1] == p.num_points
            for g, row in enumerate(p.rows):
                start, stop = p.offsets[g], p.offsets[g + 1]
                ids = geometry.cell_ids(p.points[start:stop])
                assert stop > start
                assert np.all(ids == dictionary.cell_ids[row])
                assert np.all(np.diff(p.global_indices[start:stop]) > 0)
        assert sum(p.num_cells for p in partitions) == dictionary.num_cells

    def test_global_indices_match_points(self, points, geometry):
        partitions = pseudo_random_partition(points, geometry, 3, seed=2)
        for p in partitions:
            np.testing.assert_array_equal(points[p.global_indices], p.points)

    def test_deterministic_given_seed(self, points, geometry):
        a = pseudo_random_partition(points, geometry, 4, seed=7)
        b = pseudo_random_partition(points, geometry, 4, seed=7)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.global_indices, pb.global_indices)

    def test_different_seeds_differ(self, points, geometry):
        a = pseudo_random_partition(points, geometry, 4, seed=1)
        b = pseudo_random_partition(points, geometry, 4, seed=2)
        same = all(
            np.array_equal(pa.global_indices, pb.global_indices)
            for pa, pb in zip(a, b)
        )
        assert not same

    def test_shuffle_method_balances_cell_counts(self, points, geometry):
        partitions = pseudo_random_partition(
            points, geometry, 4, seed=0, method="shuffle"
        )
        counts = [p.num_cells for p in partitions]
        assert max(counts) - min(counts) <= 1

    def test_partition_count_exact(self, points, geometry):
        partitions = pseudo_random_partition(points, geometry, 7, seed=0)
        assert len(partitions) == 7
        assert [p.pid for p in partitions] == list(range(7))

    def test_more_partitions_than_cells(self, geometry):
        pts = np.array([[0.1, 0.1], [0.11, 0.12]])  # one cell
        partitions = pseudo_random_partition(pts, geometry, 5, seed=0)
        non_empty = [p for p in partitions if p.num_points]
        assert len(non_empty) == 1 and non_empty[0].num_points == 2

    def test_balance_with_many_cells(self, geometry):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 20, (20_000, 2))  # thousands of cells
        partitions = pseudo_random_partition(pts, geometry, 8, seed=0)
        sizes = np.array([p.num_points for p in partitions])
        # Random-key assignment over many cells: sizes within 20% of mean.
        assert sizes.max() <= 1.2 * sizes.mean()
        assert sizes.min() >= 0.8 * sizes.mean()

    def test_validation(self, points, geometry):
        with pytest.raises(ValueError):
            pseudo_random_partition(points, geometry, 0)
        with pytest.raises(ValueError):
            pseudo_random_partition(points, geometry, 2, method="magic")
        with pytest.raises(ValueError):
            pseudo_random_partition(np.zeros((4, 3)), geometry, 2)

    def test_partition_helpers(self, points, geometry):
        [p] = pseudo_random_partition(points, geometry, 1, seed=0)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        np.testing.assert_array_equal(
            p.point_rows(), dictionary.find_rows(geometry.cell_ids(p.points))
        )
        local = np.array([5, 0, 17])
        np.testing.assert_array_equal(
            p.take(local), points[p.global_indices[local]]
        )
