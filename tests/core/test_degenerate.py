"""Degenerate-input tests for the full RP-DBSCAN pipeline.

Coincident points, grid-aligned coordinates, one-dimensional data, the
coarsest approximation (rho = 1: sub-cell == cell), and single-cluster /
single-point inputs — the corners where floor/boundary arithmetic and
empty structures bite.
"""

import numpy as np
import pytest

from repro import RPDBSCAN
from repro.baselines import ExactDBSCAN
from repro.metrics import rand_index


class TestCoincidentPoints:
    def test_all_identical(self):
        pts = np.tile([1.0, 2.0], (100, 1))
        result = RPDBSCAN(eps=0.5, min_pts=10, num_partitions=4).fit(pts)
        assert result.n_clusters == 1
        assert result.noise_count == 0
        assert bool(result.core_mask.all())

    def test_two_identical_groups(self):
        pts = np.concatenate(
            [np.tile([0.0, 0.0], (50, 1)), np.tile([10.0, 10.0], (50, 1))]
        )
        result = RPDBSCAN(eps=0.5, min_pts=10).fit(pts)
        assert result.n_clusters == 2

    def test_duplicates_below_min_pts(self):
        pts = np.tile([0.0, 0.0], (5, 1))
        result = RPDBSCAN(eps=0.5, min_pts=10).fit(pts)
        assert result.n_clusters == 0
        assert result.noise_count == 5


class TestGridAlignedCoordinates:
    def test_integer_lattice(self):
        # Points exactly on cell-boundary multiples stress the floor
        # arithmetic.  eps sits strictly above the lattice spacing so
        # neighbors are robustly inside the ball (see the gray-zone test
        # below for the eps == spacing boundary).
        xs, ys = np.meshgrid(np.arange(10, dtype=float), np.arange(10, dtype=float))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        exact = ExactDBSCAN(1.05, 4).fit(pts)
        rp = RPDBSCAN(1.05, 4, num_partitions=4, rho=0.01).fit(pts)
        assert rp.n_clusters == exact.n_clusters == 1
        assert rand_index(exact.labels, rp.labels) >= 0.999

    def test_exact_boundary_is_a_gray_zone(self):
        # Neighbors at distance exactly eps live inside Lemma 5.2's
        # (1 +- rho/2) eps blur: the approximate query may count or drop
        # them.  The paper calls this out ("the minor difference could
        # happen mostly if the value of eps was a poor choice") — this
        # test documents the contract rather than demanding exactness.
        xs, ys = np.meshgrid(np.arange(10, dtype=float), np.arange(10, dtype=float))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        rp = RPDBSCAN(1.0, 4, num_partitions=4, rho=0.01).fit(pts)
        # Either everything clusters (neighbors counted) or everything is
        # noise (neighbors dropped); no in-between corruption.
        assert rp.n_clusters in (0, 1)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(0)
        pts = rng.normal([-50.0, -50.0], 0.1, (200, 2))
        result = RPDBSCAN(0.3, 10).fit(pts)
        assert result.n_clusters == 1


class TestOneDimensional:
    def test_two_intervals(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate(
            [rng.uniform(0.0, 1.0, (200, 1)), rng.uniform(5.0, 6.0, (200, 1))]
        )
        exact = ExactDBSCAN(0.1, 5).fit(pts)
        rp = RPDBSCAN(0.1, 5, num_partitions=4).fit(pts)
        assert rp.n_clusters == exact.n_clusters == 2
        assert rand_index(exact.labels, rp.labels) >= 0.999


class TestCoarsestApproximation:
    def test_rho_one_runs_and_respects_sandwich(self, two_blobs):
        # rho = 1: h = 1, a sub-cell IS its cell; the blur is +-eps/2.
        result = RPDBSCAN(0.3, 10, rho=1.0).fit(two_blobs)
        # Two far-apart blobs survive even the coarsest approximation.
        assert result.n_clusters == 2
        assert result.noise_count == 0

    def test_rho_one_dictionary_is_single_level(self, two_blobs):
        from repro.core.cells import CellGeometry
        from repro.core.dictionary import FlatCellDictionary

        geometry = CellGeometry(0.3, 2, rho=1.0)
        assert geometry.h == 1
        assert geometry.subcells_per_cell == 1
        dictionary = FlatCellDictionary.from_points(two_blobs, geometry)
        assert dictionary.num_subcells == dictionary.num_cells


class TestTinyInputs:
    def test_single_point(self):
        result = RPDBSCAN(1.0, 1).fit(np.array([[3.0, 4.0]]))
        assert result.n_clusters == 1
        assert result.labels.tolist() == [0]

    def test_two_far_points(self):
        result = RPDBSCAN(1.0, 1).fit(np.array([[0.0, 0.0], [100.0, 100.0]]))
        assert result.n_clusters == 2

    def test_more_partitions_than_points(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        result = RPDBSCAN(1.0, 1, num_partitions=16).fit(pts)
        assert result.n_clusters == 1

    def test_huge_coordinates(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(1e7, 0.1, (100, 2))
        result = RPDBSCAN(0.5, 5).fit(pts)
        assert result.n_clusters == 1
        assert result.noise_count == 0


class TestGridOverflow:
    """Cell coordinates that would not fit int64 are refused, not wrapped."""

    def test_tiny_eps_over_wide_range_rejected(self):
        pts = np.array([[-1e6, 0.0], [1e6, 0.0], [0.0, 1e6]])
        with pytest.raises(ValueError, match=r"eps=1e-14.*cell side.*-1e\+06, 1e\+06"):
            RPDBSCAN(1e-14, 2).fit(pts)

    def test_points_near_1e300_rejected(self):
        # Two points 1.0 apart: a wrapped grid reported both as noise.
        pts = np.array([[1e300, 0.0], [1e300, 1.0]])
        with pytest.raises(ValueError, match="int64 grid bound"):
            RPDBSCAN(1.0, 2).fit(pts)

    def test_memmap_source_checked_too(self, tmp_path):
        from repro.data.streaming import MemmapSource

        path = tmp_path / "far.npy"
        np.save(path, np.array([[1e300, 0.0], [1e300, 1.0]]))
        with pytest.raises(ValueError, match="int64 grid bound"):
            RPDBSCAN(1.0, 2).fit(MemmapSource.from_npy(path))

    def test_ingest_rejects_out_of_range_points(self):
        state = RPDBSCAN(1.0, 2).fit(np.array([[0.0, 0.0], [0.5, 0.0]])).state
        with pytest.raises(ValueError, match="int64 grid bound"):
            state.ingest(np.array([[1e300, 0.0]]))
        assert state.points.shape[0] == 2  # nothing committed

    def test_wide_but_representable_range_still_fits(self):
        pts = np.array([[-1e9, 0.0], [-1e9, 0.5], [1e9, 0.0], [1e9, 0.5]])
        result = RPDBSCAN(1.0, 2).fit(pts)
        assert result.n_clusters == 2
