"""Unit tests for repro.spatial.kdtree."""

import numpy as np
import pytest

from repro.spatial import kdtree
from repro.spatial.kdtree import KDTree


def brute_ball(points, center, radius):
    diff = points - center
    return set(np.nonzero(np.einsum("ij,ij->i", diff, diff) <= radius**2)[0].tolist())


class TestQueryBall:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_matches_bruteforce(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.normal(size=(300, dim))
        tree = KDTree(pts)
        for _ in range(10):
            center = rng.normal(size=dim)
            radius = float(rng.uniform(0.3, 1.5))
            got = set(tree.query_ball(center, radius).tolist())
            assert got == brute_ball(pts, center, radius)

    def test_empty_tree(self):
        tree = KDTree(np.empty((0, 3)))
        assert tree.query_ball(np.zeros(3), 1.0).size == 0

    def test_zero_radius_hits_exact_point(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        tree = KDTree(pts)
        assert set(tree.query_ball(np.array([1.0, 1.0]), 0.0).tolist()) == {1}

    def test_duplicate_points(self):
        pts = np.zeros((100, 2))
        tree = KDTree(pts)
        assert tree.query_ball(np.zeros(2), 0.1).size == 100

    def test_wrong_center_shape(self):
        tree = KDTree(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            tree.query_ball(np.zeros(2), 1.0)

    def test_small_leaf_size(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(200, 2))
        tree = KDTree(pts, leaf_size=2)
        center = np.zeros(2)
        assert set(tree.query_ball(center, 1.0).tolist()) == brute_ball(
            pts, center, 1.0
        )


class TestQueryBallBatch:
    @pytest.mark.parametrize("dim", [1, 2, 3, 13])
    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_matches_scalar_query_ball(self, dim, leaf_size):
        rng = np.random.default_rng(dim * 100 + leaf_size)
        pts = rng.normal(size=(300, dim))
        tree = KDTree(pts, leaf_size=leaf_size)
        centers = np.concatenate([rng.normal(size=(40, dim)), pts[:10]])
        radius = 0.8 * np.sqrt(dim)
        hits, offsets = tree.query_ball_batch(centers, radius)
        assert offsets.shape == (centers.shape[0] + 1,)
        for g, center in enumerate(centers):
            got = hits[offsets[g] : offsets[g + 1]]
            assert np.all(np.diff(got) > 0)  # ascending, no duplicates
            np.testing.assert_array_equal(got, np.sort(tree.query_ball(center, radius)))

    @pytest.mark.parametrize("budget", [1, 3, 50])
    def test_small_pair_budget_matches_bruteforce(self, monkeypatch, budget):
        # A tiny budget splits the centers into many chunks, the walk
        # into many pending blocks and the leaf scans into many steps.
        monkeypatch.setattr(kdtree, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(budget)
        pts = rng.normal(size=(400, 3))
        tree = KDTree(pts, leaf_size=4)
        centers = rng.normal(size=(30, 3))
        hits, offsets = tree.query_ball_batch(centers, 0.7)
        for g, center in enumerate(centers):
            assert set(hits[offsets[g] : offsets[g + 1]].tolist()) == brute_ball(
                pts, center, 0.7
            )

    def test_empty_tree_and_no_centers(self):
        hits, offsets = KDTree(np.empty((0, 2))).query_ball_batch(np.zeros((3, 2)), 1.0)
        assert hits.size == 0 and offsets.tolist() == [0, 0, 0, 0]
        hits, offsets = KDTree(np.zeros((4, 2))).query_ball_batch(np.empty((0, 2)), 1.0)
        assert hits.size == 0 and offsets.tolist() == [0]

    def test_wrong_center_shape(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((5, 3))).query_ball_batch(np.zeros((2, 2)), 1.0)


class TestQueryNearest:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(500, 3))
        tree = KDTree(pts)
        for _ in range(20):
            center = rng.normal(size=3)
            idx, dist = tree.query_nearest(center)
            diff = pts - center
            sq = np.einsum("ij,ij->i", diff, diff)
            assert idx == int(np.argmin(sq))
            assert np.isclose(dist, np.sqrt(sq.min()))

    def test_empty_tree_raises(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 2))).query_nearest(np.zeros(2))


class TestConstruction:
    def test_len(self):
        assert len(KDTree(np.zeros((7, 2)))) == 7

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros(5))

    def test_rejects_bad_leaf_size(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros((5, 2)), leaf_size=0)
