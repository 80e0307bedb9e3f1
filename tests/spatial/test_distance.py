"""Unit tests for repro.spatial.distance."""

import numpy as np
import pytest

from repro.spatial.distance import (
    count_within,
    euclidean,
    points_within,
    seq_squared_distances,
    squared_distances,
)


class TestEuclidean:
    def test_simple_345_triangle(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_identical_points(self):
        p = np.array([1.5, -2.0, 7.0])
        assert euclidean(p, p) == 0.0

    def test_symmetry(self):
        p = np.array([1.0, 2.0])
        q = np.array([-3.0, 0.5])
        assert euclidean(p, q) == euclidean(q, p)

    def test_one_dimension(self):
        assert euclidean(np.array([2.0]), np.array([-1.0])) == 3.0


class TestSquaredDistances:
    def test_matches_euclidean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        center = rng.normal(size=3)
        expected = np.array([euclidean(p, center) ** 2 for p in pts])
        np.testing.assert_allclose(squared_distances(pts, center), expected)

    def test_empty_input(self):
        out = squared_distances(np.empty((0, 2)), np.zeros(2))
        assert out.shape == (0,)


def _scalar_squared(p, q):
    acc = 0.0
    for k in range(p.size):
        acc += (p[k] - q[k]) ** 2
    return acc


class TestPairwiseDistances:
    """:func:`seq_squared_distances`, the pairwise squared distances
    every within-eps test uses."""

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(20, 4))
        b = rng.normal(size=(30, 4))
        out = seq_squared_distances(a, b)
        brute = np.array([[_scalar_squared(p, q) for q in b] for p in a])
        np.testing.assert_array_equal(out, brute)

    def test_large_coordinates_do_not_cancel(self):
        # |a|^2 + |b|^2 - 2ab cancels here: 0.269 away read as 1.414.
        a = np.array([[-1.25, -102 / 1024], [-1.0, 0.0]]) + 2.0**26
        out = seq_squared_distances(a, a)
        np.testing.assert_array_equal(np.diag(out), 0.0)
        assert out[0, 1] == out[1, 0] == 0.25**2 + (102 / 1024) ** 2

    def test_shape(self):
        out = seq_squared_distances(np.zeros((3, 2)), np.zeros((5, 2)))
        assert out.shape == (3, 5)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            seq_squared_distances(np.zeros(3), np.zeros((5, 3)))


class TestPointsWithin:
    def test_inclusive_boundary(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = points_within(pts, np.zeros(2), 1.0)
        assert mask.tolist() == [True, False]

    def test_count_within(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        assert count_within(pts, np.zeros(2), 1.0) == 2
