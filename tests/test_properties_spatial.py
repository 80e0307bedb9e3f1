"""Property-based tests for the spatial substrate and baselines' geometry."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.region_split import (
    partition_cost_based,
    partition_even_split,
    partition_reduced_boundary,
)
from repro.core.cells import CellGeometry
from repro.core.dictionary import CellDictionary
from repro.core.serialization import deserialize_dictionary, serialize_dictionary
from repro.spatial.distance import euclidean, seq_squared_distances
from repro.spatial.kdtree import KDTree

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

points_nd = arrays(
    np.float64,
    st.tuples(st.integers(3, 80), st.integers(1, 4)),
    elements=st.floats(-10, 10, allow_nan=False, width=32),
)


class TestDistanceProperties:
    @SETTINGS
    @given(points=points_nd)
    def test_triangle_inequality(self, points):
        if points.shape[0] < 3:
            return
        a, b, c = points[0], points[1], points[2]
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-9

    @SETTINGS
    @given(points=points_nd)
    def test_pairwise_symmetry_and_diagonal(self, points):
        d2 = seq_squared_distances(points, points)
        np.testing.assert_array_equal(d2, d2.T)
        np.testing.assert_array_equal(np.diag(d2), 0.0)

    @SETTINGS
    @given(points=points_nd, shift=st.floats(-5, 5, allow_nan=False))
    def test_translation_invariance(self, points, shift):
        moved = points + shift
        np.testing.assert_allclose(
            seq_squared_distances(points, points),
            seq_squared_distances(moved, moved),
            atol=1e-6,
        )


class TestKDTreeProperties:
    @SETTINGS
    @given(points=points_nd, radius=st.floats(0.1, 5.0))
    def test_ball_query_exactness(self, points, radius):
        tree = KDTree(points)
        center = points[0]
        got = set(tree.query_ball(center, radius).tolist())
        diff = points - center
        expected = set(
            np.nonzero(np.einsum("ij,ij->i", diff, diff) <= radius**2)[0].tolist()
        )
        assert got == expected

    @SETTINGS
    @given(points=points_nd)
    def test_nearest_is_self_when_indexed(self, points):
        tree = KDTree(points)
        idx, dist = tree.query_nearest(points[0])
        assert dist <= 1e-9


class TestRegionPartitionProperties:
    @SETTINGS
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(8, 120), st.just(2)),
            elements=st.floats(-5, 5, allow_nan=False, width=32),
        ),
        k=st.integers(1, 6),
        eps=st.floats(0.05, 1.0),
    )
    @pytest.mark.parametrize(
        "partitioner",
        [partition_even_split, partition_reduced_boundary, partition_cost_based],
    )
    def test_regions_cover_every_point_once(self, partitioner, points, k, eps):
        regions = partitioner(points, k, eps)
        ownership = np.zeros(points.shape[0], dtype=int)
        for region in regions:
            ownership += region.contains(points).astype(int)
        assert np.all(ownership == 1)
        assert 1 <= len(regions) <= k


class TestSerializationProperties:
    @SETTINGS
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.just(2)),
            elements=st.floats(-8, 8, allow_nan=False, width=16),
        ),
        rho=st.sampled_from([1.0, 0.5, 0.1, 0.05, 0.01]),
        eps=st.floats(0.1, 2.0),
    )
    def test_roundtrip_preserves_summary(self, points, rho, eps):
        geometry = CellGeometry(eps, 2, rho)
        dictionary = CellDictionary.from_points(points, geometry)
        clone = deserialize_dictionary(serialize_dictionary(dictionary))
        assert clone.num_points == dictionary.num_points
        assert set(clone.cells) == set(dictionary.cells)
        for cell_id, summary in dictionary.cells.items():
            other = clone.cells[cell_id]
            got = {
                (tuple(c), int(n))
                for c, n in zip(other.sub_coords.tolist(), other.sub_counts)
            }
            want = {
                (tuple(c), int(n))
                for c, n in zip(summary.sub_coords.tolist(), summary.sub_counts)
            }
            assert got == want


class TestIncrementalDictionaryProperties:
    @SETTINGS
    @given(
        first=arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(-5, 5, allow_nan=False, width=16),
        ),
        second=arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(-5, 5, allow_nan=False, width=16),
        ),
    )
    def test_add_points_equals_fresh_build(self, first, second):
        geometry = CellGeometry(0.7, 2, 0.1)
        incremental = CellDictionary.from_points(first, geometry)
        incremental.add_points(second)
        fresh = CellDictionary.from_points(
            np.concatenate([first, second]), geometry
        )
        assert incremental.num_points == fresh.num_points
        assert set(incremental.cells) == set(fresh.cells)
        for cell_id in fresh.cells:
            assert (
                incremental.cells[cell_id].count == fresh.cells[cell_id].count
            )
