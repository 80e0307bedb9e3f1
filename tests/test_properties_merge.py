"""Partition-count invariance of the Phase III-1 merge plane.

The contract: pseudo random partitioning gives every cell to exactly one
partition, and the tournament merges the partitions' subgraphs into the
same global cell graph however many there are.  So the labels, core
flags and cluster count of a ``num_partitions=k`` fit equal those of the
one-partition fit, which runs no tournament round — including the
degenerate shapes the tournament must survive: odd partition counts
(bye rounds), more partitions than points (empty partitions), and
all-noise data.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RPDBSCAN

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def two_blob_points(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = max(n // 2, 1)
    return np.concatenate(
        [
            rng.normal([0, 0], 0.2, (half, 2)),
            rng.normal([4, 4], 0.2, (n - half, 2)),
        ]
    )


def run(points, k, *, min_pts=5):
    return RPDBSCAN(eps=0.5, min_pts=min_pts, num_partitions=k, seed=0).fit(points)


def assert_same_clustering(reference, result):
    assert np.array_equal(reference.labels, result.labels)
    assert np.array_equal(reference.core_mask, result.core_mask)
    assert reference.n_clusters == result.n_clusters


class TestMergePlaneEquivalence:
    @SETTINGS
    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(40, 160),
        k=st.integers(2, 9),
    )
    def test_every_variant_matches_reference(self, seed, n, k):
        points = two_blob_points(seed, n)
        assert_same_clustering(run(points, 1), run(points, k))

    @SETTINGS
    @given(seed=st.integers(0, 1_000), n=st.integers(10, 60))
    def test_single_partition_has_no_rounds(self, seed, n):
        # k=1: the tournament is a bye all the way down; the smallest
        # real tournament (k=2, one match) finds the same clusters.
        points = two_blob_points(seed, n)
        reference = run(points, 1)
        assert reference.merge_stats.num_rounds == 0
        assert_same_clustering(reference, run(points, 2))

    @SETTINGS
    @given(seed=st.integers(0, 1_000), k=st.sampled_from([3, 5, 7]))
    def test_bye_rounds(self, seed, k):
        # Odd partition counts force a bye in round one (and possibly
        # later); the carried-over graph must lose nothing.
        points = two_blob_points(seed, 120)
        result = run(points, k)
        assert result.merge_stats.num_rounds == math.ceil(math.log2(k))
        assert_same_clustering(run(points, 1), result)

    @SETTINGS
    @given(seed=st.integers(0, 1_000))
    def test_more_partitions_than_points(self, seed):
        # Empty partitions emit empty subgraphs that still enter the
        # tournament bracket.
        points = two_blob_points(seed, 6)
        assert_same_clustering(run(points, 1), run(points, 10))

    @SETTINGS
    @given(seed=st.integers(0, 1_000), k=st.integers(2, 6))
    def test_all_noise(self, seed, k):
        # min_pts larger than the data set: no core cells anywhere, the
        # merged graph carries no FULL edges, everything labels -1.
        points = two_blob_points(seed, 40)
        result = run(points, k, min_pts=100)
        assert result.n_clusters == 0
        assert np.all(result.labels == -1)
        assert_same_clustering(run(points, 1, min_pts=100), result)
