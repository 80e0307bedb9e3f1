"""Property-based equivalence of the Phase III-1 merge plane.

The contract: labels, cluster counts, and the per-round ``MergeStats``
accounting are **bit-identical** across every ``merge_mode`` ({driver,
engine, auto}).  The driver-mode run is the reference; every other mode
must reproduce it exactly — including the degenerate shapes the
tournament must survive: one partition (no rounds), odd partition
counts (bye rounds), more partitions than points (empty partitions),
and all-noise data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RPDBSCAN
from repro.engine import Engine

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every merge mode other than the reference (driver).
VARIANTS = ["engine", "auto"]


def two_blob_points(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = max(n // 2, 1)
    return np.concatenate(
        [
            rng.normal([0, 0], 0.2, (half, 2)),
            rng.normal([4, 4], 0.2, (n - half, 2)),
        ]
    )


def run(points, k, merge_mode, *, min_pts=5):
    with Engine("serial") as engine:
        model = RPDBSCAN(
            eps=0.5,
            min_pts=min_pts,
            num_partitions=k,
            seed=0,
            engine=engine,
            merge_mode=merge_mode,
        )
        return model.fit(points)


def assert_bit_identical(reference, result):
    assert np.array_equal(reference.labels, result.labels)
    assert np.array_equal(reference.core_mask, result.core_mask)
    assert reference.n_clusters == result.n_clusters
    ref_stats, stats = reference.merge_stats, result.merge_stats
    assert ref_stats.edges_per_round == stats.edges_per_round
    assert ref_stats.resolved_per_round == stats.resolved_per_round
    assert ref_stats.removed_per_round == stats.removed_per_round
    assert ref_stats.num_rounds == stats.num_rounds


class TestMergePlaneEquivalence:
    @SETTINGS
    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(40, 160),
        k=st.integers(1, 9),
    )
    def test_every_variant_matches_reference(self, seed, n, k):
        points = two_blob_points(seed, n)
        reference = run(points, k, "driver")
        for merge_mode in VARIANTS:
            result = run(points, k, merge_mode)
            assert_bit_identical(reference, result)

    @SETTINGS
    @given(seed=st.integers(0, 1_000), n=st.integers(10, 60))
    def test_single_partition_has_no_rounds(self, seed, n):
        # k=1: the tournament is a bye all the way down.
        points = two_blob_points(seed, n)
        reference = run(points, 1, "driver")
        assert reference.merge_stats.num_rounds == 0
        for merge_mode in VARIANTS:
            assert_bit_identical(
                reference, run(points, 1, merge_mode)
            )

    @SETTINGS
    @given(seed=st.integers(0, 1_000), k=st.sampled_from([3, 5, 7]))
    def test_bye_rounds(self, seed, k):
        # Odd partition counts force a bye in round one (and possibly
        # later); the carried-over graph must stay bit-equivalent.
        points = two_blob_points(seed, 120)
        reference = run(points, k, "driver")
        for merge_mode in VARIANTS:
            assert_bit_identical(
                reference, run(points, k, merge_mode)
            )

    @SETTINGS
    @given(seed=st.integers(0, 1_000))
    def test_more_partitions_than_points(self, seed):
        # Empty partitions emit empty subgraphs that still enter the
        # tournament bracket.
        points = two_blob_points(seed, 6)
        reference = run(points, 10, "driver")
        for merge_mode in VARIANTS:
            assert_bit_identical(
                reference, run(points, 10, merge_mode)
            )

    @SETTINGS
    @given(seed=st.integers(0, 1_000), k=st.integers(2, 6))
    def test_all_noise(self, seed, k):
        # min_pts larger than the data set: no core cells anywhere, the
        # merged graph carries no FULL edges, everything labels -1.
        points = two_blob_points(seed, 40)
        reference = run(points, k, "driver", min_pts=100)
        assert reference.n_clusters == 0
        assert np.all(reference.labels == -1)
        for merge_mode in VARIANTS:
            result = run(points, k, merge_mode, min_pts=100)
            assert_bit_identical(reference, result)

    def test_merge_mode_validation(self):
        with pytest.raises(ValueError, match="merge_mode"):
            RPDBSCAN(eps=0.5, min_pts=5, merge_mode="spark")
