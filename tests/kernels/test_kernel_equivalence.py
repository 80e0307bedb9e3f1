"""Differential bit-identity suite for the Phase II kernels.

Pins every kernel backend exact-equal to the vectorized numpy reference:
candidate gathers (row order), distance filters (touch masks), density
counts, and final labels, across rho in {0, 0.01, 0.5} and
d in {1, 2, 3, 13}, plus the degenerate inputs (empty cell, single
point, all noise, duplicate points).

The ``python`` backend — the uncompiled kernel source, exactly what
numba compiles — runs everywhere, so the differential holds in
numba-free environments too; the ``numba`` parametrizations skip (not
fail) when numba is absent.  Equality is ``np.array_equal`` on raw
arrays: no tolerance anywhere, per the bit-identity contract in
``repro/kernels/phase2.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cells import CellGeometry
from repro.core.defragmentation import defragment
from repro.core.dictionary import FlatCellDictionary
from repro.core.region_query import RegionQueryEngine
from repro.core.rp_dbscan import EXACT_RHO, RPDBSCAN
from repro.core.sharding import ShardedFlatDictionary
from repro.kernels import HAVE_NUMBA

requires_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")

#: Kernel backends differentially tested against "numpy".  "python" is
#: the uncompiled kernel source (always runnable); "numba" joins on
#: machines that have it.
BACKENDS = [
    "python",
    pytest.param("numba", marks=requires_numba),
]

RHOS = (0.0, 0.01, 0.5)
DIMS = (1, 2, 3, 13)
#: The dictionaries every query differential runs on: the monolithic
#: flat dictionary (the kernel reads its CSR arrays in place) and its
#: sharded form (the kernel reads a pool gathered from the shards).
DICTIONARIES = ("flat", "sharded")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _geometry(eps: float, dim: int, rho: float) -> CellGeometry:
    # rho=0 requests the exact limit; CellGeometry wants a positive rho,
    # so alias it exactly like RPDBSCAN does.
    return CellGeometry(eps, dim, rho if rho > 0 else EXACT_RHO)


def _dictionary(points, geometry, kind):
    flat = FlatCellDictionary.from_points(points, geometry)
    if kind == "flat":
        return flat
    return ShardedFlatDictionary.from_defragmented(defragment(flat, capacity=64))


def _occupied_cells(dictionary):
    return [tuple(int(x) for x in row) for row in dictionary.cell_ids]


def assert_backend_matches_numpy(points, geometry, kind, kernel, query_points=None):
    """Every batch query agrees bit-for-bit between numpy and ``kernel``."""
    dictionary = _dictionary(points, geometry, kind)
    ref = RegionQueryEngine(dictionary, kernel="numpy")
    alt = RegionQueryEngine(dictionary, kernel=kernel)
    qpts = points if query_points is None else query_points
    for cell_id in _occupied_cells(dictionary):
        expected = ref.query_cell_batch(cell_id, qpts)
        actual = alt.query_cell_batch(cell_id, qpts)
        # Candidate gather: same cells, same (lexicographic) order, same
        # dense dictionary rows.
        assert actual.candidate_ids == expected.candidate_ids
        np.testing.assert_array_equal(actual.candidate_rows, expected.candidate_rows)
        # Density counts and distance-filter reachability: exact-equal.
        np.testing.assert_array_equal(actual.counts, expected.counts)
        np.testing.assert_array_equal(actual.touch, expected.touch)


def _blob_points(dim: int, n: int = 150, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.4, (n // 2, dim))
    b = rng.normal(2.0, 0.4, (n - n // 2, dim))
    return np.concatenate([a, b])


class TestBatchQueryEquivalence:
    """Region-query level differential: counts, touch, candidate order."""

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("kind", DICTIONARIES)
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("dim", DIMS)
    def test_grid_sweep(self, dim, rho, kind, kernel):
        points = _blob_points(dim, n=90 if dim >= 13 else 150)
        geometry = _geometry(0.8, dim, rho)
        assert_backend_matches_numpy(points, geometry, kind, kernel)

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("kind", DICTIONARIES)
    def test_queries_from_foreign_points(self, kind, kernel):
        # Query points that are not dictionary members (and far enough
        # that some batches see zero in-range candidates).
        points = _blob_points(2, n=120, seed=3)
        foreign = np.concatenate(
            [_blob_points(2, n=40, seed=4), np.full((5, 2), 50.0)]
        )
        geometry = _geometry(0.5, 2, 0.01)
        assert_backend_matches_numpy(
            points, geometry, kind, kernel, query_points=foreign
        )


class TestDegenerateInputs:
    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("kind", DICTIONARIES)
    def test_empty_query_batch(self, kind, kernel):
        points = _blob_points(2, n=60)
        geometry = _geometry(0.5, 2, 0.01)
        dictionary = _dictionary(points, geometry, kind)
        cell = _occupied_cells(dictionary)[0]
        empty = np.empty((0, 2), dtype=np.float64)
        ref = RegionQueryEngine(dictionary, kernel="numpy")
        alt = RegionQueryEngine(dictionary, kernel=kernel)
        expected = ref.query_cell_batch(cell, empty)
        actual = alt.query_cell_batch(cell, empty)
        np.testing.assert_array_equal(actual.counts, expected.counts)
        np.testing.assert_array_equal(actual.touch, expected.touch)
        assert actual.counts.shape == (0,)

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("kind", DICTIONARIES)
    def test_empty_cell_no_candidates_in_range(self, kind, kernel):
        # A query issued from a cell far from all data: the candidate
        # set is empty, every backend returns all-zero counts.
        points = _blob_points(2, n=60)
        geometry = _geometry(0.5, 2, 0.01)
        dictionary = _dictionary(points, geometry, kind)
        far = np.full((4, 2), 1000.0)
        far_cell = tuple(int(x) for x in geometry.cell_ids(far)[0])
        ref = RegionQueryEngine(dictionary, kernel="numpy")
        alt = RegionQueryEngine(dictionary, kernel=kernel)
        expected = ref.query_cell_batch(far_cell, far)
        actual = alt.query_cell_batch(far_cell, far)
        assert expected.candidate_ids == actual.candidate_ids == []
        np.testing.assert_array_equal(actual.counts, expected.counts)
        assert not actual.counts.any()

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("dim", (1, 2, 13))
    def test_single_point(self, dim, kernel):
        points = np.ones((1, dim), dtype=np.float64)
        geometry = _geometry(0.5, dim, 0.01)
        for kind in DICTIONARIES:
            assert_backend_matches_numpy(points, geometry, kind, kernel)

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_duplicate_points(self, kernel):
        # Many exact duplicates: one sub-cell carrying all the density.
        points = np.tile(np.array([[0.25, -1.5]]), (50, 1))
        points = np.concatenate([points, np.tile(np.array([[0.3, -1.4]]), (30, 1))])
        geometry = _geometry(0.5, 2, 0.01)
        for kind in DICTIONARIES:
            assert_backend_matches_numpy(points, geometry, kind, kernel)

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_all_noise_labels(self, kernel):
        # Spread-out points with a high min_pts: everything is noise in
        # every backend (and labels are trivially bit-identical).
        rng = np.random.default_rng(7)
        points = rng.uniform(-50, 50, (120, 2))
        ref = RPDBSCAN(eps=0.2, min_pts=30, num_partitions=4, kernel="numpy").fit(
            points
        )
        alt = RPDBSCAN(eps=0.2, min_pts=30, num_partitions=4, kernel=kernel).fit(
            points
        )
        assert (ref.labels == -1).all()
        np.testing.assert_array_equal(alt.labels, ref.labels)
        np.testing.assert_array_equal(alt.core_mask, ref.core_mask)


class TestLabelEquivalence:
    """End-to-end fits: labels, core flags, cluster counts exact-equal."""

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("rho", RHOS)
    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_fit_labels_bit_identical(self, dim, rho, kernel):
        points = _blob_points(dim, n=200, seed=11)
        kwargs = dict(eps=0.4, min_pts=6, num_partitions=4, rho=rho, seed=0)
        ref = RPDBSCAN(kernel="numpy", **kwargs).fit(points)
        alt = RPDBSCAN(kernel=kernel, **kwargs).fit(points)
        np.testing.assert_array_equal(alt.labels, ref.labels)
        np.testing.assert_array_equal(alt.core_mask, ref.core_mask)
        assert alt.n_clusters == ref.n_clusters
        assert ref.kernel == "numpy" and alt.kernel == kernel

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_fit_high_dimensional(self, kernel):
        points = _blob_points(13, n=120, seed=5)
        kwargs = dict(eps=1.6, min_pts=5, num_partitions=3, rho=0.01, seed=0)
        ref = RPDBSCAN(kernel="numpy", **kwargs).fit(points)
        alt = RPDBSCAN(kernel=kernel, **kwargs).fit(points)
        np.testing.assert_array_equal(alt.labels, ref.labels)
        np.testing.assert_array_equal(alt.core_mask, ref.core_mask)

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_fit_sharded_and_defragmented(self, kernel, two_blobs):
        # The gathered kernel also serves the budgeted sharded broadcast
        # and the defragmented wrapper rides the fused one.
        for extra in (
            {"broadcast_budget": 1 << 17},
            {"defragment_capacity": 64},
        ):
            kwargs = dict(eps=0.3, min_pts=10, num_partitions=4, seed=0, **extra)
            ref = RPDBSCAN(kernel="numpy", **kwargs).fit(two_blobs)
            alt = RPDBSCAN(kernel=kernel, **kwargs).fit(two_blobs)
            np.testing.assert_array_equal(alt.labels, ref.labels)
            np.testing.assert_array_equal(alt.core_mask, ref.core_mask)


class TestHypothesisDifferential:
    """Randomized differential: hypothesis drives the point sets."""

    @SETTINGS
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(1, 80), st.integers(1, 3)),
            elements=st.floats(-4, 4, allow_nan=False, width=32),
        ),
        eps=st.floats(0.1, 2.0),
        rho=st.sampled_from(RHOS),
    )
    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_counts_and_touch_match(self, points, eps, rho, kernel):
        dim = points.shape[1]
        geometry = _geometry(eps, dim, rho)
        for kind in DICTIONARIES:
            assert_backend_matches_numpy(points, geometry, kind, kernel)

    @SETTINGS
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(2, 60), st.just(2)),
            elements=st.floats(-3, 3, allow_nan=False, width=16),
        ),
        min_pts=st.integers(1, 10),
        k=st.integers(1, 4),
    )
    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_fit_labels_match(self, points, min_pts, k, kernel):
        # width=16 floats quantize heavily -> plenty of exact duplicates,
        # stressing the duplicate-point and dense-sub-cell paths.
        kwargs = dict(eps=0.5, min_pts=min_pts, num_partitions=k, seed=0)
        ref = RPDBSCAN(kernel="numpy", **kwargs).fit(points)
        alt = RPDBSCAN(kernel=kernel, **kwargs).fit(points)
        np.testing.assert_array_equal(alt.labels, ref.labels)
        np.testing.assert_array_equal(alt.core_mask, ref.core_mask)
