"""Unit tests for ClusterModel.predict."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RPDBSCAN
from repro.core.prediction import ClusterModel
from repro.engine.shm import (
    create_segment,
    destroy_segment,
    export_broadcast,
    import_broadcast,
)
from repro.kernels import HAVE_NUMBA

KERNEL_BACKENDS = ["python"] + (["numba"] if HAVE_NUMBA else [])


@pytest.fixture(scope="module")
def fitted(two_blobs_for_predict):
    pts = two_blobs_for_predict
    result = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=4).fit(pts)
    model = ClusterModel(pts, result.labels, result.core_mask, eps=0.3)
    return pts, result, model


@pytest.fixture(scope="module")
def two_blobs_for_predict():
    rng = np.random.default_rng(42)
    return np.concatenate(
        [rng.normal([0, 0], 0.1, (300, 2)), rng.normal([3, 0], 0.1, (300, 2))]
    )


class TestPredict:
    def test_training_core_points_keep_labels(self, fitted):
        pts, result, model = fitted
        core = result.core_mask
        predicted = model.predict(pts[core])
        np.testing.assert_array_equal(predicted, result.labels[core])

    def test_points_near_clusters_assigned(self, fitted):
        _, _, model = fitted
        queries = np.array([[0.05, 0.05], [3.05, -0.02]])
        labels = model.predict(queries)
        assert labels[0] != labels[1]
        assert (labels >= 0).all()

    def test_far_points_are_noise(self, fitted):
        _, _, model = fitted
        assert model.predict(np.array([[50.0, 50.0]]))[0] == -1

    def test_point_just_inside_and_outside_eps(self, fitted):
        pts, result, model = fitted
        core_point = pts[result.core_mask][0]
        label = result.labels[result.core_mask][0]
        inside = core_point + np.array([0.29, 0.0])
        outside = core_point + np.array([10.0, 0.0])
        got = model.predict(np.stack([inside, outside]))
        assert got[0] == label
        assert got[1] == -1

    def test_empty_query(self, fitted):
        _, _, model = fitted
        assert model.predict(np.empty((0, 2))).shape == (0,)

    def test_no_core_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        model = ClusterModel(
            pts, np.array([-1, -1]), np.array([False, False]), eps=1.0
        )
        assert model.predict(pts).tolist() == [-1, -1]
        assert model.n_core_points == 0

    def test_validation(self, fitted):
        pts, result, model = fitted
        with pytest.raises(ValueError):
            ClusterModel(pts, result.labels[:10], result.core_mask, eps=0.3)
        with pytest.raises(ValueError):
            ClusterModel(pts, result.labels, result.core_mask, eps=-1.0)
        with pytest.raises(ValueError):
            model.predict(np.zeros((3, 5)))  # wrong dimension

    def test_core_noise_conflict_rejected(self):
        pts = np.zeros((2, 2))
        with pytest.raises(ValueError):
            ClusterModel(
                pts, np.array([-1, 0]), np.array([True, False]), eps=1.0
            )


class TestNonFiniteQueries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, fitted, bad):
        _, _, model = fitted
        queries = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(ValueError, match="NaN/inf"):
            model.predict(queries)

    def test_finite_rows_still_answered(self, fitted):
        _, _, model = fitted
        assert model.predict(np.array([[50.0, 50.0]])).tolist() == [-1]


class TestDegenerates:
    def test_zero_dim_points_rejected(self):
        with pytest.raises(ValueError, match="coordinate axis"):
            ClusterModel(
                np.empty((5, 0)),
                np.zeros(5, dtype=np.int64),
                np.zeros(5, dtype=bool),
                eps=1.0,
            )

    def test_empty_model(self):
        model = ClusterModel(
            np.empty((0, 2)), np.empty(0, np.int64), np.empty(0, bool), eps=1.0
        )
        assert model.n_core_points == 0
        assert model.num_cells == 0
        assert model.predict(np.zeros((3, 2))).tolist() == [-1, -1, -1]

    def test_all_noise_fit_serves_noise(self):
        # Too sparse for min_pts: the fit labels everything noise and the
        # served model must agree everywhere.
        pts = np.arange(20, dtype=np.float64).reshape(10, 2) * 10.0
        result = RPDBSCAN(eps=0.3, min_pts=5).fit(pts)
        assert (result.labels == -1).all()
        model = ClusterModel.from_state(result.state)
        assert model.n_core_points == 0
        assert (model.predict(pts) == -1).all()

    def test_duplicate_queries_get_identical_labels(self, fitted):
        pts, _, model = fitted
        queries = np.tile(pts[:25], (4, 1))
        got = model.predict(queries).reshape(4, 25)
        for rep in range(1, 4):
            np.testing.assert_array_equal(got[rep], got[0])

    def test_point_exactly_at_eps_is_assigned(self):
        # The rule is inclusive (d <= eps), matching Phase II's
        # sequential squared-distance comparison bit for bit.
        core = np.array([[0.0, 0.0]])
        model = ClusterModel(
            core, np.array([7]), np.array([True]), eps=0.3
        )
        queries = np.array([[0.3, 0.0], [0.0, 0.3], [np.nextafter(0.3, 1), 0.0]])
        assert model.predict(queries).tolist() == [7, 7, -1]

    def test_dim_mismatch_rejected(self, fitted):
        _, _, model = fitted
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            model.predict(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            model.predict(np.zeros(4))


class TestFromState:
    def test_matches_legacy_constructor(self, fitted):
        pts, result, model = fitted
        via_state = ClusterModel.from_state(result.state)
        rng = np.random.default_rng(9)
        queries = rng.uniform(-0.5, 3.5, (400, 2))
        np.testing.assert_array_equal(
            via_state.predict(queries), model.predict(queries)
        )
        assert via_state.n_core_points == model.n_core_points
        assert via_state.num_cells == model.num_cells

    def test_kernel_override(self, fitted):
        _, result, _ = fitted
        model = ClusterModel.from_state(result.state, kernel="python")
        assert model.kernel == "python"


class TestWarmup:
    def test_warmup_returns_seconds_and_primes_predict(self, fitted):
        _, result, _ = fitted
        model = ClusterModel.from_state(result.state)
        seconds = model.warmup()
        assert seconds >= 0.0
        # Warm-up must not disturb prediction results.
        rng = np.random.default_rng(17)
        queries = rng.uniform(-0.5, 3.5, (100, 2))
        reference = ClusterModel.from_state(result.state).predict(queries)
        np.testing.assert_array_equal(model.predict(queries), reference)

    def test_warmup_on_empty_model(self):
        model = ClusterModel(
            np.zeros((0, 2)),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=bool),
            eps=1.0,
        )
        assert model.warmup() >= 0.0

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_warmup_per_backend(self, fitted, backend):
        _, result, _ = fitted
        model = ClusterModel.from_state(result.state, kernel=backend)
        assert model.warmup() >= 0.0


class TestKernelBackends:
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_bit_identical_to_numpy(self, fitted, backend):
        pts, result, _ = fitted
        reference = ClusterModel(
            pts, result.labels, result.core_mask, eps=0.3, kernel="numpy"
        )
        other = ClusterModel(
            pts, result.labels, result.core_mask, eps=0.3, kernel=backend
        )
        rng = np.random.default_rng(11)
        queries = np.concatenate(
            [rng.uniform(-0.5, 3.5, (500, 2)), pts[:100]]
        )
        np.testing.assert_array_equal(
            other.predict(queries), reference.predict(queries)
        )


class TestShmBroadcast:
    def test_model_rides_the_shared_memory_channel(self, fitted):
        pts, _, model = fitted
        # The model's payload is a FlatCellDictionary, so the export
        # pickler hoists it into a segment and the remaining blob is
        # just the descriptor-sized shell.
        blob, flats = export_broadcast(model)
        assert len(flats) == 1
        assert flats[0] is model._table
        assert len(blob) < 16_384
        handle, shm = create_segment(flats)
        try:
            clone = import_broadcast(blob, handle, shm)
            assert not clone._table.sub_centers.flags.writeable
            queries = np.concatenate([pts[:50], [[50.0, 50.0]]])
            np.testing.assert_array_equal(
                clone.predict(queries), model.predict(queries)
            )
        finally:
            destroy_segment(shm)


class TestPredictProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(40, 160))
    def test_core_points_predict_their_fitted_labels(self, seed, n):
        # DBSCAN's own serving consistency: every fitted core point is
        # its own nearest core at distance 0, so predict must return the
        # fitted label on the whole core set.
        rng = np.random.default_rng(seed)
        pts = np.concatenate(
            [
                rng.normal([0.0, 0.0], 0.15, (n, 2)),
                rng.normal([2.0, 1.0], 0.15, (n, 2)),
                rng.uniform(-1.0, 3.0, (10, 2)),
            ]
        )
        result = RPDBSCAN(eps=0.25, min_pts=5, num_partitions=4).fit(pts)
        model = ClusterModel.from_state(result.state)
        core = result.core_mask
        np.testing.assert_array_equal(
            model.predict(pts[core]), result.labels[core]
        )
