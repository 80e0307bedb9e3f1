"""Unit tests for ClusterModel.predict."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RPDBSCAN
from repro.core.cells import CellGeometry
from repro.core.prediction import ClusterModel
from repro.engine.shm import (
    create_segment,
    destroy_segment,
    export_broadcast,
    import_broadcast,
)
from repro.kernels import HAVE_NUMBA

KERNEL_BACKENDS = ["python"] + (["numba"] if HAVE_NUMBA else [])
ALL_BACKENDS = ["numpy", *KERNEL_BACKENDS]


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


class TestFarQueries:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_far_queries_are_noise_without_warnings(self, fitted, backend):
        # A cell coordinate beyond int64 must not reach the cast (which
        # warns and wraps) or the candidate search: such a query has no
        # candidate cell, so it is noise.
        pts, result, _ = fitted
        model = ClusterModel(
            pts, result.labels, result.core_mask, eps=0.3, kernel=backend
        )
        core = pts[result.core_mask][0]
        side = CellGeometry(0.3, 2).side
        queries = np.array(
            [
                [1e300, 0.0],
                core + np.array([2.0**64 * side, 0.0]),
                [-1.7e308, 1.7e308],
                core,
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model.predict(queries)
        assert got.tolist() == [-1, -1, -1, result.labels[result.core_mask][0]]


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


# ----------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------


def _oracle(cores, core_labels, eps, queries):
    """DBSCAN's border rule by brute force: the label of the first core
    in (lex cell id, fitted order) among those at the smallest squared
    distance, summed sequentially per axis, within ``eps``; else -1."""
    cells = CellGeometry(eps, cores.shape[1]).cell_ids(cores).tolist()
    order = sorted(range(len(cells)), key=lambda i: (cells[i], i))
    eps2 = eps * eps
    out = []
    for q in queries.tolist():
        best, label = None, -1
        for i in order:
            d2 = 0.0
            for a, b in zip(q, cores[i].tolist()):
                d2 += (a - b) * (a - b)
            if d2 <= eps2 and (best is None or d2 < best):
                best, label = d2, int(core_labels[i])
        out.append(label)
    return out


def _lattice_case(seed, dim, eps, n_clusters):
    """Clusters of lattice points (step eps/4), each anchored within 2 eps
    of the previous one, and queries on the lattice, on its half-steps,
    and at eps and one ulp beyond eps from core points along one axis."""
    rng = np.random.default_rng(seed)
    step = eps / 4
    anchor = np.zeros(dim, dtype=np.int64)
    blocks, labels = [], []
    for j in range(n_clusters):
        if j:
            hop = np.zeros(dim, dtype=np.int64)
            hop[rng.integers(dim)] = rng.choice([-1, 1]) * rng.integers(4, 9)
            anchor = anchor + hop
        size = int(rng.integers(3, 16))
        blocks.append(anchor + rng.integers(-2, 3, (size, dim)))
        labels.append(np.full(size, j))
    grid = np.concatenate(blocks)
    points = grid * step
    lo, hi = grid.min(axis=0) - 6, grid.max(axis=0) + 7
    cells = rng.integers(lo, hi, (60, dim)) + rng.integers(0, 2, (60, dim)) / 2
    return rng, points, np.concatenate(labels), cells * step


def _boundary_queries(rng, cores, eps):
    """Core points moved by exactly eps along one axis, and one ulp
    further (none when there is no core point)."""
    if cores.shape[0] == 0:
        return cores
    picks = cores[rng.integers(0, cores.shape[0], 8)]
    axis = rng.integers(0, cores.shape[1], 8)
    sign = rng.choice([-1.0, 1.0], 8)
    at = picks.copy()
    rows = np.arange(8)
    at[rows, axis] = picks[rows, axis] + sign * eps
    beyond = at.copy()
    beyond[rows, axis] = np.nextafter(at[rows, axis], sign * np.inf)
    return np.concatenate([at, beyond])


class TestPredictOracle:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_mixed_label_cell_is_never_settled(self, backend):
        # Both cores share cell (0, 0) but carry different labels, which
        # only the legacy constructor can build.  A shortcut answering
        # by cell label would say [0, 0, 0].
        model = ClusterModel(
            np.array([[0.1, 0.1], [0.6, 0.6]]),
            np.array([0, 1]),
            np.array([True, True]),
            eps=1.0,
            kernel=backend,
        )
        queries = np.array([[0.65, 0.62], [0.12, 0.09], [0.4, 0.4]])
        assert model.num_cells == 1
        assert model.predict(queries).tolist() == [1, 0, 1]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3]),
        eps=st.sampled_from([1.0, 0.3]),
        n_clusters=st.integers(2, 4),
    )
    def test_lattice_predict_matches_brute_force(
        self, backend, seed, dim, eps, n_clusters
    ):
        rng, points, blob, queries = _lattice_case(seed, dim, eps, n_clusters)
        # A hand-labelled model (one label per cluster, random cores),
        # whose cells can mix labels, and the fit's own model.
        core_mask = rng.random(points.shape[0]) < 0.8
        core_mask[0] = True
        labels = np.where(core_mask, 3 * blob + 1, -1)
        result = RPDBSCAN(eps=eps, min_pts=4, num_partitions=2).fit(points)
        cases = [
            (ClusterModel(points, labels, core_mask, eps=eps, kernel=backend),
             core_mask, labels),
            (ClusterModel.from_state(result.state, kernel=backend),
             result.core_mask, result.labels),
        ]
        for model, mask, labels in cases:
            cores = points[mask]
            asked = np.concatenate(
                [queries, points, _boundary_queries(rng, cores, eps)]
            )
            assert model.predict(asked).tolist() == _oracle(
                cores, labels[mask], eps, asked
            )
