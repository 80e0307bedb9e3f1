"""The model plane: ClusterState, incremental ingest, RPST persistence.

The load-bearing guarantee is the **bit-identity contract** of
:meth:`ClusterState.ingest` (see the module docstring of
``repro/core/cluster_state.py``): after ingesting new points, every
canonical field of the state — dictionary arrays, vertex statuses, cell
labels, per-point labels, core flags, neighbor counts — equals a
from-scratch fit on the concatenated points.  The contract is checked
across kernels, broadcast forms and channels, partition fan-outs,
sequential ingests, random base/ingest splits, and under seeded chaos
injected into the refit's engine phases.

Edge *sets* and union-find internals are exempt: the reduced edge list
and the spanning forest are representation, not meaning — connectivity
and labels are what the contract freezes.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RPDBSCAN, CellGeometry, ClusterState
from repro.core.cluster_state import (
    PHASE_INGEST_GRAPH,
    PHASE_INGEST_LABEL,
    PHASE_INGEST_MERGE,
)
from repro.core.prediction import ClusterModel
from repro.core.serialization import (
    deserialize_cluster_state,
    load_cluster_state,
    save_cluster_state,
    serialize_cluster_state,
)
from repro.engine import Engine, FaultInjector, FaultPolicy
from repro.obs.report import ingest_ledger_rows
from repro.obs.spans import Tracer

EPS = 0.3
MIN_PTS = 10

INGEST_PHASES = (PHASE_INGEST_GRAPH, PHASE_INGEST_MERGE, PHASE_INGEST_LABEL)


def _blobs(seed: int, n: int) -> np.ndarray:
    """Two separated blobs plus sparse background noise."""
    rng = np.random.default_rng(seed)
    per = n // 3
    return np.concatenate(
        [
            rng.normal([0.0, 0.0], 0.1, (per, 2)),
            rng.normal([3.0, 0.0], 0.1, (per, 2)),
            rng.uniform(-1.0, 4.0, (n - 2 * per, 2)),
        ]
    )


#: Broadcast forms of the fits an ingest starts from: the whole flat
#: dictionary, or its sharded form under a leaf budget.
BROADCASTS = {"flat": {}, "sharded": {"broadcast_budget": 1 << 17}}


def _fit(pts, *, engine=None, **kw):
    kw.setdefault("num_partitions", 4)
    kw.setdefault("kernel", "numpy")
    return RPDBSCAN(EPS, MIN_PTS, engine=engine, **kw).fit(pts)


def assert_states_identical(got: ClusterState, want: ClusterState) -> None:
    """The canonical (meaning-carrying) fields must be bit-identical."""
    np.testing.assert_array_equal(
        got.dictionary.cell_ids, want.dictionary.cell_ids
    )
    np.testing.assert_array_equal(
        got.dictionary.cell_counts, want.dictionary.cell_counts
    )
    np.testing.assert_array_equal(
        got.dictionary.offsets, want.dictionary.offsets
    )
    np.testing.assert_array_equal(
        got.dictionary.sub_coords, want.dictionary.sub_coords
    )
    np.testing.assert_array_equal(
        got.dictionary.sub_counts, want.dictionary.sub_counts
    )
    np.testing.assert_array_equal(got.graph.status, want.graph.status)
    np.testing.assert_array_equal(got.cell_labels, want.cell_labels)
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.point_cell_rows, want.point_cell_rows)
    np.testing.assert_array_equal(got.labels, want.labels)
    np.testing.assert_array_equal(got.core_mask, want.core_mask)
    np.testing.assert_array_equal(got.counts, want.counts)


def _ingest_chaos_injector() -> FaultInjector:
    """A seed whose only relevant fault is an exception at attempt 0 of
    the dirty Phase II re-run, with every ingest-phase retry clean —
    recovery inside the refit is then guaranteed in one round."""
    for seed in range(10_000):
        inj = FaultInjector(exception_prob=0.05, seed=seed)
        if not inj.decide(PHASE_INGEST_GRAPH, 0, 0).exception:
            continue
        clean = all(
            not inj.decide(phase, t, a).any
            for phase in INGEST_PHASES
            for t in range(8)
            for a in (1, 2, 3)
        )
        if clean:
            return inj
    pytest.fail("no suitable ingest-chaos seed found")


# ----------------------------------------------------------------------
# Fit produces a state
# ----------------------------------------------------------------------


class TestFitState:
    def test_fit_attaches_valid_state(self):
        pts = _blobs(0, 300)
        result = _fit(pts)
        state = result.state
        assert state is not None
        state.validate()
        assert state.num_points == pts.shape[0]
        assert state.num_cells == state.dictionary.num_cells
        assert state.eps == EPS
        assert state.min_pts == MIN_PTS
        np.testing.assert_array_equal(state.labels, result.labels)
        np.testing.assert_array_equal(state.core_mask, result.core_mask)
        assert state.n_clusters == result.n_clusters

    def test_point_cell_rows_match_geometry(self):
        pts = _blobs(1, 240)
        state = _fit(pts).state
        rows = state.dictionary.find_rows(state.geometry.cell_ids(pts))
        np.testing.assert_array_equal(state.point_cell_rows, rows)

    def test_cell_labels_agree_with_point_labels(self):
        pts = _blobs(2, 300)
        state = _fit(pts).state
        core_rows = state.point_cell_rows[state.core_mask]
        np.testing.assert_array_equal(
            state.cell_labels[core_rows], state.labels[state.core_mask]
        )

    def test_empty_fit_has_empty_state(self):
        state = _fit(np.empty((0, 2))).state
        assert state is not None
        state.validate()
        assert state.num_points == 0
        assert state.num_cells == 0
        assert state.n_clusters == 0


# ----------------------------------------------------------------------
# Ingest bit-identity
# ----------------------------------------------------------------------


class TestIngestBitIdentity:
    @pytest.mark.parametrize("form", BROADCASTS)
    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_matches_from_scratch_fit(self, form, kernel):
        pts = _blobs(10, 450)
        a, b = pts[:300], pts[300:]
        state = _fit(a, kernel=kernel, **BROADCASTS[form]).state
        report = state.ingest(b)
        want = _fit(pts, kernel=kernel, **BROADCASTS[form]).state
        assert_states_identical(state, want)
        assert report.num_new_points == b.shape[0]
        assert report.n_clusters == want.n_clusters

    @pytest.mark.parametrize("channel", ["shm", "pickle"])
    def test_matches_under_process_engine(self, channel):
        pts = _blobs(11, 450)
        a, b = pts[:300], pts[300:]
        with Engine(
            "process", num_workers=2, broadcast_channel=channel
        ) as engine:
            state = _fit(a, engine=engine).state
            state.ingest(b, engine=engine)
        assert_states_identical(state, _fit(pts).state)

    def test_partition_fanout_is_irrelevant(self):
        # Partition invariance: regrouping cells into a different number
        # of refit tasks cannot reach the per-cell arithmetic.
        pts = _blobs(12, 450)
        a, b = pts[:300], pts[300:]
        state = _fit(a, num_partitions=7).state
        state.ingest(b, num_tasks=3)
        assert_states_identical(state, _fit(pts, num_partitions=2).state)

    def test_sequential_ingests(self):
        pts = _blobs(13, 600)
        state = _fit(pts[:200]).state
        state.ingest(pts[200:350])
        state.ingest(pts[350:520])
        state.ingest(pts[520:])
        assert_states_identical(state, _fit(pts).state)

    def test_ingest_into_empty_state(self):
        pts = _blobs(14, 300)
        state = ClusterState.empty(CellGeometry(EPS, 2), MIN_PTS, num_tasks=4)
        state.ingest(pts)
        assert_states_identical(state, _fit(pts).state)

    def test_ingest_into_empty_fit_result(self):
        pts = _blobs(15, 300)
        state = _fit(np.empty((0, 2))).state
        state.ingest(pts)
        assert_states_identical(state, _fit(pts).state)

    def test_ingest_far_away_points(self):
        # New points sharing no candidate cells with the old world: the
        # clean half must be retained verbatim.
        a = _blobs(16, 300)
        b = _blobs(17, 150) + np.array([100.0, 100.0])
        state = _fit(a).state
        report = state.ingest(b)
        assert_states_identical(state, _fit(np.concatenate([a, b])).state)
        assert report.edges_retained > 0

    def test_ingest_duplicates_of_existing_points(self):
        a = _blobs(18, 300)
        state = _fit(a).state
        state.ingest(a[:50])
        assert_states_identical(state, _fit(np.concatenate([a, a[:50]])).state)

    def test_noise_promotes_to_cluster(self):
        # A sparse region densifies past min_pts only after the ingest.
        rng = np.random.default_rng(19)
        sparse = rng.normal([10.0, 10.0], 0.05, (4, 2))
        a = np.concatenate([_blobs(20, 200), sparse])
        state = _fit(a).state
        assert (state.labels[-4:] == -1).all()
        dense = rng.normal([10.0, 10.0], 0.05, (40, 2))
        state.ingest(dense)
        assert_states_identical(state, _fit(np.concatenate([a, dense])).state)
        assert (state.labels[-40:] >= 0).all()

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_delta_touch_keeps_its_edge_when_row_numbers_collide(self, kernel):
        # The old core cell (0, 0) is union row 0; the new point's cell
        # (1, 0) is row 0 of the delta dictionary.  The core cell's new
        # touch 0 -> 2 must be mapped to union rows before self-loops
        # are dropped, or the new border point loses its only
        # predecessor and turns into noise.
        base = np.array([[0.1, 0.6], [0.1, 1.4], [0.1, 1.4], [0.1, 1.4]])
        new = np.array([[0.9, 0.1]])

        def fit(pts):
            return RPDBSCAN(1.0, 4, kernel=kernel).fit(pts).state

        state = fit(base)
        state.ingest(new)
        assert_states_identical(state, fit(np.concatenate([base, new])))
        assert state.labels[-1] == state.labels[0] >= 0

    def test_chaos_mid_refit_recovers_bit_identical(self):
        pts = _blobs(21, 450)
        a, b = pts[:300], pts[300:]
        state = _fit(a).state
        policy = FaultPolicy(
            max_retries=3,
            backoff_base_s=0.0,
            injector=_ingest_chaos_injector(),
        )
        with Engine("serial", fault_policy=policy) as engine:
            state.ingest(b, engine=engine)
        assert_states_identical(state, _fit(pts).state)

    def test_chaos_mid_refit_process_engine(self):
        pts = _blobs(22, 450)
        a, b = pts[:300], pts[300:]
        state = _fit(a).state
        policy = FaultPolicy(
            max_retries=3,
            backoff_base_s=0.0,
            injector=_ingest_chaos_injector(),
        )
        with Engine(
            "process",
            num_workers=2,
            fault_policy=policy,
            broadcast_channel="shm",
        ) as engine:
            state.ingest(b, engine=engine)
        assert_states_identical(state, _fit(pts).state)


#: Radius of the ingest property's fits, and the step of its lattice.
PROPERTY_EPS = 0.6
LATTICE_STEP = PROPERTY_EPS / 4


@st.composite
def ingest_cases(draw):
    """A random base fit and one to three batches of chosen kinds.

    A ``lattice`` case draws its base and every batch from an 8-step
    grid (1-13 points each, d <= 3): cells are shared and distances of
    exactly eps are common, so a tiny dictionary's row numbers collide
    often."""
    lattice = draw(st.booleans())
    dim = draw(st.sampled_from([1, 2, 3] if lattice else [2, 3, 13]))
    kernel = draw(st.sampled_from(["numpy", "python"]))
    rho = draw(st.sampled_from([0.01, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    n_base = draw(st.integers(1, 13) if lattice else st.integers(0, 60))
    kinds = draw(
        st.lists(
            st.sampled_from(
                ["lattice"] if lattice else ["near", "duplicate", "far", "dense"]
            ),
            min_size=1,
            max_size=3,
        )
    )
    sizes = draw(
        st.lists(st.integers(1, 13 if lattice else 20), min_size=3, max_size=3)
    )
    return dim, kernel, rho, seed, n_base, list(zip(kinds, sizes))


def _case_points(dim, seed, n_base, batches):
    """Base points (two blobs and background, or lattice points) and the
    ingest batches."""
    rng = np.random.default_rng(seed)
    if batches[0][0] == "lattice":
        base, *out = (
            rng.integers(0, 8, (size, dim)) * LATTICE_STEP
            for size in [n_base] + [size for _, size in batches]
        )
        return base, out
    centers = rng.uniform(0.0, 3.0, (2, dim))

    def around(n):
        blob = centers[rng.integers(0, 2, n)] + rng.normal(0.0, 0.15, (n, dim))
        noise = rng.uniform(-1.0, 4.0, (n, dim))
        return np.where(rng.random((n, 1)) < 0.8, blob, noise)

    seen = around(n_base)
    out = []
    for kind, size in batches:
        if kind == "duplicate" and seen.shape[0]:
            batch = seen[rng.integers(0, seen.shape[0], size)]
        elif kind == "far":
            batch = around(size) + 40.0
        elif kind == "dense":
            # A tight clump at one point: promotes its neighborhood.
            if seen.shape[0]:
                anchor = seen[rng.integers(0, seen.shape[0])]
            else:
                anchor = rng.uniform(0.0, 3.0, dim)
            batch = anchor + rng.normal(0.0, 0.02, (size, dim))
        else:
            batch = around(size)
        out.append(batch)
        seen = np.concatenate([seen, batch])
    return seen[:n_base], out


class TestIngestProperty:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=ingest_cases())
    def test_random_ingests_match_from_scratch_fit(self, case):
        dim, kernel, rho, seed, n_base, batches = case
        base, batch_points = _case_points(dim, seed, n_base, batches)

        def fit(pts):
            return RPDBSCAN(
                PROPERTY_EPS, 4, num_partitions=3, rho=rho, kernel=kernel
            ).fit(pts).state

        state = fit(base)
        for batch in batch_points:
            state.ingest(batch, num_tasks=2)
        state.validate()
        assert_states_identical(
            state, fit(np.concatenate([base, *batch_points]))
        )


# ----------------------------------------------------------------------
# Ingest bookkeeping, validation, observability
# ----------------------------------------------------------------------


class TestIngestReport:
    def test_empty_ingest_is_a_noop(self):
        state = _fit(_blobs(30, 300)).state
        before = serialize_cluster_state(state)
        report = state.ingest(np.empty((0, 2)))
        assert report.num_new_points == 0
        assert report.cells_dirty == 0
        assert serialize_cluster_state(state) == before

    def test_report_counts_are_consistent(self):
        pts = _blobs(31, 450)
        state = _fit(pts[:300]).state
        cells_before = state.num_cells
        report = state.ingest(pts[300:])
        assert report.cells_total == state.num_cells
        assert report.cells_new == state.num_cells - cells_before
        assert 0 < report.cells_dirty <= report.cells_total
        assert report.edges_recomputed >= 0
        assert report.edges_retained >= 0
        assert report.total_seconds >= report.splice_seconds >= 0.0
        assert report.n_clusters == state.n_clusters

    def test_rejects_bad_inputs(self):
        state = _fit(_blobs(32, 200)).state
        with pytest.raises(ValueError, match="2-d"):
            state.ingest(np.zeros(5))
        with pytest.raises(ValueError, match="dim"):
            state.ingest(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="finite"):
            state.ingest(np.array([[np.nan, 0.0]]))

    def test_validate_checks_counts(self):
        state = _fit(_blobs(34, 200)).state
        counts = state.counts
        state.counts = counts[:-1]
        with pytest.raises(ValueError, match="counts must be"):
            state.validate()
        state.counts = counts.copy()
        state.counts[np.flatnonzero(state.core_mask)[0]] = MIN_PTS - 1
        with pytest.raises(ValueError, match="core_mask"):
            state.validate()

    def test_ingest_span_feeds_the_ledger(self):
        pts = _blobs(33, 450)
        state = _fit(pts[:300]).state
        tracer = Tracer()
        with Engine("serial", tracer=tracer) as engine:
            report = state.ingest(pts[300:], engine=engine)
        rows = ingest_ledger_rows(tracer.spans)
        assert len(rows) == 1
        assert rows[0][0] == report.num_new_points
        assert rows[0][1] == f"{report.cells_dirty}/{report.cells_total}"
        assert rows[0][2] == report.cells_new
        # The refit's engine phases are bucketed under ingest names, so a
        # shared engine's fit-phase breakdown stays unpolluted.
        phases = {s.name for s in tracer.spans if s.kind == "phase"}
        assert PHASE_INGEST_GRAPH in phases
        assert PHASE_INGEST_LABEL in phases


# ----------------------------------------------------------------------
# RPST persistence
# ----------------------------------------------------------------------


class TestRPSTRoundTrip:
    def test_byte_stable_round_trip(self):
        state = _fit(_blobs(40, 300)).state
        blob = serialize_cluster_state(state)
        again = serialize_cluster_state(deserialize_cluster_state(blob))
        assert blob == again

    def test_round_trip_preserves_everything(self):
        state = _fit(_blobs(41, 300)).state
        loaded = deserialize_cluster_state(serialize_cluster_state(state))
        assert_states_identical(loaded, state)
        assert loaded.min_pts == state.min_pts
        assert loaded.kernel == state.kernel
        assert loaded.candidate_strategy == state.candidate_strategy
        assert loaded.num_tasks == state.num_tasks
        assert loaded.geometry.eps == state.geometry.eps
        assert loaded.geometry.dim == state.geometry.dim

    def test_file_round_trip_and_predict(self, tmp_path):
        pts = _blobs(42, 300)
        state = _fit(pts).state
        path = tmp_path / "model.rpst"
        save_cluster_state(state, path)
        loaded = load_cluster_state(path)
        want = ClusterModel.from_state(state).predict(pts)
        got = ClusterModel.from_state(loaded).predict(pts)
        np.testing.assert_array_equal(got, want)

    def test_save_is_deterministic_on_disk(self, tmp_path):
        state = _fit(_blobs(43, 240)).state
        save_cluster_state(state, tmp_path / "a.rpst")
        save_cluster_state(state, tmp_path / "b.rpst")
        assert (tmp_path / "a.rpst").read_bytes() == (
            tmp_path / "b.rpst"
        ).read_bytes()

    def test_loaded_state_still_ingests_bit_identical(self):
        pts = _blobs(44, 450)
        a, b = pts[:300], pts[300:]
        state = deserialize_cluster_state(
            serialize_cluster_state(_fit(a).state)
        )
        state.ingest(b)
        assert_states_identical(state, _fit(pts).state)

    def test_empty_state_round_trips(self):
        state = ClusterState.empty(CellGeometry(EPS, 3), MIN_PTS)
        loaded = deserialize_cluster_state(serialize_cluster_state(state))
        assert loaded.num_points == 0
        assert loaded.num_cells == 0
        assert loaded.geometry.dim == 3

    def test_counts_close_the_stream_at_eight_bytes_per_point(self):
        state = _fit(_blobs(46, 300)).state
        payload = state.counts.astype("<f8").tobytes()
        assert len(payload) == 8 * state.num_points
        blob = serialize_cluster_state(state)
        assert blob.endswith(struct.pack("<q", state.num_points) + payload)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_refuses_older_versions(self, version):
        # Version 1 lacks the neighbor counts; version 2 still carries
        # the merge-mode string after the candidate strategy; version 3
        # the graph's pending edges and union-find parents.
        blob = bytearray(serialize_cluster_state(_fit(_blobs(47, 120)).state))
        blob[4:6] = struct.pack("<H", version)
        with pytest.raises(ValueError, match=f"RPST version {version}"):
            deserialize_cluster_state(bytes(blob))

    def test_rejects_foreign_streams(self):
        with pytest.raises(ValueError, match="model-state"):
            deserialize_cluster_state(b"NOPE" + b"\x00" * 64)
        state = _fit(_blobs(45, 120)).state
        blob = bytearray(serialize_cluster_state(state))
        blob[4] = 0xFF  # version bytes
        blob[5] = 0xFF
        with pytest.raises(ValueError, match="version"):
            deserialize_cluster_state(bytes(blob))
