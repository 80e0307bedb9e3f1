"""The per-partition region-query sweep against a brute-force reference.

The reference checks every query point against every sub-cell center
of every candidate cell with ``seq_squared_distances`` — no box
classification, no batching, no pools.  The sweep must match it
exactly on candidate rows, neighbor counts, per-point touch masks (the
one-cell case) and touched slots folded at a count threshold, for
every strategy and backend, including query points outside their
group's cell, groups without points, single-point cells and empty
sweeps.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import region_query
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.partitioning import Partition
from repro.core.region_query import RegionQueryEngine
from repro.spatial.distance import seq_squared_distances

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def brute_candidate_rows(dictionary, cell_id, side, eps):
    """Rows of every dictionary cell whose box is within eps of the
    query cell's box (the finder's slack included), ascending."""
    out = []
    base = np.asarray(cell_id, dtype=np.int64)
    for row, cell in enumerate(dictionary.cell_ids):
        gap = np.maximum(np.abs(cell - base) - 1, 0).astype(np.float64) * side
        if float(np.sum(gap * gap)) <= (eps * (1 + 1e-12)) ** 2:
            out.append(row)
    return np.array(out, dtype=np.int64)


def brute_force_group(dictionary, cell_id, points, geometry):
    """``(rows, counts, touch)`` for one group by exhaustive testing."""
    eps2 = geometry.eps * geometry.eps
    rows = brute_candidate_rows(dictionary, cell_id, geometry.side, geometry.eps)
    counts = np.zeros(points.shape[0], dtype=np.float64)
    touch = np.zeros((points.shape[0], rows.size), dtype=bool)
    for i, point in enumerate(points):
        for j, row in enumerate(rows):
            lo, hi = dictionary.offsets[row], dictionary.offsets[row + 1]
            within = (
                seq_squared_distances(point[None, :], dictionary.sub_centers[lo:hi])[0]
                <= eps2
            )
            counts[i] += float(dictionary.sub_counts[lo:hi][within].sum())
            touch[i, j] = bool(within.any())
    return rows, counts, touch


@st.composite
def sweep_cases(draw):
    dim = draw(st.sampled_from([1, 2, 3, 13]))
    n = draw(st.integers(1, 40 if dim < 13 else 25))
    points = draw(
        arrays(
            np.float64,
            (n, dim),
            elements=st.floats(-3, 3, allow_nan=False, width=32),
        )
    )
    eps = draw(st.floats(0.3, 2.5))
    rho = draw(st.sampled_from([0.01, 0.5, 1.0]))
    strategy = "auto" if dim == 13 else draw(st.sampled_from(["auto", "kdtree"]))
    # Groups: dictionary cells queried with their own points, arbitrary
    # cells queried with foreign points, and groups with no points.
    n_groups = draw(st.integers(0, 6))
    kinds = draw(
        st.lists(
            st.sampled_from(["own", "foreign", "empty"]),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    foreign = draw(
        arrays(
            np.float64,
            (n_groups, 3, dim),
            elements=st.floats(-4, 4, allow_nan=False, width=32),
        )
    )
    picks = draw(st.lists(st.integers(0, n - 1), min_size=n_groups, max_size=n_groups))
    budget = draw(st.sampled_from([1, 5, region_query.PAIR_BUDGET]))
    min_count = draw(st.sampled_from([0.0, 1.0, 2.0, 5.0]))
    return dim, points, eps, rho, strategy, kinds, foreign, picks, budget, min_count


def _groups(points, geometry, kinds, foreign, picks):
    cell_of = geometry.cell_ids(points)
    cells, blocks = [], []
    for kind, block, pick in zip(kinds, foreign, picks):
        if kind == "own":
            cell = cell_of[pick]
            blocks.append(points[np.all(cell_of == cell, axis=1)])
        elif kind == "foreign":
            cell = geometry.cell_ids(block[:1])[0] + 1
            blocks.append(block)
        else:
            cell = cell_of[pick]
            blocks.append(points[:0])
        cells.append(cell)
    dim = points.shape[1]
    cell_ids = np.array(cells, dtype=np.int64).reshape(-1, dim)
    offsets = np.concatenate([[0], np.cumsum([b.shape[0] for b in blocks])])
    query = np.concatenate(blocks) if blocks else np.empty((0, dim))
    return cell_ids, query, offsets.astype(np.int64), blocks


def _with_budget(budget, call):
    saved = region_query.PAIR_BUDGET
    region_query.PAIR_BUDGET = budget  # force multi-step sweeps too
    try:
        return call()
    finally:
        region_query.PAIR_BUDGET = saved


class TestSweepMatchesBruteForce:
    @SETTINGS
    @given(case=sweep_cases())
    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_counts_touch_and_candidates(self, case, kernel):
        dim, points, eps, rho, strategy, kinds, foreign, picks, budget, min_count = case
        geometry = CellGeometry(eps, dim, rho)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        engine = RegionQueryEngine(dictionary, strategy=strategy, kernel=kernel)
        cell_ids, query, offsets, blocks = _groups(
            points, geometry, kinds, foreign, picks
        )
        result = _with_budget(
            budget,
            lambda: engine.query_partition(cell_ids, query, offsets, min_count),
        )
        assert result.counts.shape == (query.shape[0],)
        assert result.touched.shape == result.cand_rows.shape
        for g, block in enumerate(blocks):
            rows, counts, touch = brute_force_group(
                dictionary, cell_ids[g], block, geometry
            )
            lo, hi = result.cand_offsets[g], result.cand_offsets[g + 1]
            np.testing.assert_array_equal(result.cand_rows[lo:hi], rows)
            np.testing.assert_array_equal(
                result.counts[offsets[g] : offsets[g + 1]], counts
            )
            # A slot is touched by the group's points that reach min_count.
            np.testing.assert_array_equal(
                result.touched[lo:hi], touch[counts >= min_count].any(axis=0)
            )

    @SETTINGS
    @given(case=sweep_cases())
    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_one_cell_case_matches_sweep(self, case, kernel):
        dim, points, eps, rho, strategy, kinds, foreign, picks, budget, _ = case
        geometry = CellGeometry(eps, dim, rho)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        engine = RegionQueryEngine(dictionary, strategy=strategy, kernel=kernel)
        cell_ids, query, offsets, blocks = _groups(
            points, geometry, kinds, foreign, picks
        )
        result = engine.query_partition(cell_ids, query, offsets, 0.0)
        for g, block in enumerate(blocks):
            single = _with_budget(
                budget, lambda: engine.query_cell_batch(tuple(cell_ids[g]), block)
            )
            _, _, touch = brute_force_group(dictionary, cell_ids[g], block, geometry)
            np.testing.assert_array_equal(single.touch, touch)
            np.testing.assert_array_equal(
                single.candidate_rows,
                result.cand_rows[result.cand_offsets[g] : result.cand_offsets[g + 1]],
            )
            np.testing.assert_array_equal(
                single.counts, result.counts[offsets[g] : offsets[g + 1]]
            )


class TestSweepEdges:
    def _engine(self, dim=2):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 3, (50, dim))
        geometry = CellGeometry(0.5, dim)
        return RegionQueryEngine(FlatCellDictionary.from_points(points, geometry))

    def test_empty_sweep(self):
        engine = self._engine()
        result = engine.query_partition(
            np.empty((0, 2), dtype=np.int64),
            np.empty((0, 2)),
            np.zeros(1, dtype=np.int64),
            1.0,
        )
        assert result.counts.size == 0 and result.touched.size == 0
        assert result.cand_rows.size == 0

    def test_rejects_bounds_not_covering_points(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="point_offsets"):
            engine.query_partition(
                np.zeros((1, 2), dtype=np.int64),
                np.zeros((3, 2)),
                np.array([0, 2], dtype=np.int64),
                1.0,
            )

    def test_empty_partition_builds_empty_subgraph(self):
        geometry = CellGeometry(0.5, 2)
        dictionary = FlatCellDictionary.from_points(
            np.array([[0.1, 0.1], [2.0, 2.0]]), geometry
        )
        empty = Partition(
            pid=3,
            points=np.empty((0, 2)),
            global_indices=np.empty(0, dtype=np.int64),
            cell_slices={},
        )
        result = build_cell_subgraph(
            empty, QueryContext(dictionary), 2, graph_layout="flat"
        )
        assert result.core_mask.size == 0 and result.num_queries == 0
        assert result.graph.num_edges == 0
        assert not result.graph.status.any()

    def test_single_point_cells(self):
        # Every point alone in its cell: each cell's only query is the
        # point itself, so min_pts=1 makes every cell core.
        geometry = CellGeometry(1.0, 2)
        points = np.array([[0.1, 0.1], [0.9, 0.1], [5.0, 5.0]])
        dictionary = FlatCellDictionary.from_points(points, geometry)
        assert dictionary.num_cells == 3
        cells = geometry.cell_ids(points)
        partition = Partition(
            pid=0,
            points=points,
            global_indices=np.arange(3),
            cell_slices={
                tuple(int(v) for v in c): (i, i + 1) for i, c in enumerate(cells)
            },
        )
        result = build_cell_subgraph(
            partition, QueryContext(dictionary), 1, graph_layout="flat"
        )
        assert result.core_mask.all()
        # The two near points reach each other; the far one is alone.
        assert sorted(zip(result.graph.src.tolist(), result.graph.dst.tolist())) == [
            (0, 1),
            (1, 0),
        ]
