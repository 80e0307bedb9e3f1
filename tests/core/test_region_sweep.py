"""The per-partition region-query sweep against a brute-force reference.

The reference checks every query point against every sub-cell center
of every candidate cell with ``seq_squared_distances`` — no box
classification, no batching, no pools.  The sweep must match it
exactly on candidate rows, neighbor counts, per-point touch masks (the
one-cell case) and touched slots folded at a count threshold, seeded
or not, for every strategy and backend, including query points outside
their group's cell, groups without points, single-point cells and empty
sweeps.  The tight candidate boxes are pinned at the eps boundary, and the
segmented distance pass every backend's numpy path shares is checked
against a scalar loop.
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
from repro.core.region_query import (
    RegionQueryEngine,
    box_d2_bounds,
    center_boxes,
    segment_reduce,
    segmented_d2,
)
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


    @SETTINGS
    @given(
        case=sweep_cases(),
        seed_values=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    )
    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_seeded_counts_add_and_fold_touch(self, case, seed_values, kernel):
        dim, points, eps, rho, strategy, kinds, foreign, picks, budget, min_count = case
        geometry = CellGeometry(eps, dim, rho)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        engine = RegionQueryEngine(dictionary, strategy=strategy, kernel=kernel)
        cell_ids, query, offsets, blocks = _groups(
            points, geometry, kinds, foreign, picks
        )
        seeds = np.resize(np.asarray(seed_values, dtype=np.float64), query.shape[0])
        seeded = _with_budget(
            budget,
            lambda: engine.query_partition(
                cell_ids, query, offsets, min_count, seeds=seeds
            ),
        )
        plain = engine.query_partition(cell_ids, query, offsets, min_count)
        np.testing.assert_array_equal(seeded.counts, seeds + plain.counts)
        np.testing.assert_array_equal(seeded.cand_rows, plain.cand_rows)
        for g, block in enumerate(blocks):
            _, counts, touch = brute_force_group(
                dictionary, cell_ids[g], block, geometry
            )
            total = seeds[offsets[g] : offsets[g + 1]] + counts
            lo, hi = seeded.cand_offsets[g], seeded.cand_offsets[g + 1]
            # Touch folds against the seeded total, not the sweep's part.
            np.testing.assert_array_equal(
                seeded.touched[lo:hi], touch[total >= min_count].any(axis=0)
            )

    def test_seeds_must_align_with_points(self):
        engine = TestSweepEdges()._engine()
        with pytest.raises(ValueError, match="seeds"):
            engine.query_partition(
                np.zeros((1, 2), dtype=np.int64),
                np.zeros((3, 2)),
                np.array([0, 3], dtype=np.int64),
                1.0,
                seeds=np.zeros(2),
            )


class TestTightBoxes:
    """A candidate's box is the bounds of its sub-cell centers.

    In 4-d the cell side is ``eps / 2`` exactly, so with ``eps = 5`` and
    ``rho = 0.5`` a lone point's sub-cell center is ``0.625`` on every
    axis, and a query offset by ``(3, 4, 0, 0)`` from it sits at exactly
    ``eps``.
    """

    EPS = 5.0

    def _setup(self, kernel):
        geometry = CellGeometry(self.EPS, 4, 0.5)
        dictionary = FlatCellDictionary.from_points(
            np.full((1, 4), 0.1), geometry
        )
        np.testing.assert_array_equal(
            dictionary.sub_centers, np.full((1, 4), 0.625)
        )
        engine = RegionQueryEngine(dictionary, kernel=kernel)
        return geometry, dictionary, engine

    def _queries(self):
        boundary = np.array([3.625, 4.625, 0.625, 0.625])
        beyond = boundary.copy()
        beyond[0] = np.nextafter(beyond[0], np.inf)
        return np.stack([boundary, beyond])

    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_boundary_and_one_ulp_beyond(self, kernel):
        geometry, dictionary, engine = self._setup(kernel)
        queries = self._queries()
        d2 = seq_squared_distances(queries, dictionary.sub_centers)[:, 0]
        assert d2[0] == self.EPS**2 and d2[1] > self.EPS**2
        cells = geometry.cell_ids(queries)
        result = engine.query_partition(
            cells, queries, np.arange(3, dtype=np.int64), 1.0
        )
        np.testing.assert_array_equal(result.counts, [1.0, 0.0])
        # The lone point's cell is a candidate of both query cells; only
        # the boundary query reaches it.
        assert result.cand_rows.tolist() == [0, 0]
        assert result.touched.tolist() == [True, False]

    def test_one_subcell_candidate_is_never_partial(self):
        _, dictionary, _ = self._setup("numpy")
        queries = self._queries()
        # Each query owns one pair, against the lone cell's box.
        min_d2, max_d2 = box_d2_bounds(
            queries,
            np.ones(2, dtype=np.int64),
            *center_boxes(dictionary.sub_centers, dictionary.offsets),
            np.zeros(2, dtype=np.int64),
        )
        near, full = min_d2 <= self.EPS**2, max_d2 <= self.EPS**2
        assert near.tolist() == [True, False]
        np.testing.assert_array_equal(near, full)


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
            rows=np.empty(0, dtype=np.int64),
            offsets=np.zeros(1, dtype=np.int64),
        )
        result = build_cell_subgraph(empty, QueryContext(dictionary), 2)
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
        partition = Partition(
            pid=0,
            points=points,
            global_indices=np.arange(3),
            rows=dictionary.find_rows(geometry.cell_ids(points)),
            offsets=np.arange(4),
        )
        result = build_cell_subgraph(partition, QueryContext(dictionary), 1)
        assert result.core_mask.all()
        # The two near points reach each other; the far one is alone.
        assert sorted(zip(result.graph.src.tolist(), result.graph.dst.tolist())) == [
            (0, 1),
            (1, 0),
        ]


@st.composite
def pass_cases(draw):
    """Query points and a pool on a coarse lattice (exact-eps ties), and
    pairs whose segments may be empty or longer than the budget."""
    dim = draw(st.sampled_from([1, 2, 3, 13]))
    lattice = st.integers(-4, 4).map(lambda v: v * 0.5)
    point = st.lists(lattice, min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(point, min_size=1, max_size=6)))
    m = draw(st.integers(1, 30))
    pool = np.array(draw(st.lists(point, min_size=m, max_size=m)))
    n_pairs = draw(st.integers(0, 12))
    pair_point = np.array(
        draw(
            st.lists(
                st.integers(0, len(pts) - 1), min_size=n_pairs, max_size=n_pairs
            )
        ),
        dtype=np.int64,
    )
    seg_start = np.array(
        draw(st.lists(st.integers(0, m), min_size=n_pairs, max_size=n_pairs)),
        dtype=np.int64,
    )
    seg_size = np.array(
        [draw(st.integers(0, m - int(lo))) for lo in seg_start], dtype=np.int64
    )
    budget = draw(st.sampled_from([1, 5, region_query.PAIR_BUDGET]))
    eps = draw(st.sampled_from([0.5, 1.0, 1.5]))
    return pts, pool, pair_point, seg_start, seg_size, budget, eps


def scalar_pairs(pts, pool, pair_point, seg_start, seg_size, eps):
    """Per pair: its squared distances (a plain scalar loop, axis by
    axis), the density sum of its rows within eps and whether any is."""
    eps2 = eps * eps
    d2s, sums, hits = [], [], []
    for j in range(pair_point.size):
        point = pts[pair_point[j]]
        row_d2 = []
        for r in range(seg_start[j], seg_start[j] + seg_size[j]):
            acc = 0.0
            for k in range(pts.shape[1]):
                diff = float(point[k]) - float(pool[r, k])
                acc += diff * diff
            row_d2.append(acc)
        d2s.append(row_d2)
        within = [v <= eps2 for v in row_d2]
        sums.append(float(sum(r + 1 for r, w in zip(
            range(seg_start[j], seg_start[j] + seg_size[j]), within) if w)))
        hits.append(any(within))
    return d2s, np.array(sums), np.array(hits, dtype=bool)


class TestSegmentedPass:
    @SETTINGS
    @given(case=pass_cases())
    def test_matches_scalar_loop(self, case):
        pts, pool, pair_point, seg_start, seg_size, budget, eps = case
        densities = np.arange(1, pool.shape[0] + 1, dtype=np.float64)
        want_d2, want_sums, want_hits = scalar_pairs(
            pts, pool, pair_point, seg_start, seg_size, eps
        )
        sums = np.zeros(pair_point.size)
        hits = np.zeros(pair_point.size, dtype=bool)
        chunked = np.zeros(pair_point.size, dtype=bool)

        def run():
            # Each chunk is checked before the next reuses its scratch.
            for j0, j1, bounds, rows, d2 in segmented_d2(
                pts, pair_point, seg_start, seg_size, np.ascontiguousarray(pool.T)
            ):
                assert j1 > j0 and not chunked[j0:].any()
                chunked[j0:j1] = True
                # Whole segments; more than the budget only for a lone pair.
                assert d2.size <= budget or j1 - j0 == 1
                assert bounds.tolist() == [0, *np.cumsum(seg_size[j0:j1]).tolist()]
                for j in range(j0, j1):
                    lo, hi = bounds[j - j0], bounds[j - j0 + 1]
                    assert rows[lo:hi].tolist() == list(
                        range(seg_start[j], seg_start[j] + seg_size[j])
                    )
                    # Bit-identical to the scalar accumulation.
                    assert d2[lo:hi].tolist() == want_d2[j]
                within = d2 <= eps * eps
                segment_reduce(np.add, densities[rows] * within, bounds, sums[j0:j1])
                segment_reduce(np.logical_or, within, bounds, hits[j0:j1])

        _with_budget(budget, run)
        # Pairs no chunk holds own no element at all.
        assert not seg_size[~chunked].any()
        # Empty segments reduce to 0 / False, not to a neighbor's value.
        np.testing.assert_array_equal(sums, want_sums)
        np.testing.assert_array_equal(hits, want_hits)

    def test_segment_longer_than_budget_is_a_chunk_alone(self):
        pts = np.zeros((2, 2))
        pool = np.arange(24, dtype=np.float64).reshape(12, 2)
        seg_start = np.array([0, 2, 2, 11], dtype=np.int64)
        seg_size = np.array([2, 9, 0, 1], dtype=np.int64)
        chunks = _with_budget(
            5,
            lambda: [
                (j0, j1, d2.size)
                for j0, j1, _, _, d2 in segmented_d2(
                    pts, np.array([0, 1, 1, 0]), seg_start, seg_size,
                    np.ascontiguousarray(pool.T),
                )
            ],
        )
        # The 9-row segment is alone; the empty one rides with the last.
        assert chunks == [(0, 1, 2), (1, 2, 9), (2, 4, 1)]

    def test_empty_segments_reduce_to_identity(self):
        values = np.array([3.0, 4.0, 5.0])
        bounds = np.array([0, 0, 2, 2, 3, 3])
        sums = np.zeros(5)
        segment_reduce(np.add, values, bounds, sums)
        assert sums.tolist() == [0.0, 7.0, 0.0, 5.0, 0.0]
        hits = np.zeros(5, dtype=bool)
        segment_reduce(np.logical_or, values > 4.5, bounds, hits)
        assert hits.tolist() == [False, False, False, True, False]
