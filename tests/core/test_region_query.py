"""Unit tests for repro.core.region_query (Def 5.1, Lemma 5.2).

The key correctness property is the sandwich of Lemma 5.2: every exact
neighbor at distance <= (1 - rho/2) eps is found, and nothing farther
than (1 + rho/2) eps is ever returned.
"""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.defragmentation import defragment
from repro.core.dictionary import FlatCellDictionary
from repro.core.region_query import RegionQueryEngine


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.normal([1, 1], 0.3, (500, 2)), rng.uniform(0, 4, (300, 2))]
    )
    return pts


@pytest.fixture(scope="module")
def geometry():
    return CellGeometry(eps=0.4, dim=2, rho=0.01)


@pytest.fixture(scope="module")
def dictionary(workload, geometry):
    return FlatCellDictionary.from_points(workload, geometry)


@pytest.fixture(scope="module")
def engine(dictionary):
    return RegionQueryEngine(dictionary)


def exact_count(points, query, radius):
    diff = points - query
    return int(np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= radius**2))


class TestSandwichBound:
    def test_counts_between_inner_and_outer_ball(self, workload, geometry, engine):
        eps, rho = geometry.eps, geometry.rho
        rng = np.random.default_rng(1)
        queries = workload[rng.choice(workload.shape[0], 50, replace=False)]
        for q in queries:
            approx, _ = engine.query_point(q)
            inner = exact_count(workload, q, (1 - rho / 2) * eps)
            outer = exact_count(workload, q, (1 + rho / 2) * eps)
            assert inner <= approx <= outer

    def test_small_rho_converges_to_exact(self, workload):
        geometry = CellGeometry(eps=0.4, dim=2, rho=0.001)
        dictionary = FlatCellDictionary.from_points(workload, geometry)
        engine = RegionQueryEngine(dictionary)
        rng = np.random.default_rng(2)
        disagreements = 0
        queries = workload[rng.choice(workload.shape[0], 30, replace=False)]
        for q in queries:
            approx, _ = engine.query_point(q)
            if int(approx) != exact_count(workload, q, 0.4):
                disagreements += 1
        assert disagreements <= 1  # boundary coincidences only


class TestBatchVsPointwise:
    def test_batch_matches_single_queries(self, workload, geometry, engine):
        groups = {}
        ids = geometry.cell_ids(workload)
        for i, cid in enumerate(map(tuple, ids.tolist())):
            groups.setdefault(cid, []).append(i)
        some_cells = list(groups)[:5]
        for cell_id in some_cells:
            pts = workload[groups[cell_id]]
            batch = engine.query_cell_batch(cell_id, pts)
            for row, point in enumerate(pts):
                count, touched = engine.query_point(point)
                assert batch.counts[row] == pytest.approx(count)
                batch_touched = [
                    cid
                    for j, cid in enumerate(batch.candidate_ids)
                    if batch.touch[row, j]
                ]
                assert batch_touched == touched

    def test_empty_points(self, engine):
        result = engine.query_cell_batch((0, 0), np.empty((0, 2)))
        assert result.counts.shape == (0,)

    def test_query_in_empty_region(self, engine):
        count, touched = engine.query_point(np.array([500.0, 500.0]))
        assert count == 0 and touched == []


class TestStrategies:
    def test_enumerate_and_kdtree_agree(self, workload, dictionary):
        enum = RegionQueryEngine(dictionary, strategy="enumerate")
        tree = RegionQueryEngine(dictionary, strategy="kdtree")
        rng = np.random.default_rng(3)
        queries = workload[rng.choice(workload.shape[0], 25, replace=False)]
        for q in queries:
            ce, te = enum.query_point(q)
            ct, tt = tree.query_point(q)
            assert ce == pytest.approx(ct)
            assert te == tt

    def test_invalid_strategy(self, dictionary):
        with pytest.raises(ValueError):
            RegionQueryEngine(dictionary, strategy="psychic")


class TestDefragmentedQueries:
    def test_results_identical_with_defragmentation(self, workload, dictionary):
        plain = RegionQueryEngine(dictionary)
        defrag = RegionQueryEngine(defragment(dictionary, capacity=100))
        rng = np.random.default_rng(4)
        queries = workload[rng.choice(workload.shape[0], 25, replace=False)]
        for q in queries:
            cp, tp = plain.query_point(q)
            cd, td = defrag.query_point(q)
            assert cp == pytest.approx(cd)
            assert tp == td

    def test_consultation_stats_tracked(self, workload, dictionary):
        wrapped = defragment(dictionary, capacity=100)
        engine = RegionQueryEngine(wrapped)
        engine.query_point(workload[0])
        assert wrapped.queries == 1
        assert 1 <= wrapped.average_consulted() <= wrapped.num_sub_dicts


class TestNeighborSubcells:
    def test_literal_nsc_matches_counts(self, workload, geometry, dictionary, engine):
        rng = np.random.default_rng(5)
        queries = workload[rng.choice(workload.shape[0], 10, replace=False)]
        for q in queries:
            count, _ = engine.query_point(q)
            nsc = engine.neighbor_subcells(q)
            total = sum(
                float(dictionary.densities(cell_id)[mask].sum())
                for cell_id, mask in nsc
            )
            assert total == pytest.approx(count)

    def test_own_subcell_always_included(self, workload, engine, geometry):
        q = workload[0]
        count, _ = engine.query_point(q)
        assert count >= 1  # the point itself is always counted
