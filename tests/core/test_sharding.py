"""Unit tests for the budgeted sharded dictionary (Sec 4.2.2, Lemma 5.10)."""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.defragmentation import defragment
from repro.core.dictionary import FlatCellDictionary
from repro.core.region_query import RegionQueryEngine
from repro.core.sharding import (
    InMemoryShardStore,
    PartialFlatDictionary,
    ShardedFlatDictionary,
    live_residency_stats,
)
from repro.spatial.cell_index import NeighborCellFinder


@pytest.fixture()
def geometry():
    return CellGeometry(eps=0.5, dim=2, rho=0.1)


@pytest.fixture()
def flat(geometry):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 5, (3000, 2))
    return FlatCellDictionary.from_points(pts, geometry)


@pytest.fixture()
def sharded(flat):
    return ShardedFlatDictionary.from_defragmented(defragment(flat, capacity=200))


class TestRootParity:
    def test_root_arrays_alias_the_flat_dictionary(self, flat, sharded):
        np.testing.assert_array_equal(sharded.cell_ids, flat.cell_ids)
        np.testing.assert_array_equal(sharded.cell_counts, flat.cell_counts)
        np.testing.assert_array_equal(sharded.offsets, flat.offsets)
        assert sharded.num_cells == flat.num_cells
        assert sharded.num_subcells == flat.num_subcells
        assert sharded.num_points == flat.num_points
        assert len(sharded) == len(flat)

    def test_every_cell_has_an_owner(self, sharded):
        assert np.all(sharded.shard_owner >= 0)
        assert np.all(sharded.shard_owner < sharded.num_shards)

    def test_find_rows_and_row_of_match(self, flat, sharded):
        ids = flat.cell_ids[::7]
        np.testing.assert_array_equal(sharded.find_rows(ids), flat.find_rows(ids))
        missing = np.full((1, 2), 10_000, dtype=np.int64)
        assert sharded.find_rows(missing)[0] == -1
        cid = flat.cell_at(3)
        assert sharded.row_of(cid) == flat.row_of(cid)
        with pytest.raises(KeyError):
            sharded.row_of((10_000, 10_000))


class TestGatherIdentity:
    def test_gather_subcells_bit_identical(self, flat, sharded):
        rng = np.random.default_rng(1)
        for size in (1, 5, 40, flat.num_cells):
            rows = rng.choice(flat.num_cells, size=size, replace=True)
            want_c, want_d, want_s = flat.gather_subcells(rows)
            got_c, got_d, got_s = sharded.gather_subcells(rows)
            np.testing.assert_array_equal(got_c, want_c)
            np.testing.assert_array_equal(got_d, want_d)
            np.testing.assert_array_equal(got_s, want_s)

    def test_gather_empty_rows(self, flat, sharded):
        got_c, got_d, got_s = sharded.gather_subcells(np.empty(0, dtype=np.int64))
        assert got_c.shape == (0, 2) and got_d.shape == (0,) and got_s.shape == (0,)

    def test_per_cell_accessors(self, flat, sharded):
        for row in range(0, flat.num_cells, 13):
            cid = flat.cell_at(row)
            np.testing.assert_array_equal(
                sharded.sub_cell_centers(cid), flat.sub_cell_centers(cid)
            )
            np.testing.assert_array_equal(
                sharded.densities(cid), flat.densities(cid)
            )

    def test_region_queries_bit_identical(self, flat, sharded, geometry):
        reference = RegionQueryEngine(flat)
        budgeted = RegionQueryEngine(sharded)
        rng = np.random.default_rng(2)
        for _ in range(10):
            pt = rng.uniform(0, 5, 2)
            cid = geometry.grid.cell_id_of(pt)
            want = reference.query_cell_batch(cid, pt[None, :])
            got = budgeted.query_cell_batch(cid, pt[None, :])
            np.testing.assert_array_equal(got.counts, want.counts)
            np.testing.assert_array_equal(got.touch, want.touch)
            assert got.candidate_ids == want.candidate_ids


class TestBudgetLRU:
    def _budgeted(self, flat, budget):
        defrag = defragment(flat, capacity=200)
        return ShardedFlatDictionary.from_defragmented(defrag, budget_bytes=budget)

    def test_resident_bytes_never_exceed_budget(self, flat):
        budget = 8192
        sharded = self._budgeted(flat, budget)
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows = rng.choice(flat.num_cells, size=20, replace=False)
            sharded.gather_subcells(rows)
            assert sharded.resident_bytes <= budget
        stats = sharded.residency_stats()
        assert stats["peak_resident_bytes"] <= budget
        assert stats["shard_evictions"] > 0
        assert stats["shard_attaches"] > stats["num_shards"]

    def test_lru_keeps_hot_shard_resident(self, flat):
        sharded = self._budgeted(flat, 8192)
        hot = np.nonzero(sharded.shard_owner == 0)[0][:1]
        sharded.gather_subcells(hot)
        before = sharded.residency_stats()["shard_attaches"]
        sharded.gather_subcells(hot)  # cache hit: no second attach
        assert sharded.residency_stats()["shard_attaches"] == before

    def test_unbounded_budget_never_evicts(self, flat, sharded):
        rng = np.random.default_rng(4)
        for _ in range(20):
            sharded.gather_subcells(rng.choice(flat.num_cells, size=30))
        assert sharded.residency_stats()["shard_evictions"] == 0

    def test_single_shard_over_budget_rejected_up_front(self, flat):
        defrag = defragment(flat, capacity=200)
        with pytest.raises(ValueError, match="broadcast .?budget"):
            ShardedFlatDictionary.from_defragmented(defrag, budget_bytes=16)

    def test_oversized_shard_attach_raises(self, geometry, flat):
        # Bypass the constructor guard with a permissive store to pin
        # down the cache-level error too.
        sharded = ShardedFlatDictionary.from_defragmented(
            defragment(flat, capacity=200)
        )
        blocks = sharded.export_shard_blocks()
        small = PartialFlatDictionary(
            geometry,
            sharded.cell_ids,
            sharded.cell_counts,
            sharded.offsets,
            sharded.shard_owner,
            sharded.local_starts,
            sharded.shard_box_lo,
            sharded.shard_box_hi,
            InMemoryShardStore(blocks),
            budget_bytes=16,
        )
        with pytest.raises(RuntimeError, match="exceeds the broadcast budget"):
            small.gather_subcells(np.array([0]))

    def test_close_releases_everything(self, flat):
        sharded = self._budgeted(flat, 1 << 20)
        sharded.gather_subcells(np.arange(flat.num_cells))
        assert sharded.resident_bytes > 0
        sharded.close()
        assert sharded.resident_bytes == 0

    def test_rejects_nonpositive_budget(self, flat):
        with pytest.raises(ValueError):
            self._budgeted(flat, 0)


class TestRestrict:
    def test_attach_outside_allowed_set_raises(self, flat, sharded):
        target = np.nonzero(sharded.shard_owner == 0)[0][:1]
        sharded.restrict([s for s in range(sharded.num_shards) if s != 0])
        with pytest.raises(RuntimeError, match="reachable set"):
            sharded.gather_subcells(target)
        sharded.restrict(None)  # lifting the restriction unblocks it
        sharded.gather_subcells(target)

    def test_resident_shard_stays_usable_after_restrict(self, flat, sharded):
        target = np.nonzero(sharded.shard_owner == 0)[0][:1]
        sharded.gather_subcells(target)  # attach while unrestricted
        sharded.restrict([1])
        # Already-resident blocks answer without a (forbidden) attach.
        sharded.gather_subcells(target)
        sharded.restrict(None)


class TestReachability:
    def test_reachable_shards_superset_of_candidate_demand(self, flat, sharded):
        # Lemma 5.10 soundness, cache-geometry version: the shards the
        # candidate finder can demand for queries from a cell are always
        # within that cell's reachable set.
        finder = NeighborCellFinder(
            flat.cell_ids, flat.geometry.side, flat.geometry.eps
        )
        for row in range(0, flat.num_cells, 5):
            reachable = set(sharded.reachable_shards(np.array([row])).tolist())
            demanded = set(
                sharded.shard_owner[
                    finder.candidate_rows(flat.cell_at(row))
                ].tolist()
            )
            assert demanded <= reachable

    def test_far_cells_reach_few_shards(self, sharded):
        all_rows = np.arange(sharded.num_cells)
        assert len(sharded.reachable_shards(all_rows)) == sharded.num_shards
        one = sharded.reachable_shards(np.array([0]))
        assert 1 <= len(one) < sharded.num_shards

    def test_empty_inputs(self, sharded):
        assert sharded.reachable_shards(np.empty(0, dtype=np.int64)).size == 0


class TestResidencyOracle:
    def test_record_rows_consulted(self, sharded):
        rows = np.arange(10)
        touched = sharded.record_rows_consulted(rows)
        assert touched == len(np.unique(sharded.shard_owner[rows]))
        assert sharded.queries == 1
        assert sharded.average_consulted() == float(touched)

    def test_query_engine_drives_the_oracle(self, flat, sharded, geometry):
        engine = RegionQueryEngine(sharded)
        pt = np.array([2.5, 2.5])
        engine.query_cell_batch(geometry.grid.cell_id_of(pt), pt[None, :])
        assert sharded.queries == 1
        assert sharded.shards_consulted >= 1

    def test_live_residency_stats_aggregates(self, flat):
        defrag = defragment(flat, capacity=200)
        sharded = ShardedFlatDictionary.from_defragmented(defrag, budget_bytes=8192)
        sharded.gather_subcells(np.arange(20))
        stats = live_residency_stats()
        assert stats["num_shards"] >= sharded.num_shards
        assert stats["shard_attaches"] >= sharded.shard_attaches
        assert stats["budget_bytes"] >= 8192
