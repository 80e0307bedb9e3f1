"""Unit tests for repro.core.defragmentation (Sec 4.2.2, Defs 4.4/5.9)."""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.defragmentation import defragment
from repro.core.dictionary import FlatCellDictionary


@pytest.fixture()
def geometry():
    return CellGeometry(eps=0.5, dim=2, rho=0.1)


@pytest.fixture()
def flat(geometry):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 5, (3000, 2))
    return FlatCellDictionary.from_points(pts, geometry)


class TestDefragment:
    def test_pieces_cover_dictionary_disjointly(self, flat):
        defrag = defragment(flat, capacity=200)
        seen: set = set()
        for sub in defrag.sub_dicts:
            rows = set(sub.rows.tolist())
            assert not (seen & rows)
            seen |= rows
        assert seen == set(range(flat.num_cells))

    def test_capacity_respected(self, flat):
        capacity = 150
        defrag = defragment(flat, capacity=capacity)
        for sub in defrag.sub_dicts:
            # A leaf piece can exceed capacity only if it is one cell.
            assert sub.num_entries <= capacity or sub.rows.size == 1

    def test_balanced_sizes(self, flat):
        defrag = defragment(flat, capacity=300)
        sizes = [sub.num_entries for sub in defrag.sub_dicts]
        assert max(sizes) <= 3 * max(min(sizes), 1)

    def test_huge_capacity_single_piece(self, flat):
        defrag = defragment(flat, capacity=10**9)
        assert defrag.num_sub_dicts == 1

    def test_empty_dictionary(self, geometry):
        empty = FlatCellDictionary.from_points(np.empty((0, 2)), geometry)
        defrag = defragment(empty, capacity=10)
        assert defrag.num_sub_dicts == 0

    def test_rejects_bad_capacity(self, flat):
        with pytest.raises(ValueError):
            defragment(flat, capacity=0)

    def test_mbr_covers_subcell_centers(self, flat):
        defrag = defragment(flat, capacity=200)
        for sub in defrag.sub_dicts:
            for row in sub.rows.tolist():
                centers = flat.sub_cell_centers(flat.cell_at(row))
                assert np.all(centers >= sub.mbr.lo - 1e-9)
                assert np.all(centers <= sub.mbr.hi + 1e-9)

    def test_geometric_contiguity(self, flat):
        # BSP cuts are axis-aligned hyperplanes, so two sub-dictionaries
        # never interleave: piece MBRs can overlap only on boundaries.
        defrag = defragment(flat, capacity=400)
        owners = {}
        for idx, sub in enumerate(defrag.sub_dicts):
            for row in sub.rows.tolist():
                owners[row] = idx
        assert len(set(owners.values())) == defrag.num_sub_dicts
        assert sorted(owners) == list(range(flat.num_cells))


class TestOwnerLookup:
    def test_owner_of(self, flat):
        defrag = defragment(flat, capacity=200)
        for idx, sub in enumerate(defrag.sub_dicts):
            for row in sub.rows.tolist():
                assert defrag.owner_of(flat.cell_at(row)) == idx


class TestSkipping:
    def test_relevant_subdicts_never_skip_neighbors(self, flat, geometry):
        # Soundness of Lemma 5.10: a sub-dictionary containing a sub-cell
        # center within eps of the query is always kept.
        defrag = defragment(flat, capacity=200)
        rng = np.random.default_rng(1)
        eps = geometry.eps
        for _ in range(20):
            query = rng.uniform(0, 5, 2)
            kept = set(defrag.relevant_sub_dicts(query, eps))
            for idx, sub in enumerate(defrag.sub_dicts):
                centers, _, _ = flat.gather_subcells(sub.rows)
                diff = centers - query
                if np.any(np.einsum("ij,ij->i", diff, diff) <= eps * eps):
                    assert idx in kept

    def test_far_query_skips_everything(self, flat, geometry):
        defrag = defragment(flat, capacity=200)
        kept = defrag.relevant_sub_dicts(np.array([1e6, 1e6]), geometry.eps)
        assert kept == []

    def test_statistics_accumulate(self, flat, geometry):
        defrag = defragment(flat, capacity=200)
        assert defrag.average_consulted() == 0.0
        defrag.relevant_sub_dicts(np.array([2.5, 2.5]), geometry.eps)
        assert defrag.queries == 1
        assert defrag.average_consulted() >= 0

    def test_record_cells_consulted(self, flat):
        defrag = defragment(flat, capacity=200)
        some_cells = [flat.cell_at(row) for row in range(5)]
        touched = defrag.record_cells_consulted(some_cells)
        assert 1 <= touched <= defrag.num_sub_dicts
        assert defrag.queries == 1


class TestFlatEdgeCases:
    def test_capacity_below_largest_cell_still_covers(self, flat):
        # Every cell carries 1 + num_subcells entries, so capacity=1 is
        # below every cell's weight: each leaf bottoms out as a single
        # oversized cell yet the pieces still tile the dictionary.
        defrag = defragment(flat, capacity=1)
        assert defrag.num_sub_dicts == flat.num_cells
        covered = np.sort(np.concatenate([s.rows for s in defrag.sub_dicts]))
        np.testing.assert_array_equal(covered, np.arange(flat.num_cells))
        for sub in defrag.sub_dicts:
            assert sub.rows.size == 1
            assert sub.num_entries > 1  # oversized only because single-cell

    def test_empty_flat_dictionary(self, geometry):
        empty = FlatCellDictionary.from_points(np.empty((0, 2)), geometry)
        defrag = defragment(empty, capacity=10)
        assert defrag.num_sub_dicts == 0
        assert defrag.record_cells_consulted([]) == 0
        assert defrag.queries == 1

    def test_record_cells_consulted_ignores_absent_cells(self, flat):
        defrag = defragment(flat, capacity=200)
        present = flat.cell_at(0)
        absent = (10_000, 10_000)
        touched = defrag.record_cells_consulted([present, absent])
        # Only the present cell's owner counts; the absent id is dropped
        # rather than crashing the row lookup or polluting the tally.
        assert touched == 1
        assert defrag.queries == 1
        assert defrag.record_cells_consulted([absent, absent]) == 0
        assert defrag.queries == 2
