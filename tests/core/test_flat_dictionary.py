"""Equivalence suite: the flat dictionary vs its CellDictionary oracle.

The flat cell dictionary is a pure re-encoding of the reference
:class:`~repro.core.dictionary.CellDictionary` — same geometry, same
cells, same densities, same sub-cell centers, in the same lexicographic
order.  Every test here pins that equivalence down to the bit: builds,
lookups, gathers, merges, and the serialized byte stream must all be
*identical* between the two, over randomized (hypothesis) and seeded
inputs.  Flat region-query answers are pinned against brute force in
``test_region_sweep.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cells import CellGeometry
from repro.core.dictionary import (
    CellDictionary,
    FlatCellDictionary,
    csr_gather_indices,
    lex_keys,
)
from repro.core.serialization import (
    deserialize_dictionary,
    deserialize_flat_dictionary,
    serialize_dictionary,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

points_nd = arrays(
    np.float64,
    st.tuples(st.integers(1, 150), st.integers(1, 3)),
    elements=st.floats(-5, 5, allow_nan=False, width=32),
)


@pytest.fixture(scope="module")
def geometry():
    return CellGeometry(eps=0.5, dim=2, rho=0.05)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(11)
    return rng.uniform(0, 4, (1500, 2))


@pytest.fixture(scope="module")
def dict_dictionary(points, geometry):
    return CellDictionary.from_points(points, geometry)


@pytest.fixture(scope="module")
def flat(points, geometry):
    return FlatCellDictionary.from_points(points, geometry)


def assert_flats_identical(a: FlatCellDictionary, b: FlatCellDictionary) -> None:
    assert np.array_equal(a.cell_ids, b.cell_ids)
    assert np.array_equal(a.cell_counts, b.cell_counts)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.sub_coords, b.sub_coords)
    assert np.array_equal(a.sub_counts, b.sub_counts)
    # Bit-identical, not merely close: both sides must run the same ops.
    assert np.array_equal(a.sub_centers, b.sub_centers)


class TestBuildEquivalence:
    def test_from_points_matches_dict_conversion(self, points, geometry):
        direct = FlatCellDictionary.from_points(points, geometry)
        via_dict = FlatCellDictionary.from_cell_dictionary(
            CellDictionary.from_points(points, geometry)
        )
        assert_flats_identical(direct, via_dict)

    def test_round_trip_through_dict(self, flat, dict_dictionary):
        back = flat.to_cell_dictionary()
        assert set(back.cells) == set(dict_dictionary.cells)
        for cell_id, summary in dict_dictionary.cells.items():
            other = back.cells[cell_id]
            assert other.count == summary.count
            assert np.array_equal(other.sub_coords, summary.sub_coords)
            assert np.array_equal(other.sub_counts, summary.sub_counts)

    def test_totals(self, flat, dict_dictionary, points):
        assert flat.num_cells == dict_dictionary.num_cells
        assert flat.num_subcells == dict_dictionary.num_subcells
        assert flat.num_points == dict_dictionary.num_points == len(points)
        assert len(flat) == len(dict_dictionary)

    def test_size_model_identical(self, flat, dict_dictionary):
        assert flat.size_model() == dict_dictionary.size_model()

    def test_empty(self, geometry):
        empty = FlatCellDictionary.from_points(np.empty((0, 2)), geometry)
        assert empty.num_cells == 0 and empty.num_points == 0
        assert empty.offsets.tolist() == [0]
        assert empty.find_rows(np.zeros((3, 2), dtype=np.int64)).tolist() == [-1] * 3

    def test_dim_mismatch_rejected(self, geometry):
        with pytest.raises(ValueError):
            FlatCellDictionary.from_points(np.zeros((5, 3)), geometry)

    @SETTINGS
    @given(pts=points_nd, rho=st.sampled_from([0.01, 0.1, 1.0]))
    def test_property_build_equivalence(self, pts, rho):
        geometry = CellGeometry(eps=0.7, dim=pts.shape[1], rho=rho)
        direct = FlatCellDictionary.from_points(pts, geometry)
        via_dict = FlatCellDictionary.from_cell_dictionary(
            CellDictionary.from_points(pts, geometry)
        )
        assert_flats_identical(direct, via_dict)


class TestLayoutInvariants:
    def test_rows_are_lexicographically_sorted(self, flat):
        as_tuples = [tuple(row) for row in flat.cell_ids.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_row_index_matches_dict_index_map(self, flat, dict_dictionary):
        # The load-bearing invariant: flat row == dense dict index, so
        # candidate rows double as cell-graph vertex ids.
        for cell_id, index in dict_dictionary.index_map.items():
            assert flat.row_of(cell_id) == index
            assert flat.cell_at(index) == cell_id

    def test_offsets_csr_shape(self, flat):
        assert flat.offsets[0] == 0
        assert flat.offsets[-1] == flat.num_subcells
        assert np.all(np.diff(flat.offsets) >= 1)

    def test_find_rows_hits_and_misses(self, flat):
        queries = np.concatenate(
            [flat.cell_ids[::3], np.full((2, flat.cell_ids.shape[1]), 10**6)]
        )
        rows = flat.find_rows(queries)
        assert np.array_equal(
            rows[: len(flat.cell_ids[::3])],
            np.arange(flat.num_cells)[::3],
        )
        assert rows[-2:].tolist() == [-1, -1]


class TestGatherEquivalence:
    def test_per_cell_centers_and_densities(self, flat, dict_dictionary):
        for cell_id in dict_dictionary.cells:
            assert np.array_equal(
                flat.sub_cell_centers(cell_id),
                dict_dictionary.sub_cell_centers(cell_id),
            )
            assert np.array_equal(
                flat.densities(cell_id), dict_dictionary.densities(cell_id)
            )

    def test_gather_subcells_matches_slices(self, flat):
        rng = np.random.default_rng(5)
        rows = np.sort(rng.choice(flat.num_cells, size=7, replace=False))
        centers, densities, sizes = flat.gather_subcells(rows)
        expected_centers = np.concatenate(
            [flat.sub_cell_centers(flat.cell_at(int(r))) for r in rows]
        )
        expected_densities = np.concatenate(
            [flat.densities(flat.cell_at(int(r))) for r in rows]
        )
        assert np.array_equal(centers, expected_centers)
        assert np.array_equal(densities, expected_densities.astype(np.float64))
        assert sizes.tolist() == [
            int(flat.offsets[r + 1] - flat.offsets[r]) for r in rows
        ]

    def test_csr_gather_skips_empty_runs(self):
        starts = np.array([0, 4, 9], dtype=np.int64)
        sizes = np.array([2, 0, 3], dtype=np.int64)
        assert csr_gather_indices(starts, sizes).tolist() == [0, 1, 9, 10, 11]

    def test_lex_keys_searchsorted(self):
        ids = np.array([[0, 1], [0, 2], [3, 0]], dtype=np.int64)
        keys = lex_keys(ids)
        probe = lex_keys(np.array([[0, 2]], dtype=np.int64))
        assert np.searchsorted(keys, probe)[0] == 1


class TestMergeEquivalence:
    def test_merge_matches_global_build(self, geometry):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 5, (3000, 2))
        # Split along cell boundaries (pseudo random partitioning's
        # guarantee) so the partial dictionaries never share a cell.
        owner = geometry.cell_ids(pts).sum(axis=1) % 4
        parts = [
            FlatCellDictionary.from_points(pts[owner == p], geometry)
            for p in range(4)
        ]
        merged = FlatCellDictionary.merge(parts)
        assert_flats_identical(merged, FlatCellDictionary.from_points(pts, geometry))

    def test_merge_overlap_rejected(self, geometry, points):
        flat = FlatCellDictionary.from_points(points, geometry)
        with pytest.raises(ValueError, match="share cells"):
            FlatCellDictionary.merge([flat, flat])

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            FlatCellDictionary.merge([])


class TestSerializationEquivalence:
    @pytest.mark.parametrize("rho", [0.01, 0.3, 1.0])
    def test_streams_byte_identical(self, points, rho):
        geometry = CellGeometry(eps=0.5, dim=2, rho=rho)
        dict_stream = serialize_dictionary(CellDictionary.from_points(points, geometry))
        flat_stream = serialize_dictionary(
            FlatCellDictionary.from_points(points, geometry)
        )
        assert dict_stream == flat_stream

    def test_flat_round_trip_exact(self, flat):
        back = deserialize_flat_dictionary(serialize_dictionary(flat))
        assert np.array_equal(back.cell_ids, flat.cell_ids)
        assert np.array_equal(back.cell_counts, flat.cell_counts)
        assert np.array_equal(back.offsets, flat.offsets)
        assert np.array_equal(back.sub_coords, flat.sub_coords)
        assert np.array_equal(back.sub_counts, flat.sub_counts)

    def test_cross_layout_round_trip(self, flat, dict_dictionary):
        stream = serialize_dictionary(dict_dictionary)
        from_dict_stream = deserialize_flat_dictionary(stream)
        as_dict = deserialize_dictionary(serialize_dictionary(flat))
        assert np.array_equal(from_dict_stream.cell_ids, flat.cell_ids)
        assert set(as_dict.cells) == set(dict_dictionary.cells)


class TestValidation:
    def test_unsorted_ids_rejected(self, geometry):
        with pytest.raises(ValueError, match="sorted"):
            FlatCellDictionary(
                geometry,
                np.array([[1, 0], [0, 0]], dtype=np.int64),
                np.array([1, 1]),
                np.array([0, 1, 2]),
                np.zeros((2, 2), dtype=np.uint16),
                np.array([1, 1]),
            )

    def test_offsets_length_rejected(self, geometry):
        with pytest.raises(ValueError):
            FlatCellDictionary(
                geometry,
                np.array([[0, 0]], dtype=np.int64),
                np.array([1]),
                np.array([0]),
                np.zeros((1, 2), dtype=np.uint16),
                np.array([1]),
            )
