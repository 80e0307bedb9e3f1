"""Unit tests for the bit-packed dictionary serialization."""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.dictionary import CellDictionary, FlatCellDictionary
from repro.core.region_query import RegionQueryEngine
from repro.core.serialization import (
    HEADER_BYTES,
    deserialize_dictionary,
    serialize_dictionary,
)


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    return np.concatenate(
        [rng.normal([1, 1], 0.3, (400, 2)), rng.uniform(-1, 3, (200, 2))]
    )


@pytest.fixture(scope="module", params=[0.5, 0.1, 0.05])
def dictionary(request, workload):
    geometry = CellGeometry(eps=0.4, dim=2, rho=request.param)
    return CellDictionary.from_points(workload, geometry)


class TestRoundtrip:
    def test_structure_preserved(self, dictionary):
        clone = deserialize_dictionary(serialize_dictionary(dictionary))
        assert set(clone.cells) == set(dictionary.cells)
        for cell_id, summary in dictionary.cells.items():
            other = clone.cells[cell_id]
            assert other.count == summary.count
            # Sub-cells compare as sets of (coords, count).
            original = {
                (tuple(c), int(n))
                for c, n in zip(summary.sub_coords.tolist(), summary.sub_counts)
            }
            restored = {
                (tuple(c), int(n))
                for c, n in zip(other.sub_coords.tolist(), other.sub_counts)
            }
            assert original == restored

    def test_geometry_preserved(self, dictionary):
        clone = deserialize_dictionary(serialize_dictionary(dictionary))
        assert clone.geometry == dictionary.geometry

    def test_queries_identical_after_roundtrip(self, workload, dictionary):
        original = RegionQueryEngine(FlatCellDictionary.from_cell_dictionary(dictionary))
        restored = RegionQueryEngine(
            FlatCellDictionary.from_cell_dictionary(
                deserialize_dictionary(serialize_dictionary(dictionary))
            )
        )
        rng = np.random.default_rng(1)
        for q in workload[rng.choice(workload.shape[0], 15, replace=False)]:
            count_a, cells_a = original.query_point(q)
            count_b, cells_b = restored.query_point(q)
            assert count_a == pytest.approx(count_b)
            assert cells_a == cells_b

    def test_empty_dictionary(self):
        geometry = CellGeometry(1.0, 3, 0.1)
        empty = CellDictionary(geometry, {})
        clone = deserialize_dictionary(serialize_dictionary(empty))
        assert clone.num_cells == 0

    def test_empty_dictionary_is_header_only(self):
        geometry = CellGeometry(1.0, 3, 0.1)
        data = serialize_dictionary(CellDictionary(geometry, {}))
        assert len(data) == HEADER_BYTES
        clone = deserialize_dictionary(data)
        assert clone.geometry == geometry
        assert clone.cells == {}

    def test_single_cell_dictionary(self):
        # One point -> one cell with one sub-cell: the smallest
        # non-empty stream exercises every per-cell field exactly once.
        geometry = CellGeometry(eps=0.4, dim=2, rho=0.1)
        single = CellDictionary.from_points(np.array([[0.05, 0.05]]), geometry)
        assert single.num_cells == 1
        clone = deserialize_dictionary(serialize_dictionary(single))
        assert clone.num_cells == 1
        ((cell_id, summary),) = clone.cells.items()
        original = single.cells[cell_id]
        assert summary.count == original.count == 1
        assert summary.sub_coords.tolist() == original.sub_coords.tolist()
        assert summary.sub_counts.tolist() == original.sub_counts.tolist()

    def test_h1_geometry_round_trips(self, workload):
        # rho = 1.0 collapses the hierarchy to h = 1: zero bits per
        # sub-cell axis, so the bit-packed position payload is empty and
        # the stream must survive packing/unpacking zero-width fields.
        geometry = CellGeometry(eps=0.4, dim=2, rho=1.0)
        assert geometry.h == 1
        dictionary = CellDictionary.from_points(workload, geometry)
        clone = deserialize_dictionary(serialize_dictionary(dictionary))
        assert clone.geometry == dictionary.geometry
        assert set(clone.cells) == set(dictionary.cells)
        for cell_id, summary in dictionary.cells.items():
            other = clone.cells[cell_id]
            assert other.count == summary.count
            assert sorted(map(tuple, other.sub_coords.tolist())) == sorted(
                map(tuple, summary.sub_coords.tolist())
            )
            assert sum(other.sub_counts) == sum(summary.sub_counts)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_dictionary(b"XXXX" + b"\0" * 64)


class TestSizeModelValidation:
    """Lemma 4.3's formula must match the actual byte stream."""

    def test_bytes_close_to_model(self, dictionary):
        data = serialize_dictionary(dictionary)
        model = dictionary.size_model()
        actual_bits = 8 * (len(data) - HEADER_BYTES)
        # The stream additionally stores a per-cell sub-cell count
        # (32 bits each) and pads bit-packed positions to whole bytes
        # (< 8 bits per cell); everything else matches Lemma 4.3.
        overhead_bits = dictionary.num_cells * (32 + 8)
        assert model.total_bits <= actual_bits <= model.total_bits + overhead_bits

    def test_compression_against_raw_points(self, workload):
        # At realistic densities the stream undercuts raw float32 data
        # as N grows (Table 5's claim); check the trend at two sizes.
        geometry = CellGeometry(eps=0.4, dim=2, rho=0.05)
        small = CellDictionary.from_points(workload, geometry)
        big_points = np.tile(workload, (20, 1))
        big = CellDictionary.from_points(big_points, geometry)
        ratio_small = len(serialize_dictionary(small)) / (workload.nbytes / 2)
        ratio_big = len(serialize_dictionary(big)) / (big_points.nbytes / 2)
        assert ratio_big < ratio_small
