"""Unit tests for the out-of-core point sources."""

import pickle

import numpy as np
import pytest

from repro.core import RPDBSCAN
from repro.core.cells import CellGeometry
from repro.core.partitioning import pseudo_random_partition
from repro.data.streaming import (
    ArraySource,
    ChunkedNpzSource,
    MemmapSource,
    PointSource,
    as_point_source,
    open_point_source,
    save_chunked_npz,
)


@pytest.fixture
def pts():
    return np.random.default_rng(0).normal(size=(137, 3))


def _npy_source(tmp_path, pts):
    path = tmp_path / "pts.npy"
    np.save(path, pts)
    return MemmapSource.from_npy(path, chunk_rows=32)


def _npz_source(tmp_path, pts):
    path = tmp_path / "pts.npz"
    save_chunked_npz(path, pts, chunk_rows=32)
    return ChunkedNpzSource(path)


SOURCE_BUILDERS = [
    lambda tmp_path, pts: ArraySource(pts, chunk_rows=32),
    _npy_source,
    _npz_source,
]


@pytest.mark.parametrize("build", SOURCE_BUILDERS, ids=["array", "memmap", "npz"])
class TestSourceContract:
    def test_shape(self, build, tmp_path, pts):
        source = build(tmp_path, pts)
        assert (source.num_points, source.dim) == pts.shape
        assert len(source) == pts.shape[0]

    def test_chunks_cover_in_order(self, build, tmp_path, pts):
        source = build(tmp_path, pts)
        rebuilt = np.full_like(pts, np.nan)
        prev_end = 0
        for start, chunk in source.iter_chunks():
            assert start == prev_end
            assert chunk.dtype == np.float64
            assert chunk.shape[0] >= 1
            rebuilt[start : start + chunk.shape[0]] = chunk
            prev_end = start + chunk.shape[0]
        assert prev_end == pts.shape[0]
        np.testing.assert_array_equal(rebuilt, pts)

    def test_take_matches_rows_in_order(self, build, tmp_path, pts):
        source = build(tmp_path, pts)
        idx = np.array([5, 0, 136, 64, 64, 31, 32], dtype=np.int64)
        got = source.take(idx)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, pts[idx])

    def test_take_empty(self, build, tmp_path, pts):
        source = build(tmp_path, pts)
        assert source.take(np.empty(0, dtype=np.int64)).shape == (0, 3)

    def test_take_returns_fresh_writable_rows(self, build, tmp_path, pts):
        source = build(tmp_path, pts)
        got = source.take(np.arange(4))
        got += 1.0  # must not raise, must not corrupt the source
        np.testing.assert_array_equal(source.take(np.arange(4)), pts[:4])

    def test_materialize(self, build, tmp_path, pts):
        np.testing.assert_array_equal(build(tmp_path, pts).materialize(), pts)

    def test_pickle_roundtrip(self, build, tmp_path, pts):
        source = build(tmp_path, pts)
        clone = pickle.loads(pickle.dumps(source))
        np.testing.assert_array_equal(clone.take(np.arange(10)), pts[:10])

    @pytest.mark.parametrize("method", ["random_key", "shuffle"])
    def test_partitions_match_the_eager_grouping(self, build, tmp_path, pts, method):
        # Cells span several 32-row chunks; merging the chunk tables
        # must reproduce the one-chunk grouping of the eager array.
        source = build(tmp_path, pts)
        geometry = CellGeometry(1.5, 3, 0.01)
        eager = pseudo_random_partition(pts, geometry, 4, seed=3, method=method)
        streamed = pseudo_random_partition(source, geometry, 4, seed=3, method=method)
        assert max(np.diff(p.offsets).max(initial=0) for p in eager) > 4
        for want, got in zip(eager, streamed, strict=True):
            np.testing.assert_array_equal(got.rows, want.rows)
            np.testing.assert_array_equal(got.offsets, want.offsets)
            np.testing.assert_array_equal(got.global_indices, want.global_indices)
            np.testing.assert_array_equal(got.points, want.points)
        model = RPDBSCAN(1.5, 8, num_partitions=4, seed=3)
        want_fit = model.fit(pts)
        assert want_fit.n_clusters >= 1
        got_fit = model.fit(source)
        np.testing.assert_array_equal(got_fit.labels, want_fit.labels)
        np.testing.assert_array_equal(got_fit.core_mask, want_fit.core_mask)


class TestMemmapSource:
    def test_descriptor_pickle_is_small(self, tmp_path):
        pts = np.random.default_rng(1).normal(size=(100_000, 3))
        path = tmp_path / "big.npy"
        np.save(path, pts)
        source = MemmapSource.from_npy(path)
        # The pickle carries a descriptor, never the 2.4 MB payload.
        assert len(pickle.dumps(source)) < 2048

    def test_one_dimensional_npy_is_a_column(self, tmp_path):
        path = tmp_path / "col.npy"
        np.save(path, np.arange(9, dtype=np.float64))
        source = MemmapSource.from_npy(path)
        assert (source.num_points, source.dim) == (9, 1)
        np.testing.assert_array_equal(
            source.take(np.array([3, 1])), [[3.0], [1.0]]
        )

    def test_from_memmap(self, tmp_path):
        pts = np.random.default_rng(2).normal(size=(40, 2))
        path = tmp_path / "mm.npy"
        np.save(path, pts)
        mm = np.load(path, mmap_mode="r")
        source = MemmapSource.from_memmap(mm)
        np.testing.assert_array_equal(source.materialize(), pts)

    def test_rejects_anonymous_memmap(self):
        # A view cast to np.memmap has no backing file (filename=None).
        anonymous = np.zeros((2, 2)).view(np.memmap)
        with pytest.raises(ValueError, match="backing file"):
            MemmapSource.from_memmap(anonymous)


class TestChunkedNpz:
    def test_empty_dataset_yields_no_chunks(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_chunked_npz(path, np.empty((0, 2)))
        source = ChunkedNpzSource(path)
        assert source.num_points == 0
        assert list(source.iter_chunks()) == []

    def test_rejects_plain_npz(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError, match="chunked point container"):
            ChunkedNpzSource(path)


class TestCoercion:
    def test_as_point_source_passthrough(self, pts):
        source = ArraySource(pts)
        assert as_point_source(source) is source

    def test_as_point_source_wraps_arrays(self, pts):
        assert isinstance(as_point_source(pts), ArraySource)

    def test_as_point_source_routes_memmaps(self, tmp_path, pts):
        path = tmp_path / "pts.npy"
        np.save(path, pts)
        mm = np.load(path, mmap_mode="r")
        source = as_point_source(mm)
        assert isinstance(source, MemmapSource)
        # The routing exists so pickling ships a descriptor, not bytes.
        assert len(pickle.dumps(source)) < 2048

    def test_open_point_source_by_extension(self, tmp_path, pts):
        npy = tmp_path / "a.npy"
        np.save(npy, pts)
        npz = tmp_path / "a.npz"
        save_chunked_npz(npz, pts)
        csv = tmp_path / "a.csv"
        np.savetxt(csv, pts, delimiter=",")
        assert isinstance(open_point_source(npy), MemmapSource)
        assert isinstance(open_point_source(npy, memmap=False), ArraySource)
        assert isinstance(open_point_source(npz), ChunkedNpzSource)
        assert isinstance(open_point_source(csv), ArraySource)
        for path in (npy, npz, csv):
            got = open_point_source(path).materialize()
            np.testing.assert_allclose(got, pts)
        assert issubclass(ChunkedNpzSource, PointSource)
