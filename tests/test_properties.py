"""Property-based tests (hypothesis) on the core invariants.

Each property encodes one of the paper's structural guarantees listed in
DESIGN.md section 5, checked over randomized inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cells import CellGeometry, h_for_rho
from repro.core.dictionary import FlatCellDictionary
from repro.core.partitioning import pseudo_random_partition
from repro.core.region_query import RegionQueryEngine
from repro.graph.union_find import UnionFind
from repro.metrics.rand_index import adjusted_rand_index, rand_index

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

points_2d = arrays(
    np.float64,
    st.tuples(st.integers(1, 120), st.just(2)),
    elements=st.floats(-5, 5, allow_nan=False, width=32),
)

labels_vec = arrays(np.int64, st.integers(0, 60), elements=st.integers(-1, 5))


class TestGeometryProperties:
    @SETTINGS
    @given(
        eps=st.floats(0.05, 10.0),
        dim=st.integers(1, 6),
        rho=st.floats(0.005, 1.0),
    )
    def test_subcell_diagonal_at_most_rho_eps(self, eps, dim, rho):
        geometry = CellGeometry(eps, dim, rho)
        assert geometry.sub_diagonal <= rho * eps * (1 + 1e-9)

    @SETTINGS
    @given(rho=st.floats(0.001, 1.0))
    def test_h_minimal(self, rho):
        # h is the smallest integer with 2^(h-1) >= 1/rho.
        h = h_for_rho(rho)
        assert 2 ** (h - 1) >= 1 / rho - 1e-9
        if h > 1:
            assert 2 ** (h - 2) < 1 / rho * (1 + 1e-9)

    @SETTINGS
    @given(points=points_2d, eps=st.floats(0.1, 3.0))
    def test_same_cell_implies_within_eps(self, points, eps):
        geometry = CellGeometry(eps, 2, 0.1)
        ids = geometry.cell_ids(points)
        order = np.lexsort(ids.T)
        sorted_ids = ids[order]
        sorted_pts = points[order]
        for i in range(1, len(order)):
            if np.all(sorted_ids[i] == sorted_ids[i - 1]):
                assert np.linalg.norm(sorted_pts[i] - sorted_pts[i - 1]) <= eps + 1e-9


class TestPartitioningProperties:
    @SETTINGS
    @given(
        points=points_2d,
        k=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    def test_partition_covers_exactly(self, points, k, seed):
        geometry = CellGeometry(0.5, 2, 0.1)
        partitions = pseudo_random_partition(points, geometry, k, seed=seed)
        indices = np.concatenate([p.global_indices for p in partitions])
        assert sorted(indices.tolist()) == list(range(points.shape[0]))

    @SETTINGS
    @given(points=points_2d, k=st.integers(1, 8), seed=st.integers(0, 1000))
    def test_cells_stay_whole(self, points, k, seed):
        geometry = CellGeometry(0.5, 2, 0.1)
        partitions = pseudo_random_partition(points, geometry, k, seed=seed)
        rows = np.concatenate([p.rows for p in partitions])
        assert np.unique(rows).size == rows.size


class TestDictionaryProperties:
    @SETTINGS
    @given(points=points_2d, rho=st.floats(0.01, 1.0))
    def test_density_conservation(self, points, rho):
        geometry = CellGeometry(0.7, 2, rho)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        assert dictionary.num_points == points.shape[0]

    @SETTINGS
    @given(points=points_2d)
    def test_size_model_counts(self, points):
        geometry = CellGeometry(0.7, 2, 0.05)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        model = dictionary.size_model()
        assert model.num_cells == dictionary.num_cells
        assert model.num_subcells == dictionary.num_subcells
        assert model.total_bits == model.density_bits + model.position_bits


class TestRegionQueryProperties:
    @SETTINGS
    @given(points=points_2d, eps=st.floats(0.2, 2.0), rho=st.floats(0.01, 0.5))
    def test_sandwich_bound(self, points, eps, rho):
        # Lemma 5.2: B(1-rho/2)eps <= approx <= B(1+rho/2)eps.
        geometry = CellGeometry(eps, 2, rho)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        engine = RegionQueryEngine(dictionary)
        query = points[0]
        approx, _ = engine.query_point(query)
        diff = points - query
        dist2 = np.einsum("ij,ij->i", diff, diff)
        slack = 1e-9
        inner = int(np.count_nonzero(dist2 <= ((1 - rho / 2) * eps) ** 2 * (1 - slack)))
        outer = int(np.count_nonzero(dist2 <= ((1 + rho / 2) * eps) ** 2 * (1 + slack)))
        assert inner <= approx <= outer


class TestUnionFindProperties:
    @SETTINGS
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=100
        )
    )
    def test_equivalence_relation(self, edges):
        uf = UnionFind(range(31))
        for a, b in edges:
            uf.union(a, b)
        labels = uf.component_labels()
        # Reflexive + symmetric + transitive by construction: verify
        # against a brute-force closure.
        adjacency = {i: {i} for i in range(31)}
        changed = True
        reach = {i: {i} for i in range(31)}
        for a, b in edges:
            reach[a].add(b)
            reach[b].add(a)
        while changed:
            changed = False
            for i in range(31):
                expand = set()
                for j in reach[i]:
                    expand |= reach[j]
                if not expand <= reach[i]:
                    reach[i] |= expand
                    changed = True
        for i in range(31):
            for j in reach[i]:
                assert labels[i] == labels[j]

    @SETTINGS
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60
        )
    )
    def test_set_count_consistent(self, edges):
        uf = UnionFind(range(21))
        for a, b in edges:
            uf.union(a, b)
        assert uf.set_count == len({uf.find(i) for i in range(21)})


class TestRandIndexProperties:
    @SETTINGS
    @given(labels=labels_vec)
    def test_self_similarity_is_one(self, labels):
        assert rand_index(labels, labels) == 1.0
        assert adjusted_rand_index(labels, labels) == 1.0

    @SETTINGS
    @given(labels=labels_vec, permutation_seed=st.integers(0, 100))
    def test_invariant_under_relabeling(self, labels, permutation_seed):
        rng = np.random.default_rng(permutation_seed)
        mapping = rng.permutation(7)
        renamed = np.where(labels >= 0, mapping[np.clip(labels, 0, 6)], -1)
        assert rand_index(labels, renamed) == 1.0

    @SETTINGS
    @given(a=labels_vec)
    def test_symmetry(self, a):
        rng = np.random.default_rng(0)
        b = rng.integers(-1, 4, a.shape[0])
        assert rand_index(a, b) == pytest.approx(rand_index(b, a))
        assert 0.0 <= rand_index(a, b) <= 1.0


class TestEndToEndProperties:
    @SETTINGS
    @given(
        seed=st.integers(0, 50),
        k=st.integers(1, 6),
    )
    def test_partition_count_never_changes_clustering(self, seed, k):
        # Corollary 3.6: the number of random partitions is invisible in
        # the output clustering.
        from repro import RPDBSCAN

        rng = np.random.default_rng(seed)
        pts = np.concatenate(
            [rng.normal([0, 0], 0.2, (60, 2)), rng.normal([4, 4], 0.2, (60, 2))]
        )
        base = RPDBSCAN(0.5, 5, num_partitions=1).fit(pts)
        other = RPDBSCAN(0.5, 5, num_partitions=k, seed=seed).fit(pts)
        assert rand_index(base.labels, other.labels) == 1.0
