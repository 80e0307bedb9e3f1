"""Root-array forests and the Borůvka edge reduction of the flat graph.

``FlatCellGraph`` keeps its Sec 6.1.4 spanning forest as a root array
(each slot's component minimum) and reduces its pending full edges with
one Borůvka pass weighted by pending position.  The reference here is
the sequential definition: the hash :class:`UnionFind`, seeded with the
forest's prior connectivity, then one ``union`` per pending edge in
order — an edge is redundant exactly when that ``union`` finds its
endpoints already joined.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cell_graph import (
    V_CORE,
    V_UNDETERMINED,
    EdgeType,
    FlatCellGraph,
)
from repro.graph.spanning_forest import (
    connected_components,
    connected_components_arrays,
    spanning_forest_arrays,
)
from repro.graph.union_find import UnionFind, join_roots, link_roots

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FULL = int(EdgeType.FULL)


def canonical(labels: dict) -> frozenset:
    groups: dict = {}
    for item, label in labels.items():
        groups.setdefault(label, set()).add(item)
    return frozenset(frozenset(g) for g in groups.values())


def seeded_union_find(roots: np.ndarray) -> UnionFind:
    uf = UnionFind(range(roots.size))
    for slot, root in enumerate(roots.tolist()):
        uf.union(slot, root)
    return uf


def assert_roots_match(roots: np.ndarray, uf: UnionFind) -> None:
    """``roots`` is a root array with ``uf``'s connectivity."""
    groups = uf.groups().values()
    assert canonical(dict(enumerate(roots.tolist()))) == frozenset(
        frozenset(g) for g in groups
    )
    for members in groups:
        assert set(roots[members].tolist()) == {min(members)}


def check_reduction(graph: FlatCellGraph) -> None:
    """Reduce ``graph`` and compare with the sequential reference."""
    src, dst, etype = graph.src.copy(), graph.dst.copy(), graph.etype.copy()
    pending = graph.pending.tolist()
    assert len(set(pending)) == len(pending)  # distinct by construction
    uf = seeded_union_find(graph.roots)
    dropped = {
        p
        for p in pending
        if etype[p] == FULL and not uf.union(int(src[p]), int(dst[p]))
    }
    survivors = [p for p in range(src.size) if p not in dropped]
    assert graph.reduce_full_edges() == len(dropped)
    assert graph.pending.tolist() == []
    np.testing.assert_array_equal(graph.src, src[survivors])
    np.testing.assert_array_equal(graph.dst, dst[survivors])
    np.testing.assert_array_equal(graph.etype, etype[survivors])
    assert_roots_match(graph.roots, uf)


def pairs(n: int):
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))


@st.composite
def two_graph_histories(draw):
    """Two subgraphs over one universe, each possibly reduced, then
    absorbed and resolved; some pending entries go stale.

    Every slot is core and owned by one graph; an edge is FULL when its
    target has the same owner and UNDETERMINED otherwise, so resolving
    after the absorb appends lower positions behind higher ones.  Edge
    pairs are unconstrained: self-loops, reversed pairs and the same
    pair at two positions all occur.
    """
    n = draw(st.integers(0, 10))
    owner = [draw(st.integers(0, 1)) for _ in range(n)]
    edges = draw(st.lists(pairs(n), max_size=30)) if n else []
    graphs = []
    for side in (0, 1):
        status = np.zeros(n, dtype=np.int8)
        owned = [s for s in range(n) if owner[s] == side]
        status[owned] = V_CORE
        mine = [(u, v) for u, v in edges if owner[u] == side]
        for _, v in mine:
            if owner[v] != side:
                status[v] = V_UNDETERMINED
        graphs.append(
            FlatCellGraph.from_arrays(
                status,
                np.array([u for u, _ in mine], dtype=np.int32),
                np.array([v for _, v in mine], dtype=np.int32),
                np.array(
                    [FULL if owner[v] == side else int(EdgeType.UNDETERMINED)
                     for _, v in mine],
                    dtype=np.int8,
                ),
            )
        )
    reduce_first = (draw(st.booleans()), draw(st.booleans()))
    stale = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return graphs, reduce_first, stale


class TestReductionAgainstSequential:
    @SETTINGS
    @given(two_graph_histories())
    def test_matches_sequential_union_find(self, history):
        (a, b), reduce_first, stale = history
        for graph, first in zip((a, b), reduce_first):
            if first:
                check_reduction(graph)
        expected = seeded_union_find(a.roots)
        for slot, root in enumerate(b.roots.tolist()):
            expected.union(slot, root)
        a.absorb(b)
        assert_roots_match(a.roots, expected)
        a.detect_edge_types()
        # Stale entries: pending positions whose edge is no longer FULL.
        pending = a.pending
        flip = pending[np.array(stale[: pending.size], dtype=bool)]
        a.etype[flip] = int(EdgeType.PARTIAL)
        check_reduction(a)

    @pytest.mark.parametrize("n_slots", [0, 1])
    def test_tiny_universes(self, n_slots):
        graph = FlatCellGraph(n_slots)
        for cell in range(n_slots):
            graph.add_core_cell(cell)
            graph.add_edge(cell, cell, EdgeType.FULL)  # self-loop
        check_reduction(graph)
        assert graph.num_edges == 0
        assert graph.roots.tolist() == list(range(n_slots))

    def test_path_in_reverse_order(self):
        n = 9
        src = np.arange(n - 2, -1, -1, dtype=np.int32)
        graph = FlatCellGraph.from_arrays(
            np.full(n, V_CORE, dtype=np.int8), src, src + 1,
            np.full(n - 1, FULL, dtype=np.int8),
        )
        check_reduction(graph)
        assert graph.num_edges == n - 1
        assert graph.roots.tolist() == [0] * n

    def test_pending_order_picks_the_survivor(self):
        # A triangle: whichever edge is tested last closes the cycle.
        graph = FlatCellGraph.from_arrays(
            np.full(3, V_CORE, dtype=np.int8),
            np.array([0, 1, 2], dtype=np.int32),
            np.array([1, 2, 0], dtype=np.int32),
            np.full(3, FULL, dtype=np.int8),
        )
        graph._pending = np.array([2, 0, 1])
        check_reduction(graph)
        assert graph.src.tolist() == [0, 2]

    def test_reversed_pair_and_duplicate(self):
        graph = FlatCellGraph.from_arrays(
            np.full(3, V_CORE, dtype=np.int8),
            np.array([0, 1, 0, 1], dtype=np.int32),
            np.array([1, 0, 1, 2], dtype=np.int32),
            np.full(4, FULL, dtype=np.int8),
        )
        check_reduction(graph)
        assert list(zip(graph.src.tolist(), graph.dst.tolist())) == [
            (0, 1), (1, 2)
        ]


class TestSpanningForestArrays:
    @SETTINGS
    @given(st.data())
    def test_kept_mask_matches_sequential(self, data):
        n = data.draw(st.integers(0, 12))
        prior = data.draw(st.lists(pairs(n), max_size=8)) if n else []
        edges = data.draw(st.lists(pairs(n), max_size=30)) if n else []
        roots = link_roots(
            np.arange(n),
            np.array([u for u, _ in prior], dtype=np.intp),
            np.array([v for _, v in prior], dtype=np.intp),
        )
        uf = seeded_union_find(roots)
        expected = [uf.union(u, v) for u, v in edges]
        kept, joined = spanning_forest_arrays(
            roots,
            np.array([u for u, _ in edges], dtype=np.int32),
            np.array([v for _, v in edges], dtype=np.int32),
        )
        assert kept.tolist() == expected
        assert_roots_match(joined, uf)


class TestRootArrays:
    """The primitive that replaced the per-edge array union-find."""

    def test_link_connectivity(self):
        identity = np.arange(5)
        roots = link_roots(identity, np.array([1, 2]), np.array([0, 1]))
        assert roots.tolist() == [0, 0, 0, 3, 4]  # component minima
        assert identity.tolist() == [0, 1, 2, 3, 4]  # input untouched
        assert roots[2] == roots[0]
        assert roots[3] != roots[0]

    def test_join_and_copy(self):
        a = link_roots(np.arange(4), np.array([0]), np.array([1]))
        b = a.copy()
        b = link_roots(b, np.array([3]), np.array([2]))
        assert a[2] != a[3]  # the copy is independent
        joined = join_roots(a, b)
        assert joined.tolist() == [0, 0, 2, 2]
        with pytest.raises(ValueError, match="universe"):
            join_roots(a, np.arange(5))

    def test_graph_copy_keeps_its_own_forest(self):
        graph = FlatCellGraph.from_arrays(
            np.full(3, V_CORE, dtype=np.int8),
            np.array([0], dtype=np.int32),
            np.array([1], dtype=np.int32),
            np.full(1, FULL, dtype=np.int8),
        )
        clone = graph.copy()
        graph.reduce_full_edges()
        assert graph.roots.tolist() == [0, 0, 2]
        assert clone.roots.tolist() == [0, 1, 2]
        assert clone.pending.tolist() == [0]

    def test_components_match_hash_reference(self):
        rng = np.random.default_rng(7)
        n = 40
        src = rng.integers(0, n, 60).astype(np.int32)
        dst = rng.integers(0, n, 60).astype(np.int32)
        labels = connected_components_arrays(n, src, dst)
        ref = connected_components(
            range(n), list(zip(src.tolist(), dst.tolist()))
        )
        assert canonical(dict(enumerate(labels.tolist()))) == canonical(ref)
        # Canonical numbering: components ordered by smallest member.
        assert labels[0] == 0
        first_seen = np.unique(labels, return_index=True)[1]
        assert np.all(np.diff(first_seen) > 0)
