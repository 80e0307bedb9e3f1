"""Spanning forests and connected components over edge lists.

Section 6.1.4 of the paper removes *redundant full edges* — edges that
close a cycle between core cells — because a single path between cells
suffices to express cluster connectivity.  A spanning forest over the
undirected full edges keeps exactly the non-redundant ones and is
computable in linear time with union-find.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from repro.graph.union_find import ArrayUnionFind, UnionFind

__all__ = [
    "spanning_forest",
    "connected_components",
    "connected_components_arrays",
]

Edge = tuple[Hashable, Hashable]


def spanning_forest(edges: Iterable[Edge]) -> tuple[list[Edge], UnionFind]:
    """Keep one spanning-forest edge set from undirected ``edges``.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs; direction is ignored (full edges in
        the cell graph are undirected once their type is known).

    Returns
    -------
    tuple
        ``(kept_edges, union_find)`` where ``kept_edges`` are the edges
        that joined two previously disconnected components (in input
        order) and ``union_find`` holds the resulting connectivity.
    """
    uf = UnionFind()
    kept: list[Edge] = []
    for u, v in edges:
        if uf.union(u, v):
            kept.append((u, v))
    return kept, uf


def connected_components(
    nodes: Iterable[Hashable], edges: Iterable[Edge]
) -> dict[Hashable, int]:
    """Dense component label for every node.

    ``nodes`` may include isolated vertices that appear in no edge; they
    each get their own component.  Labels are deterministic for equal
    inputs (see :meth:`repro.graph.union_find.UnionFind.component_labels`).
    """
    uf = UnionFind(nodes)
    for u, v in edges:
        uf.union(u, v)
    return uf.component_labels()


def connected_components_arrays(
    n_slots: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Canonical component label per slot of a dense vertex universe.

    Columnar counterpart of :func:`connected_components` for the flat
    cell graph: vertices are ``0 .. n_slots - 1`` and the edge list is a
    pair of integer arrays.  Components are numbered in ascending order
    of their smallest member (numerically, where
    :meth:`~repro.graph.union_find.UnionFind.component_labels` compares
    decimal strings) — the labeling depends only on connectivity, not
    on which spanning-forest edges produced it.
    """
    uf = ArrayUnionFind(n_slots)
    for u, v in zip(src.tolist(), dst.tolist()):
        uf.union(u, v)
    roots = uf.roots()
    if roots.size == 0:
        return np.empty(0, dtype=np.int64)
    _, first_index, inverse = np.unique(
        roots, return_index=True, return_inverse=True
    )
    # np.unique orders components by root id; renumber by smallest
    # member (= first occurrence index, since slots ascend).
    order = np.argsort(first_index, kind="stable")
    remap = np.empty(order.size, dtype=np.int64)
    remap[order] = np.arange(order.size, dtype=np.int64)
    return remap[inverse]
