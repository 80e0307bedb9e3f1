"""Spanning forests and connected components over edge lists.

Section 6.1.4 of the paper removes *redundant full edges* — edges that
close a cycle between core cells — because a single path between cells
suffices to express cluster connectivity.  A spanning forest over the
undirected full edges keeps exactly the non-redundant ones.  Over
hashable cells it is one union-find pass in edge order
(:func:`spanning_forest`); over the flat cell graph's integer slots it
is a vectorized Borůvka weighted by edge order
(:func:`spanning_forest_arrays`), which keeps the same edges.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from repro.graph.union_find import UnionFind, link_roots

__all__ = [
    "spanning_forest",
    "spanning_forest_arrays",
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


def spanning_forest_arrays(
    roots: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which edges a sequential union-find would keep, found by Borůvka.

    Columnar counterpart of :func:`spanning_forest`, starting from the
    connectivity of the root array ``roots`` (see
    :func:`~repro.graph.union_find.link_roots`) rather than from
    singletons.  Edge ``i`` is kept exactly when a union-find seeded
    with ``roots`` and fed the edges in input order would join two
    components with it.

    Weight every edge by its input position.  The edges that sequential
    pass keeps are Kruskal's: the minimum spanning forest of the graph
    with ``roots``' components contracted.  Its weights are distinct,
    so that forest is unique, and Borůvka finds it too: every component
    keeps its lowest-position incident edge, the components those edges
    join merge, edges now inside one component drop out, and the rounds
    repeat until no edge joins two components.  Each round at least
    halves the number of components with an edge left.

    Returns ``(kept, roots)``: a boolean mask over the edges and the
    root array joined with the kept edges.
    """
    kept = np.zeros(src.size, dtype=bool)
    cu, cv = roots[src], roots[dst]
    live = np.flatnonzero(cu != cv)
    cu, cv = cu[live], cv[live]
    while live.size:
        # Lowest live position incident to each component.
        rank = np.arange(live.size)
        first = np.full(roots.size, live.size)
        np.minimum.at(first, cu, rank)
        np.minimum.at(first, cv, rank)
        chosen = np.zeros(live.size, dtype=bool)
        chosen[first[first < live.size]] = True
        kept[live[chosen]] = True
        roots = link_roots(roots, cu[chosen], cv[chosen])
        cu, cv = roots[cu], roots[cv]
        alive = cu != cv
        live, cu, cv = live[alive], cu[alive], cv[alive]
    return kept, roots


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
    on which spanning-forest edges produced it.  The joined root array
    holds each slot's smallest component member, so the numbering is
    the rank of its root.
    """
    roots = link_roots(np.arange(n_slots), src, dst)
    return np.unique(roots, return_inverse=True)[1]
