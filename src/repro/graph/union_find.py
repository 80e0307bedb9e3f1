"""Disjoint sets: a hash union-find and root arrays over dense slots.

:class:`UnionFind` works over arbitrary hashable items with path
compression and union by rank; it is the spanning forest of the
reference ``CellGraph`` and merges the local clusters of the
region-split baselines.  Over the dense integer universe of the flat
cell graph a forest is a *root array* — each slot's component minimum —
joined with whole-array passes by :func:`link_roots` and
:func:`join_roots`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TypeVar

import numpy as np

T = TypeVar("T", bound=Hashable)

__all__ = ["UnionFind", "link_roots", "join_roots"]


class UnionFind:
    """Union-find over hashable items.

    Items are added lazily: :meth:`find` and :meth:`union` create
    singleton sets for unseen items.

    Examples
    --------
    >>> uf = UnionFind()
    >>> uf.union((0, 0), (0, 1))
    True
    >>> uf.connected((0, 0), (0, 1))
    True
    >>> uf.union((0, 0), (0, 1))  # already joined
    False
    """

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._rank: dict[Hashable, int] = {}
        self._count = 0
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        """Number of items tracked."""
        return len(self._parent)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    @property
    def set_count(self) -> int:
        """Number of disjoint sets."""
        return self._count

    def add(self, item: Hashable) -> None:
        """Register ``item`` as a singleton set if unseen."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0
            self._count += 1

    def find(self, item: Hashable) -> Hashable:
        """Representative of the set containing ``item`` (added if new)."""
        parent = self._parent
        if item not in parent:
            self.add(item)
            return item
        root = item
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets containing ``a`` and ``b``.

        Returns ``True`` if the two items were in different sets (i.e. the
        edge ``(a, b)`` is a spanning-forest edge), ``False`` if they were
        already connected (the edge is redundant, Sec 6.1.4).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._count -= 1
        return True

    def copy(self) -> "UnionFind":
        """Independent copy with the same connectivity."""
        clone = UnionFind()
        clone._parent = dict(self._parent)
        clone._rank = dict(self._rank)
        clone._count = self._count
        return clone

    def merge_from(self, other: "UnionFind") -> None:
        """Union in all of ``other``'s connectivity (``other`` unchanged)."""
        for item in other._parent:
            self.union(item, other.find(item))

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> dict[Hashable, list[Hashable]]:
        """Mapping from set representative to the list of its members."""
        out: dict[Hashable, list[Hashable]] = {}
        for item in self._parent:
            out.setdefault(self.find(item), []).append(item)
        return out

    def component_labels(self) -> dict[Hashable, int]:
        """Dense integer label per item, canonical for the partition.

        Components are numbered by the string form of their *smallest
        member*, not of their union-find representative, so the labeling
        is a pure function of the partition into components: two
        union-finds describing the same connectivity yield identical
        labels even when their internal trees — and hence their
        representatives — differ (e.g. after removing different redundant
        full edges in the Sec 6.1.4 spanning-forest reduction).
        """
        canonical: dict[Hashable, Hashable] = {}
        for item in self._parent:
            root = self.find(item)
            best = canonical.get(root)
            if best is None or repr(item) < repr(best):
                canonical[root] = item
        order = sorted(canonical, key=lambda root: repr(canonical[root]))
        rep_to_label = {root: i for i, root in enumerate(order)}
        return {item: rep_to_label[self.find(item)] for item in self._parent}


def link_roots(roots: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Join the components of every pair ``(u[i], v[i])`` of a root array.

    A *root array* is the union-find of the dense universe
    ``0 .. n_slots - 1`` that ``FlatCellGraph`` and the labeling use:
    one entry per slot, the smallest member of that slot's component
    (so ``np.arange(n_slots)`` is the forest of singletons).  Returns a
    new root array for the joined connectivity; ``roots`` is unchanged.

    Min-hooking plus pointer jumping: every pair whose roots differ
    hooks the larger root onto the smallest root paired with it, then
    each slot jumps to its parent's parent until nothing moves; repeat
    while a pair still spans two components.  Hooks point down, so no
    cycle forms and each final root is its component's minimum.
    """
    parent = np.array(roots, dtype=np.intp)
    ru, rv = parent[u], parent[v]
    while True:
        live = ru != rv
        if not live.any():
            return parent
        ru, rv = ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        ru, rv = parent[ru], parent[rv]


def join_roots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Root array of the union of two forests over one universe."""
    if a.size != b.size:
        raise ValueError(f"universe mismatch: {a.size} vs {b.size}")
    moved = np.flatnonzero(b != np.arange(b.size))
    return link_roots(a, moved, b[moved])
