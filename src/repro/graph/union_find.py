"""Disjoint-set (union-find) with path compression and union by rank.

Works over arbitrary hashable items (cell ids are tuples of ints) and is
used both for the spanning-forest edge reduction in Phase III and for the
cluster merging of the region-split baselines.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TypeVar

import numpy as np

T = TypeVar("T", bound=Hashable)

__all__ = ["UnionFind", "ArrayUnionFind"]


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


class ArrayUnionFind:
    """Union-find over the dense integer universe ``0 .. n_slots - 1``.

    The columnar counterpart of :class:`UnionFind` used by
    ``FlatCellGraph``: the vertex universe is fixed up front (the
    dictionary's dense flat-row cell indices), the parent table is a flat
    Python list walked with path halving, and the whole structure
    round-trips to an ``int32`` array for npz-style task payloads.
    Unlike :class:`UnionFind` there is no lazy item registration and no
    rank bookkeeping — path halving alone keeps trees shallow for the
    union/find mixes of the spanning-forest reduction.
    """

    __slots__ = ("_parent",)

    def __init__(self, n_slots: int = 0) -> None:
        self._parent: list[int] = list(range(int(n_slots)))

    @property
    def n_slots(self) -> int:
        """Size of the vertex universe (absent vertices included)."""
        return len(self._parent)

    def find(self, item: int) -> int:
        """Root of ``item``'s tree, halving the path on the way up."""
        parent = self._parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``.

        Returns ``True`` when the edge joined two distinct sets (a
        spanning-forest edge), ``False`` when it was redundant.
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[rb] = ra
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def copy(self) -> "ArrayUnionFind":
        """Independent copy with the same connectivity."""
        clone = ArrayUnionFind.__new__(ArrayUnionFind)
        clone._parent = list(self._parent)
        return clone

    def merge_from(self, other: "ArrayUnionFind") -> None:
        """Union in all of ``other``'s connectivity (same universe)."""
        if other.n_slots != self.n_slots:
            raise ValueError(
                f"universe mismatch: {self.n_slots} vs {other.n_slots}"
            )
        parent = other._parent
        for item in range(len(parent)):
            if parent[item] != item:
                self.union(item, other.find(item))

    def roots(self) -> np.ndarray:
        """Fully-compressed root per slot as an ``int32`` array."""
        parent = np.asarray(self._parent, dtype=np.int32)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            parent = grand
