"""Cell graphs: vertices are cells, edges are reachability (Def 5.8).

A cell graph ``G = (V, E)`` has three vertex classes — core, non-core,
and *undetermined* (cells referenced from another partition whose core
status is unknown locally) — and three edge classes:

* **full** (``C1 => C2``): both cells core; all points of both belong to
  one cluster; direction is irrelevant (Lemma 3.5, "Fully").
* **partial** (``C1 ~> C2``): ``C2`` is not core; only the points of
  ``C2`` within ``eps`` of a core point of ``C1`` join the cluster.
* **undetermined** (``C1 ?> C2``): ``C2`` lives in another partition, so
  its core status — and hence the edge type — is resolved during merging.

The *global* cell graph (Def 6.1) is a cell graph with no undetermined
vertices or edges.

:class:`FlatCellGraph` is the cell graph every phase builds, merges,
ships, and persists: vertices are the dense rows of the flat
dictionary, vertex classes one ``int8`` status array, edges a parallel
``(src, dst, type)`` column triple.  :class:`CellGraph` keeps the same
semantics over python sets and dicts.  No pipeline path builds or
accepts it: it is the reference implementation the columnar graph is
tested against, reachable through :meth:`FlatCellGraph.to_cell_graph`
and :meth:`FlatCellGraph.from_cell_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.core.cells import CellId
from repro.graph.spanning_forest import spanning_forest_arrays
from repro.graph.union_find import UnionFind, join_roots, link_roots

__all__ = [
    "EdgeType",
    "CellGraph",
    "FlatCellGraph",
    "V_ABSENT",
    "V_UNDETERMINED",
    "V_NONCORE",
    "V_CORE",
]

#: Vertex-status codes of :class:`FlatCellGraph`, ordered by knowledge
#: priority: merging two graphs' views of a vertex is an elementwise
#: maximum (a determined class always beats undetermined, core beats
#: non-core — the same promotion rules as :meth:`CellGraph.absorb`).
V_ABSENT = 0
V_UNDETERMINED = 1
V_NONCORE = 2
V_CORE = 3

_STATUS_NAMES = ("absent", "undetermined", "noncore", "core")


class EdgeType(IntEnum):
    """Directly-reachable relationship class between two cells."""

    FULL = 0
    PARTIAL = 1
    UNDETERMINED = 2


@dataclass
class CellGraph:
    """Reference cell (sub)graph over python sets and dicts.

    The oracle :class:`FlatCellGraph` is tested against.  Edges are
    keyed by the ordered pair ``(src, dst)``; ``src`` is always a core
    cell because only core cells initiate reachability.
    """

    core: set[CellId] = field(default_factory=set)
    noncore: set[CellId] = field(default_factory=set)
    undetermined: set[CellId] = field(default_factory=set)
    edges: dict[tuple[CellId, CellId], EdgeType] = field(default_factory=dict)
    # Keys of edges whose type is still UNDETERMINED; kept in sync so
    # type detection after a merge only visits unresolved edges.
    _undetermined_edges: set[tuple[CellId, CellId]] = field(default_factory=set)
    # Index of undetermined edges by destination cell: an edge can only
    # resolve when its destination becomes determined, so type detection
    # scans distinct destinations instead of every undetermined edge.
    _undetermined_by_dst: dict[CellId, set[tuple[CellId, CellId]]] = field(
        default_factory=dict, repr=False
    )
    # Incremental spanning forest over full edges (Sec 6.1.4): the keys
    # in _pending_full are full edges not yet tested against the forest.
    _full_forest: UnionFind = field(default_factory=UnionFind, repr=False)
    _pending_full: list[tuple[CellId, CellId]] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Total number of edges of all types."""
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        """Total number of vertices of all classes."""
        return len(self.core) + len(self.noncore) + len(self.undetermined)

    def is_global(self) -> bool:
        """Definition 6.1: no undetermined vertices or edges remain."""
        if self.undetermined:
            return False
        return all(t is not EdgeType.UNDETERMINED for t in self.edges.values())

    def edges_of_type(self, edge_type: EdgeType) -> list[tuple[CellId, CellId]]:
        """All edges of one type, sorted for determinism."""
        return sorted(key for key, t in self.edges.items() if t is edge_type)

    def vertex_status(self, cell: CellId) -> str:
        """``"core"``, ``"noncore"``, ``"undetermined"``, or ``"absent"``."""
        if cell in self.core:
            return "core"
        if cell in self.noncore:
            return "noncore"
        if cell in self.undetermined:
            return "undetermined"
        return "absent"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_core_cell(self, cell: CellId) -> None:
        """Register ``cell`` as core (promoting from any other class)."""
        self.noncore.discard(cell)
        self.undetermined.discard(cell)
        self.core.add(cell)

    def add_noncore_cell(self, cell: CellId) -> None:
        """Register ``cell`` as determined non-core."""
        if cell in self.core:
            raise ValueError(f"cell {cell} is already core")
        self.undetermined.discard(cell)
        self.noncore.add(cell)

    def add_undetermined_cell(self, cell: CellId) -> None:
        """Register ``cell`` as undetermined unless already determined."""
        if cell not in self.core and cell not in self.noncore:
            self.undetermined.add(cell)

    def add_edge(self, src: CellId, dst: CellId, edge_type: EdgeType) -> None:
        """Add (or upgrade) a directed edge ``src -> dst``.

        An existing undetermined edge is overwritten by a determined
        type; a determined type is never downgraded.
        """
        key = (src, dst)
        current = self.edges.get(key)
        if current is None or current is EdgeType.UNDETERMINED:
            self.edges[key] = edge_type
            if edge_type is EdgeType.UNDETERMINED:
                self._undetermined_edges.add(key)
                self._undetermined_by_dst.setdefault(dst, set()).add(key)
            else:
                if current is EdgeType.UNDETERMINED:
                    self._undetermined_edges.discard(key)
                    self._unindex(key)
                if edge_type is EdgeType.FULL:
                    self._pending_full.append(key)

    def _unindex(self, key: tuple[CellId, CellId]) -> None:
        bucket = self._undetermined_by_dst.get(key[1])
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self._undetermined_by_dst[key[1]]

    # ------------------------------------------------------------------
    # Merging machinery (Sections 6.1.2 - 6.1.4)
    # ------------------------------------------------------------------

    def copy(self) -> "CellGraph":
        """Shallow-structure copy (cell ids are immutable tuples)."""
        clone = CellGraph()
        clone.core = set(self.core)
        clone.noncore = set(self.noncore)
        clone.undetermined = set(self.undetermined)
        clone.edges = dict(self.edges)
        clone._undetermined_edges = set(self._undetermined_edges)
        clone._undetermined_by_dst = {
            dst: set(keys) for dst, keys in self._undetermined_by_dst.items()
        }
        clone._full_forest = self._full_forest.copy()
        clone._pending_full = list(self._pending_full)
        return clone

    def absorb(self, other: "CellGraph") -> "CellGraph":
        """In-place merger ``self |= other`` (Definition 6.2).

        Same semantics as :meth:`merge` without copying ``self`` — the
        tournament's hot path.  ``other`` is not modified.
        """
        self.core |= other.core
        self.noncore |= other.noncore
        self.noncore -= self.core
        self.undetermined |= other.undetermined
        self.undetermined -= self.core
        self.undetermined -= self.noncore
        edges = self.edges
        undetermined_edges = self._undetermined_edges
        by_dst = self._undetermined_by_dst
        for key, edge_type in other.edges.items():
            current = edges.get(key)
            if current is None or current is EdgeType.UNDETERMINED:
                edges[key] = edge_type
                if edge_type is EdgeType.UNDETERMINED:
                    if key not in undetermined_edges:
                        undetermined_edges.add(key)
                        by_dst.setdefault(key[1], set()).add(key)
                elif current is EdgeType.UNDETERMINED:
                    undetermined_edges.discard(key)
                    self._unindex(key)
        self._full_forest.merge_from(other._full_forest)
        self._pending_full.extend(other._pending_full)
        return self

    def absorb_resolving(self, other: "CellGraph") -> int:
        """Fused merger + edge-type detection (Secs 6.1.2-6.1.3).

        Equivalent to ``self.absorb(other)`` followed by
        :meth:`detect_edge_types`, but only touches the edges that can
        actually resolve in this match: an undetermined edge resolves
        exactly when the *other* side determines its destination, so the
        work per tournament match is proportional to what changed, not
        to the graph size.  Returns the number of edges resolved.
        """
        resolved = 0
        other_determined = other.core | other.noncore
        self.core |= other.core
        self.noncore |= other.noncore
        self.noncore -= self.core
        self.undetermined |= other.undetermined
        self.undetermined -= self.core
        self.undetermined -= self.noncore
        core = self.core
        noncore = self.noncore
        edges = self.edges
        undetermined_edges = self._undetermined_edges
        by_dst = self._undetermined_by_dst
        pending = self._pending_full
        # My old undetermined edges against the other side's verdicts.
        for dst in other_determined & by_dst.keys():
            edge_type = EdgeType.FULL if dst in core else EdgeType.PARTIAL
            keys = by_dst.pop(dst)
            for key in keys:
                edges[key] = edge_type
                if edge_type is EdgeType.FULL:
                    pending.append(key)
            undetermined_edges.difference_update(keys)
            resolved += len(keys)
        # The other side's edges, classifying undetermined ones on entry.
        for key, edge_type in other.edges.items():
            current = edges.get(key)
            if current is not None and current is not EdgeType.UNDETERMINED:
                continue
            newly_full = False
            if edge_type is EdgeType.UNDETERMINED:
                dst = key[1]
                if dst in core:
                    edge_type = EdgeType.FULL
                    newly_full = True
                    resolved += 1
                elif dst in noncore:
                    edge_type = EdgeType.PARTIAL
                    resolved += 1
            edges[key] = edge_type
            if edge_type is EdgeType.UNDETERMINED:
                if key not in undetermined_edges:
                    undetermined_edges.add(key)
                    by_dst.setdefault(key[1], set()).add(key)
            else:
                if current is EdgeType.UNDETERMINED:
                    undetermined_edges.discard(key)
                    self._unindex(key)
                # Only edges *resolved in this match* are queued for the
                # forest test.  An incoming already-full edge is either a
                # tree edge of the other branch (its connectivity arrives
                # via merge_from — re-testing it against that very
                # connectivity would delete it) or still in the other
                # side's own pending list, extended below.
                if newly_full:
                    pending.append(key)
        self._full_forest.merge_from(other._full_forest)
        self._pending_full.extend(other._pending_full)
        return resolved

    @classmethod
    def merge(cls, a: "CellGraph", b: "CellGraph") -> "CellGraph":
        """Single merger ``a | b`` (Definition 6.2).

        Vertex classes are united with undetermined cells promoted to
        whatever the other graph determined.  Edge sets are united; the
        paper notes ``E1 & E2 = {}`` because partitions are disjoint, but
        a duplicate key with a determined type wins over undetermined.
        """
        return a.copy().absorb(b)

    def detect_edge_types(self) -> int:
        """Resolve undetermined edges against the current vertex classes
        (Section 6.1.3).  Returns the number of edges resolved.

        Scans the *distinct destinations* of undetermined edges — an
        edge's type is a function of its destination's class — so a
        tournament match costs O(unresolved destinations) instead of
        O(unresolved edges).
        """
        resolved = 0
        core = self.core
        noncore = self.noncore
        for dst in list(self._undetermined_by_dst):
            if dst in core:
                edge_type = EdgeType.FULL
            elif dst in noncore:
                edge_type = EdgeType.PARTIAL
            else:
                continue
            keys = self._undetermined_by_dst.pop(dst)
            for key in keys:
                self.edges[key] = edge_type
                if edge_type is EdgeType.FULL:
                    self._pending_full.append(key)
            self._undetermined_edges.difference_update(keys)
            resolved += len(keys)
        return resolved

    def reduce_full_edges(self) -> int:
        """Drop redundant full edges via a spanning forest (Sec 6.1.4).

        Full edges are treated as undirected; any full edge that closes a
        cycle among core cells is removed.  Returns the number removed.
        Connectivity (and therefore the final clustering) is unchanged.
        """
        removed = 0
        forest = self._full_forest
        for key in self._pending_full:
            if self.edges.get(key) is not EdgeType.FULL:
                continue  # stale pending entry
            if not forest.union(key[0], key[1]):
                del self.edges[key]
                removed += 1
        self._pending_full.clear()
        return removed

    def reduce_all_full_edges(self) -> int:
        """Full-scan edge reduction: rebuild the forest over every full
        edge currently present and drop the redundant ones.

        Used once after a tournament: cross-branch duplicate full edges
        (the reversed pair resolved in two different branches) are not
        *pending* in either branch, so the incremental pass cannot see
        them; one linear sweep at the end removes them.
        """
        self._full_forest = UnionFind()
        self._pending_full = [
            key for key, t in self.edges.items() if t is EdgeType.FULL
        ]
        return self.reduce_full_edges()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ValueError` on
        violation.  Intended for tests and debugging."""
        if self.core & self.noncore:
            raise ValueError("a cell is both core and non-core")
        if (self.core | self.noncore) & self.undetermined:
            raise ValueError("a determined cell is also undetermined")
        known = self.core | self.noncore | self.undetermined
        for (src, dst), edge_type in self.edges.items():
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src}, {dst}) references unknown vertex")
            if src in self.noncore:
                raise ValueError(f"edge source {src} is a non-core cell")
            if edge_type is EdgeType.FULL and (
                src not in self.core or dst not in self.core
            ):
                raise ValueError(f"full edge ({src}, {dst}) endpoint not core")
            if edge_type is EdgeType.PARTIAL and dst not in self.noncore:
                raise ValueError(f"partial edge ({src}, {dst}) target not non-core")


class FlatCellGraph:
    """Columnar cell graph over the dense flat-row vertex universe.

    Vertices are the dense cell rows of a ``FlatCellDictionary``, vertex
    classes live in one ``int8`` status array keyed by those rows, and
    edges are a parallel ``(src:int32, dst:int32, type:int8)`` edge
    list.  Merging is an elementwise status maximum
    plus an array concatenation; edge-type detection is a vectorized
    gather of destination statuses.  The Sec 6.1.4 spanning forest is a
    root array (each slot's component minimum, see
    :func:`~repro.graph.union_find.link_roots`), and the full edges not
    yet tested against it are an ordered array of edge positions; the
    reduction is one Borůvka pass over them
    (:func:`~repro.graph.spanning_forest.spanning_forest_arrays`) that
    keeps the edges a union-find visiting them in that order would.  A
    graph fresh from :meth:`from_arrays` stores neither: its forest is
    the identity and its pending edges are its FULL edges in ascending
    order, so a Phase II subgraph ships only its four columns.

    :class:`CellGraph` is the reference: for equal inputs both produce
    identical vertex classes, edge multisets, resolved/removed counts,
    and (via canonical component numbering) identical final labels.  The
    one intentional difference: flat ``absorb_resolving`` always equals
    ``absorb`` + ``detect_edge_types`` (it re-resolves *all* undetermined
    edges against the merged statuses), which coincides with the
    reference on pipeline subgraphs, where a match can never leave a
    stale resolvable edge.
    """

    __slots__ = ("status", "src", "dst", "etype", "_pending", "_roots")

    def __init__(self, n_slots: int = 0) -> None:
        self.status = np.zeros(int(n_slots), dtype=np.int8)
        self.src = np.empty(0, dtype=np.int32)
        self.dst = np.empty(0, dtype=np.int32)
        self.etype = np.empty(0, dtype=np.int8)
        # None while derivable (see pending / roots); arrays are never
        # written in place, only replaced.
        self._pending: np.ndarray | None = None
        self._roots: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Size of the vertex universe (dictionary cell count)."""
        return int(self.status.size)

    @property
    def num_edges(self) -> int:
        """Total number of edges of all types."""
        return int(self.src.size)

    @property
    def num_vertices(self) -> int:
        """Number of present (non-absent) vertices."""
        return int(np.count_nonzero(self.status))

    @property
    def core(self) -> set[int]:
        """Core vertex indices, as a set."""
        return set(np.nonzero(self.status == V_CORE)[0].tolist())

    @property
    def noncore(self) -> set[int]:
        """Determined non-core vertex indices."""
        return set(np.nonzero(self.status == V_NONCORE)[0].tolist())

    @property
    def undetermined(self) -> set[int]:
        """Undetermined vertex indices."""
        return set(np.nonzero(self.status == V_UNDETERMINED)[0].tolist())

    def is_global(self) -> bool:
        """Definition 6.1: no undetermined vertices or edges remain."""
        if (self.status == V_UNDETERMINED).any():
            return False
        return not (self.etype == int(EdgeType.UNDETERMINED)).any()

    def edges_of_type(self, edge_type: EdgeType) -> list[tuple[int, int]]:
        """All edges of one type, sorted for determinism."""
        idx = np.nonzero(self.etype == int(edge_type))[0]
        if idx.size == 0:
            return []
        src = self.src[idx]
        dst = self.dst[idx]
        order = np.lexsort((dst, src))
        return list(zip(src[order].tolist(), dst[order].tolist()))

    def vertex_status(self, cell: int) -> str:
        """``"core"``, ``"noncore"``, ``"undetermined"``, or ``"absent"``."""
        return _STATUS_NAMES[int(self.status[cell])]

    @property
    def pending(self) -> np.ndarray:
        """Positions of the FULL edges not yet tested against the forest,
        in test order (derived while unset: every FULL edge, ascending)."""
        if self._pending is None:
            return np.flatnonzero(self.etype == int(EdgeType.FULL))
        return self._pending

    @property
    def roots(self) -> np.ndarray:
        """The spanning forest: each slot's component minimum."""
        if self._roots is None:
            return np.arange(self.n_slots)
        return self._roots

    def _edge_keys(self) -> np.ndarray:
        """Edges as scalar int64 keys ``src * n_slots + dst``."""
        n = max(self.n_slots, 1)
        return self.src.astype(np.int64) * n + self.dst.astype(np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_core_cell(self, cell: int) -> None:
        """Register ``cell`` as core (promoting from any other class)."""
        self.status[cell] = V_CORE

    def add_noncore_cell(self, cell: int) -> None:
        """Register ``cell`` as determined non-core."""
        if self.status[cell] == V_CORE:
            raise ValueError(f"cell {cell} is already core")
        self.status[cell] = V_NONCORE

    def add_undetermined_cell(self, cell: int) -> None:
        """Register ``cell`` as undetermined unless already determined."""
        if self.status[cell] == V_ABSENT:
            self.status[cell] = V_UNDETERMINED

    def add_edge(self, src: int, dst: int, edge_type: EdgeType) -> None:
        """Add (or upgrade) a directed edge ``src -> dst``.

        An existing undetermined edge is upgraded to a determined type;
        a determined type is never downgraded.  O(E) per call — meant
        for tests and small graphs; the pipeline builds edge arrays in
        bulk (:meth:`from_arrays`).
        """
        pending = self.pending
        hit = np.nonzero((self.src == src) & (self.dst == dst))[0]
        if hit.size:
            pos = int(hit[0])
            if self.etype[pos] != int(EdgeType.UNDETERMINED):
                return
            self.etype[pos] = int(edge_type)
        else:
            pos = self.src.size
            self.src = np.append(self.src, np.int32(src))
            self.dst = np.append(self.dst, np.int32(dst))
            self.etype = np.append(self.etype, np.int8(int(edge_type)))
        if edge_type is EdgeType.FULL:
            self._pending = np.append(pending, pos)

    @classmethod
    def from_arrays(
        cls,
        status: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        etype: np.ndarray,
    ) -> "FlatCellGraph":
        """Bulk constructor from prebuilt columns (arrays are adopted).

        Every FULL edge is pending (nothing forest-tested yet) against
        the identity forest; both are derived, not stored.
        """
        graph = cls.__new__(cls)
        graph.status = np.ascontiguousarray(status, dtype=np.int8)
        graph.src = np.ascontiguousarray(src, dtype=np.int32)
        graph.dst = np.ascontiguousarray(dst, dtype=np.int32)
        graph.etype = np.ascontiguousarray(etype, dtype=np.int8)
        graph._pending = None
        graph._roots = None
        return graph

    # ------------------------------------------------------------------
    # Merging machinery (Sections 6.1.2 - 6.1.4)
    # ------------------------------------------------------------------

    def copy(self) -> "FlatCellGraph":
        """Independent copy (columns duplicated; the pending and forest
        arrays are shared, as they are replaced, never written)."""
        clone = FlatCellGraph.__new__(FlatCellGraph)
        clone.status = self.status.copy()
        clone.src = self.src.copy()
        clone.dst = self.dst.copy()
        clone.etype = self.etype.copy()
        clone._pending = self._pending
        clone._roots = self._roots
        return clone

    def absorb(self, other: "FlatCellGraph") -> "FlatCellGraph":
        """In-place merger ``self |= other`` (Definition 6.2).

        The two graphs must share no edge source: every pipeline
        subgraph's edges start at cells its partition owns, and each
        cell has one owner, in the fit and in the ingest.  The union is
        then a status maximum plus an edge concatenation; a shared
        source raises ``ValueError``.
        """
        if other.n_slots != self.n_slots:
            raise ValueError(
                f"universe mismatch: {self.n_slots} vs {other.n_slots}"
            )
        if self.src.size and other.src.size:
            sources = np.zeros(self.n_slots, dtype=bool)
            sources[self.src] = True
            shared = sources[other.src]
            if shared.any():
                raise ValueError(
                    "graphs share edge source cell "
                    f"{int(other.src[np.argmax(shared)])}; absorb needs "
                    "disjoint sources (each cell owned by one partition)"
                )
        np.maximum(self.status, other.status, out=self.status)
        base = self.src.size
        self._pending = np.concatenate([self.pending, other.pending + base])
        self.src = np.concatenate([self.src, other.src])
        self.dst = np.concatenate([self.dst, other.dst])
        self.etype = np.concatenate([self.etype, other.etype])
        if other._roots is not None:
            self._roots = (
                other._roots
                if self._roots is None
                else join_roots(self._roots, other._roots)
            )
        return self

    def absorb_resolving(self, other: "FlatCellGraph") -> int:
        """Fused merger + edge-type detection (Secs 6.1.2-6.1.3).

        Exactly ``self.absorb(other)`` followed by
        :meth:`detect_edge_types`; returns the number of edges resolved.
        """
        self.absorb(other)
        return self.detect_edge_types()

    def detect_edge_types(self) -> int:
        """Resolve undetermined edges against the current vertex classes
        (Section 6.1.3).  Returns the number of edges resolved.

        One vectorized gather of destination statuses over the
        undetermined-typed edges — newly FULL edges join the pending
        list for the next forest test.
        """
        idx = np.nonzero(self.etype == int(EdgeType.UNDETERMINED))[0]
        if idx.size == 0:
            return 0
        dst_status = self.status[self.dst[idx]]
        to_full = idx[dst_status == V_CORE]
        to_partial = idx[dst_status == V_NONCORE]
        self._pending = np.concatenate([self.pending, to_full])
        self.etype[to_full] = int(EdgeType.FULL)
        self.etype[to_partial] = int(EdgeType.PARTIAL)
        return int(to_full.size + to_partial.size)

    def reduce_full_edges(self) -> int:
        """Drop redundant full edges via the spanning forest (Sec 6.1.4).

        Tests the pending edges in order: exactly the edges a union-find
        seeded with the forest and visiting them one by one would find
        closing a cycle are removed, found in one Borůvka pass.  Returns
        the number removed; connectivity is unchanged.
        """
        pending = self.pending
        self._pending = np.empty(0, dtype=np.intp)
        if pending.size == 0:
            return 0
        # Stale entries (no longer FULL) are skipped.
        pending = pending[self.etype[pending] == int(EdgeType.FULL)]
        kept, self._roots = spanning_forest_arrays(
            self.roots, self.src[pending], self.dst[pending]
        )
        drop = pending[~kept]
        if drop.size:
            keep = np.ones(self.src.size, dtype=bool)
            keep[drop] = False
            self.src = self.src[keep]
            self.dst = self.dst[keep]
            self.etype = self.etype[keep]
        return int(drop.size)

    def reduce_all_full_edges(self) -> int:
        """Full-scan edge reduction (see
        :meth:`CellGraph.reduce_all_full_edges`): every FULL edge, in
        ascending position, against the identity forest."""
        self._pending = None
        self._roots = None
        return self.reduce_full_edges()

    # ------------------------------------------------------------------
    # Conversion to and from the reference CellGraph
    # ------------------------------------------------------------------

    @classmethod
    def from_cell_graph(
        cls, graph: CellGraph, n_slots: int
    ) -> "FlatCellGraph":
        """Convert a reference :class:`CellGraph` whose cell ids are
        dense integer rows in ``0 .. n_slots - 1``."""
        flat = cls(n_slots)
        status = flat.status
        for cell in graph.undetermined:
            status[cell] = V_UNDETERMINED
        for cell in graph.noncore:
            status[cell] = V_NONCORE
        for cell in graph.core:
            status[cell] = V_CORE
        if graph.edges:
            keys = list(graph.edges)
            count = len(keys)
            flat.src = np.fromiter(
                (k[0] for k in keys), dtype=np.int32, count=count
            )
            flat.dst = np.fromiter(
                (k[1] for k in keys), dtype=np.int32, count=count
            )
            flat.etype = np.fromiter(
                (int(t) for t in graph.edges.values()),
                dtype=np.int8,
                count=count,
            )
            index_of = {key: i for i, key in enumerate(keys)}
            flat._pending = np.array(
                [
                    index_of[key]
                    for key in graph._pending_full
                    if key in index_of
                ],
                dtype=np.intp,
            )
        dict_forest = graph._full_forest
        items = list(dict_forest._parent)
        if items:
            flat._roots = link_roots(
                flat.roots,
                np.array(items, dtype=np.intp),
                np.array([dict_forest.find(i) for i in items], dtype=np.intp),
            )
        return flat

    def to_cell_graph(self) -> CellGraph:
        """Convert to the reference :class:`CellGraph` (int cell ids).

        The hash union-find is rebuilt from the root array's
        connectivity, so the round-trip preserves behaviour (which edges
        future reductions remove) rather than the internal tree shape.
        """
        graph = CellGraph()
        graph.core = self.core
        graph.noncore = self.noncore
        graph.undetermined = self.undetermined
        src = self.src.tolist()
        dst = self.dst.tolist()
        types = self.etype.tolist()
        for i in range(len(src)):
            key = (src[i], dst[i])
            edge_type = EdgeType(types[i])
            graph.edges[key] = edge_type
            if edge_type is EdgeType.UNDETERMINED:
                graph._undetermined_edges.add(key)
                graph._undetermined_by_dst.setdefault(key[1], set()).add(key)
        graph._pending_full = [(src[e], dst[e]) for e in self.pending.tolist()]
        roots = self.roots
        for item in np.flatnonzero(roots != np.arange(roots.size)).tolist():
            graph._full_forest.union(item, int(roots[item]))
        return graph

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ValueError` on
        violation.  Intended for tests and debugging."""
        if self.src.size != self.dst.size or self.src.size != self.etype.size:
            raise ValueError("edge columns have mismatched lengths")
        if self.src.size == 0:
            return
        if (self.src < 0).any() or (self.src >= self.n_slots).any():
            raise ValueError("edge source outside the vertex universe")
        if (self.dst < 0).any() or (self.dst >= self.n_slots).any():
            raise ValueError("edge target outside the vertex universe")
        src_status = self.status[self.src]
        dst_status = self.status[self.dst]
        if (src_status == V_ABSENT).any() or (dst_status == V_ABSENT).any():
            raise ValueError("edge references an absent vertex")
        if (src_status == V_NONCORE).any():
            raise ValueError("edge source is a non-core cell")
        full = self.etype == int(EdgeType.FULL)
        if (src_status[full] != V_CORE).any() or (
            dst_status[full] != V_CORE
        ).any():
            raise ValueError("full edge endpoint not core")
        partial = self.etype == int(EdgeType.PARTIAL)
        if (dst_status[partial] != V_NONCORE).any():
            raise ValueError("partial edge target not non-core")
        keys = self._edge_keys()
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate edge key in flat graph")
