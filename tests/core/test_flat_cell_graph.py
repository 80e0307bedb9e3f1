"""FlatCellGraph: the columnar cell graph vs the CellGraph reference.

Every behavior the tournament relies on — absorb, edge-type detection,
reduction, conversion — must agree between the
struct-of-arrays graph and the dict-of-tuples reference.  The reference
graphs are the pipeline's own subgraphs converted with
``to_cell_graph``; vertex ids are dense flat rows, so both speak the
same integer universe.
"""

import pickle

import numpy as np
import pytest

from repro.core.cell_graph import (
    V_ABSENT,
    V_CORE,
    V_NONCORE,
    V_UNDETERMINED,
    EdgeType,
    FlatCellGraph,
)
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.merging import merge_match, progressive_merge
from repro.core.partitioning import pseudo_random_partition
from repro.data.datasets import DATASETS
from repro.graph.spanning_forest import connected_components


def canonical(labels: dict) -> frozenset:
    groups: dict = {}
    for item, label in labels.items():
        groups.setdefault(label, set()).add(item)
    return frozenset(frozenset(g) for g in groups.values())


def pipeline_subgraphs(seed: int):
    """Phase I + II on a two-blob dataset."""
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.normal([0, 0], 0.2, (60, 2)), rng.normal([4, 4], 0.2, (60, 2))]
    )
    geometry = CellGeometry(0.5, 2, 0.01)
    partitions = pseudo_random_partition(pts, geometry, 4, seed=seed)
    dictionary = FlatCellDictionary.from_points(pts, geometry)
    context = QueryContext(dictionary)
    graphs = [build_cell_subgraph(p, context, 5).graph for p in partitions]
    return graphs, dictionary.num_cells


def reference_subgraphs(seed: int):
    """The pipeline subgraphs as reference :class:`CellGraph` objects."""
    graphs, _ = pipeline_subgraphs(seed)
    return [g.to_cell_graph() for g in graphs]


def full_components(graph) -> frozenset:
    return canonical(
        connected_components(
            sorted(graph.core), graph.edges_of_type(EdgeType.FULL)
        )
    )


SEEDS = [0, 1, 2, 3, 4]


class TestMergeParity:
    """merge_match and the full tournament agree with the reference."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_match_counts_and_edges(self, seed):
        flat_graphs, _ = pipeline_subgraphs(seed)
        dict_graphs = reference_subgraphs(seed)
        fa, fb = flat_graphs[0].copy(), flat_graphs[1].copy()
        da, db = dict_graphs[0].copy(), dict_graphs[1].copy()
        f_merged, f_resolved, f_removed = merge_match(fa, fb)
        d_merged, d_resolved, d_removed = merge_match(da, db)
        assert f_resolved == d_resolved
        assert f_removed == d_removed
        # PARTIAL/UNDETERMINED edges are never reduced, so they match
        # exactly; the surviving FULL set is a spanning structure whose
        # membership depends on test order — only its connectivity (and
        # size, via the removed count) is pinned down.
        for etype in (EdgeType.PARTIAL, EdgeType.UNDETERMINED):
            assert f_merged.edges_of_type(etype) == d_merged.edges_of_type(
                etype
            )
        assert f_merged.core == d_merged.core
        assert f_merged.noncore == d_merged.noncore
        assert len(f_merged.edges_of_type(EdgeType.FULL)) == len(
            d_merged.edges_of_type(EdgeType.FULL)
        )
        assert full_components(f_merged) == full_components(d_merged)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_progressive_merge_stats_and_components(self, seed):
        flat_graphs, _ = pipeline_subgraphs(seed)
        dict_graphs = reference_subgraphs(seed)
        f_final, f_stats = progressive_merge(flat_graphs)
        d_final, d_stats = progressive_merge(dict_graphs)
        assert f_stats.edges_per_round == d_stats.edges_per_round
        assert f_stats.resolved_per_round == d_stats.resolved_per_round
        assert f_stats.removed_per_round == d_stats.removed_per_round
        assert f_final.is_global() and d_final.is_global()
        assert full_components(f_final) == full_components(d_final)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_reduction_off_parity(self, seed):
        flat_graphs, _ = pipeline_subgraphs(seed)
        dict_graphs = reference_subgraphs(seed)
        f_final, f_stats = progressive_merge(flat_graphs, reduce_edges=False)
        d_final, d_stats = progressive_merge(dict_graphs, reduce_edges=False)
        assert f_stats.edges_per_round == d_stats.edges_per_round
        assert f_final.num_edges == d_final.num_edges
        assert full_components(f_final) == full_components(d_final)


class TestConversions:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_round_trip_through_dict(self, seed):
        flat_graphs, n_slots = pipeline_subgraphs(seed)
        for flat in flat_graphs:
            back = FlatCellGraph.from_cell_graph(
                flat.to_cell_graph(), n_slots
            )
            assert np.array_equal(back.status, flat.status)
            for etype in EdgeType:
                assert back.edges_of_type(etype) == flat.edges_of_type(etype)
            # Pending FULL edges survive the round trip (as a set — the
            # dict keeps insertion order, the flat graph positions).
            pend = lambda g: {
                (int(g.src[e]), int(g.dst[e])) for e in g.pending
            }
            assert pend(back) == pend(flat)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_round_trip_through_flat(self, seed):
        dict_graphs = reference_subgraphs(seed)
        _, n_slots = pipeline_subgraphs(seed)
        for ref in dict_graphs:
            back = FlatCellGraph.from_cell_graph(ref, n_slots).to_cell_graph()
            assert back.edges == ref.edges
            assert back.core == ref.core
            assert back.noncore == ref.noncore
            assert back.undetermined == ref.undetermined


class TestFlatGraphUnits:
    def test_vertex_classes_and_promotion(self):
        g = FlatCellGraph(4)
        g.add_undetermined_cell(0)
        g.add_noncore_cell(1)
        g.add_core_cell(2)
        assert g.vertex_status(0) == "undetermined"
        assert g.vertex_status(1) == "noncore"
        assert g.vertex_status(2) == "core"
        assert g.vertex_status(3) == "absent"
        # Undetermined never demotes a determined cell.
        g.add_undetermined_cell(1)
        assert g.vertex_status(1) == "noncore"
        with pytest.raises(ValueError):
            g.add_noncore_cell(2)
        assert g.num_vertices == 3
        assert not g.is_global()

    def test_add_edge_upgrade_feeds_pending(self):
        g = FlatCellGraph(3)
        g.add_core_cell(0)
        g.add_undetermined_cell(1)
        g.add_edge(0, 1, EdgeType.UNDETERMINED)
        assert g.pending.tolist() == []
        g.add_core_cell(1)
        g.add_edge(0, 1, EdgeType.FULL)
        assert g.num_edges == 1  # upgraded in place, not duplicated
        assert g.pending.tolist() == [0]
        assert g.reduce_full_edges() == 0  # first tree edge survives

    def test_absorb_rejects_shared_source(self):
        # Each cell has one owning partition, so two subgraphs never
        # hold edges from the same source cell; hand-built ones may.
        a = FlatCellGraph(3)
        a.add_core_cell(0)
        a.add_undetermined_cell(1)
        a.add_edge(0, 1, EdgeType.UNDETERMINED)
        b = FlatCellGraph(3)
        b.add_core_cell(0)
        b.add_core_cell(2)
        b.add_edge(0, 2, EdgeType.FULL)
        with pytest.raises(ValueError, match="share edge source cell 0"):
            a.absorb(b)
        # A shared destination is fine.
        c = FlatCellGraph(3)
        c.add_core_cell(2)
        c.add_edge(2, 1, EdgeType.UNDETERMINED)
        a.absorb(c)
        assert a.num_edges == 2

    def test_absorb_universe_mismatch(self):
        with pytest.raises(ValueError, match="universe"):
            FlatCellGraph(2).absorb(FlatCellGraph(3))

    def test_validate_catches_corruption(self):
        g = FlatCellGraph(3)
        g.add_core_cell(0)
        g.add_core_cell(1)
        g.add_edge(0, 1, EdgeType.FULL)
        g.validate()
        bad = g.copy()
        bad.status[1] = V_ABSENT
        with pytest.raises(ValueError):
            bad.validate()
        bad = g.copy()
        bad.etype[0] = int(EdgeType.PARTIAL)
        with pytest.raises(ValueError, match="non-core"):
            bad.validate()
        bad = g.copy()
        bad.src = np.append(bad.src, np.int32(0))
        bad.dst = np.append(bad.dst, np.int32(1))
        bad.etype = np.append(bad.etype, np.int8(int(EdgeType.FULL)))
        with pytest.raises(ValueError, match="duplicate"):
            bad.validate()

    def test_status_priority_constants(self):
        # absorb uses np.maximum over these, so the order is load-bearing.
        assert V_ABSENT < V_UNDETERMINED < V_NONCORE < V_CORE


def geolife_subgraphs(seed: int):
    """Phase I + II on 3,000 GeoLife points: about 1,000 cells, enough
    that a stored forest or pending list would show in a pickle."""
    pts = DATASETS["GeoLife"].generator(3000, seed=seed)
    geometry = CellGeometry(3.0, pts.shape[1], 0.01)
    partitions = pseudo_random_partition(pts, geometry, 4, seed=seed)
    context = QueryContext(FlatCellDictionary.from_points(pts, geometry))
    return [build_cell_subgraph(p, context, 12).graph for p in partitions]


class TestSubgraphShipping:
    """A Phase II subgraph pickles as its four columns: its forest (the
    identity) and pending list (its FULL edges, ascending) are derived."""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_pickle_is_the_columns(self, seed):
        for graph in geolife_subgraphs(seed):
            columns = sum(
                a.nbytes
                for a in (graph.status, graph.src, graph.dst, graph.etype)
            )
            assert len(pickle.dumps(graph)) <= columns + 1024

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_tournament_over_unpickled_subgraphs(self, seed):
        graphs = geolife_subgraphs(seed)
        shipped = [pickle.loads(pickle.dumps(g)) for g in graphs]
        final, stats = progressive_merge(graphs)
        final_shipped, stats_shipped = progressive_merge(shipped)
        for column in ("status", "src", "dst", "etype"):
            np.testing.assert_array_equal(
                getattr(final_shipped, column), getattr(final, column)
            )
        assert stats_shipped.edges_per_round == stats.edges_per_round
        assert stats_shipped.resolved_per_round == stats.resolved_per_round
        assert stats_shipped.removed_per_round == stats.removed_per_round
