"""Unit tests for repro.core.labeling (Phase III-2, Lemma 3.5)."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RPDBSCAN, region_query
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.labeling import (
    NOISE,
    LabelingContext,
    build_labeling_context,
    label_partition,
    partial_predecessors,
)
from repro.core.merging import progressive_merge
from repro.core.partitioning import LazyPartition, Partition, pseudo_random_partition
from repro.data.datasets import DATASETS
from repro.data.streaming import MemmapSource
from repro.engine import Engine
from repro.engine.shm import export_broadcast_parts
from repro.obs import Tracer


@pytest.fixture(scope="module")
def pipeline():
    """Full Phase I+II+III-1 output for a 2-cluster + noise workload."""
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [
            rng.normal([0, 0], 0.12, (400, 2)),
            rng.normal([3, 0], 0.12, (400, 2)),
            rng.uniform(-1, 4, (60, 2)),
        ]
    )
    geometry = CellGeometry(eps=0.3, dim=2, rho=0.01)
    partitions = pseudo_random_partition(pts, geometry, 4, seed=0)
    dictionary = FlatCellDictionary.from_points(pts, geometry)
    context = QueryContext(dictionary)
    results = [build_cell_subgraph(p, context, 10) for p in partitions]
    graph, _ = progressive_merge([r.graph for r in results])
    core_masks = {r.pid: r.core_mask for r in results}
    labeling = build_labeling_context(graph, partitions, core_masks, geometry.eps)
    return pts, partitions, results, graph, labeling


class TestLabelingContext:
    def test_every_core_cell_has_cluster(self, pipeline):
        _, _, _, graph, labeling = pipeline
        assert labeling.cell_labels.shape == (graph.n_slots,)
        assert set(np.flatnonzero(labeling.cell_labels >= 0).tolist()) == graph.core
        assert (labeling.cell_labels >= NOISE).all()

    def test_cluster_ids_dense(self, pipeline):
        _, _, _, _, labeling = pipeline
        ids = set(labeling.cell_labels.tolist()) - {NOISE}
        assert ids == set(range(len(ids)))

    def test_n_clusters(self, pipeline):
        _, _, _, _, labeling = pipeline
        assert labeling.n_clusters == 2

    def test_predecessors_sorted_core_cells(self, pipeline):
        _, _, _, graph, labeling = pipeline
        offsets = labeling.predecessor_offsets
        assert offsets.shape == (graph.n_slots + 1,)
        assert offsets[-1] == labeling.predecessors.size > 0
        # Rows and offsets of the broadcast are int32, as the graph's
        # edge columns are; the cell labels are the state's int64.
        assert offsets.dtype == labeling.predecessors.dtype == np.int32
        assert labeling.core_point_offsets.dtype == np.int32
        assert labeling.cell_labels.dtype == np.int64
        for dst in range(graph.n_slots):
            preds = labeling.predecessors[offsets[dst] : offsets[dst + 1]].tolist()
            if not preds:
                continue
            assert preds == sorted(preds)
            assert dst in graph.noncore
            for pred in preds:
                assert pred in graph.core

    def test_predecessor_points_are_core(self, pipeline):
        pts, partitions, results, _, labeling = pipeline
        core_points = np.concatenate(
            [p.points[r.core_mask] for p, r in zip(partitions, results)]
        )
        offsets = labeling.core_point_offsets
        sources = set(labeling.predecessors.tolist())
        for row in range(offsets.size - 1):
            block = labeling.core_points[offsets[row] : offsets[row + 1]]
            # Exactly the partial-edge sources carry points, and each
            # stored point must be a real data point marked core.
            assert (block.shape[0] > 0) == (row in sources)
            for p in block:
                assert np.any(np.all(core_points == p, axis=1))


class TestBroadcastWidth:
    def test_process_fit_ships_int32_rows_and_offsets(self):
        # A 10k-point GeoLife stand-in at eps 3 (2,000 cells or so): the
        # int32 CSR saves 4 bytes per cell row twice and per partial edge.
        data = DATASETS["GeoLife"].generator(20_000, seed=0)
        rng = np.random.default_rng(11)
        points = np.ascontiguousarray(data[rng.choice(20_000, 10_000, replace=False)])
        serial = RPDBSCAN(3.0, 40, 8).fit(points)
        tracer = Tracer()
        with Engine("process", num_workers=2, tracer=tracer) as engine:
            fit = RPDBSCAN(3.0, 40, 8, engine=engine).fit(points)
        np.testing.assert_array_equal(fit.labels, serial.labels)
        # The fit's last fan-out is Phase III-2's.
        ship = tracer.find(kind="setup", name="broadcast_ship")[-1]
        assert ship.annotations["channel"] == "pickle"
        state = serial.state
        predecessors, needed = partial_predecessors(state.graph)
        pick = np.flatnonzero(state.core_mask & needed[state.point_cell_rows])
        context = LabelingContext.assemble(
            state.graph, 3.0, predecessors, state.point_cell_rows[pick],
            state.points[pick],
        )
        payload = ship.annotations["payload_bytes"]
        assert payload == len(export_broadcast_parts(context)[0])
        wide = replace(
            context,
            predecessor_offsets=context.predecessor_offsets.astype(np.int64),
            predecessors=context.predecessors.astype(np.int64),
            core_point_offsets=context.core_point_offsets.astype(np.int64),
        )
        assert len(export_broadcast_parts(wide)[0]) - payload >= 15_000
        partitions = pseudo_random_partition(points, CellGeometry(3.0, 3), 4, seed=0)
        for partition in partitions:
            np.testing.assert_array_equal(
                label_partition(partition, wide)[1],
                label_partition(partition, context)[1],
            )


class TestLabelPartition:
    def test_core_cell_points_share_cluster(self, pipeline):
        _, partitions, _, _, labeling = pipeline
        for partition in partitions:
            _, labels = label_partition(partition, labeling)
            for g, row in enumerate(partition.rows):
                start, stop = partition.offsets[g], partition.offsets[g + 1]
                cluster = labeling.cell_labels[row]
                if cluster != NOISE:
                    assert np.all(labels[start:stop] == cluster)

    def test_border_points_within_eps_of_core(self, pipeline):
        pts, partitions, results, _, labeling = pipeline
        eps = labeling.eps
        all_core_points = np.concatenate(
            [p.points[r.core_mask] for p, r in zip(partitions, results)]
        )
        for partition in partitions:
            _, labels = label_partition(partition, labeling)
            for g, cell in enumerate(partition.rows):
                start, stop = partition.offsets[g], partition.offsets[g + 1]
                if labeling.cell_labels[cell] != NOISE:
                    continue
                for row in range(start, stop):
                    if labels[row] != NOISE:
                        diff = all_core_points - partition.points[row]
                        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                        assert dist.min() <= eps + 1e-9

    def test_noise_points_have_no_core_neighbor(self, pipeline):
        pts, partitions, results, _, labeling = pipeline
        eps = labeling.eps
        all_core_points = np.concatenate(
            [p.points[r.core_mask] for p, r in zip(partitions, results)]
        )
        violations = 0
        for partition in partitions:
            _, labels = label_partition(partition, labeling)
            noise_rows = np.nonzero(labels == NOISE)[0]
            for row in noise_rows:
                diff = all_core_points - partition.points[row]
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                if dist.min() <= eps - 1e-9:
                    violations += 1
        assert violations == 0

    def test_returns_alignment(self, pipeline):
        _, partitions, _, _, labeling = pipeline
        for partition in partitions:
            indices, labels = label_partition(partition, labeling)
            assert indices.shape == labels.shape == (partition.num_points,)
            np.testing.assert_array_equal(indices, partition.global_indices)

    def test_two_clusters_not_merged(self, pipeline):
        pts, partitions, _, _, labeling = pipeline
        # Points from the two blobs must get different cluster ids.
        full_labels = np.full(pts.shape[0], NOISE, dtype=np.int64)
        for partition in partitions:
            indices, labels = label_partition(partition, labeling)
            full_labels[indices] = labels
        blob_a = set(full_labels[:400].tolist()) - {NOISE}
        blob_b = set(full_labels[400:800].tolist()) - {NOISE}
        assert len(blob_a) == 1 and len(blob_b) == 1
        assert blob_a != blob_b


@st.composite
def labeling_cases(draw):
    """A labeling broadcast and a partition drawn on a lattice.

    Coordinates are multiples of 0.5 and eps is 1.0 or 1.5, so many
    squared distances land exactly on eps**2.  Core cells may have no
    core points in the broadcast, so some predecessors are empty.
    """
    dim = draw(st.integers(1, 3))
    lattice = st.integers(-3, 3).map(lambda v: v * 0.5)
    point = st.lists(lattice, min_size=dim, max_size=dim)
    n_cells = draw(st.integers(1, 8))
    cell_labels = np.array(
        draw(st.lists(st.integers(-1, 3), min_size=n_cells, max_size=n_cells)),
        dtype=np.int64,
    )
    core_rows = np.flatnonzero(cell_labels >= 0)
    preds, pred_sizes, core_blocks = [], [], []
    for row in range(n_cells):
        if cell_labels[row] >= 0 or core_rows.size == 0:
            chosen = []
        else:
            chosen = sorted(draw(st.sets(st.sampled_from(core_rows.tolist()))))
        preds.extend(chosen)
        pred_sizes.append(len(chosen))
        size = draw(st.integers(0, 3)) if cell_labels[row] >= 0 else 0
        core_blocks.append(draw(st.lists(point, min_size=size, max_size=size)))
    core_sizes = [len(block) for block in core_blocks]
    context = LabelingContext(
        eps=draw(st.sampled_from([1.0, 1.5])),
        cell_labels=cell_labels,
        predecessor_offsets=np.cumsum([0, *pred_sizes]).astype(np.int32),
        predecessors=np.array(preds, dtype=np.int32),
        core_point_offsets=np.cumsum([0, *core_sizes]).astype(np.int32),
        core_points=np.array(
            [p for block in core_blocks for p in block], dtype=np.float64
        ).reshape(-1, dim),
    )
    rows = np.array(
        sorted(draw(st.sets(st.integers(0, n_cells - 1), min_size=1))), dtype=np.int64
    )
    sizes = [draw(st.integers(1, 4)) for _ in rows]
    points = np.array(
        draw(st.lists(point, min_size=sum(sizes), max_size=sum(sizes))),
        dtype=np.float64,
    )
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    budget = draw(st.sampled_from([1, 5, region_query.PAIR_BUDGET]))
    return context, rows, offsets, points, budget


def oracle_labels(context, rows, offsets, points):
    """Lemma 3.5 point by point: a core cell's points take its label; a
    non-core cell's point takes the label of its first predecessor, in
    ascending row order, holding a core point within eps (a scalar,
    axis-by-axis distance), else noise."""
    eps2 = context.eps * context.eps
    out = []
    for g, row in enumerate(rows):
        for point in points[offsets[g] : offsets[g + 1]]:
            label = int(context.cell_labels[row])
            if label == NOISE:
                lo, hi = context.predecessor_offsets[row : row + 2]
                for pred in context.predecessors[lo:hi]:
                    c0, c1 = context.core_point_offsets[pred : pred + 2]
                    reached = False
                    for core in context.core_points[c0:c1]:
                        acc = 0.0
                        for k in range(point.size):
                            diff = float(point[k]) - float(core[k])
                            acc += diff * diff
                        reached |= acc <= eps2
                    if reached:
                        label = int(context.cell_labels[pred])
                        break
            out.append(label)
    return np.array(out, dtype=np.int64)


class TestLabelPartitionOracle:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=labeling_cases(), memmap=st.booleans())
    def test_matches_lemma_3_5(self, case, memmap):
        context, rows, offsets, points, budget = case
        want = oracle_labels(context, rows, offsets, points)
        # Global indices are a permutation, so take() must map rows.
        order = np.random.default_rng(len(points)).permutation(len(points))
        saved = region_query.PAIR_BUDGET
        region_query.PAIR_BUDGET = budget
        try:
            with tempfile.TemporaryDirectory() as tmp:
                if memmap:
                    stored = np.empty_like(points)
                    stored[order] = points
                    path = Path(tmp) / "points.npy"
                    np.save(path, stored)
                    partition = LazyPartition(
                        0, order, rows, offsets, MemmapSource.from_npy(path)
                    )
                else:
                    partition = Partition(0, points, order, rows, offsets)
                indices, labels = label_partition(partition, context)
        finally:
            region_query.PAIR_BUDGET = saved
        np.testing.assert_array_equal(indices, order)
        np.testing.assert_array_equal(labels, want)
