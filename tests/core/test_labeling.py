"""Unit tests for repro.core.labeling (Phase III-2, Lemma 3.5)."""

import numpy as np
import pytest

from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.labeling import NOISE, build_labeling_context, label_partition
from repro.core.merging import progressive_merge
from repro.core.partitioning import pseudo_random_partition


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
