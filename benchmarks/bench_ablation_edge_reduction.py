"""Ablation: tournament edge reduction on vs off (Sec 6.1.4).

Edge reduction exists to keep intermediate merged graphs small (Fig 17);
switching it off must leave the clustering identical while intermediate
edge counts stay at their unreduced size.
"""

import numpy as np

from common import BENCH_MIN_PTS, bench_dataset, publish, run_once

from repro.bench.reporting import format_table
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.labeling import build_labeling_context, label_partition
from repro.core.merging import progressive_merge
from repro.core.partitioning import pseudo_random_partition
from repro.data.datasets import DATASETS

K = 16


def cluster_with(points, eps, min_pts, reduce_edges):
    geometry = CellGeometry(eps, points.shape[1], 0.01)
    partitions = pseudo_random_partition(points, geometry, K, seed=0)
    dictionary = FlatCellDictionary.from_points(points, geometry)
    context = QueryContext(dictionary)
    results = [build_cell_subgraph(p, context, min_pts) for p in partitions]
    graph, stats = progressive_merge(
        [r.graph for r in results], reduce_edges=reduce_edges
    )
    labeling = build_labeling_context(
        graph, partitions, {r.pid: r.core_mask for r in results}, eps
    )
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    for partition in partitions:
        indices, chunk = label_partition(partition, labeling)
        labels[indices] = chunk
    return labels, stats


def run_experiment():
    points = bench_dataset("Cosmo50")
    eps = DATASETS["Cosmo50"].eps10 / 2
    with_reduction = cluster_with(points, eps, BENCH_MIN_PTS, True)
    without_reduction = cluster_with(points, eps, BENCH_MIN_PTS, False)
    return with_reduction, without_reduction


def test_ablation_edge_reduction(benchmark):
    (labels_on, stats_on), (labels_off, stats_off) = run_once(
        benchmark, run_experiment
    )

    rows = [
        ["reduction ON", *stats_on.edges_per_round],
        ["reduction OFF", *stats_off.edges_per_round],
    ]
    max_rounds = max(len(r) - 1 for r in rows)
    publish(
        "ablation_edge_reduction",
        format_table(
            ["variant", *(f"round {i}" for i in range(max_rounds))],
            rows,
            title="Ablation: edges per merge round with/without reduction",
        ),
    )

    # Identical clustering either way (cluster *numbering* may differ —
    # a different spanning forest yields different component
    # representatives — so compare the partitions, not the label ids).
    from repro.metrics import rand_index

    assert rand_index(labels_on, labels_off) == 1.0
    # Reduction keeps every round at or below the unreduced size, and
    # strictly smaller by the final round on this workload.
    for a, b in zip(stats_on.edges_per_round, stats_off.edges_per_round):
        assert a <= b
    assert stats_on.edges_per_round[-1] < stats_off.edges_per_round[-1]
