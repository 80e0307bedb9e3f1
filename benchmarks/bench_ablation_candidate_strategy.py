"""Ablation: offset enumeration vs kd-tree candidate search (Lemma 5.6).

Both strategies answer the same queries; enumeration wins in low
dimensions (hash probes on a precomputed offset table) while only the
kd-tree scales to d = 13, where the offset table would have ~7^13
entries.  The bench measures both on 2-d (where both run) and documents
the auto-selection.
"""

import numpy as np

from common import BENCH_MIN_PTS, bench_dataset, publish, run_once

from repro import RPDBSCAN
from repro.bench.reporting import format_table
from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.core.region_query import RegionQueryEngine
from repro.data.datasets import DATASETS


def run_experiment():
    points = bench_dataset("OpenStreetMap")
    eps = DATASETS["OpenStreetMap"].eps10 / 2
    out = {}
    for strategy in ("enumerate", "kdtree"):
        result = RPDBSCAN(
            eps, BENCH_MIN_PTS, 8, seed=0, candidate_strategy=strategy
        ).fit(points)
        out[strategy] = result

    # Auto-selection record.
    geo2 = CellGeometry(eps, 2, 0.01)
    auto_2d = RegionQueryEngine(FlatCellDictionary.from_points(points, geo2)).strategy
    points13 = bench_dataset("TeraClickLog")
    geo13 = CellGeometry(DATASETS["TeraClickLog"].eps10, 13, 0.01)
    auto_13d = RegionQueryEngine(
        FlatCellDictionary.from_points(points13, geo13)
    ).strategy
    return out, auto_2d, auto_13d


def test_ablation_candidate_strategy(benchmark):
    results, auto_2d, auto_13d = run_once(benchmark, run_experiment)

    rows = [
        [name, round(result.total_seconds, 3), result.n_clusters]
        for name, result in results.items()
    ]
    publish(
        "ablation_candidate_strategy",
        format_table(
            ["strategy", "elapsed (s)", "clusters"],
            rows,
            title=(
                "Ablation: candidate-cell search strategy (2-d) — "
                f"auto picks {auto_2d} at d=2, {auto_13d} at d=13"
            ),
        ),
    )

    np.testing.assert_array_equal(
        results["enumerate"].labels, results["kdtree"].labels
    )
    assert auto_2d == "enumerate"
    assert auto_13d == "kdtree"
