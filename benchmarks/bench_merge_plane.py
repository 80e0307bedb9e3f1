"""The Phase III-1 merge plane, measured: flat graphs against the
reference.

Two claims, gated with the headroom the other plane benches use
(regressions, not timer jitter):

* **columnar matches** — the tournament over the pipeline's
  ``FlatCellGraph`` subgraphs (vectorized absorb/detect, a root-array
  forest reduced by one Borůvka pass per match) must beat the same
  tournament over the dict-of-tuples reference ``CellGraph`` (the same
  subgraphs converted with ``to_cell_graph``) by at least
  :data:`FLAT_SPEEDUP_MIN` on wall time,
  while producing bit-identical per-round accounting;
* **parallel rounds** — the modeled critical path (sum of per-round
  slowest matches: what a pool with one core per match of a round would
  execute) must undercut the tournament's wall on the driver.

The published table records walls, modeled spans and edge counts for
the bench artifact.
"""

import os
import time

from common import bench_dataset, publish, run_once

from repro.bench.reporting import format_duration, format_table
from repro.core.cells import CellGeometry
from repro.core.construction import QueryContext, build_cell_subgraph
from repro.core.dictionary import FlatCellDictionary
from repro.core.merging import progressive_merge
from repro.core.partitioning import pseudo_random_partition
from repro.data.datasets import DATASETS

N_POINTS = 40_000
MIN_PTS = 20
K = 16  # >= 8 partitions per the acceptance gate; 8 matches in round 1
REPEATS = 3

#: The flat tournament must beat the CellGraph reference by at least
#: this factor (measured ~3.7x on the reference container).
FLAT_SPEEDUP_MIN = 3.0


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _subgraphs():
    points = bench_dataset("GeoLife", N_POINTS)
    eps = DATASETS["GeoLife"].eps10 / 4
    geometry = CellGeometry(eps, points.shape[1], 0.01)
    partitions = pseudo_random_partition(points, geometry, K, seed=0)
    dictionary = FlatCellDictionary.from_points(points, geometry)
    context = QueryContext(dictionary)
    return [build_cell_subgraph(p, context, MIN_PTS).graph for p in partitions]


def run_experiment():
    flat = _subgraphs()
    dicts = [g.to_cell_graph() for g in flat]

    flat_wall, (_, flat_stats) = _best_of(lambda: progressive_merge(flat))
    dict_wall, (_, dict_stats) = _best_of(lambda: progressive_merge(dicts))
    return {
        "flat_wall": flat_wall,
        "dict_wall": dict_wall,
        "flat_stats": flat_stats,
        "dict_stats": dict_stats,
        "total_edges": sum(g.num_edges for g in flat),
    }


def test_merge_plane(benchmark):
    out = run_once(benchmark, run_experiment)
    flat_stats = out["flat_stats"]
    dict_stats = out["dict_stats"]
    cores = os.cpu_count() or 1

    def row(label, wall, stats):
        return [
            label,
            format_duration(wall),
            format_duration(stats.critical_path_seconds()),
            stats.edges_per_round[0],
            stats.edges_per_round[-1],
        ]

    publish(
        "merge_plane",
        format_table(
            ["graph", "wall", "span (modeled)", "edges in", "edges out"],
            [
                row("CellGraph", out["dict_wall"], dict_stats),
                row("flat", out["flat_wall"], flat_stats),
            ],
            title=(
                f"Phase III-1 tournaments: {K} partitions, "
                f"{out['total_edges']} edges, {cores} core(s)"
            ),
        ),
    )

    # Bit-identical accounting across graph types.
    assert dict_stats.edges_per_round == flat_stats.edges_per_round
    assert dict_stats.resolved_per_round == flat_stats.resolved_per_round
    assert dict_stats.removed_per_round == flat_stats.removed_per_round

    # Gate 1: the columnar graph wins the driver tournament outright.
    assert out["flat_wall"] * FLAT_SPEEDUP_MIN <= out["dict_wall"], (
        f"flat tournament {out['flat_wall']:.3f}s not "
        f"{FLAT_SPEEDUP_MIN}x faster than CellGraph {out['dict_wall']:.3f}s"
    )

    # Gate 2: the per-round slowest-match critical path (what >=
    # round-width cores would execute) undercuts the driver wall with
    # real headroom.
    assert flat_stats.critical_path_seconds() <= 0.8 * out["flat_wall"]
