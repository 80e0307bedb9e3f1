"""The Phase III-1 merge plane, measured: flat graphs and engine rounds.

Two claims from the merge-plane rework, gated with the headroom the
other plane benches use (regressions, not timer jitter):

* **columnar matches** — a driver-mode tournament over the pipeline's
  ``FlatCellGraph`` subgraphs (vectorized absorb/detect, array
  union-find) must beat the same tournament over the dict-of-tuples
  reference ``CellGraph`` (the same subgraphs converted with
  ``to_cell_graph``) by at least :data:`FLAT_SPEEDUP_MIN` on wall time,
  while producing bit-identical per-round accounting;
* **engine scheduling** — dispatching each round's matches through
  ``Engine.map_tasks`` (4 process workers, warm pool) must not lose to
  the driver-mode tournament.  The direct ``engine <= driver`` wall
  gate needs real cores to parallelize on, so it is asserted when the
  machine has at least :data:`PARALLEL_GATE_CORES` CPUs; on smaller
  substrates (CI runners, 1-core containers) the gate degrades to
  bounding the serialization overhead at
  :data:`SERIAL_SUBSTRATE_TOLERANCE` times driver wall, plus the
  machine-independent form of the claim: the modeled critical path
  (sum of per-round slowest matches — what a non-oversubscribed pool
  would execute) must undercut the driver-mode wall.

The published table records walls, per-round edge counts, and shipped
bytes for the bench artifact.
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
from repro.engine import Engine

N_POINTS = 40_000
MIN_PTS = 20
K = 16  # >= 8 partitions per the acceptance gate; 8 matches in round 1
WORKERS = 4
REPEATS = 3

#: Driver-mode tournament: flat must beat the CellGraph reference by at
#: least this factor (measured ~3.7x on the reference container).
FLAT_SPEEDUP_MIN = 3.0
#: Cores needed before the direct engine <= driver wall gate is fair.
PARALLEL_GATE_CORES = 4
#: On fewer cores the engine pays serialization with no parallelism to
#: buy back; bound the overhead instead (measured ~1.8x on 1 core).
SERIAL_SUBSTRATE_TOLERANCE = 2.5


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

    with Engine("process", num_workers=WORKERS) as engine:
        # Warm the pool: fork + import cost is engine setup, not merge
        # time, and a real fit reaches Phase III-1 with workers running.
        progressive_merge(flat, merge_mode="engine", engine=engine)
        engine_wall, (_, engine_stats) = _best_of(
            lambda: progressive_merge(flat, merge_mode="engine", engine=engine)
        )

    return {
        "flat_wall": flat_wall,
        "dict_wall": dict_wall,
        "engine_wall": engine_wall,
        "flat_stats": flat_stats,
        "dict_stats": dict_stats,
        "engine_stats": engine_stats,
        "total_edges": sum(g.num_edges for g in flat),
    }


def test_merge_plane(benchmark):
    out = run_once(benchmark, run_experiment)
    flat_stats = out["flat_stats"]
    dict_stats = out["dict_stats"]
    engine_stats = out["engine_stats"]
    cores = os.cpu_count() or 1

    def row(label, wall, stats):
        return [
            label,
            format_duration(wall),
            format_duration(stats.span_seconds()),
            "measured" if stats.span_is_measured else "modeled",
            stats.edges_per_round[0],
            stats.edges_per_round[-1],
            f"{sum(stats.bytes_shipped_per_round)} B",
        ]

    publish(
        "merge_plane",
        format_table(
            ["tournament", "wall", "span", "span kind", "edges in",
             "edges out", "shipped"],
            [
                row("driver / CellGraph", out["dict_wall"], dict_stats),
                row("driver / flat", out["flat_wall"], flat_stats),
                row(f"engine / flat ({WORKERS}w)", out["engine_wall"],
                    engine_stats),
            ],
            title=(
                f"Phase III-1 tournaments: {K} partitions, "
                f"{out['total_edges']} edges, {cores} core(s)"
            ),
        ),
    )

    # Bit-identical accounting across graph types and modes.
    for stats in (dict_stats, engine_stats):
        assert stats.edges_per_round == flat_stats.edges_per_round
        assert stats.resolved_per_round == flat_stats.resolved_per_round
        assert stats.removed_per_round == flat_stats.removed_per_round

    # Gate 1: the columnar graph wins the driver tournament outright.
    assert out["flat_wall"] * FLAT_SPEEDUP_MIN <= out["dict_wall"], (
        f"flat tournament {out['flat_wall']:.3f}s not "
        f"{FLAT_SPEEDUP_MIN}x faster than CellGraph {out['dict_wall']:.3f}s"
    )

    # Gate 2: engine scheduling does not lose to the driver loop.
    assert engine_stats.mode == "engine" and engine_stats.span_is_measured
    assert all(b > 0 for b in engine_stats.bytes_shipped_per_round)
    if cores >= PARALLEL_GATE_CORES:
        assert out["engine_wall"] <= out["flat_wall"], (
            f"engine tournament {out['engine_wall']:.3f}s lost to driver "
            f"{out['flat_wall']:.3f}s on a {cores}-core machine"
        )
    else:
        assert out["engine_wall"] <= (
            out["flat_wall"] * SERIAL_SUBSTRATE_TOLERANCE
        ), (
            f"engine overhead {out['engine_wall']:.3f}s exceeds "
            f"{SERIAL_SUBSTRATE_TOLERANCE}x driver {out['flat_wall']:.3f}s"
        )
    # Machine-independent: the per-round slowest-match critical path
    # (what >= round-width cores would execute) undercuts the driver
    # wall with real headroom.  Driver-mode match times are used — on an
    # oversubscribed substrate the engine's per-match walls include the
    # time slices stolen by sibling workers.
    assert flat_stats.critical_path_seconds() <= 0.8 * out["flat_wall"]
