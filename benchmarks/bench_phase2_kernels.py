"""The Phase II kernel plane, measured: compiled vs vectorized numpy.

The acceptance gate for the kernel plane (ROADMAP item 3): on the
reference bench — GeoLife stand-in at :data:`N_POINTS` (>= 50k) points —
the numba backend's Phase II wall (the ``II cell graph`` counter bucket)
must be at least :data:`NUMBA_SPEEDUP_MIN` times faster than the numpy
backend's, while labels, core flags, and per-cell density counts stay
bit-identical across kernels, and JIT warm-up
never leaks into a phase timing (it lands in the ``engine.setup``
bucket, visible in the run report).

The whole module skips when numba is absent: the container's numba-free
tier-1 run pins the fallback path, the CI ``kernels`` job (which
installs the ``kernels`` extra) runs this gate and uploads the published
table as an artifact.
"""

import numpy as np
import pytest

from common import bench_dataset, publish, run_once

from repro.bench.reporting import format_duration, format_table
from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.core.region_query import RegionQueryEngine
from repro.core.rp_dbscan import PHASE_CELL_GRAPH, PHASES, RPDBSCAN
from repro.data.datasets import DATASETS
from repro.kernels import HAVE_NUMBA

pytestmark = pytest.mark.skipif(
    not HAVE_NUMBA, reason="kernel bench gate needs numba (the 'kernels' extra)"
)

N_POINTS = 50_000  # the acceptance gate's ">= 50k points"
MIN_PTS = 20
K = 8

#: Compiled Phase II must beat vectorized numpy by at least this factor
#: on the reference bench (the acceptance criterion's "2x").
NUMBA_SPEEDUP_MIN = 2.0


def _fit(kernel: str):
    points = bench_dataset("GeoLife", N_POINTS)
    eps = DATASETS["GeoLife"].eps10 / 4
    model = RPDBSCAN(
        eps=eps,
        min_pts=MIN_PTS,
        num_partitions=K,
        seed=0,
        kernel=kernel,
    )
    return model.fit(points)


def _per_cell_density_counts(kernel: str) -> np.ndarray:
    """Every cell's batch-query density counts under ``kernel``.

    The raw Phase II quantity (Algorithm 3 line 8) before any core
    thresholding — the finest-grained output the gate can compare.
    """
    points = bench_dataset("GeoLife", N_POINTS)
    eps = DATASETS["GeoLife"].eps10 / 4
    geometry = CellGeometry(eps, points.shape[1], 0.01)
    dictionary = FlatCellDictionary.from_points(points, geometry)
    engine = RegionQueryEngine(dictionary, kernel=kernel)
    engine.warmup_kernel()
    blocks = []
    for row in dictionary.cell_ids[:: max(1, dictionary.num_cells // 200)]:
        cell = tuple(int(x) for x in row)
        blocks.append(engine.query_cell_batch(cell, points[:256]).counts)
    return np.concatenate(blocks)


def run_experiment():
    results = {kernel: _fit(kernel) for kernel in ("numpy", "numba")}
    density = {
        kernel: _per_cell_density_counts(kernel) for kernel in ("numpy", "numba")
    }
    return {"results": results, "density": density}


def test_phase2_kernels(benchmark):
    out = run_once(benchmark, run_experiment)
    results = out["results"]
    reference = results["numpy"]

    # ---- identity half of the gate: every kernel ---------------------
    for kernel, result in results.items():
        np.testing.assert_array_equal(
            result.labels, reference.labels,
            err_msg=f"labels diverged for kernel={kernel}",
        )
        np.testing.assert_array_equal(
            result.core_mask, reference.core_mask,
            err_msg=f"core flags diverged for kernel={kernel}",
        )
        assert result.n_clusters == reference.n_clusters
    np.testing.assert_array_equal(
        out["density"]["numba"], out["density"]["numpy"],
        err_msg="per-cell density counts diverged between kernels",
    )

    # ---- timing half: compiled Phase II wins by the required factor --
    numpy_phase2 = reference.counters.phase_seconds[PHASE_CELL_GRAPH]
    numba_result = results["numba"]
    numba_phase2 = numba_result.counters.phase_seconds[PHASE_CELL_GRAPH]
    speedup = numpy_phase2 / numba_phase2

    # ---- warm-up accounting: JIT cost in setup, never in phases ------
    for result in results.values():
        assert set(result.counters.phase_seconds) <= set(PHASES)
        assert "warmup" in result.counters.setup_seconds
    # The compiled run actually compiled under the warm-up hook (first
    # numba fit of this process pays the JIT there, visibly).
    assert numba_result.counters.setup_seconds["warmup"] >= 0.0

    rows = [
        [
            kernel,
            format_duration(result.counters.phase_seconds[PHASE_CELL_GRAPH]),
            format_duration(result.counters.setup_seconds.get("warmup", 0.0)),
            format_duration(result.total_seconds),
            result.n_clusters,
        ]
        for kernel, result in sorted(results.items())
    ]
    publish(
        "phase2_kernels",
        format_table(
            ["kernel", "phase II", "warmup (setup)", "total", "clusters"],
            rows,
            title=(
                f"Phase II kernels: GeoLife {N_POINTS} pts, k={K}, "
                f"numba/numpy speedup {speedup:.1f}x (gate >= "
                f"{NUMBA_SPEEDUP_MIN:g}x)"
            ),
        ),
    )

    assert numba_phase2 * NUMBA_SPEEDUP_MIN <= numpy_phase2, (
        f"numba Phase II {numba_phase2:.3f}s not {NUMBA_SPEEDUP_MIN}x faster "
        f"than numpy {numpy_phase2:.3f}s ({speedup:.2f}x)"
    )
