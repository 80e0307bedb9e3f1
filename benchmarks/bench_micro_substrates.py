"""Micro-benchmarks of the substrate hot paths (pytest-benchmark).

Not a paper figure — these track the building blocks whose cost the
system figures are made of: cell assignment, dictionary building,
pseudo random partitioning, (eps, rho)-region queries, kd-tree ball
queries, union-find merging, and the full RP-DBSCAN pipeline at a small
fixed size.  Useful as a regression baseline when optimizing.
"""

import time

import numpy as np
import pytest

from repro import RPDBSCAN
from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.core.partitioning import pseudo_random_partition
from repro.core.region_query import RegionQueryEngine
from repro.graph.union_find import UnionFind
from repro.spatial.grid import group_points_by_cell
from repro.spatial.kdtree import KDTree


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return np.concatenate(
        [rng.normal([0, 0], 0.5, (5000, 2)), rng.uniform(-3, 3, (5000, 2))]
    )


@pytest.fixture(scope="module")
def geometry():
    return CellGeometry(eps=0.2, dim=2, rho=0.01)


@pytest.fixture(scope="module")
def dictionary(points, geometry):
    return FlatCellDictionary.from_points(points, geometry)


def test_micro_cell_grouping(benchmark, points, geometry):
    benchmark(group_points_by_cell, points, geometry.side)


def test_micro_dictionary_build(benchmark, points, geometry):
    benchmark(FlatCellDictionary.from_points, points, geometry)


def test_micro_partitioning(benchmark, points, geometry):
    benchmark(pseudo_random_partition, points, geometry, 8, seed=0)


def test_micro_region_query_batch(benchmark, points, geometry, dictionary):
    engine = RegionQueryEngine(dictionary)
    cell_id = geometry.grid.cell_id_of(points[0])
    ids = geometry.cell_ids(points)
    members = points[np.all(ids == np.array(cell_id), axis=1)]
    benchmark(engine.query_cell_batch, cell_id, members)


def test_micro_kdtree_query(benchmark, points):
    tree = KDTree(points)
    benchmark(tree.query_ball, np.zeros(2), 0.5)


def test_micro_union_find(benchmark):
    edges = [(i, (i * 7 + 3) % 2000) for i in range(2000)]

    def run():
        uf = UnionFind()
        for a, b in edges:
            uf.union(a, b)
        return uf.set_count

    benchmark(run)


def test_micro_rp_dbscan_end_to_end(benchmark, points):
    benchmark.pedantic(
        lambda: RPDBSCAN(0.2, 15, 8, seed=0).fit(points), rounds=3, iterations=1
    )


# ----------------------------------------------------------------------
# Executor substrates: serial vs process pool vs remote loopback
# ----------------------------------------------------------------------

#: Remote loopback (2 nodes x 2 workers, TCP broadcast + dispatch) may
#: cost at most this factor over the process pool (4 workers, shm/pickle
#: broadcast) on the same 50k fit.  Localhost TCP is not free — pickled
#: task blobs and the per-node broadcast ship ride the wire — but if the
#: substrate costs more than half again the pool's wall, its framing or
#: scheduling has regressed.
REMOTE_TOLERANCE = 1.5

SUBSTRATE_POINTS = 50_000
SUBSTRATE_EPS = 0.2
SUBSTRATE_MIN_PTS = 20
SUBSTRATE_PARTITIONS = 8


def _substrate_fit(points, engine=None):
    started = time.perf_counter()
    result = RPDBSCAN(
        SUBSTRATE_EPS, SUBSTRATE_MIN_PTS, SUBSTRATE_PARTITIONS,
        seed=0, engine=engine,
    ).fit(points)
    return time.perf_counter() - started, result


def run_substrate_experiment():
    from common import bench_dataset, publish

    from repro.bench.reporting import format_table
    from repro.engine import Engine, loopback_nodes

    points = bench_dataset("GeoLife", SUBSTRATE_POINTS)

    serial_s, serial = _substrate_fit(points)

    with Engine("process", num_workers=4) as engine:
        process_s, process = _substrate_fit(points, engine)

    with loopback_nodes(num_nodes=2, workers=2) as addrs:
        with Engine("remote", nodes=addrs) as engine:
            remote_s, remote = _substrate_fit(points, engine)
            ledger = engine.node_ledger()

    assert np.array_equal(process.labels, serial.labels)
    assert np.array_equal(remote.labels, serial.labels)

    rows = [
        ["serial", "1", f"{serial_s:.3f}s", "1.00x"],
        ["process", "4", f"{process_s:.3f}s", f"{process_s / serial_s:.2f}x"],
        ["remote loopback", "2x2", f"{remote_s:.3f}s",
         f"{remote_s / serial_s:.2f}x"],
    ]
    publish(
        "micro_substrates",
        format_table(
            ["substrate", "workers", "wall", "vs serial"],
            rows,
            title=(
                f"Executor substrates (GeoLife {SUBSTRATE_POINTS}, "
                f"eps={SUBSTRATE_EPS}, minPts={SUBSTRATE_MIN_PTS}, "
                f"k={SUBSTRATE_PARTITIONS}; labels bit-identical; "
                f"remote ships/node="
                f"{[row['ships'] for row in ledger]})"
            ),
        ),
    )
    return {
        "serial_s": serial_s,
        "process_s": process_s,
        "remote_s": remote_s,
        "ships": [row["ships"] for row in ledger],
    }


def test_micro_executor_substrates(benchmark):
    from common import run_once

    out = run_once(benchmark, run_substrate_experiment)
    # One broadcast fan-out per node per epoch, however the wall falls.
    assert all(ships >= 1 for ships in out["ships"])
    # The distributed substrate must stay within tolerance of the pool.
    assert out["remote_s"] <= out["process_s"] * REMOTE_TOLERANCE
