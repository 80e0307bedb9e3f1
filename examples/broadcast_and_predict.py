"""Broadcast bytes and online prediction: deploying a fitted clustering.

Run with::

    python examples/broadcast_and_predict.py

Two deployment-oriented features built on the paper's machinery:

1. **The dictionary as a wire format** — the two-level cell dictionary
   is serialized into the exact bit-packed layout of Lemma 4.3 (float32
   cell positions, int32 densities, d*(h-1)-bit sub-cell orderings),
   which is what a Spark driver would broadcast.  The example measures
   the real byte stream against the raw data and against the paper's
   size formula, then proves a worker can answer region queries from
   the deserialized copy alone.
2. **The model plane** — a fit's product is a persistent
   :class:`ClusterState`: save it to an ``RPST`` file, load it anywhere,
   serve batch label queries through :class:`ClusterModel` (DBSCAN's
   border rule: nearest core within eps, else noise), and ingest new
   points incrementally — the refit adds the new points' share to the
   stored neighbor counts of the cells they reach yet leaves the state
   bit-identical to a from-scratch fit on everything.
3. **The serving plane** — the same state backs a network predict
   server (``rp-dbscan serve``): the model is hoisted into shared
   memory once, predictor workers attach zero-copy, and concurrent
   requests fuse into micro-batches.  The example starts an in-process
   server and round-trips predictions over TCP, checking them against
   the offline model bit for bit.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    RPDBSCAN,
    CellGeometry,
    ClusterModel,
    RegionQueryEngine,
    load_cluster_state,
    save_cluster_state,
)
from repro.core import (
    FlatCellDictionary,
    deserialize_flat_dictionary,
    serialize_dictionary,
)
from repro.data import openstreetmap_like
from repro.serve import ServeClient, running_server


def main() -> None:
    points = openstreetmap_like(30_000, seed=2)
    eps, min_pts = 3.5, 30

    # --- 1. The broadcast payload -----------------------------------
    geometry = CellGeometry(eps, points.shape[1], rho=0.01)
    dictionary = FlatCellDictionary.from_points(points, geometry)
    payload = serialize_dictionary(dictionary)
    model = dictionary.size_model()
    raw_bytes = 4 * points.size  # the paper stores float32 features
    print(f"data set:            {points.shape[0]} x {points.shape[1]} "
          f"({raw_bytes / 1024:.0f} KiB as float32)")
    print(f"dictionary stream:   {len(payload) / 1024:.1f} KiB "
          f"({len(payload) / raw_bytes:.2%} of the data)")
    print(f"Lemma 4.3 estimate:  {model.total_bytes / 1024:.1f} KiB")

    worker_dict = deserialize_flat_dictionary(payload)
    engine = RegionQueryEngine(worker_dict)
    count, _ = engine.query_point(points[0])
    print(f"worker-side (eps,rho)-region query from bytes alone: "
          f"|N({points[0].round(2)})| ~= {count:.0f}")

    # --- 2. Fit once, persist, classify forever ----------------------
    result = RPDBSCAN(eps, min_pts, num_partitions=8).fit(points)
    print(f"\nfitted: {result.n_clusters} clusters, {result.noise_count} noise")

    # The fit's product is a serializable ClusterState: save, load, serve.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "osm.rpst"
        save_cluster_state(result.state, path)
        state = load_cluster_state(path)
        print(f"model state:         {path.stat().st_size / 1024:.1f} KiB on disk")

    frozen = ClusterModel.from_state(state)
    print(f"model keeps {frozen.n_core_points} core points "
          f"in {frozen.num_cells} cells")

    new_points = openstreetmap_like(2000, seed=99)
    predicted = frozen.predict(new_points)
    assigned = int((predicted >= 0).sum())
    print(
        f"classified {new_points.shape[0]} unseen points: "
        f"{assigned} into clusters, {new_points.shape[0] - assigned} noise"
    )

    # --- 3. Incremental refit ----------------------------------------
    # Ingest the new batch: only the eps-neighborhood of touched cells
    # is recomputed, and the state ends bit-identical to a from-scratch
    # fit on all the points.
    report = state.ingest(new_points)
    print(
        f"\ningested {report.num_new_points} points: "
        f"{report.cells_dirty}/{report.cells_total} cells dirty, "
        f"{report.edges_retained} edges retained, "
        f"now {report.n_clusters} clusters"
    )

    # --- 4. The serving plane ----------------------------------------
    # ``running_server`` is the in-process twin of ``rp-dbscan serve``:
    # it hoists the model into a shared-memory segment, forks predictor
    # workers that attach zero-copy, and fuses requests that arrive
    # while the workers are busy.  The client speaks the same
    # length-prefixed frames the distributed engine uses.
    probe = openstreetmap_like(256, seed=7)
    with running_server(state) as server:
        with ServeClient("127.0.0.1", server.port) as client:
            served = client.predict(probe)
            stats = client.stats()
    offline = ClusterModel.from_state(state).predict(probe)
    assert np.array_equal(served, offline), "served labels must match offline"
    print(
        f"\nserved {probe.shape[0]} predictions over TCP "
        f"(model epoch {stats['epoch']}, "
        f"{stats['batches_dispatched']} batch dispatches), "
        "bit-identical to offline predict"
    )


if __name__ == "__main__":
    main()
