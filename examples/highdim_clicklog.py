"""High-dimensional clustering: the TeraClickLog-style workload.

Run with::

    python examples/highdim_clicklog.py

The paper's largest data set is 13-dimensional, which breaks naive
grid-neighbor enumeration: the number of cell offsets to check grows
exponentially with the dimension.  RP-DBSCAN's region queries therefore
fall back to a kd-tree over the non-empty cells of the dictionary
(Lemma 5.6).  This example clusters a 13-d click-log stand-in, shows
that the ``auto`` strategy picked the kd-tree, and reports the
dictionary size (Table 5's metric).  At demo scale most sub-cells hold
a single point so the ratio is large; it falls toward the paper's
0.04-8.2% as points-per-sub-cell grows with N (only non-empty
(sub-)cells are ever stored).
"""

from repro import RPDBSCAN, CellGeometry, RegionQueryEngine
from repro.core import FlatCellDictionary
from repro.data import teraclicklog_like


def main() -> None:
    points = teraclicklog_like(10_000, seed=9)
    eps, min_pts = 4.0, 40

    geometry = CellGeometry(eps, points.shape[1], rho=0.01)
    dictionary = FlatCellDictionary.from_points(points, geometry)
    engine = RegionQueryEngine(dictionary)
    print(f"dimension:           {points.shape[1]}")
    print(f"candidate strategy:  {engine.strategy} (auto-selected)")
    print(f"non-empty cells:     {dictionary.num_cells}")
    print(f"non-empty sub-cells: {dictionary.num_subcells}")
    model = dictionary.size_model()
    print(
        f"dictionary size:     {model.total_bytes / 1024:.1f} KiB "
        f"({model.ratio_to_data(points.shape[0]):.2%} of the data)"
    )

    result = RPDBSCAN(eps, min_pts, num_partitions=8).fit(points)
    print(f"\nclusters: {result.n_clusters}   noise: {result.noise_count}")
    print(f"elapsed:  {result.total_seconds:.3f}s")
    print(f"load imbalance: {result.load_imbalance:.2f}")


if __name__ == "__main__":
    main()
