"""Table 5: size of the two-level cell dictionary vs ε.

Paper values: 0.04% - 8.20% of the data-set size; the ratio shrinks as ε
grows (larger cells -> fewer entries).  At bench scale (1e3-1e4 points)
absolute ratios are larger than at the paper's 1e9 scale — fewer points
share a sub-cell — so the asserted shape is the monotone trend in ε plus
a scale experiment showing the ratio falls as N grows.
"""

from common import BENCH_MIN_PTS, bench_dataset, eps_grid, publish, run_once

from repro.bench.reporting import format_table
from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.data.datasets import DATASETS


def run_experiment():
    ratios = {}
    for name in ("GeoLife", "Cosmo50", "OpenStreetMap", "TeraClickLog"):
        points = bench_dataset(name)
        row = []
        for eps in eps_grid(name):
            geometry = CellGeometry(eps, points.shape[1], rho=0.01)
            dictionary = FlatCellDictionary.from_points(points, geometry)
            row.append(dictionary.size_model().ratio_to_data(points.shape[0]))
        ratios[name] = row

    # Scale trend on one data set: ratio falls with N.
    scale_ratios = []
    for n in (2000, 8000, 32_000):
        points = DATASETS["OpenStreetMap"].generator(n, seed=0)
        geometry = CellGeometry(DATASETS["OpenStreetMap"].eps10, 2, rho=0.01)
        dictionary = FlatCellDictionary.from_points(points, geometry)
        scale_ratios.append(dictionary.size_model().ratio_to_data(n))
    return ratios, scale_ratios


def test_table5_dictionary_size(benchmark):
    ratios, scale_ratios = run_once(benchmark, run_experiment)

    table = [
        [name, *(f"{r:.2%}" for r in row)] for name, row in ratios.items()
    ]
    publish(
        "table5_dictionary_size",
        format_table(
            ["dataset", "eps10/8", "eps10/4", "eps10/2", "eps10"],
            table,
            title="Table 5: dictionary size as a fraction of the data",
        )
        + "\n\nOpenStreetMap ratio vs N (2k/8k/32k): "
        + ", ".join(f"{r:.2%}" for r in scale_ratios),
    )

    for name, row in ratios.items():
        # Monotone shrink as eps grows (Table 5's trend).
        assert all(a >= b - 1e-9 for a, b in zip(row, row[1:])), name
    # Compression improves with data size (the 1e9-scale regime where
    # the paper's 0.04-8.2% numbers live).
    assert scale_ratios[0] > scale_ratios[1] > scale_ratios[2]
