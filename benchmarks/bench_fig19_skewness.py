"""Figures 18-19 and Table 8: impact of data skewness (Appendix B.2).

Workload: the Appendix B.1 Gaussian mixtures with skewness coefficient
alpha in {1/8, 1/4, 1/2, 1} and dimensionality in {3, 4, 5} (Fig 18 is
the data itself; its generation is asserted here via the spread trend).

Paper shapes:
* Fig 19a — RP-DBSCAN's load imbalance grows mildly with alpha (from
  ~1.1-1.3 to ~1.5-2.2) but stays near-perfect in absolute terms;
* Table 8 — the dictionary gets *smaller* as skewness increases (fewer
  non-empty cells) and larger as dimensionality grows.
"""

import numpy as np

from common import publish, run_once

from repro import RPDBSCAN
from repro.bench.reporting import format_table
from repro.core.cells import CellGeometry
from repro.core.dictionary import FlatCellDictionary
from repro.data.generators import gaussian_mixture

ALPHAS = [1 / 8, 1 / 4, 1 / 2, 1.0]
DIMS = [3, 4, 5]
N = 8000
EPS = 5.0  # Appendix B.1: eps = 5, minPts = 100 (scaled to bench size)
MIN_PTS = 20


def run_experiment():
    imbalance = {}
    elapsed = {}
    dict_bytes = {}
    for dim in DIMS:
        for alpha in ALPHAS:
            points = gaussian_mixture(
                N, dim=dim, components=10, alpha=alpha, seed=0
            )
            result = RPDBSCAN(EPS, MIN_PTS, 16, seed=0).fit(points)
            imbalance[(dim, alpha)] = result.load_imbalance
            elapsed[(dim, alpha)] = result.total_seconds
            geometry = CellGeometry(EPS, dim, rho=0.01)
            dictionary = FlatCellDictionary.from_points(points, geometry)
            dict_bytes[(dim, alpha)] = dictionary.size_model().total_bytes
    return imbalance, elapsed, dict_bytes


def test_fig19_skewness_and_table8(benchmark):
    imbalance, elapsed, dict_bytes = run_once(benchmark, run_experiment)

    rows_imb = [
        [f"{dim}D", *(round(imbalance[(dim, a)], 2) for a in ALPHAS)] for dim in DIMS
    ]
    rows_time = [
        [f"{dim}D", *(round(elapsed[(dim, a)], 2) for a in ALPHAS)] for dim in DIMS
    ]
    rows_dict = [
        [f"{dim}D", *(f"{dict_bytes[(dim, a)] / 1024:.0f}K" for a in ALPHAS)]
        for dim in DIMS
    ]
    header = ["dim", *(f"alpha={a}" for a in ALPHAS)]
    publish(
        "fig19_skewness_table8",
        "\n\n".join(
            [
                format_table(header, rows_imb, title="Fig 19a: load imbalance vs skewness"),
                format_table(header, rows_time, title="Fig 19b: elapsed time (s) vs skewness"),
                format_table(header, rows_dict, title="Table 8: dictionary size vs skewness"),
            ]
        ),
    )

    # Fig 18's defining property: higher alpha -> tighter clusters.
    loose = gaussian_mixture(4000, dim=3, components=1, alpha=ALPHAS[0], seed=1)
    tight = gaussian_mixture(4000, dim=3, components=1, alpha=ALPHAS[-1], seed=1)
    assert tight.std(axis=0).mean() < loose.std(axis=0).mean()

    for dim in DIMS:
        series = [imbalance[(dim, a)] for a in ALPHAS]
        # The paper's primary claim: load balance stays near-perfect
        # even at the highest skew.  (The paper's mild upward trend with
        # alpha — 1.33->1.47 etc. — is smaller than run-to-run timer
        # noise on sub-second tasks, so it is reported in the table but
        # not asserted.)
        assert max(series) < 5.0, (dim, series)

    # Table 8 trends: smaller with skewness, larger with dimension.
    for dim in DIMS:
        assert dict_bytes[(dim, ALPHAS[-1])] <= dict_bytes[(dim, ALPHAS[0])], dim
    for alpha in ALPHAS:
        assert dict_bytes[(5, alpha)] >= dict_bytes[(3, alpha)], alpha
