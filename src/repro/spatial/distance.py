"""Euclidean distance helpers, vectorized with numpy.

All DBSCAN variants in this repository use the Euclidean distance, as the
paper does ("Scope: (2) Distance").  The helpers here avoid taking square
roots wherever a squared comparison suffices.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = [
    "euclidean",
    "squared_distances",
    "seq_squared_distances",
    "sum_of_squares",
    "points_within",
    "count_within",
]


def euclidean(p: np.ndarray, q: np.ndarray) -> float:
    """Euclidean distance between two points ``p`` and ``q``."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return float(np.sqrt(np.dot(diff, diff)))


def squared_distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from every row of ``points`` to ``center``.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``.
    center:
        Array of shape ``(d,)``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n,)`` with squared distances.
    """
    pts = np.asarray(points, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)
    diff = pts - c
    return np.einsum("ij,ij->i", diff, diff)


def seq_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise *squared* distances with a bit-reproducible summation.

    Accumulates one dimension at a time:
    ``d2 = ((0 + diff_0^2) + diff_1^2) + ...`` — each element of the
    result undergoes exactly the scalar operation sequence
    ``acc += (a[i, k] - b[j, k])**2`` for ``k = 0..d-1``.  IEEE 754
    elementwise operations are exactly rounded, so this matches a plain
    scalar loop (and therefore the compiled Phase II kernels, which run
    that loop) to the bit.  The expansion
    ``|a|^2 + |b|^2 - 2 a.b`` has neither property: its dot products may
    reorder and fuse, and it cancels once coordinates are large next to
    the distance (at ``2**26`` a true distance of 0.27 reads 1.41).

    This is the distance backbone of every within-eps test: the
    (eps, rho)-region query, Phase III-2's border checks, predict, and
    the exact baselines; the ``kernel={numpy,numba}`` bit-identity
    contract rests on both backends sharing this exact sequence.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("seq_squared_distances expects 2-d arrays")
    if a.shape[1] != b.shape[1]:
        raise ValueError("seq_squared_distances expects matching dimensions")
    return sum_of_squares(
        (a[:, k, None] - b[None, :, k] for k in range(a.shape[1])),
        (a.shape[0], b.shape[0]),
    )


def sum_of_squares(
    terms: Iterable[np.ndarray], shape: int | tuple[int, ...]
) -> np.ndarray:
    """``((0 + t_0^2) + t_1^2) + ...`` over per-axis ``terms``, in order.

    The one summation order every squared-distance test of the
    region-query path shares (sub-cell centers here, kd-tree boxes and
    points, cell box gaps): exactly rounded elementwise steps, one
    axis at a time.  Pass the terms lazily (a generator) and no
    temporary holds more than one axis.
    """
    total = np.zeros(shape, dtype=np.float64)
    for term in terms:
        total += term * term
    return total


def points_within(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Boolean mask of the rows of ``points`` within ``radius`` of ``center``."""
    return squared_distances(points, center) <= float(radius) ** 2


def count_within(points: np.ndarray, center: np.ndarray, radius: float) -> int:
    """Number of rows of ``points`` within ``radius`` of ``center``."""
    return int(np.count_nonzero(points_within(points, center, radius)))
