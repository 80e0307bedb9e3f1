"""The Phase II kernel: distance filter + density sum over a sweep step.

The (eps, rho)-region query's inner loop — test each sub-cell center of
a partially contained candidate against the query point, and
accumulate the densities of the centers that pass (Algorithm 3 lines
8-10) — is the Phase II hot path (Fig 12).  This module holds that loop
as a *kernel source function*: plain-python nested loops written in
numba's nopython subset, compiled with ``@njit(parallel=True,
cache=True)`` when numba is installed and left callable as-is (the slow
but exact ``python`` reference backend) when it is not.

The kernel takes one step of the per-partition sweep
(:meth:`~repro.core.region_query.RegionQueryEngine.query_partition`):
a block of points, each with its run of (point, candidate) pairs, the
pairs' ``near``/``full`` box classes, and a sub-cell *pool* addressed by
per-candidate segments.  One shape serves every dictionary: on a
monolithic one (and its defragmented wrapper) the pool *is* the
dictionary's ``sub_centers``/``sub_counts`` and a segment is a CSR
slice, so no block is ever copied; a sharded dictionary gathers the
step's blocks into a pool first.  The numpy backend reads the same
per-slot segments (``RegionQueryEngine._slot_pool``).

Bit-identity contract (pinned by ``tests/kernels/``)
----------------------------------------------------
The kernel must reproduce the numpy backend's outputs *exactly*:

* The within-``eps`` decision is a squared comparison over a squared
  distance accumulated **sequentially per dimension**:
  ``acc = ((0 + diff_0^2) + diff_1^2) + ...`` with no fused
  multiply-add.  The numpy backend computes the same sequence with one
  elementwise operation per dimension
  (:func:`repro.core.region_query.segmented_d2`, over the flat
  (point, sub-cell) elements of the partially contained pairs, in
  :func:`repro.spatial.distance.seq_squared_distances`' order); since
  IEEE 754 elementwise operations are exactly rounded, the scalar loop
  here and the vectorized loop there agree to the bit.  (The BLAS
  expansion ``|a|^2 + |b|^2 - 2ab`` does *not* have this property — its
  dot products reorder and may fuse — which is why the hot path does
  not use it.)
* Density accumulation adds integer-valued float64 terms (cell and
  sub-cell counts).  Integer sums below 2**53 are exact in float64
  regardless of association, so the interleaved per-point order here is
  bit-identical to the numpy backend's ``bincount`` and segmented sums.
* ``prange`` parallelism is over query points only; each point's
  accumulation is sequential and writes disjoint output elements, so
  results do not depend on thread count or schedule.
* A point's accumulation starts from its entry in ``counts`` (zero, or
  a seed count), as the numpy backend adds onto the same array.

Array contracts the kernel assumes (DESIGN.md §11): ``pts`` ``(n, d)``
float64 C-contiguous; per point ``pair_start``/``slot_start``/
``slot_count`` int64 (point ``i``'s pairs are
``pair_start[i] + j`` for ``j < slot_count[i]``, its candidate slots
``slot_start[i] + j``); ``near``/``full``/``touch`` bool per pair;
``slot_density``/``densities`` float64; ``seg_start``/``seg_size``
int64 per slot into the ``(M, d)`` float64 ``centers`` pool.
"""

from __future__ import annotations

import time

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_VERSION",
    "sweep_source",
    "get_impl",
    "warmup",
    "warmed_dims",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
    NUMBA_VERSION: str | None = numba.__version__
    _prange = numba.prange
except ImportError:  # the baked-in environment has no numba
    numba = None  # type: ignore[assignment]
    HAVE_NUMBA = False
    NUMBA_VERSION = None
    _prange = range


def _make_sweep(prange):
    def sweep_step(
        pts,
        pair_start,
        slot_start,
        slot_count,
        near,
        full,
        slot_density,
        seg_start,
        seg_size,
        centers,
        densities,
        eps2,
        counts,
        touch,
    ):
        n, d = pts.shape
        for i in prange(n):
            acc = counts[i]
            q0 = pair_start[i]
            s0 = slot_start[i]
            for j in range(slot_count[i]):
                q = q0 + j
                slot = s0 + j
                if full[q]:
                    # Fully-contained candidate (Example 5.5 case 1):
                    # every sub-cell center is a neighbor; add the
                    # precomputed root density wholesale.
                    acc += slot_density[slot]
                    touch[q] = True
                elif near[q]:
                    hit = False
                    lo = seg_start[slot]
                    for t in range(lo, lo + seg_size[slot]):
                        d2 = 0.0
                        for k in range(d):
                            diff = pts[i, k] - centers[t, k]
                            d2 += diff * diff
                        if d2 <= eps2:
                            acc += densities[t]
                            hit = True
                    touch[q] = hit
            counts[i] = acc

    return sweep_step


#: The reference source function: plain python, ``range`` in place of
#: ``prange``.  This IS the kernel — what numba compiles — runnable
#: (slowly) in any environment, which is what lets the differential
#: suite pin the source semantics against the numpy backend even where
#: numba is absent.
sweep_source = _make_sweep(range)

_numba_sweep = None
if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _numba_sweep = numba.njit(parallel=True, cache=True, nogil=True)(
        _make_sweep(_prange)
    )


def get_impl(backend: str):
    """The sweep-step kernel callable for a resolved backend.

    ``backend`` must be ``"numba"`` or ``"python"``; the ``numpy``
    backend has no kernel callable (its implementation is the
    vectorized path inside :mod:`repro.core.region_query`).
    """
    if backend == "python":
        return sweep_source
    if backend == "numba":
        if not HAVE_NUMBA:  # pragma: no cover - guarded by resolve_kernel
            raise RuntimeError("numba backend requested but numba is not importable")
        return _numba_sweep
    raise ValueError(f"no kernel implementations for backend {backend!r}")


#: Dimensions whose kernel signatures have been compiled this process.
_WARMED_DIMS: set[int] = set()


def warmed_dims() -> frozenset[int]:
    """Dimensions already JIT-compiled in this process (for tests)."""
    return frozenset(_WARMED_DIMS)


def warmup(dim: int) -> float:
    """Compile the sweep kernel for ``dim``-dimensional data; return seconds.

    Called from the engine's Phase II warm-up hook so the one-time JIT
    cost lands in the ``engine.setup`` counter bucket, never in a phase
    timing.  Idempotent per dimension and process (numba caches compiled
    signatures; ``cache=True`` additionally persists them on disk).
    A no-op returning 0.0 when numba is not installed.
    """
    if not HAVE_NUMBA:
        return 0.0
    if dim in _WARMED_DIMS:
        return 0.0
    import numpy as np

    start = time.perf_counter()
    one = np.ones(1, dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    _numba_sweep(
        np.zeros((1, dim), dtype=np.float64),
        zero,
        zero,
        one,
        np.ones(1, dtype=np.bool_),
        np.zeros(1, dtype=np.bool_),
        np.zeros(1, dtype=np.float64),
        zero,
        one,
        np.zeros((1, dim), dtype=np.float64),
        np.ones(1, dtype=np.float64),
        1.0,
        np.zeros(1, dtype=np.float64),
        np.zeros(1, dtype=np.bool_),
    )
    _WARMED_DIMS.add(dim)
    return time.perf_counter() - start
