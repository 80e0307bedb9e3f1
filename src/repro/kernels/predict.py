"""Serving kernel: nearest-core-within-eps label assignment.

The distance pass of :class:`~repro.core.prediction.ClusterModel`'s
batch predict.  The caller settles most queries from cell boxes alone
and hands this kernel only the *open* ones, as CSR segments: query
``i`` scans segments ``seg_ptr[i]:seg_ptr[i + 1]``, segment ``s`` being
the core points ``centers[seg_start[s]:seg_start[s] + seg_size[s]]`` of
one candidate cell, read in place.  It tracks the nearest core within
``eps`` and emits its cluster label (or ``-1``).  Written in the same
style as :mod:`repro.kernels.phase2`: a plain-python kernel source in
numba's nopython subset, compiled with ``@njit(parallel=True)`` when
numba is importable and runnable as-is (the exact ``python`` reference
backend) when it is not.

Bit-identity contract
---------------------
The kernel must reproduce the numpy backend (the segmented reduce in
:mod:`repro.core.prediction`, same signature) exactly:

* Squared distances accumulate **sequentially per dimension** — the
  same exactly-rounded elementwise sequence as the Phase II kernels, so
  a point at distance exactly ``eps`` gets the same in/out decision the
  fit made for it.
* Ties break to the **first** core in segment order (segments ascend in
  lexicographic cell order; fitted order within each cell), via a
  strict ``<`` against the running best — the numpy backend's
  first-minimum rule on the same ordering.
* ``prange`` parallelism is over query points only; each point's scan
  is sequential and writes one output row, so results are independent
  of thread count and schedule.
"""

from __future__ import annotations

__all__ = ["nearest_core_source", "get_impl"]

from repro.kernels.phase2 import HAVE_NUMBA

if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    import numba

    _prange = numba.prange
else:
    numba = None  # type: ignore[assignment]
    _prange = range


def _make_nearest(prange):
    def nearest_core(pts, seg_ptr, seg_start, seg_size, centers, labels, eps2, out):
        n, d = pts.shape
        for i in prange(n):
            best_d2 = eps2
            best_label = -1
            found = False
            for s in range(seg_ptr[i], seg_ptr[i + 1]):
                begin = seg_start[s]
                for c in range(begin, begin + seg_size[s]):
                    d2 = 0.0
                    for k in range(d):
                        diff = pts[i, k] - centers[c, k]
                        d2 += diff * diff
                    # Strict < keeps the first core on ties; <= eps2
                    # admits points exactly at distance eps (the
                    # boundary decision Phase II made for the fitted
                    # points).
                    if d2 <= eps2 and (not found or d2 < best_d2):
                        best_d2 = d2
                        best_label = labels[c]
                        found = True
            out[i] = best_label

    return nearest_core


#: The reference source function: plain python, runnable anywhere.
nearest_core_source = _make_nearest(range)

_numba_nearest = None
if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _numba_nearest = numba.njit(parallel=True, cache=True, nogil=True)(
        _make_nearest(_prange)
    )


def get_impl(backend: str):
    """The nearest-core callable for a resolved backend.

    ``backend`` must be ``"numba"`` or ``"python"``; the ``numpy``
    backend's callable of the same signature is the segmented reduce in
    :mod:`repro.core.prediction`.
    """
    if backend == "python":
        return nearest_core_source
    if backend == "numba":
        if not HAVE_NUMBA:  # pragma: no cover - guarded by resolve_kernel
            raise RuntimeError(
                "numba backend requested but numba is not importable"
            )
        return _numba_nearest
    raise ValueError(f"no predict kernel for backend {backend!r}")

