"""Native-speed kernels for the Phase II hot path (ROADMAP item 3).

The region query + core marking loop dominates RP-DBSCAN's phase
breakdown (Fig 12).  This package compiles that loop into numba
``@njit(parallel=True, cache=True)`` kernels operating directly on the
columnar dictionary arrays, behind a ``kernel={auto,numpy,numba}``
switch threaded through :class:`~repro.core.region_query.RegionQueryEngine`,
:class:`~repro.core.rp_dbscan.RPDBSCAN`, and the CLI (``--kernel``).

Backends
--------
``numpy``
    The vectorized reference path in :mod:`repro.core.region_query`.
    Always available.
``numba``
    The compiled kernels in :mod:`repro.kernels.phase2`.  Requires the
    ``kernels`` optional extra (``pip install repro[kernels]``); asking
    for it without numba installed raises :class:`KernelUnavailableError`.
``python``
    The *uncompiled* kernel source functions — the exact code numba
    compiles, run by the interpreter.  Slow; exists so the conformance
    suite can pin kernel semantics against the numpy backend in
    numba-free environments.  Not exposed on the CLI.
``auto``
    ``numba`` when importable, else ``numpy`` (silent fallback).

Every backend is bit-identical: neighbor counts, core flags, touch
masks, candidate row order, and final labels are exact-equal across
``kernel x broadcast channel x broadcast form`` (see ``tests/kernels/``
and ``benchmarks/bench_phase2_kernels.py``).
"""

from __future__ import annotations

from repro.kernels.phase2 import (
    HAVE_NUMBA,
    NUMBA_VERSION,
    get_impl,
    sweep_source,
    warmed_dims,
    warmup,
)

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_VERSION",
    "KERNELS",
    "KernelUnavailableError",
    "resolve_kernel",
    "get_impl",
    "warmup",
    "warmed_dims",
    "sweep_source",
]

#: The public kernel choices (CLI ``--kernel``).  ``"python"`` is also
#: accepted by :func:`resolve_kernel` as an internal testing backend.
KERNELS = ("auto", "numpy", "numba")


class KernelUnavailableError(RuntimeError):
    """``kernel="numba"`` was requested but numba is not installed."""


def resolve_kernel(kernel: str) -> str:
    """Resolve a requested kernel to a concrete backend.

    Returns ``"numpy"``, ``"numba"``, or ``"python"``.  ``"auto"``
    silently falls back to ``"numpy"`` when numba is absent; an explicit
    ``"numba"`` request without numba raises
    :class:`KernelUnavailableError` naming the missing extra.

    Availability is re-checked on every call (``phase2.HAVE_NUMBA`` is
    read through the module) so tests can simulate a numba-free
    environment by monkeypatching one attribute.
    """
    from repro.kernels import phase2

    if kernel == "auto":
        return "numba" if phase2.HAVE_NUMBA else "numpy"
    if kernel in ("numpy", "python"):
        return kernel
    if kernel == "numba":
        if not phase2.HAVE_NUMBA:
            raise KernelUnavailableError(
                "kernel='numba' requires the optional numba dependency, which "
                "is not installed; install the 'kernels' extra "
                "(pip install repro[kernels], i.e. numba>=0.59) or use "
                "kernel='auto' to fall back to the numpy backend"
            )
        return "numba"
    raise ValueError(
        f"kernel must be one of {KERNELS + ('python',)}, got {kernel!r}"
    )
