"""Conformance matrix: kernel x broadcast channel x broadcast form.

Every combination must produce labels, core flags, and cluster counts
bit-identical to the fault-free serial numpy reference fit — the same
acceptance shape as the engine's channel-identity tests, extended along
the kernel axis.  Also pins the operational contract around the kernel
switch: warm-up runs under the ``engine.setup`` bucket (never phase
timings), and the run report names the kernel.
"""

import numpy as np
import pytest

from repro.core.rp_dbscan import PHASES, RPDBSCAN
from repro.engine import Engine
from repro.kernels import HAVE_NUMBA
from repro.obs import Tracer, render_run_report

requires_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")

KERNELS_UNDER_TEST = [
    "numpy",
    "python",
    pytest.param("numba", marks=requires_numba),
]
CHANNELS = ("pickle", "shm")
#: Broadcast forms: the whole flat dictionary, or its sharded form under
#: a leaf budget (``broadcast_budget``), which the kernel reads through
#: a gathered sub-cell pool.
BROADCASTS = {"flat": {}, "sharded": {"broadcast_budget": 1 << 17}}

FIT_KWARGS = dict(eps=0.3, min_pts=10, num_partitions=6, seed=0)


@pytest.fixture(scope="module")
def reference(two_blobs):
    """The fault-free serial numpy fit every combination must match."""
    result = RPDBSCAN(kernel="numpy", **FIT_KWARGS).fit(two_blobs)
    assert result.n_clusters == 2
    return result


class TestConformanceMatrix:
    @pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
    @pytest.mark.parametrize("form", BROADCASTS)
    def test_serial_engine(self, two_blobs, reference, form, kernel):
        result = RPDBSCAN(kernel=kernel, **BROADCASTS[form], **FIT_KWARGS).fit(
            two_blobs
        )
        np.testing.assert_array_equal(result.labels, reference.labels)
        np.testing.assert_array_equal(result.core_mask, reference.core_mask)
        assert result.n_clusters == reference.n_clusters

    @pytest.mark.parametrize("kernel", KERNELS_UNDER_TEST)
    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("form", BROADCASTS)
    def test_process_engine(self, two_blobs, reference, form, channel, kernel):
        with Engine("process", num_workers=2, broadcast_channel=channel) as engine:
            result = RPDBSCAN(
                kernel=kernel, engine=engine, **BROADCASTS[form], **FIT_KWARGS
            ).fit(two_blobs)
        np.testing.assert_array_equal(result.labels, reference.labels)
        np.testing.assert_array_equal(result.core_mask, reference.core_mask)
        assert result.kernel == kernel


class TestOperationalContract:
    @pytest.mark.parametrize("kernel", ["numpy", "python"])
    def test_warmup_in_setup_bucket_not_phases(self, two_blobs, kernel):
        # The warm-up hook (engine build + kernel JIT when compiled)
        # bills to engine.setup; phase buckets see only task work.
        result = RPDBSCAN(kernel=kernel, **FIT_KWARGS).fit(two_blobs)
        assert set(result.counters.phase_seconds) <= set(PHASES)
        assert "warmup" in result.counters.setup_seconds
        assert result.setup_seconds >= 0.0

    def test_run_report_names_kernel(self, two_blobs):
        tracer = Tracer()
        with Engine("serial", tracer=tracer) as engine:
            RPDBSCAN(kernel="python", engine=engine, **FIT_KWARGS).fit(two_blobs)
        report = render_run_report(tracer.spans)
        assert "kernel=python" in report

    @requires_numba
    def test_numba_warmup_visible_in_setup(self, two_blobs):
        from repro.kernels import phase2

        result = RPDBSCAN(kernel="numba", **FIT_KWARGS).fit(two_blobs)
        assert two_blobs.shape[1] in phase2.warmed_dims()
        assert "warmup" in result.counters.setup_seconds
