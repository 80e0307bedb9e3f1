"""Shared fixtures of the serving-plane suite.

Every test here deals in processes and shared-memory segments, so the
module-wide leak guard of the shm suite applies to all of them: a test
that exits while a segment this process created is still linked in
``/dev/shm`` fails, whatever else it asserted.  Every segment of the
in-process servers, pools, and models is created by the test process
itself; segments of other processes (a benchmark's server) are not
this suite's to count.
"""

import numpy as np
import pytest

from repro.core.rp_dbscan import RPDBSCAN

from ..shm_guard import own_segments


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every serving test must clean up its segments."""
    assert own_segments() == []
    yield
    assert own_segments() == []


@pytest.fixture(scope="session")
def fitted_state():
    """One small fitted ClusterState shared by the serving suite.

    Two well-separated gaussian blobs: predictable labels (one cluster
    per blob), plenty of core points, and far-away space left over for
    ingest tests to grow a third cluster into.  Session-scoped and
    **read-only** — tests that mutate (ingest) take ``mutable_state``.
    """
    rng = np.random.default_rng(7)
    points = np.concatenate(
        [
            rng.normal(0.0, 0.1, size=(240, 2)),
            rng.normal(4.0, 0.1, size=(240, 2)),
        ]
    )
    result = RPDBSCAN(eps=0.3, min_pts=10, seed=0).fit(points)
    assert result.state is not None
    assert result.n_clusters == 2
    return result.state


@pytest.fixture()
def mutable_state(fitted_state):
    """A private copy of the fitted state (safe to ``ingest`` into)."""
    from repro.core.serialization import (
        deserialize_cluster_state,
        serialize_cluster_state,
    )

    return deserialize_cluster_state(serialize_cluster_state(fitted_state))


@pytest.fixture()
def query_points():
    """Queries hitting both blobs plus guaranteed noise."""
    rng = np.random.default_rng(21)
    return np.concatenate(
        [
            rng.normal(0.0, 0.1, size=(40, 2)),
            rng.normal(4.0, 0.1, size=(40, 2)),
            np.array([[100.0, 100.0], [-50.0, 20.0]]),
        ]
    )
