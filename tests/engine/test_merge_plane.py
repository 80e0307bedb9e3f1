"""Observability of the Phase III-1 merge plane.

The tournament runs on the driver inside one ``III-1 merging`` span,
annotated with its per-round ledger; the run report renders that ledger
as the merge-round table.  These tests pin the ledger against
``MergeStats`` on a parallel fit and check that the phase breakdown
still reads Phase III-1 as one span.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PHASE_MERGE, RPDBSCAN
from repro.engine import Engine
from repro.obs import Tracer, merge_ledger_rows, validate_trace

from ..shm_guard import own_segments

K = 8  # 8 partitions -> rounds of 4, 2, 1 matches


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """No test here may leak a /dev/shm segment of its own."""
    assert own_segments() == []
    yield
    assert own_segments() == []


@pytest.fixture(scope="module")
def two_blobs():
    rng = np.random.default_rng(0)
    return np.concatenate(
        [rng.normal([0, 0], 0.15, (250, 2)), rng.normal([3, 3], 0.15, (250, 2))]
    )


class TestMergeLedger:
    def test_one_span_carries_the_round_ledger(self, two_blobs):
        serial = RPDBSCAN(eps=0.3, min_pts=10, num_partitions=K, seed=0).fit(
            two_blobs
        )
        tracer = Tracer()
        with Engine("process", num_workers=4, tracer=tracer) as engine:
            result = RPDBSCAN(
                eps=0.3, min_pts=10, num_partitions=K, seed=0, engine=engine
            ).fit(two_blobs)
        np.testing.assert_array_equal(result.labels, serial.labels)
        stats = result.merge_stats
        assert stats.num_rounds == 3

        # One ledger row per round, in round order, matching MergeStats.
        rows = merge_ledger_rows(tracer.spans)
        assert [row[0] for row in rows] == [1, 2, 3]
        assert [row[1] for row in rows] == [4, 2, 1]  # matches per round
        assert [row[2] for row in rows] == stats.edges_per_round[:-1]
        assert [row[3] for row in rows] == stats.edges_per_round[1:]
        assert [row[4] for row in rows] == stats.resolved_per_round
        assert [row[5] for row in rows] == stats.removed_per_round

        # The tournament is one span, so the phase breakdown reads III-1
        # once, and the III-1 spans add up to the III-1 counter bucket.
        timed = [s for s in tracer.spans if s.kind in ("phase", "driver")]
        assert [s.name for s in timed].count(PHASE_MERGE) == 1
        merge_seconds = sum(s.duration_s for s in timed if s.phase == PHASE_MERGE)
        assert merge_seconds == pytest.approx(
            result.counters.phase_seconds[PHASE_MERGE], rel=0.05, abs=1e-3
        )
        validate_trace(tracer.spans)

    def test_single_partition_adds_no_row(self, two_blobs):
        tracer = Tracer()
        with Engine("serial", tracer=tracer) as engine:
            result = RPDBSCAN(
                eps=0.3, min_pts=10, num_partitions=1, seed=0, engine=engine
            ).fit(two_blobs)
        assert result.merge_stats.num_rounds == 0
        assert merge_ledger_rows(tracer.spans) == []
