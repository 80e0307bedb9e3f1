"""Unit tests for the metrics registry and the Counters views."""

import math

import pytest

from repro.engine.counters import Counters, TaskStats
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("t", boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        # counts: <=1, <=2, <=4, +Inf
        assert h.counts == [1, 1, 1, 1]
        assert h.total == 4
        assert h.sum == pytest.approx(105.0)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(105.0 / 4)

    def test_boundary_value_lands_in_finite_bucket(self):
        h = Histogram("t", boundaries=(1.0,))
        h.observe(1.0)
        assert h.counts == [1, 0]

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("t", boundaries=())
        with pytest.raises(ValueError):
            Histogram("t", boundaries=(1.0, 1.0))

    def test_quantile_is_bucket_resolution(self):
        h = Histogram("t", boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.0 or h.quantile(0.0) <= 1.0
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        assert Histogram("e", boundaries=(1.0,)).quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_to_dict_empty_min_max_none(self):
        d = Histogram("t", boundaries=(1.0,)).to_dict()
        assert d["min"] is None and d["max"] is None
        assert d["counts"] == [0, 0]

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_SECONDS_BUCKETS) == sorted(DEFAULT_SECONDS_BUCKETS)


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_value_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("g").set(-1)
        reg.histogram("h", boundaries=(1.0,)).observe(0.5)
        assert reg.value("a") == 2.0
        assert reg.value("g") == -1.0
        with pytest.raises(TypeError):
            reg.value("h")
        snap = reg.snapshot()
        assert snap["a"] == 2.0
        assert snap["h"]["total"] == 1
        assert reg.names() == ["a", "g", "h"]
        assert "a" in reg and "zzz" not in reg
        assert dict(iter(reg))["a"].value == 2.0


class TestCountersShim:
    """The Counters views over the buckets its mutators fill."""

    def _populated(self):
        counters = Counters()
        counters.add_phase_time("II cell graph", 1.5)
        counters.add_phase_time("II cell graph", 0.5)
        counters.add_phase_time("III-2 labeling", 0.25)
        counters.add_setup_time("pool_startup", 0.1)
        counters.add_fault_event("retries", 3)
        counters.record_task("II cell graph", TaskStats(0, 0.7, items=100))
        counters.record_task("II cell graph", TaskStats(1, 0.3, items=50))
        return counters

    def test_legacy_views_unchanged(self):
        counters = self._populated()
        assert counters.total_seconds() == pytest.approx(2.25)
        assert counters.setup_total() == pytest.approx(0.1)
        assert counters.grand_total_seconds() == pytest.approx(2.35)
        assert counters.fault_total() == 3
        assert counters.items_processed("II cell graph") == 150
        assert counters.load_imbalance("II cell graph") == pytest.approx(
            0.7 / 0.3
        )
        breakdown = counters.breakdown()
        assert math.isclose(sum(breakdown.values()), 1.0)
