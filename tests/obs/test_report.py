"""Unit tests for the human-readable run report."""

from repro.obs.report import (
    fault_ledger_rows,
    phase2_stage_rows,
    phase_task_durations,
    render_run_report,
    worker_busy_seconds,
)
from repro.obs.spans import Span


def _span(span_id, kind, name, start, end, *, parent_id=None, **extra):
    annotations = extra.pop("annotations", {})
    return Span(
        span_id=span_id,
        name=name,
        kind=kind,
        start_s=start,
        wall_start_s=extra.pop("wall_start_s", start),
        end_s=end,
        parent_id=parent_id,
        annotations=annotations,
        **extra,
    )


def _sample_trace():
    """fit with one driver phase and one mapped phase (2 tasks, one with
    a losing first attempt, one straggler), plus a respawn event."""
    spans = [
        _span(0, "fit", "fit", 0.0, 10.0),
        _span(1, "driver", "I-1 partitioning", 0.0, 1.0, parent_id=0),
        _span(2, "phase", "II cell graph", 1.0, 9.0, parent_id=0,
              phase="II cell graph"),
        _span(3, "task", "task 0", 1.0, 3.0, parent_id=2,
              phase="II cell graph", task_id=0, worker=11),
        _span(4, "attempt", "task 0#0", 1.0, 2.0, parent_id=3,
              phase="II cell graph", task_id=0, attempt=0, worker=11,
              status="lost", annotations={"reason": "worker died"}),
        _span(5, "attempt", "task 0#1", 2.0, 3.0, parent_id=3,
              phase="II cell graph", task_id=0, attempt=1, worker=11,
              annotations={"compute_s": 1.0, "winner": True}),
        _span(6, "task", "task 1", 1.0, 9.0, parent_id=2,
              phase="II cell graph", task_id=1, worker=22),
        _span(7, "attempt", "task 1#0", 1.0, 9.0, parent_id=6,
              phase="II cell graph", task_id=1, attempt=0, worker=22,
              annotations={"compute_s": 8.0, "winner": True}),
        _span(8, "event", "respawn", 2.0, 2.0, parent_id=2,
              phase="II cell graph", wall_start_s=1700000000.0,
              annotations={"reason": "a worker process died"}),
        _span(9, "setup", "pool_startup", 0.0, 0.5, parent_id=0),
    ]
    return spans


class TestHelpers:
    def test_phase_task_durations_picks_winners(self):
        durations = phase_task_durations(_sample_trace())
        # Lost attempt excluded; compute_s preferred over span width.
        assert sorted(durations["II cell graph"]) == [1.0, 8.0]

    def test_worker_busy_counts_all_attempts(self):
        busy = worker_busy_seconds(_sample_trace())
        # Worker 11 ran a lost attempt (1s) plus the winner (1s).
        assert busy[11] == 2.0
        assert busy[22] == 8.0

    def test_fault_ledger_rows_have_wall_clock(self):
        rows = fault_ledger_rows(_sample_trace())
        assert len(rows) == 1
        stamp, name, phase, task, reason = rows[0]
        assert name == "respawn"
        assert phase == "II cell graph"
        assert reason == "a worker process died"
        # 1700000000.0 epoch = 2023-11-14 22:13:20 UTC.
        assert stamp == "22:13:20.000"


class TestRenderRunReport:
    def test_sections_present(self):
        report = render_run_report(_sample_trace(), title="unit run")
        assert report.startswith("unit run\n========")
        assert "phase breakdown" in report
        assert "per-worker utilization" in report
        assert "critical path" in report
        assert "fault ledger" in report
        assert "engine setup" in report
        assert "pool_startup" in report

    def test_straggler_flagged(self):
        # Task 1 (8s) is >= 2x the phase median of (1, 8) = 4.5s... the
        # median of two values; 8 >= 2*4.5 is false, so craft a clearer
        # case: three tasks with one outlier.
        spans = [
            _span(0, "phase", "II", 0.0, 10.0, phase="II"),
            _span(1, "attempt", "a", 0.0, 1.0, parent_id=0, phase="II",
                  task_id=0, worker=1, annotations={"winner": True}),
            _span(2, "attempt", "b", 0.0, 1.0, parent_id=0, phase="II",
                  task_id=1, worker=2, annotations={"winner": True}),
            _span(3, "attempt", "c", 0.0, 9.0, parent_id=0, phase="II",
                  task_id=2, worker=3, annotations={"winner": True}),
        ]
        report = render_run_report(spans)
        assert "stragglers" in report
        assert "9.0x median" in report

    def test_empty_trace_renders_title_only(self):
        report = render_run_report([], title="empty")
        assert report.startswith("empty")

    def test_driver_rows_carry_no_task_stats(self):
        report = render_run_report(_sample_trace())
        breakdown = next(
            s for s in report.split("\n\n") if "phase breakdown" in s
        )
        driver_row = next(
            line for line in breakdown.splitlines()
            if line.startswith("I-1 partitioning")
        )
        assert "N/A" in driver_row


class TestPhase2Stages:
    def _trace(self):
        spans = _sample_trace()
        spans[2].annotations["stages"] = [
            {"stage": "candidates", "sum_s": 0.9, "max_s": 0.5},
            {"stage": "classify", "sum_s": 1.8, "max_s": 1.2},
            {"stage": "distance", "sum_s": 4.5, "max_s": 4.0},
            {"stage": "assembly", "sum_s": 0.45, "max_s": 0.3},
        ]
        return spans

    def test_rows_share_the_phase_task_time(self):
        # The winning attempts of the sample's Phase II computed 1 s + 8 s.
        assert phase2_stage_rows(self._trace()) == [
            ["candidates", "900.0ms", "10.0%", "500.0ms"],
            ["classify", "1.80s", "20.0%", "1.20s"],
            ["distance", "4.50s", "50.0%", "4.00s"],
            ["assembly", "450.0ms", "5.0%", "300.0ms"],
        ]

    def test_table_rendered_only_with_stages(self):
        assert "Phase II stages" in render_run_report(self._trace())
        assert "Phase II stages" not in render_run_report(_sample_trace())
