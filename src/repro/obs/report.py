"""Human-readable run report rendered from a span trace.

``render_run_report(spans)`` turns one recorded run into the text
report the paper's efficiency analysis wants at a glance:

* **per-phase breakdown** — elapsed seconds and fraction per phase
  (Fig 12's view), with task counts and slowest/median task times;
* **per-worker utilization** — busy seconds and busy fraction per
  worker over the mapped phases (Fig 13's load-imbalance view);
* **critical path** — the fork-join lower bound (driver work plus the
  slowest task of every mapped phase) next to the achieved elapsed
  time, i.e. how much of the gap is schedulable slack;
* **straggler summary** — tasks ≥ 2× their phase median, the targets
  speculation would duplicate;
* **broadcast ledger** — every broadcast fan-out with its channel
  (``pickle`` vs zero-copy ``shm`` vs remote ``tcp``), payload and
  segment bytes, and ship time;
* **node broadcast ledger** — remote runs only: one row per node per
  broadcast epoch, showing the substrate shipped each value exactly
  once per node;
* **Phase II stages** — candidate search, box classification, partial
  distances and subgraph assembly: total and slowest-task seconds, and
  each total's share of the Phase II task time;
* **merge-round ledger** — one row per Phase III-1 tournament round:
  matches, edges in and out, edges resolved and removed, round wall;
* **ingest ledger** — one row per incremental refit
  (:meth:`~repro.core.cluster_state.ClusterState.ingest`): cells
  reconsidered out of the union total, edges recomputed vs retained,
  and the splice wall;
* **fault ledger** — every retry/timeout/respawn/speculation event with
  its wall-clock timestamp.

All figures are computed from spans alone, so a report can be rendered
offline from a ``--trace`` JSONL file via
:func:`repro.obs.exporters.read_spans_jsonl`.
"""

from __future__ import annotations

import statistics
from datetime import datetime, timezone

from repro.bench.reporting import (
    format_duration,
    format_table,
    render_utilization_bar,
)
from repro.obs.spans import Span

__all__ = [
    "render_run_report",
    "render_serving_report",
    "phase_task_durations",
    "worker_busy_seconds",
    "worker_nodes",
    "broadcast_ledger_rows",
    "node_ledger_rows",
    "fault_ledger_rows",
    "merge_ledger_rows",
    "phase2_stage_rows",
    "ingest_ledger_rows",
    "serving_ledger_rows",
    "snapshot_quantile",
]

#: An attempt at least this many times slower than its phase median is
#: reported as a straggler (matches the default straggler factor region
#: the fault policy speculates on).
STRAGGLER_FACTOR = 2.0


def _winning_attempts(spans: list[Span]) -> list[Span]:
    """One successful attempt per (phase, task): the accepted result."""
    winners: dict[tuple[str | None, int | None], Span] = {}
    for span in spans:
        if span.kind != "attempt" or span.status != "ok":
            continue
        key = (span.phase, span.task_id)
        if key not in winners or span.annotations.get("winner", False):
            winners[key] = span
    return list(winners.values())


def phase_task_durations(spans: list[Span]) -> dict[str, list[float]]:
    """Measured per-task durations by phase (winning attempts only).

    Prefers the worker-reported compute time (``compute_s`` annotation)
    over the span width, which in recovery mode includes driver queue
    time.  This is the duration list scheduling simulations should
    replay (:meth:`repro.engine.simulate.PhaseSchedule.from_trace`).
    """
    out: dict[str, list[float]] = {}
    for span in _winning_attempts(spans):
        duration = float(span.annotations.get("compute_s", span.duration_s))
        out.setdefault(span.phase or "unknown", []).append(duration)
    return out


def worker_busy_seconds(spans: list[Span]) -> dict[int | str, float]:
    """Total attempt seconds per worker (all attempts, winners or not —
    a lost retry still occupied its worker)."""
    out: dict[int | str, float] = {}
    for span in spans:
        if span.kind != "attempt":
            continue
        worker = span.worker if span.worker is not None else "driver"
        out[worker] = out.get(worker, 0.0) + float(
            span.annotations.get("compute_s", span.duration_s)
        )
    return out


def worker_nodes(spans: list[Span]) -> dict[int | str, str]:
    """Map each worker label to the node its attempts ran on.

    Remote attempts carry a ``node`` annotation; serial/process runs
    record none, so the map is empty and reports stay node-free.
    """
    out: dict[int | str, str] = {}
    for span in spans:
        if span.kind != "attempt":
            continue
        node = span.annotations.get("node")
        if node is None:
            continue
        worker = span.worker if span.worker is not None else "driver"
        out[worker] = node
    return out


def _phase_rows(spans: list[Span]) -> list[list]:
    phases = [s for s in spans if s.kind in ("phase", "driver")]
    total = sum(s.duration_s for s in phases) or 1.0
    by_phase = phase_task_durations(spans)
    rows = []
    for span in phases:
        times = (
            by_phase.get(span.phase or span.name, [])
            if span.kind == "phase"
            else []
        )
        rows.append(
            [
                span.name,
                format_duration(span.duration_s),
                f"{span.duration_s / total:.1%}",
                len(times) or None,
                format_duration(max(times)) if times else None,
                format_duration(statistics.median(times)) if times else None,
            ]
        )
    return rows


def _critical_path_rows(spans: list[Span]) -> tuple[list[list], float, float]:
    elapsed = sum(s.duration_s for s in spans if s.kind in ("phase", "driver"))
    by_phase = phase_task_durations(spans)
    rows = []
    critical = 0.0
    for span in spans:
        if span.kind == "driver":
            critical += span.duration_s
            rows.append([span.name, "driver", format_duration(span.duration_s)])
        elif span.kind == "phase":
            times = by_phase.get(span.phase or span.name)
            if times:
                critical += max(times)
                rows.append(
                    [span.name, "slowest task", format_duration(max(times))]
                )
            else:
                critical += span.duration_s
                rows.append([span.name, "driver", format_duration(span.duration_s)])
    return rows, critical, elapsed


def _straggler_rows(spans: list[Span]) -> list[list]:
    rows = []
    by_phase: dict[str, list[Span]] = {}
    for span in _winning_attempts(spans):
        by_phase.setdefault(span.phase or "unknown", []).append(span)
    for phase, attempts in by_phase.items():
        durations = [
            float(s.annotations.get("compute_s", s.duration_s)) for s in attempts
        ]
        if len(durations) < 2:
            continue
        median = statistics.median(durations)
        floor = max(STRAGGLER_FACTOR * median, 1e-9)
        for span, duration in zip(attempts, durations):
            if duration >= floor:
                rows.append(
                    [
                        phase,
                        span.task_id,
                        span.worker,
                        format_duration(duration),
                        f"{duration / max(median, 1e-9):.1f}x median",
                    ]
                )
    return rows


def broadcast_ledger_rows(spans: list[Span]) -> list[list]:
    """One row per broadcast fan-out: epoch, channel, and byte sizes.

    Rendered from ``broadcast_ship`` setup spans; spans recorded before
    the channel annotations existed (or by a foreign tracer) simply
    contribute blank cells.
    """
    rows = []
    for span in spans:
        if span.kind != "setup" or span.name != "broadcast_ship":
            continue
        payload = span.annotations.get("payload_bytes")
        segment = span.annotations.get("segment_bytes")
        num_segments = span.annotations.get("num_segments")
        segment_cell = f"{segment} B" if segment else None
        if segment and num_segments and num_segments > 1:
            # Sharded broadcast: root + leaf shard segments (partial
            # residency on the worker side).
            segment_cell = f"{segment} B / {num_segments} seg"
        if span.annotations.get("segments_reused"):
            segment_cell = (segment_cell or "") + " (reused)"
        rows.append(
            [
                span.epoch,
                span.annotations.get("channel"),
                f"{payload} B" if payload is not None else None,
                segment_cell,
                format_duration(span.duration_s),
            ]
        )
    return rows


def node_ledger_rows(spans: list[Span]) -> list[list]:
    """One row per node per broadcast epoch: the per-node ship record.

    Rendered from the ``node_broadcast <label>`` setup spans the remote
    engine records under each ``broadcast_ship`` fan-out.  An epoch that
    lists every node exactly once is the substrate's one-ship-per-node
    invariant made visible.
    """
    rows = []
    for span in spans:
        if span.kind != "setup" or not span.name.startswith("node_broadcast"):
            continue
        notes = span.annotations
        payload = notes.get("payload_bytes")
        install = notes.get("install_s")
        warm = notes.get("warm_s")
        rows.append(
            [
                notes.get("node"),
                span.epoch,
                f"{payload} B" if payload is not None else None,
                format_duration(float(install)) if install is not None else None,
                format_duration(float(warm)) if warm is not None else None,
            ]
        )
    rows.sort(key=lambda row: (row[1] or 0, str(row[0])))
    return rows


def phase2_stage_rows(spans: list[Span]) -> list[list]:
    """One row per Phase II stage, summed over the trace's fits.

    Rendered from the ``stages`` list the fit puts on its ``II cell
    graph`` phase span (``{"stage", "sum_s", "max_s"}`` per stage): the
    stage's total seconds, its share of the phase's task seconds, and
    its slowest task.  The stages need not cover a task: the sweep's
    pair indexing and touch folding fall between them.
    """
    totals: dict[str, list[float]] = {}
    phases = set()
    for span in spans:
        if span.kind != "phase" or "stages" not in span.annotations:
            continue
        phases.add(span.phase or span.name)
        for notes in span.annotations["stages"]:
            total = totals.setdefault(notes["stage"], [0.0, 0.0])
            total[0] += float(notes["sum_s"])
            total[1] = max(total[1], float(notes["max_s"]))
    by_phase = phase_task_durations(spans)
    task_s = sum(sum(by_phase.get(phase, ())) for phase in phases) or 1.0
    return [
        [
            stage,
            format_duration(total),
            f"{total / task_s:.1%}",
            format_duration(slowest),
        ]
        for stage, (total, slowest) in totals.items()
    ]


def merge_ledger_rows(spans: list[Span]) -> list[list]:
    """One row per Phase III-1 tournament round, in trace order.

    Rendered from the ``merge_rounds`` list
    :func:`~repro.core.merging.progressive_merge` annotates its driver
    span with (:meth:`~repro.core.merging.MergeStats.round_ledger`).  A
    one-partition fit runs no round and adds no row.
    """
    rows = []
    for span in spans:
        if span.kind != "driver":
            continue
        for notes in span.annotations.get("merge_rounds", ()):
            rows.append(
                [
                    notes["round"],
                    notes["matches"],
                    notes["edges_in"],
                    notes["edges_out"],
                    notes["resolved"],
                    notes["removed"],
                    format_duration(float(notes["wall_s"])),
                ]
            )
    return rows


def ingest_ledger_rows(spans: list[Span]) -> list[list]:
    """One row per incremental-refit call: the dirty-cell ledger.

    Rendered from the ``ingest`` driver spans
    :meth:`~repro.core.cluster_state.ClusterState.ingest` annotates:
    points appended, cells reconsidered (dirty) out of the union total,
    edges recomputed vs retained, and the splice wall next to the whole
    call's wall — the figures that show an incremental refit really did
    sublinear work.
    """
    rows = []
    for span in spans:
        if span.kind != "driver" or span.name != "ingest":
            continue
        notes = span.annotations
        if "cells_dirty" not in notes:
            continue
        cells_total = notes.get("cells_total")
        cells_dirty = notes.get("cells_dirty")
        dirty_cell = cells_dirty
        if cells_dirty is not None and cells_total:
            dirty_cell = f"{cells_dirty}/{cells_total}"
        splice = notes.get("splice_seconds")
        rows.append(
            [
                notes.get("num_new_points"),
                dirty_cell,
                notes.get("cells_new"),
                notes.get("edges_recomputed"),
                notes.get("edges_retained"),
                format_duration(float(splice)) if splice is not None else None,
                format_duration(span.duration_s),
            ]
        )
    return rows


def snapshot_quantile(hist: dict, q: float) -> float:
    """Bucket-resolution quantile from a snapshotted histogram dict.

    The dict form is what :meth:`repro.obs.metrics.Histogram.to_dict`
    emits (and what a serving stats reply carries over the wire), so
    clients can read p50/p99 without holding the live registry.  Same
    estimator as :meth:`Histogram.quantile`: the upper bound of the
    bucket containing the ``q``-quantile observation.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = hist.get("total", 0)
    if not total:
        return 0.0
    boundaries = hist["boundaries"]
    rank = q * total
    seen = 0
    for i, count in enumerate(hist["counts"]):
        seen += count
        if seen >= rank and count:
            if i < len(boundaries):
                return float(boundaries[i])
            return float(hist["max"])
    return float(hist["max"])


def serving_ledger_rows(snapshot: dict) -> list[list]:
    """The serving ledger: one row per serving metric that matters.

    Rendered from a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    of a predict server's registry (``serve.*`` and
    ``setup_seconds.serve_*`` names).  Each row is ``[metric, value,
    note]``; metrics the snapshot lacks are simply skipped, so partial
    snapshots (a server that never ingested, a numba-free warm-up)
    render without blank noise.
    """
    rows: list[list] = []

    def scalar(name: str, label: str, fmt=lambda v: f"{v:,.0f}", note=None):
        if name in snapshot:
            rows.append([label, fmt(snapshot[name]), note])

    scalar("serve.requests", "requests answered")
    scalar("serve.points", "points labeled")
    scalar("serve.rejected", "requests rejected", note="admission control")
    scalar("serve.errors", "request errors")
    scalar("serve.ingests", "model swaps (ingest)")
    scalar("serve.epoch", "resident model epoch")
    scalar("serve.worker_respawns", "predictor respawns")
    scalar(
        "serve.queue_depth_peak",
        "peak queue depth",
        note="pending requests",
    )
    latency = snapshot.get("serve.latency_seconds")
    if isinstance(latency, dict) and latency.get("total"):
        for q, label in ((0.5, "latency p50"), (0.9, "latency p90"),
                         (0.99, "latency p99")):
            rows.append(
                [label, format_duration(snapshot_quantile(latency, q)),
                 "bucket upper bound"]
            )
        rows.append(
            ["latency max", format_duration(float(latency["max"])), None]
        )
    batch = snapshot.get("serve.batch_points")
    if isinstance(batch, dict) and batch.get("total"):
        rows.append(
            [
                "batch size mean",
                f"{batch['sum'] / batch['total']:.1f} pts",
                f"{batch['total']:,} dispatches",
            ]
        )
        rows.append(
            [
                "batch size p99",
                f"{snapshot_quantile(batch, 0.99):.0f} pts",
                "bucket upper bound",
            ]
        )
    for name, label in (
        ("setup_seconds.serve_install", "model install (setup)"),
        ("setup_seconds.serve_warmup", "JIT warm-up (setup)"),
        ("setup_seconds.serve_ingest", "ingest refits (setup)"),
    ):
        if name in snapshot:
            rows.append([label, format_duration(float(snapshot[name])), None])
    return rows


def render_serving_report(snapshot: dict, *, title: str = "serving report") -> str:
    """Render the serving ledger of one predict server as text."""
    rows = serving_ledger_rows(snapshot)
    if not rows:
        return f"{title}\n{'=' * len(title)}\n(no serving traffic recorded)"
    sections = [f"{title}\n{'=' * len(title)}"]
    sections.append(
        format_table(
            ["metric", "value", "note"],
            rows,
            title="serving ledger",
        )
    )
    return "\n\n".join(sections)


def fault_ledger_rows(spans: list[Span]) -> list[list]:
    """Fault events with wall-clock timestamps, in event order."""
    rows = []
    for span in spans:
        if span.kind != "event":
            continue
        stamp = datetime.fromtimestamp(span.wall_start_s, tz=timezone.utc)
        rows.append(
            [
                stamp.strftime("%H:%M:%S.%f")[:-3],
                span.name,
                span.phase,
                span.task_id,
                span.annotations.get("reason"),
            ]
        )
    return rows


def render_run_report(spans: list[Span], *, title: str = "run report") -> str:
    """Render the full text report for one recorded run."""
    sections = [f"{title}\n{'=' * len(title)}"]

    for span in spans:
        # One header line per fit: input size and the resolved Phase II
        # kernel backend, so a report is self-describing about which
        # code path produced its phase timings.
        if span.kind == "fit" and "kernel" in span.annotations:
            notes = span.annotations
            sections.append(
                f"fit: n={notes.get('n')} dim={notes.get('dim')} "
                f"kernel={notes.get('kernel')}"
            )

    rows = _phase_rows(spans)
    if rows:
        sections.append(
            format_table(
                ["phase", "elapsed", "share", "tasks", "slowest", "median"],
                rows,
                title="phase breakdown (setup excluded)",
            )
        )

    setup = [s for s in spans if s.kind == "setup"]
    if setup:
        total_setup = sum(s.duration_s for s in setup)
        sections.append(
            f"engine setup: {format_duration(total_setup)} across "
            f"{len(setup)} step(s) "
            f"({', '.join(sorted({s.name for s in setup}))})"
        )

    rows = broadcast_ledger_rows(spans)
    if rows:
        sections.append(
            format_table(
                ["epoch", "channel", "payload", "segment", "ship time"],
                rows,
                title="broadcast ledger (one row per fan-out)",
            )
        )

    rows = node_ledger_rows(spans)
    if rows:
        sections.append(
            format_table(
                ["node", "epoch", "payload", "install", "warm"],
                rows,
                title="node broadcast ledger (one ship per node per epoch)",
            )
        )

    busy = worker_busy_seconds(spans)
    nodes = worker_nodes(spans)
    phase_spans = [s for s in spans if s.kind == "phase"]
    window = sum(s.duration_s for s in phase_spans) or 1.0
    if busy:
        rows = [
            [
                str(worker),
                *([nodes.get(worker)] if nodes else []),
                format_duration(seconds),
                render_utilization_bar(seconds / window),
                f"{seconds / window:.1%}",
            ]
            for worker, seconds in sorted(
                busy.items(), key=lambda kv: -kv[1]
            )
        ]
        sections.append(
            format_table(
                ["worker", *(["node"] if nodes else []),
                 "busy", "utilization", "busy frac"],
                rows,
                title="per-worker utilization (over mapped-phase time)",
            )
        )

    rows, critical, elapsed = _critical_path_rows(spans)
    if rows:
        slack = elapsed - critical
        sections.append(
            format_table(
                ["phase", "bound by", "time"],
                rows,
                title=(
                    f"critical path: {format_duration(critical)} lower bound "
                    f"vs {format_duration(elapsed)} elapsed "
                    f"({format_duration(max(slack, 0.0))} schedulable slack)"
                ),
            )
        )

    rows = phase2_stage_rows(spans)
    if rows:
        sections.append(
            format_table(
                ["stage", "total", "of task time", "slowest task"],
                rows,
                title="Phase II stages (summed over tasks)",
            )
        )

    rows = merge_ledger_rows(spans)
    if rows:
        sections.append(
            format_table(
                [
                    "round", "matches", "edges in", "edges out",
                    "resolved", "removed", "wall",
                ],
                rows,
                title="merge-round ledger (Phase III-1 tournament on the driver)",
            )
        )

    rows = ingest_ledger_rows(spans)
    if rows:
        sections.append(
            format_table(
                [
                    "new pts", "dirty cells", "new cells",
                    "edges recomputed", "edges retained", "splice", "wall",
                ],
                rows,
                title="ingest ledger (one row per incremental refit)",
            )
        )

    rows = _straggler_rows(spans)
    if rows:
        sections.append(
            format_table(
                ["phase", "task", "worker", "time", "vs median"],
                rows,
                title=f"stragglers (>= {STRAGGLER_FACTOR:g}x phase median)",
            )
        )

    rows = fault_ledger_rows(spans)
    if rows:
        sections.append(
            format_table(
                ["time (UTC)", "event", "phase", "task", "reason"],
                rows,
                title="fault ledger",
            )
        )

    return "\n\n".join(sections)
