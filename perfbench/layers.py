"""Per-layer numbers from the spans of one traced fit.

The engine's public :class:`repro.obs.spans.Tracer` records one ``fit``
span per ``RPDBSCAN.fit`` call, with the five paper phases as its direct
children (``phase`` spans for engine-mapped phases, ``driver`` spans for
driver-side work) next to ``setup`` spans (pool start, broadcast
shipping, warm-up), and ``task``/``attempt`` spans below the mapped
phases.  This module turns such a tree into seconds per layer.
"""

from __future__ import annotations

from repro.core.rp_dbscan import (
    PHASE_CELL_GRAPH,
    PHASE_DICTIONARY,
    PHASE_LABEL,
    PHASE_MERGE,
    PHASE_PARTITION,
    PHASES,
)

#: Per-layer metric name of each paper phase's span time.
PHASE_METRICS = {
    PHASE_PARTITION: "I1.partition_s",
    PHASE_DICTIONARY: "I2.dictionary_s",
    PHASE_CELL_GRAPH: "II.cell_graph_s",
    PHASE_MERGE: "III1.merge_s",
    PHASE_LABEL: "III2.label_s",
}


def _phase_of(span) -> str | None:
    """The paper phase a child span of ``fit`` belongs to, if any."""
    if span.kind not in ("phase", "driver"):
        return None
    label = span.phase or span.name
    for phase in PHASES:
        if label.startswith(phase):
            return phase
    return None


def covered_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def fit_layers(spans, fit) -> dict[str, float]:
    """Seconds per layer of the ``fit`` span, read from ``spans``.

    ``spans`` is a tracer's span list (parents are recorded before their
    children).  ``engine.driver_gap_s`` is the fit span's self time: its
    duration minus the part of it the phase spans cover, so the phase
    spans plus the gap account for the whole fit span by construction.
    """
    inside = {fit.span_id}
    children = []
    tasks = []
    for span in spans:
        if span.parent_id not in inside:
            continue
        inside.add(span.span_id)
        if span.parent_id == fit.span_id:
            children.append(span)
        if span.kind == "attempt" and span.phase == PHASE_CELL_GRAPH:
            tasks.append(span.duration_s)
    out = {name: 0.0 for name in PHASE_METRICS.values()}
    phase_intervals = []
    for child in children:
        phase = _phase_of(child)
        if phase is not None:
            out[PHASE_METRICS[phase]] += child.duration_s
            phase_intervals.append((child.start_s, child.end_s))
    out["fit.span_s"] = fit.duration_s
    out["engine.driver_gap_s"] = fit.duration_s - covered_seconds(phase_intervals)
    out["engine.setup_s"] = sum(c.duration_s for c in children if c.kind == "setup")
    out["broadcast_ship_s"] = sum(
        c.duration_s for c in children
        if c.kind == "setup" and c.name == "broadcast_ship"
    )
    out["II.task_sum_s"] = sum(tasks)
    out["II.task_max_s"] = max(tasks, default=0.0)
    shortest = min(tasks, default=0.0)
    out["II.load_imbalance"] = out["II.task_max_s"] / shortest if shortest > 0 else 0.0
    return out
