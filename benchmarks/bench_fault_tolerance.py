"""Fault tolerance: recovery-loop overhead and the cost of chaos.

Beyond the paper: Spark gave the authors task retries, straggler
re-execution, and executor replacement for free; this bench quantifies
what a fault policy costs in the repo's driver-side dispatch loop (which
every ``map_tasks`` call runs) and what recovering from injected faults
costs, on one workload across four regimes:

* **baseline** — the plain process engine, no fault policy: the loop
  with no retries, re-spawns, speculation, or timeouts.
* **policy-calm** — a retry/speculation policy but no faults injected:
  its pure bookkeeping overhead, which should be small.
* **exception-chaos** — a seeded injector raises in >= 1 attempt-0 task
  per fit; recovery is retry + backoff.
* **crash-chaos** — a seeded injector kills one worker per fit;
  recovery is a full pool re-spawn with a broadcast re-ship.

Asserted claims are structural, not wall-clock: every regime produces
the baseline's labels bit-for-bit; the calm policy records zero fault
events; each chaos regime records exactly the events its injector
forces; and fault buckets never leak into phase breakdowns (respawn
overhead lands in the setup bucket instead).
"""

from common import BENCH_MIN_PTS, bench_dataset, publish, run_once

import numpy as np

from repro import RPDBSCAN
from repro.bench.reporting import format_table
from repro.core import PHASES
from repro.data.datasets import DATASETS
from repro.engine import Engine, FaultInjector, FaultPolicy

WORKERS = 2
PARTITIONS = 8

#: The parallel phases a fit maps through the engine (single-task and
#: driver-side phases see no injection).
_PARALLEL_PHASES = ("I-2 dictionary", "II cell graph", "III-2 labeling")


def _exception_injector() -> FaultInjector:
    """Seeded so >= 1 attempt-0 task raises and every retry is clean."""
    for seed in range(100_000):
        inj = FaultInjector(exception_prob=0.1, seed=seed)
        hit = any(
            inj.decide(p, t, 0).exception
            for p in _PARALLEL_PHASES
            for t in range(PARTITIONS)
        )
        clean = all(
            not inj.decide(p, t, a).any
            for p in _PARALLEL_PHASES
            for t in range(PARTITIONS)
            for a in (1, 2, 3)
        )
        if hit and clean:
            return inj
    raise AssertionError("no suitable exception-chaos seed found")


def _crash_injector() -> FaultInjector:
    """Seeded so exactly one attempt-0 task kills its worker."""
    for seed in range(100_000):
        inj = FaultInjector(crash_prob=0.02, seed=seed)
        faults = [
            (p, t, a)
            for p in _PARALLEL_PHASES
            for t in range(PARTITIONS)
            for a in range(4)
            if inj.decide(p, t, a).any
        ]
        if len(faults) == 1 and faults[0][2] == 0:
            return inj
    raise AssertionError("no suitable crash-chaos seed found")


def _fit(policy: FaultPolicy | None):
    points = bench_dataset("GeoLife", 8000)
    eps = DATASETS["GeoLife"].eps10
    with Engine("process", num_workers=WORKERS, fault_policy=policy) as engine:
        result = RPDBSCAN(
            eps, BENCH_MIN_PTS, PARTITIONS, seed=0, engine=engine
        ).fit(points)
        return result, engine.pools_created, engine.broadcast_ships


def run_experiment():
    calm = FaultPolicy(max_retries=3, backoff_base_s=0.01, speculative=False)
    chaos_exc = FaultPolicy(
        max_retries=5,
        backoff_base_s=0.01,
        speculative=False,
        injector=_exception_injector(),
    )
    chaos_crash = FaultPolicy(
        max_retries=5,
        backoff_base_s=0.01,
        speculative=False,
        injector=_crash_injector(),
    )
    out = {}
    for name, policy in [
        ("baseline", None),
        ("policy-calm", calm),
        ("exception-chaos", chaos_exc),
        ("crash-chaos", chaos_crash),
    ]:
        result, pools, ships = _fit(policy)
        out[name] = {
            "result": result,
            "pools": pools,
            "ships": ships,
            "events": dict(result.fault_events),
            "setup_s": result.setup_seconds,
            "compute_s": result.total_seconds,
        }
    return out


def test_fault_tolerance(benchmark):
    out = run_once(benchmark, run_experiment)

    table = [
        [
            name,
            row["events"].get("retries", 0),
            row["events"].get("timeouts", 0),
            row["events"].get("respawns", 0),
            row["pools"],
            round(row["setup_s"], 4),
            round(row["compute_s"], 4),
        ]
        for name, row in out.items()
    ]
    publish(
        "fault_tolerance",
        format_table(
            ["regime", "retries", "timeouts", "respawns", "pools", "setup s", "compute s"],
            table,
            title=(
                f"Fault tolerance on GeoLife 8k "
                f"(k={PARTITIONS}, {WORKERS} workers)"
            ),
        ),
    )

    baseline = out["baseline"]["result"]
    # Recovery never changes a label: every regime reproduces the
    # baseline bit-for-bit, faults or not.
    for name, row in out.items():
        np.testing.assert_array_equal(row["result"].labels, baseline.labels)

    # The calm policy is pure bookkeeping: no events, one pool.
    assert out["policy-calm"]["events"] == {}
    assert out["policy-calm"]["pools"] == 1

    # Exception chaos recovers by retrying; the pool survives.
    assert out["exception-chaos"]["events"].get("retries", 0) >= 1
    assert out["exception-chaos"]["pools"] == 1

    # Crash chaos recovers by re-spawning the pool and re-shipping the
    # broadcast under a fresh epoch.
    assert out["crash-chaos"]["events"].get("respawns", 0) == 1
    assert out["crash-chaos"]["pools"] == 2
    assert out["crash-chaos"]["ships"] > out["baseline"]["ships"]

    # Fault buckets stay out of the paper's phase accounting; respawn
    # overhead is accounted as engine setup, not phase time.
    for row in out.values():
        assert set(row["result"].counters.phase_seconds) <= set(PHASES)
        assert set(row["result"].counters.breakdown()) <= set(PHASES)
