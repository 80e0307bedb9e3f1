"""RP-DBSCAN benchmark: fit, predict, serve and ingest, end to end.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload fit-geolife --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (its spans are written to
``.perfbench/traces/``).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
give each metric with its sample count and tail percentile, and the
machine context.  Any output check that fails prints ``correct: false``
and exits non-zero.  ``--out FILE`` appends the full record to a JSON
lines file that ``perfbench/diff.py`` compares.  The run happens in a
child process; this one waits until every process the run started,
directly or not, has ended before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if values else 0.0


def _low(values) -> float:
    """Tenth percentile: the run's speed outside the host's slow episodes."""
    return _percentile(values, 0.1)


def _tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    q = 1.0 - 10.0 / n
    return {"q": round(q, 6), "value": _percentile(values, q)}


def _hist_quantile(before: dict | None, after: dict, q: float) -> float:
    """Quantile of the observations a histogram gained between two
    snapshots, interpolated linearly inside the bucket.

    Unlike ``repro.obs.report.snapshot_quantile`` (the bucket's upper
    bound), this resolves a ~2 ms p50 inside the 1-2.5 ms bucket, which
    ``serve.transport_p50_ms`` subtracts from the client-side p50.
    """
    counts = list(after["counts"])
    if before:
        counts = [a - b for a, b in zip(counts, before["counts"])]
    bounds = after["boundaries"]
    total = sum(counts)
    if not total:
        return 0.0
    rank, seen, lower = q * total, 0, 0.0
    for i, count in enumerate(counts):
        upper = bounds[i] if i < len(bounds) else after["max"]
        if count and seen + count >= rank:
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
        lower = upper
    return after["max"]


def _latencies(res) -> tuple[list, list, list]:
    """Client-measured request latencies in ms: all of them, those of
    requests answered while no ingest was in flight, and the rest."""
    swaps = [(start, end) for start, end, _ in res.ingests]
    every, steady, swap = [], [], []
    for start, end, *_ in res.requests:
        ms = (end - start) * 1e3
        every.append(ms)
        in_swap = any(start < s_end and end > s_start for s_start, s_end in swaps)
        (swap if in_swap else steady).append(ms)
    return every, steady, swap


def _steady_seconds(res) -> float:
    """Serving time with no ingest in flight."""
    return sum(res.serve_walls) - sum(end - start for start, end, _ in res.ingests)


def end_to_end(res, peak_rss_mb: float) -> dict:
    """``name -> (value, unit, samples)`` of every end-to-end metric.

    ``serve_rps`` covers the serving time with no ingest in flight; the
    swap's own cost is ``ingest_s``.  The p99 latencies are per-layer
    (``serve.steady_p99_ms``, ``serve.swap_p99_ms``): on a shared 2-core
    VM, CPU scheduling jitter moved the p99 between 3.3 and 12 ms from run
    to run, far beyond any bound a regression check could use.

    Fit, predict and ingest times are the tenth percentile of the run's
    samples (the median is printed beside it).  On a shared host the
    same single-threaded fit or predict batch took anywhere from 1x to
    2.2x its fastest time within one run, in episodes of seconds, with no
    other process of the benchmark running; the median followed the
    share of the run those episodes covered, a low percentile the
    program's speed.
    """
    latencies, steady, _ = _latencies(res)
    ingest = [end - start for start, end, _ in res.ingests]
    return {
        "fit_s": (_low(res.fit_walls), "s", res.fit_walls),
        "fit_serial_s": (_low(res.serial_walls), "s", res.serial_walls),
        "predict_qps": (res.queries / _low(res.predict_walls), "1/s", res.predict_walls),
        "serve_rps": (len(steady) / _steady_seconds(res), "1/s", None),
        "serve_p50_ms": (_percentile(latencies, 0.5), "ms", latencies),
        "ingest_s": (_low(ingest), "s", ingest),
        "setup_s": (res.setup_s, "s", None),
        "success_frac": (1.0 - res.failed / res.attempted, "frac", None),
        "peak_rss_mb": (peak_rss_mb, "MB", None),
    }


def per_layer(res) -> dict:
    """``name -> (value, unit, samples)`` of every per-layer metric."""
    layers = res.fit_layers

    def med(key):
        return _median([layer[key] for layer in layers])

    before = res.stats_before["snapshot"]
    after = res.stats_after["snapshot"]
    latencies, steady, swap = _latencies(res)
    server_p50 = 1e3 * _hist_quantile(
        before.get("serve.latency_seconds"), after["serve.latency_seconds"], 0.5
    )
    acks = [ack for _, _, ack in res.ingests]
    batches = (
        res.stats_after["batches_dispatched"] - res.stats_before["batches_dispatched"]
    )

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    serial_ii = _median([layer["II.cell_graph_s"] for layer in res.serial_layers])
    out = {
        "I1.partition_s": (med("I1.partition_s"), "s"),
        "I2.dictionary_s": (med("I2.dictionary_s"), "s"),
        "II.cell_graph_s": (med("II.cell_graph_s"), "s"),
        "II.task_sum_s": (med("II.task_sum_s"), "s"),
        "II.task_max_s": (med("II.task_max_s"), "s"),
        "II.load_imbalance": (med("II.load_imbalance"), "ratio"),
        "II.task_inflation": (med("II.task_sum_s") / serial_ii, "ratio"),
        "III1.merge_s": (med("III1.merge_s"), "s"),
        "III1.edges_in": (med("edges_in"), "count"),
        "III1.edges_out": (med("edges_out"), "count"),
        "III1.rounds": (med("rounds"), "count"),
        "III2.label_s": (med("III2.label_s"), "s"),
        "fit.span_s": (med("fit.span_s"), "s"),
        "fit.traced_wall_s": (_median(res.traced_walls), "s"),
        "fit.samples": (len(layers), "count"),
        "fit.clusters": (res.sanity["clusters"], "count"),
        "fit.noise_frac": (res.sanity["noise_frac"], "frac"),
        "dict.cells": (res.sanity["cells"], "count"),
        "dict.points_per_cell": (res.sanity["points_per_cell"], "ratio"),
        "dict.bytes": (res.sanity["dict_bytes"], "bytes"),
        "engine.setup_s": (med("engine.setup_s"), "s"),
        "engine.driver_gap_s": (med("engine.driver_gap_s"), "s"),
        "engine.broadcast_bytes": (med("broadcast_bytes"), "bytes"),
        "engine.retries": (sum(layer["retries"] for layer in layers), "count"),
        "remote.bytes_shipped": (med("remote_bytes"), "bytes"),
        "remote.ships": (med("remote_ships"), "count"),
        "remote.tasks_per_node": (med("remote_tasks"), "count"),
        "remote.broadcast_ship_s": (med("remote_ship_s"), "s"),
        "predict.batch_s": (_median(res.predict_walls), "s"),
        "ingest.refit_s": (_median([a["ingest_seconds"] for a in acks]), "s"),
        "ingest.splice_s": (
            _median([r.splice_seconds for r in res.ingest_reports]), "s"
        ),
        "ingest.cells_dirty_frac": (
            _median([a["cells_dirty"] / a["cells_total"] for a in acks]), "frac"
        ),
        "ingest.install_s": (
            _median([a["install_seconds"] - a["warmup_seconds"] for a in acks]), "s"
        ),
        "ingest.warmup_s": (_median([a["warmup_seconds"] for a in acks]), "s"),
        "rpst.bytes": (res.rpst_bytes, "bytes"),
        "rpst.load_s": (res.rpst_load_s, "s"),
        "serve.server_p50_ms": (server_p50, "ms"),
        "serve.transport_p50_ms": (_percentile(latencies, 0.5) - server_p50, "ms"),
        "serve.requests_per_batch": (
            delta("serve.requests") / batches if batches else 0.0, "ratio"
        ),
        "serve.swap_p99_ms": (_percentile(swap, 0.99), "ms"),
        "serve.steady_p99_ms": (_percentile(steady, 0.99), "ms"),
        "serve.samples": (len(latencies), "count"),
        "serve.rejected": (delta("serve.rejected"), "count"),
        "serve.errors": (delta("serve.errors"), "count"),
        "serve.install_s": (before.get("setup_seconds.serve_install", 0.0), "s"),
        "serve.warmup_s": (before.get("setup_seconds.serve_warmup", 0.0), "s"),
        "serve.peak_rss_mb": (res.server_rss_mb, "MB"),
        "trace.overhead_frac": (
            _median(res.traced_walls) / _median(res.fit_walls) - 1.0, "frac"
        ),
    }
    return {name: (value, unit, None) for name, (value, unit) in out.items()}


def context() -> dict:
    """The machine facts numbers from different machines differ by."""
    from repro.kernels import resolve_kernel

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": resolve_kernel("auto"),
    }


#: prctl option that makes orphaned descendants reparent to this process.
PR_SET_CHILD_SUBREAPER = 36
#: How long descendants left after the run get to exit before SIGKILL.
REAP_GRACE_S = 15.0


def _children() -> list[int]:
    """Pids of this process's live (non-zombie) children."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state != "Z":
            found.append(int(entry))
    return found


def _reap_exited() -> None:
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def _reap_all() -> None:
    """Wait until every descendant has ended; SIGKILL any that linger."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        _reap_exited()
        alive = _children()
        if not alive:
            _reap_exited()
            return
        if time.monotonic() > deadline:
            for pid in alive:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child process and outlive all it starts.

    This process becomes a child subreaper, so whatever the run leaves
    behind (multiprocessing's resource tracker, pool workers, agents,
    the predict server) reparents here instead of to init, and is
    waited for, or killed, before this process exits.
    """
    with contextlib.suppress(OSError, AttributeError):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    proc = None
    try:
        proc = subprocess.Popen([sys.executable, __file__, *argv, "--child"])
        return proc.wait()
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        _reap_all()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run's record here")
    parser.add_argument(
        "--tiny", action="store_true", help="self-test size: small inputs"
    )
    parser.add_argument(
        "--flip-label", action="store_true",
        help="self-test: corrupt one fitted label before it is checked",
    )
    parser.add_argument(
        "--child", action="store_true",
        help=argparse.SUPPRESS,  # set by supervise() on the process it starts
    )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.child:
        return supervise(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(pipeline.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = pipeline.WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    correct = True
    try:
        res, tracer = pipeline.run(
            workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), root=ROOT, workdir=workdir,
            flip_label=args.flip_label, tiny=args.tiny,
        )
    except pipeline.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1

    if args.trace:
        metrics = per_layer(res)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        from repro.obs.exporters import write_spans_jsonl

        write_spans_jsonl(
            tracer.spans, traces / f"{args.workload}-seed{args.seed}.jsonl"
        )
    else:
        metrics = end_to_end(res, pipeline.peak_rss_mb())
    ctx = context()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "context": ctx,
        "sanity": res.sanity, "metrics": {},
    }
    print(f"# {args.workload} seed={args.seed} context={json.dumps(ctx)}")
    print(f"# setup parts: {json.dumps(res.setup_parts)}")
    for name, (value, unit, samples) in metrics.items():
        entry = {"value": value, "unit": unit}
        line = f"# {name:28s} {value:14.6g} {unit}"
        if samples is not None:
            entry["n"] = len(samples)
            entry["median"] = _median(samples)
            line += f"  n={len(samples)}  median={entry['median']:.6g}"
            tail = _tail(samples)
            if tail is not None:
                entry["tail"] = tail
                line += f"  p{100 * tail['q']:.4g}={tail['value']:.6g}"
        record["metrics"][name] = entry
        print(line)
    if args.out is not None:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
