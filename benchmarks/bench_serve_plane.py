"""The serving plane, measured: micro-batching under closed-loop load.

Three phases against a real ``python -m repro.serve`` subprocess, all
driven by closed-loop client threads sending single-point predict
requests (the serving-shaped workload: many tiny concurrent queries):

1. **baseline** — the server configured request-at-a-time
   (``--max-batch 1``): every request pays the full frame + pipe +
   kernel overhead alone.
2. **batched** — the same server with the micro-batcher on (the
   default in-flight-depth dispatch): requests that arrive while the
   worker is busy fuse into one columnar dispatch.  Gates at
   :data:`N_CLIENTS` clients: throughput at least
   :data:`SERVE_SPEEDUP_MIN` over the baseline, client-measured
   p99 ≤ :data:`TAIL_RATIO_MAX` × p50, and every served label
   bit-identical to offline ``ClusterModel.predict``.  Each of the two
   servers then also serves :data:`FEW_CLIENTS` clients, the regime
   where a gather timer only adds wait: batched throughput there must
   reach :data:`FEW_CLIENTS_RATIO_MIN` × request-at-a-time.
3. **swap under load** — mid-phase, one control connection ingests a
   far-away blob, atomically swapping the resident model to epoch 2
   while the load keeps running.  Gates: **zero** failed requests, the
   swap is observed mid-stream (both epochs answer), and every label
   matches the offline prediction of the epoch that answered it.

The published table records the throughputs, the speedups, the latency
quantiles, and the swap ledger.
"""

import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from random import Random

import numpy as np
from common import bench_dataset, publish, run_once

from repro import RPDBSCAN
from repro.bench.reporting import format_duration, format_table
from repro.core.prediction import ClusterModel
from repro.core.serialization import (
    deserialize_cluster_state,
    save_cluster_state,
    serialize_cluster_state,
)
from repro.data.datasets import DATASETS
from repro.engine.remote.protocol import (
    HEADER_SIZE,
    MSG_LABELS,
    MSG_PREDICT,
    decode_header,
    encode_frame,
)
from repro.serve import ServeClient
from repro.serve.wire import encode_points

N_POINTS = 20_000
MIN_PTS = 20
K = 8
N_CLIENTS = 64
QUERY_POOL = 512
PHASE_SECONDS = 4.0
#: Phase 3 runs longer: the mid-load ingest must *finish* with enough
#: phase left that epoch-2 answers are actually observed (the refit
#: contends with 64 load clients for the single CPU, so it is slow).
SWAP_PHASE_SECONDS = 10.0

#: Micro-batched throughput must beat request-at-a-time by this factor.
SERVE_SPEEDUP_MIN = 5.0
#: Client-measured tail bound under steady batched load.
TAIL_RATIO_MAX = 10.0
#: Light load: too few clients to fill a batch.
FEW_CLIENTS = 2
#: At FEW_CLIENTS, batching must cost at most 20% of request-at-a-time
#: throughput (a 1 ms gather window cost about half).
FEW_CLIENTS_RATIO_MIN = 0.8

_LABELS_PREFIX = struct.Struct(">QQ")


def _start_server(model_path: Path, *extra: str) -> tuple[subprocess.Popen, int]:
    """Launch ``python -m repro.serve`` and wait for its READY line."""
    repo_root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--model", str(model_path),
         "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=repo_root,
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(repo_root / "src"),
        },
    )
    line = proc.stdout.readline()
    if "READY" not in line:
        proc.terminate()
        raise RuntimeError(
            f"server failed to start: {line!r}\n{proc.stderr.read()}"
        )
    fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
    port = int(fields["port"])
    return proc, port


def _stop_server(proc: subprocess.Popen, port: int) -> None:
    try:
        with ServeClient("127.0.0.1", port, timeout_s=10.0) as client:
            client.shutdown()
    except Exception:
        proc.terminate()
    proc.wait(timeout=30.0)


def _read_frame_sync(sock: socket.socket) -> tuple[int, bytes]:
    buf = b""
    while len(buf) < HEADER_SIZE:
        chunk = sock.recv(HEADER_SIZE - len(buf))
        if not chunk:
            raise ConnectionError("server closed")
        buf += chunk
    msg_type, length = decode_header(buf)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        if not chunk:
            raise ConnectionError("server closed")
        payload += chunk
    return msg_type, payload


class _ClientResult:
    __slots__ = ("latencies", "records", "error")

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list[tuple[int, int, int]] = []
        self.error: Exception | None = None


def _client_loop(port, frames, stop_at, seed, result):
    """Closed loop: one prebuilt single-point request at a time."""
    rng = Random(seed)
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        try:
            while time.perf_counter() < stop_at:
                idx = rng.randrange(len(frames))
                start = time.perf_counter()
                sock.sendall(frames[idx])
                msg_type, payload = _read_frame_sync(sock)
                result.latencies.append(time.perf_counter() - start)
                if msg_type != MSG_LABELS:
                    raise RuntimeError(
                        f"request failed: type={msg_type} {payload[:128]!r}"
                    )
                epoch, _ = _LABELS_PREFIX.unpack_from(payload)
                (label,) = struct.unpack_from(
                    "<q", payload, _LABELS_PREFIX.size
                )
                result.records.append((idx, epoch, label))
        finally:
            sock.close()
    except Exception as exc:
        result.error = exc


def _run_load(port, frames, seconds, *, clients=N_CLIENTS, mid_load=None):
    """Drive ``clients`` closed-loop threads; returns results + elapsed."""
    stop_at = time.perf_counter() + seconds
    results = [_ClientResult() for _ in range(clients)]
    threads = [
        threading.Thread(
            target=_client_loop, args=(port, frames, stop_at, i, results[i])
        )
        for i in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    if mid_load is not None:
        time.sleep(seconds / 8)
        mid_load()
    for t in threads:
        t.join(timeout=seconds + 120.0)
    elapsed = time.perf_counter() - start
    return results, elapsed


def run_experiment(tmp_dir: Path):
    points = bench_dataset("GeoLife", N_POINTS)
    eps = DATASETS["GeoLife"].eps10 / 4
    state = RPDBSCAN(eps, MIN_PTS, K, seed=0).fit(points).state
    model_path = tmp_dir / "serve_bench.rpst"
    save_cluster_state(state, model_path)

    # The query pool: points around the fitted data, one per request,
    # with their offline ground-truth labels for both epochs.
    rng = np.random.default_rng(0)
    queries = points[rng.integers(0, N_POINTS, QUERY_POOL)] + rng.normal(
        0.0, eps / 2, (QUERY_POOL, points.shape[1])
    )
    offline_pre = ClusterModel.from_state(state).predict(queries)
    ingest_blob = rng.normal(0.0, eps, (64, points.shape[1])) + 1e4
    post_state = deserialize_cluster_state(serialize_cluster_state(state))
    post_state.ingest(ingest_blob)
    offline_post = ClusterModel.from_state(post_state).predict(queries)
    frames = [
        encode_frame(MSG_PREDICT, encode_points(queries[i : i + 1]))
        for i in range(QUERY_POOL)
    ]

    # ---- phase 1: request-at-a-time baseline --------------------------
    proc, port = _start_server(model_path, "--max-batch", "1")
    try:
        base_results, base_elapsed = _run_load(port, frames, PHASE_SECONDS)
        few_base_results, few_base_elapsed = _run_load(
            port, frames, PHASE_SECONDS, clients=FEW_CLIENTS
        )
    finally:
        _stop_server(proc, port)
    base_done = sum(len(r.records) for r in base_results)
    few_base_done = sum(len(r.records) for r in few_base_results)
    base_errors = [
        r.error for r in base_results + few_base_results if r.error is not None
    ]

    # ---- phase 2: micro-batched -------------------------------------
    proc, port = _start_server(model_path, "--max-batch", "1024")
    try:
        batch_results, batch_elapsed = _run_load(port, frames, PHASE_SECONDS)
        few_batch_results, few_batch_elapsed = _run_load(
            port, frames, PHASE_SECONDS, clients=FEW_CLIENTS
        )
    finally:
        _stop_server(proc, port)
    batch_done = sum(len(r.records) for r in batch_results)
    few_batch_done = sum(len(r.records) for r in few_batch_results)
    batch_errors = [
        r.error for r in batch_results + few_batch_results
        if r.error is not None
    ]
    latencies = np.concatenate(
        [np.asarray(r.latencies) for r in batch_results if r.latencies]
    )

    # ---- phase 3: model swap under load ------------------------------
    proc, port = _start_server(
        model_path, "--max-batch", "1024", "--workers", "2"
    )
    swap_ack = {}

    def do_swap():
        with ServeClient("127.0.0.1", port, timeout_s=120.0) as control:
            swap_ack.update(control.ingest(ingest_blob))

    try:
        swap_results, _ = _run_load(
            port, frames, SWAP_PHASE_SECONDS, mid_load=do_swap
        )
    finally:
        _stop_server(proc, port)
    swap_errors = [r.error for r in swap_results if r.error is not None]
    swap_records = [rec for r in swap_results for rec in r.records]

    return {
        "base_done": base_done,
        "base_elapsed": base_elapsed,
        "base_errors": base_errors,
        "base_records": [
            rec for r in base_results + few_base_results for rec in r.records
        ],
        "batch_done": batch_done,
        "batch_elapsed": batch_elapsed,
        "batch_errors": batch_errors,
        "batch_records": [
            rec for r in batch_results + few_batch_results for rec in r.records
        ],
        "few_base_done": few_base_done,
        "few_base_elapsed": few_base_elapsed,
        "few_batch_done": few_batch_done,
        "few_batch_elapsed": few_batch_elapsed,
        "latencies": latencies,
        "swap_errors": swap_errors,
        "swap_records": swap_records,
        "swap_ack": swap_ack,
        "offline_pre": offline_pre,
        "offline_post": offline_post,
        "n_core": ClusterModel.from_state(state).n_core_points,
    }


def _check_records(records, offline_pre, offline_post):
    """Every served label must match the offline model of its epoch."""
    mismatches = 0
    for idx, epoch, label in records:
        expect = offline_pre[idx] if epoch == 1 else offline_post[idx]
        if label != expect:
            mismatches += 1
    return mismatches


def test_serve_plane(benchmark, tmp_path):
    out = run_once(benchmark, lambda: run_experiment(tmp_path))

    base_rate = out["base_done"] / out["base_elapsed"]
    batch_rate = out["batch_done"] / out["batch_elapsed"]
    speedup = batch_rate / base_rate
    few_base_rate = out["few_base_done"] / out["few_base_elapsed"]
    few_batch_rate = out["few_batch_done"] / out["few_batch_elapsed"]
    few_ratio = few_batch_rate / few_base_rate
    p50 = float(np.percentile(out["latencies"], 50))
    p99 = float(np.percentile(out["latencies"], 99))
    epochs_seen = sorted({epoch for _, epoch, _ in out["swap_records"]})

    publish(
        "serve_plane",
        format_table(
            ["phase", "requests", "throughput", "notes"],
            [
                [
                    "request-at-a-time",
                    f"{out['base_done']:,}",
                    f"{base_rate:,.0f} req/s",
                    f"{N_CLIENTS} closed-loop clients",
                ],
                [
                    "micro-batched (depth dispatch)",
                    f"{out['batch_done']:,}",
                    f"{batch_rate:,.0f} req/s",
                    f"{speedup:.1f}x baseline",
                ],
                [
                    "latency (batched)",
                    f"p50 {format_duration(p50)}",
                    f"p99 {format_duration(p99)}",
                    f"tail ratio {p99 / p50:.1f}x",
                ],
                [
                    f"request-at-a-time, {FEW_CLIENTS} clients",
                    f"{out['few_base_done']:,}",
                    f"{few_base_rate:,.0f} req/s",
                    f"{FEW_CLIENTS} closed-loop clients",
                ],
                [
                    f"micro-batched, {FEW_CLIENTS} clients",
                    f"{out['few_batch_done']:,}",
                    f"{few_batch_rate:,.0f} req/s",
                    f"{few_ratio:.2f}x baseline",
                ],
                [
                    "swap under load",
                    f"{len(out['swap_records']):,}",
                    f"epochs {epochs_seen}",
                    f"0 failures, ingest "
                    f"{format_duration(out['swap_ack'].get('ingest_seconds', 0.0))}",
                ],
            ],
            title=(
                f"serve plane: {out['n_core']} core points resident in shm, "
                "labels bit-identical to offline predict"
            ),
        ),
    )

    # Correctness before any speed claim counts.
    assert out["base_errors"] == [] and out["batch_errors"] == []
    assert _check_records(
        out["base_records"], out["offline_pre"], out["offline_post"]
    ) == 0, "baseline served labels diverge from offline predict"
    assert _check_records(
        out["batch_records"], out["offline_pre"], out["offline_post"]
    ) == 0, "batched served labels diverge from offline predict"

    # Gate 1: micro-batching amortizes per-request overhead.
    assert speedup >= SERVE_SPEEDUP_MIN, (
        f"batched {batch_rate:,.0f} req/s is only {speedup:.1f}x the "
        f"request-at-a-time baseline {base_rate:,.0f} req/s "
        f"(gate: {SERVE_SPEEDUP_MIN}x)"
    )

    # Gate 2: batching must not trade the tail away.
    assert p99 <= TAIL_RATIO_MAX * p50, (
        f"p99 {p99 * 1e3:.1f}ms exceeds {TAIL_RATIO_MAX}x "
        f"p50 {p50 * 1e3:.1f}ms"
    )

    # Gate 3: with too few clients to fill a batch, batching must not
    # hold requests back.
    assert few_ratio >= FEW_CLIENTS_RATIO_MIN, (
        f"batched {few_batch_rate:,.0f} req/s at {FEW_CLIENTS} clients is "
        f"only {few_ratio:.2f}x request-at-a-time {few_base_rate:,.0f} "
        f"req/s (gate: {FEW_CLIENTS_RATIO_MIN}x)"
    )

    # Gate 4: the ingest swap happened mid-load, atomically: zero failed
    # requests, both epochs answered, and every answer matches the
    # offline prediction of the model that served it.
    assert out["swap_errors"] == [], (
        f"requests failed during the swap: {out['swap_errors'][:3]}"
    )
    assert out["swap_ack"].get("epoch") == 2
    assert epochs_seen == [1, 2], (
        f"swap not observed mid-load (epochs answered: {epochs_seen})"
    )
    assert _check_records(
        out["swap_records"], out["offline_pre"], out["offline_post"]
    ) == 0, "served labels diverged during the swap"
