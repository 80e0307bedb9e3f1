"""The workloads and the fit → predict → serve pipeline each runs.

Every workload is one user session against the public API:

1. **fit** — ``RPDBSCAN.fit`` on the workload's parallel engine
   (``Engine("process", num_workers=2)`` or ``Engine("remote")`` over
   ``loopback_nodes``), alternating with the same fit on the serial
   engine, the single-threaded control.
2. **predict** — offline ``ClusterModel.predict`` on a batch of jittered
   queries.
3. **serve** — ``python -m repro.serve`` (default flags) on an RPST file
   of 92% of the data; two closed-loop ``ServeClient`` connections send
   single-point predicts, and one of them sends the held-back 8% as
   eight 1% ``MSG_INGEST`` batches, evenly spaced over the run's serving
   time.

Workloads differ in data regime, engine substrate and input path.  The
three parts take turns in short steps.  Reference fits, RPST save and
load, and engine and server start are set-up.  The offline ingest chain
that gives every epoch's expected labels runs after the measured part.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import RPDBSCAN
from repro.core.prediction import ClusterModel
from repro.core.serialization import load_cluster_state, save_cluster_state
from repro.data.datasets import DATASETS
from repro.data.streaming import MemmapSource
from repro.engine import Engine
from repro.engine.remote.loopback import loopback_nodes
from repro.obs.spans import NULL_TRACER, Tracer
from repro.serve import RequestRejected, ServeClient

from layers import fit_layers

#: Distinct single-point requests the serve clients draw from.
QUERY_POOL = 512
#: Ingest batches sent while serving, each this share of the data.
INGESTS = 8
INGEST_FRACTION = 0.01
#: Closed-loop client connections (one of them also sends the ingests).
CLIENTS = 2
#: Shares of the run spent fitting and predicting; serving gets the rest.
FIT_SHARE = 0.5
PREDICT_SHARE = 0.15
#: Length of one closed-loop serving step.
BURST_SECONDS = 1.5
#: Engine and server start-ups per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3
#: Points in the fit that starts an engine's pool or agents.
WARMUP_POINTS = 500
#: Generator seed of every workload's fixed data set.
DATASET_SEED = 0
#: Sanity bounds below which a workload is refused as degenerate.
MIN_CLUSTERS = 2
MAX_NOISE_FRAC = 0.5


class CheckFailed(RuntimeError):
    """An output of the program differs from its reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n: int
    eps: float
    min_pts: int
    engine: str
    memmap: bool
    #: Offline predict batch size.
    queries: int
    #: Point count of the ``--tiny`` self-test size.
    tiny_n: int
    k: int = 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-geolife", "GeoLife", 10_000, 3.0, 40, "process", False,
                 queries=1000, tiny_n=4000),
        Workload("fit-clicklog-remote", "TeraClickLog", 1500, 4.0, 40, "remote",
                 True, queries=500, tiny_n=1000),
    )
}


@dataclass
class Result:
    """What one run measured; ``run.py`` turns it into metrics."""

    queries: int = 0
    setup_s: float = 0.0
    fit_walls: list = field(default_factory=list)
    serial_walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    fit_layers: list = field(default_factory=list)
    serial_layers: list = field(default_factory=list)
    predict_walls: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    ingests: list = field(default_factory=list)
    ingest_reports: list = field(default_factory=list)
    serve_walls: list = field(default_factory=list)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    sanity: dict = field(default_factory=dict)
    rpst_bytes: int = 0
    rpst_load_s: float = 0.0
    server_rss_mb: float = 0.0
    setup_parts: dict = field(default_factory=dict)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _same_fit(result, ref, what: str) -> None:
    _check(
        np.array_equal(result.labels, ref.labels)
        and np.array_equal(result.core_mask, ref.core_mask),
        f"{what}: labels or core flags differ from the serial reference fit",
    )


def _rss_mb(pid: int) -> float:
    """Kernel high-water mark of ``pid``'s resident memory, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _jitter(points: np.ndarray, count: int, eps: float, rng) -> np.ndarray:
    idx = rng.integers(0, points.shape[0], count)
    return points[idx] + rng.normal(0.0, eps / 2, (count, points.shape[1]))


class Server:
    """One ``python -m repro.serve`` subprocess on an OS-assigned port."""

    def __init__(self, root: Path, model: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--model", str(model),
             "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        self.port = None
        line = self.proc.stdout.readline()
        if "READY" not in line:
            self.close()
            raise RuntimeError(f"predict server failed to start: {line!r}")
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        self.port = int(fields["port"])

    def close(self) -> None:
        if self.port is None:
            self.proc.kill()
        elif self.proc.poll() is None:
            with contextlib.suppress(OSError, ConnectionError):
                with ServeClient("127.0.0.1", self.port, timeout_s=10.0) as c:
                    c.shutdown()
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        self.proc.stdout.close()
        self._log.close()


def _start_engine(w: Workload, stack: contextlib.ExitStack, warm: np.ndarray):
    """Start the workload's parallel engine and run one tiny fit on it."""
    if w.engine == "remote":
        nodes = stack.enter_context(loopback_nodes(2, 1))
        engine = stack.enter_context(Engine("remote", nodes=nodes))
    else:
        engine = stack.enter_context(Engine("process", num_workers=2))
    RPDBSCAN(w.eps, w.min_pts, w.k, engine=engine).fit(warm)
    return engine


def _timed_fit(model, data, tracer=None, label="fit"):
    """One fit, wall-timed from outside; traced when ``tracer`` is set.

    Returns ``(wall, result, fit_span)``; ``fit_span`` is ``None`` when
    untraced.
    """
    engine = model.engine
    if tracer is None:
        start = time.perf_counter()
        result = model.fit(data)
        return time.perf_counter() - start, result, None
    engine.tracer = tracer
    try:
        with tracer.span(label, "driver") as outer:
            start = time.perf_counter()
            result = model.fit(data)
            wall = time.perf_counter() - start
    finally:
        engine.tracer = NULL_TRACER
    (fit_span,) = [
        s for s in tracer.spans if s.parent_id == outer.span_id and s.kind == "fit"
    ]
    return wall, result, fit_span


def _ledger_totals(ledger) -> dict:
    ledger = ledger or []
    return {
        "bytes": sum(n["bytes_shipped"] for n in ledger),
        "ships": sum(n["ships"] for n in ledger),
        "tasks": [n["tasks"] for n in ledger],
    }


def _serve_client(client, pool, stop_at, seed, ingest, out) -> None:
    """Closed loop: one single-point predict at a time until ``stop_at``.

    ``ingest`` is ``(due_time, points)`` or ``None``; when it is due this
    client sends it instead of its next predict.
    """
    rng = random.Random(seed)
    try:
        while (now := time.perf_counter()) < stop_at or ingest is not None:
            if ingest is not None and now >= ingest[0]:
                ack = client.ingest(ingest[1])
                out["ingests"].append((now, time.perf_counter(), ack))
                ingest = None
                continue
            idx = rng.randrange(len(pool))
            try:
                labels = client.predict(pool[idx : idx + 1])
            except RequestRejected:
                out["rejected"] += 1
                continue
            out["requests"].append(
                (now, time.perf_counter(), idx, client.last_epoch, int(labels[0]))
            )
    except Exception as exc:  # reported as a failed run by the caller
        out["error"] = exc


def run(
    w: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    workdir: Path,
    flip_label: bool = False,
    tiny: bool = False,
) -> tuple[Result, Tracer | None]:
    """Set up, measure for ``seconds`` and tear down one workload."""
    if tiny:
        w = replace(w, n=w.tiny_n, min_pts=max(5, w.min_pts * w.tiny_n // w.n))
    res = Result(queries=w.queries)
    tracer = Tracer() if trace else None
    spec = DATASETS[w.dataset]
    rng = np.random.default_rng(seed)

    # ---------------- set-up: inputs and references ------------------
    setup_start = lap_start = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal lap_start
        now = time.perf_counter()
        res.setup_parts[name] = now - lap_start
        lap_start = now

    # The data set is fixed, as a real data file would be: one draw of
    # the generator (structure seed 0) at twice the workload size.  The
    # run's seed picks the sample, in random order, so each ingested
    # batch is a random 1%, not the generator's last (background) rows.
    data = spec.generator(2 * w.n, seed=DATASET_SEED)
    points = np.ascontiguousarray(data[rng.choice(2 * w.n, w.n, replace=False)])
    batch = int(w.n * INGEST_FRACTION)
    cut = w.n - INGESTS * batch
    base = points[:cut]
    batches = [points[cut + j * batch : cut + (j + 1) * batch] for j in range(INGESTS)]
    lap("data")

    serial = Engine("serial")
    serial_model = RPDBSCAN(w.eps, w.min_pts, w.k, engine=serial)
    ref = serial_model.fit(points)
    lap("reference_fit")
    noise = ref.noise_count / w.n
    res.sanity = {
        "clusters": ref.n_clusters,
        "noise_frac": noise,
        "cells": ref.dictionary_model.num_cells,
        "points_per_cell": w.n / ref.dictionary_model.num_cells,
        "dict_bytes": ref.dictionary_model.total_bytes,
    }
    if ref.n_clusters < MIN_CLUSTERS or noise > MAX_NOISE_FRAC:
        raise CheckFailed(
            f"degenerate workload input: {ref.n_clusters} clusters, "
            f"{noise:.0%} noise (need >= {MIN_CLUSTERS} clusters and "
            f"<= {MAX_NOISE_FRAC:.0%} noise)"
        )

    model_path = workdir / "base.rpst"
    save_cluster_state(
        RPDBSCAN(w.eps, w.min_pts, w.k, engine=serial).fit(base).state, model_path
    )
    res.rpst_bytes = model_path.stat().st_size
    lap("base_fit")
    loads = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = load_cluster_state(model_path)
        loads.append(time.perf_counter() - start)
    res.rpst_load_s = statistics.median(loads)
    lap("rpst_load")

    model = ClusterModel.from_state(ref.state)
    model.warmup()
    serve_pool = _jitter(points, QUERY_POOL, w.eps, rng)
    queries = _jitter(points, w.queries, w.eps, rng)
    core = np.flatnonzero(ref.core_mask)[:1000]

    if w.memmap:
        npy = workdir / "points.npy"
        np.save(npy, points)
        fit_input = MemmapSource.from_npy(npy)
    else:
        fit_input = points
    lap("model_and_queries")
    fixed_setup = time.perf_counter() - setup_start

    # ---------------- set-up: engine and server, repeated -------------
    infra = []
    with contextlib.ExitStack() as outer:
        for attempt in range(SETUP_REPEATS):
            stack = outer.enter_context(contextlib.ExitStack())
            start = time.perf_counter()
            engine = _start_engine(w, stack, points[:WARMUP_POINTS])
            server = Server(root, model_path, workdir / "serve.log")
            stack.callback(server.close)
            infra.append(time.perf_counter() - start)
            if attempt < SETUP_REPEATS - 1:
                stack.close()
        res.setup_s = fixed_setup + statistics.median(infra)
        res.setup_parts["engine_and_server"] = infra
        parallel = RPDBSCAN(w.eps, w.min_pts, w.k, engine=engine)
        clients = [ServeClient("127.0.0.1", server.port) for _ in range(CLIENTS)]
        for c in clients:
            stack.callback(c.close)
        outs = [
            {"requests": [], "ingests": [], "rejected": 0, "error": None}
            for _ in clients
        ]
        first_labels = []

        def fit_step() -> None:
            # Traced runs alternate which pair of fits goes first, so
            # trace.overhead_frac compares fits in the same positions.
            if tracer is not None and len(res.fit_walls) % 2:
                traced_fits()
                untraced_fits()
            else:
                untraced_fits()
                if tracer is not None:
                    traced_fits()

        def untraced_fits() -> None:
            nonlocal flip_label
            wall, result, _ = _timed_fit(parallel, fit_input)
            if flip_label:
                result.labels = result.labels.copy()
                result.labels[0] = -1 if result.labels[0] >= 0 else 0
                flip_label = False
            _same_fit(result, ref, f"{w.engine} fit")
            res.fit_walls.append(wall)
            wall, result, _ = _timed_fit(serial_model, points)
            _same_fit(result, ref, "serial fit")
            res.serial_walls.append(wall)
            res.attempted += 2

        def traced_fits() -> None:
            ledger = _ledger_totals(engine.node_ledger())
            wall, result, span = _timed_fit(parallel, fit_input, tracer, "fit parallel")
            _same_fit(result, ref, f"traced {w.engine} fit")
            layers = fit_layers(tracer.spans, span)
            after = _ledger_totals(engine.node_ledger())
            layers.update(
                broadcast_bytes=sum(result.broadcast_bytes.values()),
                retries=sum(result.fault_events.values()),
                edges_in=result.merge_stats.edges_per_round[0],
                edges_out=result.merge_stats.edges_per_round[-1],
                rounds=len(result.merge_stats.edges_per_round) - 1,
                remote_bytes=after["bytes"] - ledger["bytes"],
                remote_ships=after["ships"] - ledger["ships"],
                remote_ship_s=(
                    layers["broadcast_ship_s"] if w.engine == "remote" else 0.0
                ),
                remote_tasks=max(
                    (a - b for a, b in zip(after["tasks"], ledger["tasks"])),
                    default=0,
                ),
            )
            res.traced_walls.append(wall)
            res.fit_layers.append(layers)
            wall, result, span = _timed_fit(serial_model, points, tracer, "fit serial")
            _same_fit(result, ref, "traced serial fit")
            res.serial_layers.append(fit_layers(tracer.spans, span))
            res.attempted += 2

        def predict_step() -> None:
            start = time.perf_counter()
            labels = model.predict(queries)
            end = time.perf_counter()
            if tracer is not None:
                tracer.record_span("predict batch", "driver", start_s=start, end_s=end,
                                   annotations={"queries": w.queries})
            res.predict_walls.append(end - start)
            res.attempted += 1
            if not first_labels:
                first_labels.append(labels)
                _check(
                    np.array_equal(model.predict(points[core]), ref.labels[core]),
                    "offline predict of fitted core points disagrees with their labels",
                )
            _check(
                np.array_equal(labels, first_labels[0]),
                "offline predict is not repeatable",
            )

        def serve_burst(ingest) -> None:
            start = time.perf_counter()
            stop_at = start + BURST_SECONDS
            due = None if ingest is None else (start + BURST_SECONDS / 4, ingest)
            threads = [
                threading.Thread(
                    target=_serve_client,
                    args=(c, serve_pool, stop_at, seed * 1000 + i + len(res.serve_walls),
                          due if i == 0 else None, outs[i]),
                )
                for i, c in enumerate(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=BURST_SECONDS + 120.0)
                _check(not t.is_alive(), "a serve client did not finish")
            res.serve_walls.append(time.perf_counter() - start)

        # ---------------- measured: interleaved fit/predict/serve -------
        # The host's speed drifts over seconds, so the three parts take
        # turns in short steps (the one furthest behind its share of the
        # run goes next) instead of running one after the other.
        res.stats_before = clients[0].stats()
        shares = {
            "fit": FIT_SHARE,
            "predict": PREDICT_SHARE,
            "serve": 1.0 - FIT_SHARE - PREDICT_SHARE,
        }
        spent = dict.fromkeys(shares, 0.0)
        pending = list(batches)
        serve_total = seconds * shares["serve"]
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds and not pending and all(spent.values()):
                break
            if elapsed >= seconds:
                step = "serve" if pending else min(spent, key=spent.get)
            else:
                step = max(shares, key=lambda k: shares[k] * elapsed - spent[k])
            begin = time.perf_counter()
            if step == "fit":
                fit_step()
            elif step == "predict":
                predict_step()
            else:
                ingest = None
                sent = INGESTS - len(pending)
                due = serve_total * (sent + 1) / (INGESTS + 1)
                if pending and spent["serve"] + BURST_SECONDS / 2 >= due:
                    ingest = pending.pop(0)
                serve_burst(ingest)
            spent[step] += time.perf_counter() - begin
        res.stats_after = clients[0].stats()
        res.server_rss_mb = _rss_mb(server.proc.pid)
    serial.close()

    for out in outs:
        if out["error"] is not None:
            raise out["error"]
        res.requests.extend(out["requests"])
        res.ingests.extend(out["ingests"])
        res.failed += out["rejected"]
    res.attempted += len(res.requests) + len(res.ingests) + res.failed
    _check(len(res.ingests) == INGESTS, "not every ingest was sent")
    acks = [ack for _, _, ack in res.ingests]
    _check(
        [a["epoch"] for a in acks] == list(range(2, INGESTS + 2))
        and all(a["num_new_points"] == batch for a in acks),
        "ingest acks do not show one new epoch per batch",
    )
    _check(
        acks[-1]["n_clusters"] == ref.n_clusters,
        "served model after the last ingest differs from the union fit",
    )
    # Offline ingest chain on the loaded RPST: the expected served labels
    # of every epoch, and the post-ingest state against the union fit.
    expected = {1: ClusterModel.from_state(state).predict(serve_pool)}
    for epoch, b in enumerate(batches, start=2):
        res.ingest_reports.append(state.ingest(b))
        expected[epoch] = ClusterModel.from_state(state).predict(serve_pool)
    _check(
        np.array_equal(state.labels, ref.labels)
        and np.array_equal(state.core_mask, ref.core_mask)
        and np.array_equal(state.cell_labels, ref.state.cell_labels),
        "post-ingest state differs from a from-scratch fit on the union",
    )
    for _, _, idx, epoch, label in res.requests:
        _check(
            epoch in expected and expected[epoch][idx] == label,
            f"served label of request {idx} at epoch {epoch} differs from "
            "offline ClusterModel.predict of that epoch",
        )
    if tracer is not None:
        for start, end, idx, epoch, _ in res.requests:
            tracer.record_span("predict request", "driver", start_s=start, end_s=end,
                               epoch=epoch)
        for start, end, ack in res.ingests:
            tracer.record_span("ingest request", "driver", start_s=start, end_s=end,
                               epoch=ack["epoch"])
    return res, tracer


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
