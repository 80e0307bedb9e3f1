"""``rp-dbscan`` command-line interface.

Six subcommands::

    rp-dbscan generate --dataset GeoLife --n 20000 --out points.npy
    rp-dbscan cluster points.npy --eps 3 --min-pts 40 --out labels.txt \
        --save-model model.rpst
    rp-dbscan predict queries.npy --model model.rpst --out labels.npy
    rp-dbscan serve --model model.rpst --port 7171 --workers 2
    rp-dbscan compare points.npy --eps 3 --min-pts 40 --timeout 120
    rp-dbscan accuracy points.npy --eps 3 --min-pts 40

``generate`` synthesizes one of the data-set stand-ins, ``cluster`` runs
RP-DBSCAN on a point file (optionally persisting the fitted model plane
as an ``RPST`` stream), ``predict`` classifies new points against a
saved model (streamed in chunks, so beyond-RAM query files work),
``serve`` runs the online predict server of :mod:`repro.serve`,
``compare`` runs RP-DBSCAN against the parallel baselines (Table-6
style), and ``accuracy`` measures the Rand index of RP-DBSCAN against
exact DBSCAN (Table-4 style).
"""

from __future__ import annotations

import argparse
import sys

from datetime import datetime, timezone

import numpy as np

from repro.baselines import (
    CBPDBSCAN,
    ESPDBSCAN,
    NGDBSCAN,
    RBPDBSCAN,
    SparkDBSCAN,
)
from repro.bench.harness import run_comparison
from repro.bench.reporting import format_table
from repro.core.rp_dbscan import RPDBSCAN
from repro.data.datasets import DATASETS
from repro.data.io import load_points, save_labels, save_points
from repro.engine import Engine, FaultInjector, FaultPolicy
from repro.kernels import KERNELS, KernelUnavailableError
from repro.obs import (
    EVENT_RESPAWN,
    TRACE_FORMATS,
    Tracer,
    render_run_report,
    write_trace,
)

__all__ = ["main"]


def _parse_bytes(text: str) -> int:
    """Parse a byte size with an optional k/m/g suffix (``"64k"``)."""
    raw = text.strip().lower()
    multiplier = 1
    for suffix, scale in (("k", 1 << 10), ("m", 1 << 20), ("g", 1 << 30)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            multiplier = scale
            break
    try:
        value = int(float(raw) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte size {text!r}; use e.g. 65536, 64k, 16m, 1g"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("byte size must be >= 1")
    return value


def _add_dbscan_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, required=True, help="neighborhood radius")
    parser.add_argument("--min-pts", type=int, required=True, help="core threshold")
    parser.add_argument("--rho", type=float, default=0.01, help="approximation rate")
    parser.add_argument(
        "--partitions", type=int, default=8, help="number of pseudo random partitions"
    )
    parser.add_argument("--seed", type=int, default=0, help="partitioning seed")


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = DATASETS.get(args.dataset)
    if spec is None:
        known = ", ".join(sorted(DATASETS))
        print(f"unknown dataset {args.dataset!r}; choose one of: {known}", file=sys.stderr)
        return 2
    points = spec.generator(args.n, seed=args.seed)
    save_points(args.out, points)
    print(f"wrote {points.shape[0]} x {points.shape[1]} points to {args.out}")
    print(f"suggested eps10={spec.eps10}, min_pts={spec.min_pts}")
    return 0


def _fault_policy_from_args(args: argparse.Namespace) -> FaultPolicy | None:
    """Build the fault policy the CLI flags describe (or None)."""
    injector = None
    node_chaos = (
        getattr(args, "chaos_node_crash", 0.0)
        or getattr(args, "chaos_node_delay", 0.0)
        or getattr(args, "chaos_node_drop", 0.0)
    )
    if args.chaos_crash or args.chaos_delay or args.chaos_exception or node_chaos:
        injector = FaultInjector(
            crash_prob=args.chaos_crash,
            delay_prob=args.chaos_delay,
            exception_prob=args.chaos_exception,
            delay_s=args.chaos_delay_s,
            node_crash_prob=getattr(args, "chaos_node_crash", 0.0),
            node_delay_prob=getattr(args, "chaos_node_delay", 0.0),
            node_drop_prob=getattr(args, "chaos_node_drop", 0.0),
            seed=args.chaos_seed,
        )
    if args.max_retries is None and args.task_timeout is None and injector is None:
        return None
    kwargs = {"injector": injector}
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    if args.task_timeout is not None:
        kwargs["task_timeout_s"] = args.task_timeout
    return FaultPolicy(**kwargs)


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.memmap:
        from repro.data.streaming import open_point_source

        points = open_point_source(args.points)
    else:
        points = load_points(args.points)
    # Tracing is always on for the CLI (the overhead is negligible next
    # to process startup) so the fault ledger can show wall-clock
    # respawn times even when no --trace file was requested.
    tracer = Tracer()
    nodes = [a for a in args.nodes.split(",") if a] if args.nodes else None
    try:
        engine = Engine(
            args.engine,
            num_workers=args.workers,
            fault_policy=_fault_policy_from_args(args),
            tracer=tracer,
            profile=bool(args.profile),
            broadcast_channel=args.broadcast,
            nodes=nodes,
            heartbeat_timeout_s=args.heartbeat_timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            model = RPDBSCAN(
                eps=args.eps,
                min_pts=args.min_pts,
                num_partitions=args.partitions,
                rho=args.rho,
                seed=args.seed,
                engine=engine,
                broadcast_budget=args.broadcast_budget,
                kernel=args.kernel,
            )
        except KernelUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = model.fit(points)
    finally:
        engine.close()
    print(
        f"clusters={result.n_clusters} noise={result.noise_count} "
        f"core={int(result.core_mask.sum())} kernel={result.kernel} "
        f"elapsed={result.total_seconds:.3f}s"
    )
    for phase, fraction in result.phase_breakdown().items():
        print(f"  {phase}: {fraction:.1%}")
    stats = result.merge_stats
    if stats.num_rounds:
        print(
            f"  merge: rounds={stats.num_rounds} "
            f"span={stats.critical_path_seconds() * 1000:.1f}ms (modeled) "
            f"edges {stats.edges_per_round[0]}->{stats.edges_per_round[-1]}"
        )
    if result.broadcast_bytes:
        shipped = " ".join(
            f"{channel}={nbytes}B"
            for channel, nbytes in sorted(result.broadcast_bytes.items())
        )
        print(f"  broadcast ({args.broadcast}): {shipped}")
    if result.broadcast_residency is not None:
        driver = result.broadcast_residency["driver"]
        workers = result.broadcast_residency["workers"]
        peak = max(
            [w["peak_resident_bytes"] for w in workers]
            + [driver["peak_resident_bytes"]]
        )
        evictions = driver["shard_evictions"] + sum(
            w["shard_evictions"] for w in workers
        )
        print(
            f"  residency: shards={driver['num_shards']} "
            f"budget={driver['budget_bytes']}B peak={peak}B "
            f"evictions={evictions}"
        )
    if result.node_ledger:
        for row in result.node_ledger:
            status = "up" if row["alive"] else "down"
            print(
                f"  node {row['node']} ({row['addr']}): "
                f"workers={row['workers']} tasks={row['tasks']} "
                f"ships={row['ships']} shipped={row['bytes_shipped']}B "
                f"deaths={row['deaths']} rejoins={row['rejoins']} [{status}]"
            )
    if result.fault_events:
        events = " ".join(
            f"{kind}={count}" for kind, count in sorted(result.fault_events.items())
        )
        print(f"  fault recovery: {events}")
        for span in tracer.events(EVENT_RESPAWN):
            stamp = datetime.fromtimestamp(span.wall_start_s, tz=timezone.utc)
            reason = span.annotations.get("reason", "worker lost")
            print(
                f"    respawn at {stamp.strftime('%H:%M:%S.%f')[:-3]} UTC "
                f"({reason})"
            )
    if args.report:
        print()
        print(render_run_report(tracer.spans, title=f"run report: {args.points}"))
    if args.trace:
        write_trace(tracer.spans, args.trace, fmt=args.trace_format)
        print(f"trace ({args.trace_format}) written to {args.trace}")
    if args.profile:
        if engine.dump_profile(args.profile):
            print(f"merged cProfile stats written to {args.profile}")
        else:
            print("no profile data captured", file=sys.stderr)
    if args.out:
        save_labels(args.out, result.labels)
        print(f"labels written to {args.out}")
    if args.save_model:
        if result.state is None:
            print(
                "error: --save-model requires an in-memory fit "
                "(incompatible with --memmap: the model plane holds the "
                "fitted points)",
                file=sys.stderr,
            )
            return 2
        from repro.core.serialization import save_cluster_state

        save_cluster_state(result.state, args.save_model)
        print(f"model ({result.state.num_points} points) written to {args.save_model}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.prediction import ClusterModel
    from repro.core.serialization import load_cluster_state
    from repro.data.streaming import open_point_source

    try:
        state = load_cluster_state(args.model)
    except (ValueError, OSError) as exc:
        print(f"error: cannot load model {args.model!r}: {exc}", file=sys.stderr)
        return 2
    # Queries stream through a PointSource (memmapped for .npy when
    # --memmap) and predict runs per chunk, so a query file larger than
    # RAM classifies in bounded memory.
    try:
        source = open_point_source(args.points, memmap=args.memmap)
    except (ValueError, OSError) as exc:
        print(f"error: cannot open {args.points!r}: {exc}", file=sys.stderr)
        return 2
    try:
        model = ClusterModel.from_state(state, kernel=args.kernel)
    except KernelUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if source.dim != state.geometry.dim:
        print(
            f"error: query points have dim {source.dim}; the model "
            f"expects (m, {state.geometry.dim})",
            file=sys.stderr,
        )
        return 2
    warmup_s = model.warmup()
    labels = np.empty(source.num_points, dtype=np.int64)
    for start, chunk in source.iter_chunks():
        labels[start : start + chunk.shape[0]] = model.predict(chunk)
    noise = int((labels == -1).sum())
    print(
        f"predicted {source.num_points} points against "
        f"{model.n_core_points} cores in {model.num_cells} cells "
        f"(eps={state.eps}, kernel={model.kernel}): "
        f"assigned={source.num_points - noise} noise={noise}"
    )
    print(f"  setup: warmup={warmup_s:.3f}s")
    if args.out:
        save_labels(args.out, labels)
        print(f"labels written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.__main__ import run_from_args

    return run_from_args(args)


def _cmd_compare(args: argparse.Namespace) -> int:
    points = load_points(args.points)
    k = args.partitions
    algorithms = {
        "SPARK-DBSCAN": lambda: SparkDBSCAN(args.eps, args.min_pts, k),
        "NG-DBSCAN": lambda: NGDBSCAN(args.eps, args.min_pts),
        "ESP-DBSCAN": lambda: ESPDBSCAN(args.eps, args.min_pts, k, rho=args.rho),
        "RBP-DBSCAN": lambda: RBPDBSCAN(args.eps, args.min_pts, k, rho=args.rho),
        "CBP-DBSCAN": lambda: CBPDBSCAN(args.eps, args.min_pts, k, rho=args.rho),
        "RP-DBSCAN": lambda: RPDBSCAN(
            args.eps, args.min_pts, k, rho=args.rho, seed=args.seed
        ),
    }
    rows = run_comparison(algorithms, points, timeout_s=args.timeout)
    table = [
        [
            row.algorithm,
            row.elapsed_s,
            row.n_clusters if not row.timed_out else None,
            row.noise if not row.timed_out else None,
            row.load_imbalance,
            row.points_processed if not row.timed_out else None,
        ]
        for row in rows
    ]
    print(
        format_table(
            ["algorithm", "elapsed (s)", "clusters", "noise", "imbalance", "pts processed"],
            table,
            title=f"Comparison on {args.points} (eps={args.eps}, minPts={args.min_pts})",
        )
    )
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.baselines import ExactDBSCAN
    from repro.metrics import rand_index, summarize_clustering

    points = load_points(args.points)
    exact = ExactDBSCAN(args.eps, args.min_pts).fit(points)
    approx = RPDBSCAN(
        args.eps,
        args.min_pts,
        args.partitions,
        rho=args.rho,
        seed=args.seed,
    ).fit(points)
    index = rand_index(exact.labels, approx.labels)
    print(f"exact DBSCAN:  {summarize_clustering(exact.labels).describe()}")
    print(f"RP-DBSCAN:     {summarize_clustering(approx.labels).describe()}")
    print(f"Rand index (rho={args.rho}): {index:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="rp-dbscan",
        description="RP-DBSCAN (SIGMOD 2018) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="synthesize a data-set stand-in")
    generate.add_argument("--dataset", required=True, help="name from Table 3")
    generate.add_argument("--n", type=int, default=20_000, help="number of points")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .npy or .csv path")
    generate.set_defaults(func=_cmd_generate)

    cluster = sub.add_parser("cluster", help="run RP-DBSCAN on a point file")
    cluster.add_argument("points", help="input .npy or .csv point file")
    _add_dbscan_args(cluster)
    cluster.add_argument("--out", help="optional label output path")
    cluster.add_argument(
        "--save-model",
        metavar="PATH",
        help="persist the fitted model plane (ClusterState) as an RPST "
        "stream, servable with `rp-dbscan predict`",
    )
    engine_group = cluster.add_argument_group("execution engine")
    engine_group.add_argument(
        "--engine",
        choices=("serial", "process", "remote"),
        default="serial",
        help="task executor (default: serial); remote dispatches to node "
        "agents named by --nodes",
    )
    engine_group.add_argument(
        "--workers", type=int, default=None,
        help="process-mode worker count (remote mode sizes pools per node "
        "via each agent's --workers)",
    )
    engine_group.add_argument(
        "--nodes",
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="remote-executor node agents (comma separated), each running "
        "`python -m repro.node`",
    )
    engine_group.add_argument(
        "--heartbeat-timeout", type=float, default=10.0,
        help="remote mode: seconds of node silence before the driver "
        "declares it dead and reschedules its in-flight tasks",
    )
    engine_group.add_argument(
        "--broadcast",
        choices=("auto", "pickle", "shm"),
        default="auto",
        help="broadcast channel: pickle blobs per worker, one zero-copy "
        "shared-memory segment, or auto (shm whenever the value carries a "
        "columnar dictionary; default)",
    )
    engine_group.add_argument(
        "--broadcast-budget",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="shard the broadcast dictionary and cap each worker's resident "
        "leaf bytes at this budget (suffixes k/m/g; labels stay bit-identical "
        "to a full broadcast)",
    )
    engine_group.add_argument(
        "--memmap",
        action="store_true",
        help="ingest the point file as a memory-mapped source: partitions "
        "materialize per task instead of loading the data set up front",
    )
    engine_group.add_argument(
        "--kernel",
        choices=KERNELS,
        default="auto",
        help="Phase II inner-loop backend: compiled numba kernels (requires "
        "the 'kernels' extra), the vectorized numpy reference, or auto "
        "(default: numba when installed, else numpy; labels are "
        "bit-identical either way)",
    )
    engine_group.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="per-task retry budget (sets a fault policy; default: no retries)",
    )
    engine_group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-task timeout in seconds (sets a fault policy)",
    )
    chaos_group = cluster.add_argument_group(
        "chaos testing (seeded fault injection; implies a fault policy)"
    )
    chaos_group.add_argument(
        "--chaos-crash", type=float, default=0.0,
        help="probability an attempt kills its worker",
    )
    chaos_group.add_argument(
        "--chaos-delay", type=float, default=0.0,
        help="probability an attempt is delayed",
    )
    chaos_group.add_argument(
        "--chaos-exception", type=float, default=0.0,
        help="probability an attempt raises",
    )
    chaos_group.add_argument(
        "--chaos-delay-s", type=float, default=0.1,
        help="injected delay duration in seconds",
    )
    chaos_group.add_argument(
        "--chaos-node-crash", type=float, default=0.0,
        help="remote mode: probability a node crashes mid-phase "
        "(terminates its agent process)",
    )
    chaos_group.add_argument(
        "--chaos-node-delay", type=float, default=0.0,
        help="remote mode: probability a node delays its first dispatch "
        "of a phase",
    )
    chaos_group.add_argument(
        "--chaos-node-drop", type=float, default=0.0,
        help="remote mode: probability a node drops its driver connection "
        "once per phase",
    )
    chaos_group.add_argument(
        "--chaos-seed", type=int, default=0, help="fault-injection seed"
    )
    obs_group = cluster.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        metavar="PATH",
        help="write the span trace to PATH after the run",
    )
    obs_group.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="trace file format: jsonl span log or Chrome trace_event "
        "(load chrome traces at https://ui.perfetto.dev)",
    )
    obs_group.add_argument(
        "--report",
        action="store_true",
        help="print the full run report (phases, workers, critical path)",
    )
    obs_group.add_argument(
        "--profile",
        metavar="PATH",
        help="capture per-task cProfile data and write merged pstats to PATH",
    )
    cluster.set_defaults(func=_cmd_cluster)

    predict = sub.add_parser(
        "predict", help="classify new points against a saved model"
    )
    predict.add_argument("points", help="query .npy or .csv point file")
    predict.add_argument(
        "--model", required=True, metavar="PATH",
        help="RPST model file written by `cluster --save-model`",
    )
    predict.add_argument("--out", help="optional label output path")
    predict.add_argument(
        "--kernel",
        choices=KERNELS,
        default="auto",
        help="distance backend for batch predict (bit-identical across "
        "backends)",
    )
    predict.add_argument(
        "--memmap",
        action="store_true",
        help="memory-map .npy query files and predict chunk by chunk "
        "(beyond-RAM query sets; labels are identical to an eager read)",
    )
    predict.set_defaults(func=_cmd_predict)

    serve = sub.add_parser(
        "serve",
        help="serve predictions from a saved model over TCP "
        "(micro-batching; see also `python -m repro.serve`)",
    )
    from repro.serve.__main__ import add_serve_arguments

    add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    compare = sub.add_parser("compare", help="run all parallel algorithms")
    compare.add_argument("points", help="input .npy or .csv point file")
    _add_dbscan_args(compare)
    compare.add_argument(
        "--timeout", type=float, default=None, help="per-algorithm budget in seconds"
    )
    compare.set_defaults(func=_cmd_compare)

    accuracy = sub.add_parser(
        "accuracy", help="Rand index of RP-DBSCAN vs exact DBSCAN"
    )
    accuracy.add_argument("points", help="input .npy or .csv point file")
    _add_dbscan_args(accuracy)
    accuracy.set_defaults(func=_cmd_accuracy)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
