"""Command-line interface: ``browser-polygraph`` / ``python -m repro``.

Subcommands:

* ``train``       — generate the training window, fit, save the model
  (``--jobs`` fans the k-means restarts over worker processes);
* ``retrain``     — refit an existing model on a dataset or a session
  store's export and save the refreshed model;
* ``store``       — inspect (``info``) or seal (``migrate``) a session
  store's segments into the columnar training format;
* ``detect``      — load a model and evaluate a saved dataset;
* ``drift``       — load a model and run the drift check on a window;
* ``experiment``  — regenerate any paper table/figure by name;
* ``simulate``    — generate and save a synthetic FinOrg dataset;
* ``serve``       — run the collection endpoint over a saved model or a
  registry's live model (``--runtime`` switches to the batched, cached
  scoring runtime and resumes any in-flight rollout; ``--shards N``
  serves a sharded cluster behind the consistent-hash router);
  SIGTERM/SIGINT drain in-flight requests before exiting;
* ``cluster``     — inspect a running cluster (``status`` pretty-prints
  the server's ``GET /cluster`` document);
* ``sessions``    — inspect a server's event-stream session layer
  (``status`` pretty-prints the ``GET /sessions`` document);
* ``rollout``     — drive a staged model rollout against a registry:
  ``start`` a candidate into shadow, inspect ``status``, ``promote``
  one stage toward live, or ``abort``;
* ``fuse``        — train (``train``) or inspect (``status``) the
  second-opinion fusion model; ``serve --fusion FUSION.json`` attaches
  it to the per-request scoring path (``POST /check``, ``GET /fusion``);
* ``gauntlet``    — replay an accelerated production year against the
  live serving stack (``run``) or render a saved replay artifact
  (``report BENCH_gauntlet.json``).
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from typing import Dict, List, Optional

from repro.core.pipeline import BrowserPolygraph

__all__ = ["main"]

# Paper artifact -> its function in ``repro.analysis.experiments``, which
# (like the traffic simulator) is imported only by the subcommands that
# use it: ``serve`` starts without the experiment suite.
_EXPERIMENTS: Dict[str, str] = {
    "table2": "table2_performance",
    "table3": "table3_cluster_table",
    "table4": "table4_flagging",
    "table5": "table5_fraud_browsers",
    "table6": "table6_drift",
    "table7": "table7_entropy",
    "table9": "table9_k6",
    "table10": "table10_cluster_sensitivity",
    "table11": "table11_pca_sensitivity",
    "table12": "table12_feature_sensitivity",
    "table13": "table13_finegrained_windows",
    "table14": "table14_finegrained_macos",
    "fig2": "fig2_pca_variance",
    "fig3": "fig3_fig4_elbow",
    "fig4": "fig3_fig4_elbow",
    "fig5": "fig5_anonymity",
}


def _parse_date(text: str) -> date:
    return date.fromisoformat(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="browser-polygraph",
        description="Coarse-grained browser fingerprinting for fraud detection "
        "(IMC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate a synthetic FinOrg dataset")
    simulate.add_argument("output", help="output .npz path")
    simulate.add_argument("--sessions", type=int, default=205_000)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--start", type=_parse_date, default=date(2023, 3, 1))
    simulate.add_argument("--end", type=_parse_date, default=date(2023, 7, 1))

    train = sub.add_parser("train", help="fit Browser Polygraph and save the model")
    train.add_argument("model", help="output model .json path")
    train.add_argument("--dataset", help="training dataset .npz (default: simulate)")
    train.add_argument("--sessions", type=int, default=205_000)
    train.add_argument("--seed", type=int, default=7)
    train.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the k-means restarts (-1: all cores); "
        "the trained model is identical at any setting",
    )

    retrain = sub.add_parser(
        "retrain", help="refit an existing model and save the result"
    )
    retrain.add_argument("model", help="existing model .json path")
    retrain.add_argument(
        "--dataset", help="training dataset .npz (or use --store)"
    )
    retrain.add_argument(
        "--store", help="session store directory to export and retrain on"
    )
    retrain.add_argument(
        "--output",
        help="where to save the refreshed model (default: overwrite)",
    )
    retrain.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the k-means restarts (-1: all cores)",
    )

    store = sub.add_parser(
        "store", help="manage a session store's segments"
    )
    store.add_argument(
        "action",
        choices=["info", "migrate"],
        help="info: summarize segments; migrate: seal JSONL segments "
        "into the columnar (memory-mappable) format in place",
    )
    store.add_argument("root", help="session store directory")

    detect = sub.add_parser("detect", help="evaluate a dataset with a saved model")
    detect.add_argument("model", help="model .json path")
    detect.add_argument("dataset", help="dataset .npz path")
    detect.add_argument("--risk-threshold", type=int, default=0)

    drift = sub.add_parser("drift", help="drift-check a dataset with a saved model")
    drift.add_argument("model", help="model .json path")
    drift.add_argument("dataset", help="dataset .npz path")

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument(
        "name",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="paper table/figure to regenerate",
    )

    sub.add_parser("figures", help="render Figures 2-5 as ASCII charts")

    report = sub.add_parser(
        "report", help="generate the paper-vs-measured EXPERIMENTS report"
    )
    report.add_argument("--output", help="write markdown here instead of stdout")

    serve = sub.add_parser(
        "serve", help="run the collection endpoint over a saved model"
    )
    serve.add_argument(
        "model", nargs="?", help="model .json path (or use --registry)"
    )
    serve.add_argument(
        "--registry",
        help="serve the registry's live model instead of a model file; "
        "with --runtime, an in-flight rollout is resumed",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8040)
    serve.add_argument(
        "--runtime",
        action="store_true",
        help="use the batched, cached scoring runtime instead of the "
        "per-request service",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=8192, help="0 disables the cache"
    )
    serve.add_argument("--cache-ttl", type=float, default=300.0)
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve a sharded cluster with N scoring shards behind the "
        "consistent-hash router (0: single-process)",
    )
    serve.add_argument(
        "--shard-backend",
        choices=["thread", "process"],
        default="thread",
        help="host each shard in this process (thread) or in its own "
        "child process (process)",
    )
    serve.add_argument(
        "--affinity",
        choices=["session", "fingerprint"],
        default="session",
        help="ring routing key: session id (sticky canary buckets) or "
        "fingerprint bytes (partitions the verdict-cache key space)",
    )
    # Shim: benchmarks/e2e/e2ebench/workloads.py (frozen) passes
    # "--transport shm"; the flag goes when ROADMAP item 1(a)'s
    # benchmark PR drops the argument.
    serve.add_argument(
        "--transport", choices=["shm"], default="shm", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--ring-slots",
        type=int,
        default=4096,
        help="slots per shard in the shared-memory feature ring "
        "(process shards only)",
    )
    serve.add_argument(
        "--ingest",
        choices=["sync", "async"],
        default="sync",
        help="HTTP front end: one-request-per-thread WSGI (sync) or the "
        "pipelined asyncio server with batch coalescing and read-side "
        "backpressure (async)",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        help="enable event-stream session scoring (POST /event, "
        "GET /session/{id}) with this idle TTL in seconds",
    )
    serve.add_argument(
        "--session-max",
        type=int,
        default=100_000,
        help="maximum concurrently tracked sessions (LRU beyond this)",
    )
    serve.add_argument(
        "--session-log",
        help="directory for the durable sliding-window event log "
        "(default: in-memory state only)",
    )
    serve.add_argument(
        "--fusion",
        metavar="FUSION_MODEL",
        help="attach a trained fusion model (see `fuse train`): enables "
        "POST /check and GET /fusion plus fused provenance on verdicts "
        "(per-request single-process mode only)",
    )
    serve.add_argument(
        "--fusion-lift",
        type=float,
        default=None,
        help="lift threshold for the second opinion to count as "
        "fraud-grade (default: policy default)",
    )
    serve.add_argument(
        "--coverage",
        action="store_true",
        help="track release coverage: classify every UA against the "
        "live model's release table, keep per-vendor unknown-UA rates "
        "with release-calendar bands, and expose GET /coverage plus "
        "polygraph_coverage_* metrics",
    )

    cluster = sub.add_parser(
        "cluster", help="inspect a running sharded cluster"
    )
    cluster.add_argument("action", choices=["status"])
    cluster.add_argument(
        "--url",
        default="http://127.0.0.1:8040",
        help="base URL of the serving endpoint",
    )

    sessions = sub.add_parser(
        "sessions", help="inspect a server's event-stream session layer"
    )
    sessions.add_argument("action", choices=["status"])
    sessions.add_argument(
        "--url",
        default="http://127.0.0.1:8040",
        help="base URL of the serving endpoint",
    )

    coverage = sub.add_parser(
        "coverage", help="inspect a server's release-coverage tracker"
    )
    coverage.add_argument("action", choices=["status"])
    coverage.add_argument(
        "--url",
        default="http://127.0.0.1:8040",
        help="base URL of the serving endpoint",
    )

    rollout = sub.add_parser(
        "rollout", help="drive a staged model rollout against a registry"
    )
    rollout.add_argument("registry", help="model registry directory")
    rollout.add_argument(
        "action",
        choices=["start", "status", "promote", "abort"],
        help="start a candidate into shadow, show status, advance one "
        "stage (promotes to live after the last), or abort",
    )
    rollout.add_argument(
        "--candidate",
        type=int,
        help="candidate version to start (default: newest staged candidate)",
    )
    rollout.add_argument(
        "--stages",
        help="comma-separated canary fractions, e.g. 0.01,0.05,0.25,1.0",
    )
    rollout.add_argument(
        "--shadow-sample",
        type=float,
        default=None,
        help="share of live-arm traffic mirrored to the candidate",
    )

    fuse = sub.add_parser(
        "fuse", help="train or inspect the second-opinion fusion model"
    )
    fuse_sub = fuse.add_subparsers(dest="fuse_action", required=True)
    fuse_train = fuse_sub.add_parser(
        "train",
        help="propagate weak tags over the training window and save a "
        "calibrated fusion model",
    )
    fuse_train.add_argument("model", help="trained polygraph model .json path")
    fuse_train.add_argument("output", help="output fusion model .json path")
    fuse_train.add_argument(
        "--dataset", help="training dataset .npz (default: simulate)"
    )
    fuse_train.add_argument("--sessions", type=int, default=60_000)
    fuse_train.add_argument("--seed", type=int, default=7)
    fuse_train.add_argument("--neighbors", type=int, default=None)
    fuse_train.add_argument("--alpha", type=float, default=None)
    fuse_train.add_argument("--shrinkage", type=float, default=None)
    fuse_train.add_argument("--tag-scale", type=float, default=None)
    fuse_status = fuse_sub.add_parser(
        "status", help="summarize a saved fusion model"
    )
    fuse_status.add_argument("fusion", help="fusion model .json path")

    gauntlet = sub.add_parser(
        "gauntlet",
        help="adversarial co-evolution replay against the serving stack",
    )
    gauntlet_sub = gauntlet.add_subparsers(dest="gauntlet_command", required=True)
    gauntlet_run = gauntlet_sub.add_parser(
        "run", help="replay N virtual days and print the report"
    )
    gauntlet_run.add_argument("--days", type=int, default=185)
    gauntlet_run.add_argument(
        "--start", type=date.fromisoformat, default=date(2023, 5, 5)
    )
    gauntlet_run.add_argument("--seed", type=int, default=7)
    gauntlet_run.add_argument("--sessions-per-day", type=int, default=420)
    gauntlet_run.add_argument("--shards", type=int, default=2)
    gauntlet_run.add_argument("--bootstrap-sessions", type=int, default=18_000)
    gauntlet_run.add_argument(
        "--drill-day",
        type=int,
        default=40,
        help="day index of the chaos drill; negative disables it",
    )
    gauntlet_run.add_argument("--jobs", type=int, default=1)
    gauntlet_run.add_argument(
        "--output", default=None, help="write the bench-envelope JSON here"
    )
    gauntlet_report = gauntlet_sub.add_parser(
        "report", help="render a saved gauntlet artifact"
    )
    gauntlet_report.add_argument("artifact", help="path to BENCH_gauntlet.json")
    gauntlet_report.add_argument(
        "--timeline", type=int, default=40, help="max event days to list"
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.traffic.generator import TrafficConfig, TrafficSimulator

    config = TrafficConfig(
        seed=args.seed, start=args.start, end=args.end
    ).scaled(args.sessions)
    dataset = TrafficSimulator(config).generate()
    dataset.save(args.output)
    print(
        f"wrote {len(dataset)} sessions "
        f"({len(dataset.distinct_releases())} releases) to {args.output}"
    )
    return 0


def _training_window(args: argparse.Namespace):
    """``--dataset`` if given, else a simulated window of ``--sessions``."""
    if args.dataset:
        from repro.traffic.dataset import Dataset

        return Dataset.load(args.dataset)
    from repro.traffic.generator import TrafficConfig, TrafficSimulator

    return TrafficSimulator(
        TrafficConfig(seed=args.seed).scaled(args.sessions)
    ).generate()


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = _training_window(args)
    pipeline = BrowserPolygraph().fit(dataset, jobs=args.jobs)
    pipeline.save(args.model)
    print(
        f"trained on {len(dataset)} sessions; accuracy "
        f"{pipeline.accuracy:.4f}; model saved to {args.model}"
    )
    return 0


def _cmd_retrain(args: argparse.Namespace) -> int:
    if bool(args.dataset) == bool(args.store):
        print(
            "retrain: provide exactly one of --dataset or --store",
            file=sys.stderr,
        )
        return 2
    if args.dataset:
        from repro.traffic.dataset import Dataset

        dataset = Dataset.load(args.dataset)
    else:
        from repro.service.storage import SessionStore

        dataset = SessionStore(args.store).export_dataset()
    pipeline = BrowserPolygraph.load(args.model)
    pipeline.retrain(dataset, jobs=args.jobs)
    output = args.output or args.model
    pipeline.save(output)
    print(
        f"retrained on {len(dataset)} sessions; accuracy "
        f"{pipeline.accuracy:.4f}; model saved to {output}"
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.service.storage import SessionStore

    store = SessionStore(args.root)
    if args.action == "migrate":
        converted = store.migrate()
        if converted:
            print(f"sealed {len(converted)} segment(s) into columnar format:")
            for path in converted:
                print(f"  {path.name}")
        else:
            print("no JSONL segments to migrate")
        return 0
    # info
    paths = store.segments()
    print(f"{len(store)} records in {len(paths)} segment(s) at {store.root}")
    for path in paths:
        kind = "columnar" if path.suffix == ".npz" else "jsonl"
        print(f"  {path.name}  {kind}  {path.stat().st_size} bytes")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.traffic.dataset import Dataset

    pipeline = BrowserPolygraph.load(args.model)
    dataset = Dataset.load(args.dataset)
    report = pipeline.detect(dataset)
    over = report.risk_over(args.risk_threshold)
    print(
        f"{len(dataset)} sessions: {report.n_flagged} flagged, "
        f"{int(over.sum())} above risk factor {args.risk_threshold}, "
        f"{report.n_unknown_ua} with unknown user-agents"
    )
    for idx in report.flagged_indices()[:20]:
        print(
            f"  {dataset.session_ids[idx]}  ua={dataset.ua_keys[idx]}  "
            f"cluster {report.predicted[idx]} (expected {report.expected[idx]})  "
            f"risk={report.risk_factors[idx]}"
        )
    if report.n_flagged > 20:
        print(f"  ... and {report.n_flagged - 20} more")
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.traffic.dataset import Dataset

    pipeline = BrowserPolygraph.load(args.model)
    dataset = Dataset.load(args.dataset)
    records = pipeline.drift_report(dataset)
    threshold = pipeline.config.drift_accuracy_threshold
    for record in records:
        marker = "RETRAIN" if record.retrain_needed(threshold) else "ok"
        print(
            f"{record.ua_key:>14}  cluster {record.cluster} "
            f"(baseline {record.baseline_cluster})  "
            f"accuracy {100 * record.accuracy:.2f}%  "
            f"n={record.n_sessions}  {marker}"
        )
    print(f"retraining needed: {pipeline.retrain_needed(records)}")
    return 0


def _cmd_figures(_: argparse.Namespace) -> int:
    from repro.analysis import experiments
    from repro.analysis.figures import render_figures

    pca = [row[1] for row in experiments.fig2_pca_variance().rows]
    elbow = [tuple(row) for row in experiments.fig3_fig4_elbow().rows]
    anonymity = {row[0]: row[1] for row in experiments.fig5_anonymity().rows}
    print(render_figures(pca, elbow, anonymity))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.paper_report import generate_report

    text = generate_report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _runtime_config(args: argparse.Namespace) -> "RuntimeConfig":
    from repro.runtime.service import RuntimeConfig

    return RuntimeConfig(
        cache_entries=args.cache_entries, cache_ttl_seconds=args.cache_ttl
    )


def _build_service(pipeline: BrowserPolygraph, args: argparse.Namespace):
    """The scoring service ``serve`` wraps — runtime or per-request."""
    if args.runtime:
        from repro.runtime.service import RuntimeScoringService

        return RuntimeScoringService(pipeline, config=_runtime_config(args)).start()
    from repro.service.scoring import ScoringService

    return ScoringService(pipeline)


def _build_cluster(args: argparse.Namespace, registry):
    """The sharded path of ``serve``: supervisor + router (+ rollout)."""
    from repro.cluster import (
        ClusterConfig,
        ClusterRouter,
        RouterConfig,
        ShardSupervisor,
    )

    config = ClusterConfig(
        n_shards=args.shards,
        backend=args.shard_backend,
        ring_slots=args.ring_slots,
    )
    runtime_config = _runtime_config(args)
    if registry is not None:
        supervisor = ShardSupervisor.from_registry(
            registry, config=config, runtime_config=runtime_config
        )
    else:
        supervisor = ShardSupervisor(
            args.model, config=config, runtime_config=runtime_config
        )
    router = ClusterRouter(supervisor, RouterConfig(affinity=args.affinity)).start()
    managers = []
    if registry is not None:
        managers = supervisor.attach_rollout(registry)
        state = managers[0].state if managers else None
        if state is not None and state.in_flight:
            print(
                f"resumed rollout of v{state.candidate_version} on "
                f"{len(managers)} shards ({state.status}, "
                f"stage {state.stage_index})"
            )
    return router, managers


def _serve_until_signalled(httpd) -> None:
    """Run the server until SIGTERM/SIGINT, then stop accepting.

    ``serve_forever`` runs on a background thread because calling
    ``httpd.shutdown()`` from the serving thread deadlocks; the main
    thread parks on an event that the signal handlers set.  On exit the
    listener is stopped first, then the caller drains the scoring
    backlog — no request dies mid-batch.
    """
    import signal
    import threading

    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _request_stop)
        except ValueError:
            pass  # not on the main thread (tests); rely on Ctrl-C
    server_thread = threading.Thread(
        target=httpd.serve_forever, name="polygraph-http", daemon=True
    )
    server_thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        httpd.shutdown()
        server_thread.join(timeout=10.0)


def _cmd_serve(args: argparse.Namespace) -> int:
    from wsgiref.simple_server import make_server

    from repro.service.api import CollectionApp

    if args.registry and args.shards and args.shard_backend == "process":
        print(
            "serve: --registry with process shards would serve without "
            "its rollout (rollout managers attach to thread shards only); "
            "use --runtime or --shard-backend thread",
            file=sys.stderr,
        )
        return 2
    registry = None
    if args.registry:
        from repro.core.retraining import ModelRegistry

        registry = ModelRegistry(args.registry)
    elif not args.model:
        print("serve: provide a model path or --registry", file=sys.stderr)
        return 2
    if args.fusion and (args.shards or args.runtime):
        print(
            "serve: --fusion requires the per-request single-process "
            "path (the fusion arm is not batched or shard-aware yet)",
            file=sys.stderr,
        )
        return 2
    managers = []
    if args.shards:
        from repro.cluster import ShardError

        try:
            service, managers = _build_cluster(args, registry)
        except ShardError as exc:
            print(f"serve: cannot start cluster: {exc}", file=sys.stderr)
            return 2
        transport_note = (
            ", shm transport" if args.shard_backend == "process" else ""
        )
        mode = (
            f"cluster ({args.shards} {args.shard_backend} shards, "
            f"{args.affinity} affinity{transport_note})"
        )
    else:
        pipeline = (
            registry.load() if registry else BrowserPolygraph.load(args.model)
        )
        service = _build_service(pipeline, args)
        if registry is not None and args.runtime:
            from repro.rollout import RolloutManager

            manager = RolloutManager(registry, runtime=service)
            state = manager.resume()
            managers = [manager]
            if state is not None and state.in_flight:
                print(
                    f"resumed rollout of v{state.candidate_version} "
                    f"({state.status}, stage {state.stage_index})"
                )
        mode = "runtime (batched)" if args.runtime else "per-request"
        if args.fusion:
            from repro.fusion import FusionArm, FusionModel, FusionPolicy
            from repro.fusion import FusionPolicyConfig

            fusion_model = FusionModel.load(args.fusion)
            policy = None
            if args.fusion_lift is not None:
                policy = FusionPolicy(
                    FusionPolicyConfig(
                        second_opinion_lift=args.fusion_lift,
                        second_only_lift=args.fusion_lift,
                    )
                )
            service.attach_fusion(FusionArm(fusion_model, policy=policy))
            mode += ", fusion"
    sessions = None
    if args.session_ttl is not None:
        from repro.sessions import SessionEventLog, SessionScoringService

        event_log = SessionEventLog(args.session_log) if args.session_log else None
        sessions = SessionScoringService(
            service,
            event_log=event_log,
            ttl_seconds=args.session_ttl,
            max_sessions=args.session_max,
        )
        mode += f", session streams (ttl {args.session_ttl:g}s)"
    coverage_tracker = None
    if args.coverage:
        from datetime import date as _date

        from repro.coverage import CoverageTracker

        # The bound method keeps the tracker's day current without the
        # tracker itself calling wall-clock functions at import time.
        coverage_tracker = CoverageTracker(clock=_date.today)
        service.attach_coverage(coverage_tracker)
        mode += ", coverage"
    app = CollectionApp(service, sessions=sessions, coverage=coverage_tracker)
    if args.ingest == "async":
        from repro.service.aingest import AsyncIngestServer

        server = AsyncIngestServer(service, app, host=args.host, port=args.port)
        mode += ", async ingest"
    else:
        server = make_server(args.host, args.port, app)
    # Long-lived serving process: everything built so far (the model,
    # the shard plumbing, the WSGI app) lives until exit, so move it
    # out of the collector's reach — otherwise every gen2 collection
    # re-scans the whole model heap mid-request.
    import gc

    gc.collect()
    gc.freeze()
    with server as httpd:
        endpoints = (
            "POST /collect, GET /health, GET /metrics, GET /rollout, "
            "GET /cluster"
        )
        if sessions is not None:
            endpoints += ", POST /event, GET /session/{id}, GET /sessions"
        if coverage_tracker is not None:
            endpoints += ", GET /coverage"
        if getattr(service, "fusion", None) is not None:
            endpoints += ", POST /check, GET /fusion"
        print(
            f"serving {mode} scoring on http://{args.host}:{args.port} "
            f"({endpoints})"
        )
        try:
            _serve_until_signalled(httpd)
        finally:
            print("draining in-flight requests before exit")
            for manager in managers:
                manager.save()
                manager.close()
            shutdown = getattr(service, "shutdown", None)
            if shutdown is not None:
                shutdown(drain=True)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json as _json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    endpoint = args.url.rstrip("/") + "/cluster"
    try:
        with urlopen(endpoint, timeout=5.0) as response:
            document = _json.load(response)
    except HTTPError as exc:
        if exc.code == 404:
            print(f"{args.url} is serving single-process (no cluster)")
            return 1
        print(f"cluster status: {endpoint} answered {exc.code}", file=sys.stderr)
        return 2
    except (URLError, OSError) as exc:
        print(f"cluster status: cannot reach {endpoint}: {exc}", file=sys.stderr)
        return 2
    print(
        f"backend {document['backend']}, serving v{document['serving_version']}, "
        f"{document['healthy_shards']}/{document['n_shards']} shards healthy, "
        f"{document['vnodes']} vnodes/shard"
    )
    for shard in document["shards"]:
        health = "healthy" if shard["healthy"] else "UNHEALTHY"
        ring = "on ring" if shard["on_ring"] else "OFF RING"
        print(
            f"  {shard['shard_id']:>4}  {health:<9}  v{shard['model_version']}"
            f"  restarts={shard['restarts']}  failures={shard['failures']}"
            f"  {ring}"
        )
    router = document.get("router")
    if router:
        print(
            f"router: {router['requests_total']} requests "
            f"({router['affinity']} affinity), "
            f"{router['failovers_total']} failovers, "
            f"{router['unroutable_total']} unroutable"
        )
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    import json as _json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    endpoint = args.url.rstrip("/") + "/sessions"
    try:
        with urlopen(endpoint, timeout=5.0) as response:
            document = _json.load(response)
    except HTTPError as exc:
        if exc.code == 404:
            print(f"{args.url} is serving without session streams")
            return 1
        print(f"sessions status: {endpoint} answered {exc.code}", file=sys.stderr)
        return 2
    except (URLError, OSError) as exc:
        print(f"sessions status: cannot reach {endpoint}: {exc}", file=sys.stderr)
        return 2
    print(
        f"{document['active_sessions']} active sessions "
        f"(ttl {document['ttl_seconds']:g}s, cap {document['max_sessions']}), "
        f"{document['events_total']} events, "
        f"{document['revisions_total']} revisions "
        f"({document['escalations_total']} escalations)"
    )
    for reason, count in sorted(document["revision_reasons"].items()):
        if count:
            print(f"  {reason:>14}: {count}")
    log = document.get("event_log")
    if log:
        print(
            f"event log: {log['segments']} segment(s), "
            f"{log['sealed_events']} sealed + {log['buffered_events']} "
            f"buffered events, {log['pruned_segments']} pruned"
        )
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    import json as _json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    endpoint = args.url.rstrip("/") + "/coverage"
    try:
        with urlopen(endpoint, timeout=5.0) as response:
            document = _json.load(response)
    except HTTPError as exc:
        if exc.code == 404:
            print(f"{args.url} is serving without coverage tracking")
            return 1
        print(f"coverage status: {endpoint} answered {exc.code}", file=sys.stderr)
        return 2
    except (URLError, OSError) as exc:
        print(f"coverage status: cannot reach {endpoint}: {exc}", file=sys.stderr)
        return 2
    generation = document["model_generation"]
    print(
        f"{document['known_releases']} known releases"
        + (f" (model generation {generation})" if generation is not None else "")
        + (f", band day {document['day']}" if document["day"] else "")
    )
    print(
        f"  {'vendor':<8}  {'observed':>9}  {'unknown':>8}  "
        f"{'window rate':>11}  {'band high':>9}  status"
    )
    for vendor, stats in document["vendors"].items():
        if stats["out_of_band"]:
            status = "OUT OF BAND"
        elif stats["adopting"]:
            status = "adopting"
        else:
            status = "ok"
        print(
            f"  {vendor:<8}  {stats['observed']:>9}  {stats['unknown']:>8}  "
            f"{stats['window_unknown_rate']:>11.4f}  {stats['band_high']:>9.4f}"
            f"  {status}"
        )
    if document["top_unknown"]:
        top = ", ".join(
            f"{entry['ua_key']} ({entry['count']})"
            for entry in document["top_unknown"]
        )
        print(f"  top unknown: {top}")
    return 0


def _cmd_rollout(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.retraining import STATUS_CANDIDATE, ModelRegistry
    from repro.rollout import LIVE, RolloutConfig, RolloutError, RolloutManager

    registry = ModelRegistry(args.registry)
    config = RolloutConfig()
    overrides = {}
    if args.stages:
        overrides["stages"] = tuple(
            float(s) for s in args.stages.split(",") if s.strip()
        )
    if args.shadow_sample is not None:
        overrides["shadow_sample_rate"] = args.shadow_sample
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    manager = RolloutManager(registry, config=config)

    if args.action == "start":
        candidate = args.candidate
        if candidate is None:
            staged = [
                e
                for e in registry.versions()
                if e.get("status") == STATUS_CANDIDATE
            ]
            if not staged:
                print(
                    "rollout start: no staged candidate in the registry "
                    "(use --candidate N)",
                    file=sys.stderr,
                )
                return 2
            candidate = staged[-1]["version"]
        try:
            state = manager.start(candidate)
        except (RolloutError, LookupError, ValueError) as exc:
            print(f"rollout start: {exc}", file=sys.stderr)
            return 2
        print(
            f"rollout of v{state.candidate_version} started in shadow "
            f"against live v{state.baseline_version} (salt {state.salt})"
        )
        return 0

    state = manager.resume()
    if state is None:
        print("no rollout recorded in this registry", file=sys.stderr)
        return 2
    if args.action == "status":
        print(_json.dumps(manager.status_dict(), indent=2))
        return 0
    if args.action == "abort":
        state = manager.abort()
        print(f"rollout of v{state.candidate_version} aborted")
        return 0
    # promote: advance one stage; guardrails are still evaluated against
    # the persisted disagreement report, but stage completeness is the
    # operator's call when driving from the CLI.
    try:
        state = manager.advance(force=True)
    except RolloutError as exc:
        print(f"rollout promote: {exc}", file=sys.stderr)
        return 2
    if state.status == LIVE:
        print(f"v{state.candidate_version} is live")
    elif state.in_flight:
        print(
            f"advanced to canary stage {state.stage_index} "
            f"({state.stage_fraction:.0%} of traffic)"
        )
    else:
        print(
            f"rollout of v{state.candidate_version} is {state.status}"
            + (f" (breach: {state.breach['name']})" if state.breach else "")
        )
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    from repro.fusion import FusionModel, PropagationConfig
    from repro.fusion.model import load_fusion_document

    if args.fuse_action == "status":
        document = load_fusion_document(args.fusion)
        reliability = document["reliability"]
        print(
            f"fusion model over {len(document['node_keys'])} nodes "
            f"({document['trained_sessions']} training sessions, "
            f"reference day {document['reference_day']})"
        )
        print(
            f"propagation: {document['iterations']} iterations, "
            f"converged={document['converged']}, "
            f"base rate {document['calibrator']['base_rate']:.5f}"
        )
        print(
            f"calibration: ECE {reliability['ece']:.5f} over "
            f"{reliability['n']} held-out sessions"
        )
        print(f"pipeline digest: {document['pipeline_digest'][:16]}...")
        return 0

    # train
    from dataclasses import replace as _replace

    pipeline = BrowserPolygraph.load(args.model)
    dataset = _training_window(args)
    prop = PropagationConfig()
    overrides = {
        "n_neighbors": args.neighbors,
        "alpha": args.alpha,
        "shrinkage": args.shrinkage,
        "tag_scale": args.tag_scale,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        prop = _replace(prop, **overrides)
    model = FusionModel.train(dataset, pipeline.cluster_model, config=prop)
    model.save(args.output)
    status = model.status_dict()
    print(
        f"propagated weak tags over {status['nodes']} nodes from "
        f"{len(dataset)} sessions "
        f"({status['iterations']} iterations, "
        f"converged={status['converged']})"
    )
    print(
        f"base rate {status['base_rate']:.5f}; held-out "
        f"ECE {status['reliability_ece']:.5f}; model saved to {args.output}"
    )
    return 0


def _cmd_gauntlet(args: argparse.Namespace) -> int:
    from repro.gauntlet import DayLedger, GauntletConfig, run_gauntlet
    from repro.gauntlet.report import (
        render_report,
        render_timeline,
        write_gauntlet_json,
    )

    if args.gauntlet_command == "run":
        config = GauntletConfig(
            start=args.start,
            days=args.days,
            seed=args.seed,
            sessions_per_day=args.sessions_per_day,
            n_shards=args.shards,
            bootstrap_sessions=args.bootstrap_sessions,
            drill_day=args.drill_day if args.drill_day >= 0 else None,
            jobs=args.jobs,
        )
        result = run_gauntlet(config)
        print(render_report(result.ledger, result.adversary))
        print()
        print(render_timeline(result.ledger, limit=40))
        if args.output:
            write_gauntlet_json(result, args.output)
            print(f"\nwrote {args.output}")
        return 0

    import json as _json

    with open(args.artifact, "r", encoding="utf-8") as handle:
        document = _json.load(handle)
    ledger = DayLedger.from_cells(document["cells"])
    print(render_report(ledger, document.get("adversary")))
    print()
    print(render_timeline(ledger, limit=args.timeline))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis import experiments

    names = sorted(_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        print(getattr(experiments, _EXPERIMENTS[name])().render())
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "train": _cmd_train,
        "retrain": _cmd_retrain,
        "store": _cmd_store,
        "detect": _cmd_detect,
        "drift": _cmd_drift,
        "experiment": _cmd_experiment,
        "figures": _cmd_figures,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "sessions": _cmd_sessions,
        "coverage": _cmd_coverage,
        "rollout": _cmd_rollout,
        "fuse": _cmd_fuse,
        "gauntlet": _cmd_gauntlet,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
