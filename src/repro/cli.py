"""Command-line interface: ``browser-polygraph`` / ``python -m repro``.

Subcommands:

* ``train``       — generate the training window, fit, save the model
  (``--jobs`` fans the k-means restarts over worker processes);
* ``retrain``     — refit an existing model on a dataset or on the
  ``/collect`` rows of a serve log (``--log``) and save the refreshed
  model;
* ``detect``      — load a model and evaluate a saved dataset;
* ``drift``       — load a model and run the drift check on a window;
* ``experiment``  — regenerate any paper table/figure by name;
* ``simulate``    — generate and save a synthetic FinOrg dataset;
* ``serve``       — run the collection endpoint: the asyncio front end
  over the batched, cached scoring runtime, for a saved model or a
  registry's live model (whose in-flight rollout is resumed), or with
  ``--shards N`` over N in-process partitions behind the
  consistent-hash router, each with its own verdict cache and dedup
  window (a model file only: a registry is served without shards);
  ``--log DIR`` (one process only) keeps every accepted ``/collect``
  and ``/event`` row for ``retrain --log``; SIGTERM/SIGINT drain
  in-flight requests, and seal the log, before exiting;
* ``cluster``     — inspect a sharded server (``status`` pretty-prints
  the server's ``GET /cluster`` document);
* ``sessions``    — inspect a server's event-stream session layer
  (``status`` pretty-prints the ``GET /sessions`` document);
* ``rollout``     — drive a staged model rollout against a registry:
  ``start`` a candidate into shadow, inspect ``status``, ``promote``
  one stage toward live, or ``abort``;
* ``gauntlet``    — replay an accelerated production year against one
  scoring runtime and its rollout manager (``run``) or render a saved
  replay artifact (``report BENCH_gauntlet.json``).
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from typing import Callable, Dict, List, Optional

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
        "--dataset", help="training dataset .npz (or use --log)"
    )
    retrain.add_argument(
        "--log", help="serve log directory whose /collect rows to retrain on"
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
        "serve",
        help="run the collection endpoint: the asyncio front end over the "
        "batched runtime, for a model file or a registry's live model",
    )
    serve.add_argument(
        "model", nargs="?", help="model .json path (or use --registry)"
    )
    serve.add_argument(
        "--registry",
        help="serve the registry's live model instead of a model file "
        "and resume its in-flight rollout",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8040)
    # Shims: benchmarks/e2e/e2ebench/workloads.py (frozen) passes
    # "--runtime" and "--ingest async", which every serve now is; the
    # flags go when ROADMAP item 1(a)'s benchmark PR drops the arguments.
    serve.add_argument("--runtime", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument(
        "--ingest", choices=["async"], default="async", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--cache-entries", type=int, default=8192, help="0 disables the cache"
    )
    serve.add_argument("--cache-ttl", type=float, default=300.0)
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition a model file's serving into N shards behind the "
        "consistent-hash router, each with its own verdict cache and "
        "dedup window, all in this one process (0: no shards; not with "
        "--registry or --log)",
    )
    # Shim: benchmarks/e2e/e2ebench/workloads.py (frozen) passes
    # "--shard-backend process"; the flag goes when ROADMAP item 1(a)'s
    # benchmark PR drops the argument.
    serve.add_argument(
        "--shard-backend", choices=["process"], default="process",
        help=argparse.SUPPRESS,
    )
    serve.add_argument(
        "--affinity",
        choices=["session", "fingerprint"],
        default="session",
        help="ring routing key: session id (sticky dedup windows) or "
        "fingerprint bytes (partitions the verdict-cache key space)",
    )
    # Shim: benchmarks/e2e/e2ebench/workloads.py (frozen) passes
    # "--transport shm"; the flag goes when ROADMAP item 1(a)'s
    # benchmark PR drops the argument.
    serve.add_argument(
        "--transport", choices=["shm"], default="shm", help=argparse.SUPPRESS
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
        "--log",
        help="directory of the serve log: every accepted /collect and "
        "/event row, for retrain --log (not with --shards)",
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
        "cluster", help="inspect a running sharded server"
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
    if bool(args.dataset) == bool(args.log):
        print(
            "retrain: provide exactly one of --dataset or --log",
            file=sys.stderr,
        )
        return 2
    if args.dataset:
        from repro.traffic.dataset import Dataset

        dataset = Dataset.load(args.dataset)
    else:
        from repro.service.log import SegmentLog

        dataset = SegmentLog(args.log).export_dataset()
    pipeline = BrowserPolygraph.load(args.model)
    pipeline.retrain(dataset, jobs=args.jobs)
    output = args.output or args.model
    pipeline.save(output)
    print(
        f"retrained on {len(dataset)} sessions; accuracy "
        f"{pipeline.accuracy:.4f}; model saved to {output}"
    )
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


def _build_cluster(args: argparse.Namespace, pipeline: BrowserPolygraph):
    """The sharded path of ``serve``: the router over ``args.shards``
    partitions of ``pipeline``."""
    from repro.cluster import ClusterConfig, ClusterRouter, RouterConfig, ShardSupervisor

    supervisor = ShardSupervisor(
        pipeline,
        config=ClusterConfig(n_shards=args.shards),
        runtime_config=_runtime_config(args),
    )
    return ClusterRouter(supervisor, RouterConfig(affinity=args.affinity))


def _serve_until_signalled(server, announce: Callable[[], None]) -> None:
    """Start ``server``, ``announce()`` it, and close it on SIGTERM/SIGINT.

    The front end runs its own event-loop thread; the main thread parks
    on an event that the signal handlers set.  On exit the listener is
    closed first, then the caller drains the scoring backlog — no
    request dies mid-batch.
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
    try:
        server.start()
        announce()
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.durable import UnreadableFileError
    from repro.service.aingest import AsyncIngestServer
    from repro.service.api import CollectionApp

    if args.shards and args.registry:
        print(
            "serve: --registry with --shards: a registry's rollouts run "
            "on one service (the cluster router has none)",
            file=sys.stderr,
        )
        return 2
    if args.shards and args.log:
        print(
            "serve: --log with --shards: the log is written by one "
            "service (the cluster router has none)",
            file=sys.stderr,
        )
        return 2
    if not (args.model or args.registry):
        print("serve: provide a model path or --registry", file=sys.stderr)
        return 2
    managers = []
    endpoints = (
        "POST /collect, GET /health, GET /metrics, GET /rollout, GET /cluster"
    )
    log = None
    if args.log:
        from repro.service.log import SegmentLog

        try:
            # Undated batches (every served one) take the wall clock's day.
            log = SegmentLog(args.log, clock=date.today)
        except (UnreadableFileError, OSError) as exc:
            print(f"serve: cannot read log: {exc}", file=sys.stderr)
            return 2
    from repro.runtime.service import RuntimeScoringService

    # Every file is read, or refused by name, before anything serves.
    what = "registry" if args.registry else "model"
    state = None
    try:
        if args.registry:
            from repro.core.retraining import ModelRegistry

            registry = ModelRegistry(args.registry)
            pipeline = registry.load()
        else:
            pipeline = BrowserPolygraph.load(args.model)
        if args.shards:
            service = _build_cluster(args, pipeline)
            mode = f"cluster ({args.shards} shards, {args.affinity} affinity)"
        else:
            service = RuntimeScoringService(
                pipeline, log=log, config=_runtime_config(args)
            )
            mode = "runtime (batched)"
        if args.registry:
            from repro.rollout import RolloutManager

            what = "rollout state"
            manager = RolloutManager(registry, runtime=service)
            state = manager.resume()
            managers = [manager]
    except (UnreadableFileError, LookupError, OSError) as exc:
        print(f"serve: cannot read {what}: {exc}", file=sys.stderr)
        return 2
    if state is not None and state.in_flight:
        print(
            f"resumed rollout of v{state.candidate_version} "
            f"({state.status}, stage {state.stage_index})"
        )
    sessions = None
    if args.session_ttl is not None:
        from repro.sessions import SessionScoringService

        sessions = SessionScoringService(
            service,
            log=log,
            ttl_seconds=args.session_ttl,
            max_sessions=args.session_max,
        )
        mode += f", session streams (ttl {args.session_ttl:g}s)"
        endpoints += ", POST /event, GET /session/{id}, GET /sessions"
    coverage_tracker = None
    if args.coverage:
        from datetime import date as _date

        from repro.coverage import CoverageTracker

        # The bound method keeps the tracker's day current without the
        # tracker itself calling wall-clock functions at import time.
        coverage_tracker = CoverageTracker(clock=_date.today)
        service.attach_coverage(coverage_tracker)
        mode += ", coverage"
        endpoints += ", GET /coverage"
    if log is not None:
        mode += ", log"
    app = CollectionApp(service, sessions=sessions, coverage=coverage_tracker)
    server = AsyncIngestServer(app, host=args.host, port=args.port)
    # Long-lived serving process: everything built so far (the model,
    # the shards, the app) lives until exit, so move it out of
    # the collector's reach — otherwise every gen2 collection re-scans
    # the whole model heap mid-request.
    import gc

    gc.collect()
    gc.freeze()
    try:
        _serve_until_signalled(
            server,
            lambda: print(
                f"serving {mode} scoring on http://{args.host}:{server.port} "
                f"({endpoints})",
                flush=True,
            ),
        )
    except OSError as exc:
        print(f"serve: cannot listen on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    else:
        print("draining in-flight requests before exit")
    finally:
        try:
            for manager in managers:
                manager.save()
                manager.close()
            service.shutdown(drain=True)
        finally:
            # The rows still buffered go on disk, whatever the
            # shutdown raised.
            if log is not None:
                log.seal()
    return 0


def _status_document(args: argparse.Namespace, path: str, absent: str):
    """``(document, None)`` from ``GET --url path``, or ``(None, exit
    code)`` after saying why not: 1 when the server answers 404 (the
    feature is ``absent``), 2 when the document cannot be had."""
    import json as _json
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    command = f"{args.command} status"
    endpoint = args.url.rstrip("/") + path
    try:
        with urlopen(endpoint, timeout=5.0) as response:
            return _json.load(response), None
    except HTTPError as exc:
        if exc.code == 404:
            print(f"{args.url} {absent}")
            return None, 1
        print(f"{command}: {endpoint} answered {exc.code}", file=sys.stderr)
    except (URLError, OSError) as exc:
        print(f"{command}: cannot reach {endpoint}: {exc}", file=sys.stderr)
    return None, 2


def _cmd_cluster(args: argparse.Namespace) -> int:
    document, code = _status_document(
        args, "/cluster", "is serving single-process (no cluster)"
    )
    if document is None:
        return code
    print(
        f"{document['healthy_shards']}/{document['n_shards']} shards healthy, "
        f"{document['vnodes']} vnodes/shard"
    )
    for shard in document["shards"]:
        health = "healthy" if shard["healthy"] else "UNHEALTHY"
        ring = "on ring" if shard["on_ring"] else "OFF RING"
        print(f"  {shard['shard_id']:>4}  {health:<9}  v{shard['model_version']}  {ring}")
    router = document.get("router")
    if router:
        print(
            f"router: {router['requests_total']} requests "
            f"({router['affinity']} affinity)"
        )
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    document, code = _status_document(
        args, "/sessions", "is serving without session streams"
    )
    if document is None:
        return code
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
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    document, code = _status_document(
        args, "/coverage", "is serving without coverage tracking"
    )
    if document is None:
        return code
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
        "gauntlet": _cmd_gauntlet,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
