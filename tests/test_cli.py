"""CLI end-to-end tests (via the in-process entry point)."""

import json
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A dataset and a trained model produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    dataset_path = str(root / "traffic.npz")
    model_path = str(root / "model.json")
    assert main(["simulate", dataset_path, "--sessions", "6000", "--seed", "3"]) == 0
    assert main(["train", model_path, "--dataset", dataset_path]) == 0
    return dataset_path, model_path


def test_simulate_writes_loadable_dataset(artifacts):
    from repro.traffic.dataset import Dataset

    dataset_path, _ = artifacts
    dataset = Dataset.load(dataset_path)
    assert len(dataset) == 6000


def test_train_writes_model_json(artifacts):
    _, model_path = artifacts
    document = json.loads(Path(model_path).read_text())
    assert document["format_version"] == 1
    assert len(document["kmeans"]["centers"]) == 11
    assert document["accuracy"] > 0.97


def test_detect_runs(artifacts, capsys):
    dataset_path, model_path = artifacts
    assert main(["detect", model_path, dataset_path]) == 0
    out = capsys.readouterr().out
    assert "flagged" in out


def test_drift_runs(artifacts, capsys):
    dataset_path, model_path = artifacts
    assert main(["drift", model_path, dataset_path]) == 0
    out = capsys.readouterr().out
    assert "retraining needed" in out


def test_experiment_table2(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SESSIONS", "6000")
    assert main(["experiment", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Browser Polygraph" in out and "AmIUnique" in out


def test_figures_command(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SESSIONS", "6000")
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for needle in ("Figure 2", "Figure 3", "Figure 4", "Figure 5"):
        assert needle in out


def test_retrain_from_dataset(artifacts, tmp_path, capsys):
    dataset_path, model_path = artifacts
    output = str(tmp_path / "refreshed.json")
    assert main(
        ["retrain", model_path, "--dataset", dataset_path, "--output", output]
    ) == 0
    out = capsys.readouterr().out
    assert "retrained on 6000 sessions" in out
    document = json.loads(Path(output).read_text())
    assert document["format_version"] == 1


def test_retrain_requires_one_source(artifacts, capsys):
    _, model_path = artifacts
    assert main(["retrain", model_path]) == 2
    assert "--dataset or --log" in capsys.readouterr().err


def test_train_with_jobs_matches_serial(artifacts, tmp_path):
    dataset_path, model_path = artifacts
    parallel_path = str(tmp_path / "model-jobs.json")
    assert main(
        ["train", parallel_path, "--dataset", dataset_path, "--jobs", "2"]
    ) == 0
    serial = json.loads(Path(model_path).read_text())
    parallel = json.loads(Path(parallel_path).read_text())
    assert parallel["kmeans"]["centers"] == serial["kmeans"]["centers"]
    assert parallel["accuracy"] == serial["accuracy"]


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "table99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_rollout_cli_lifecycle(artifacts, tmp_path, capsys):
    from datetime import date

    from repro.core.pipeline import BrowserPolygraph
    from repro.core.retraining import ModelRegistry

    _, model_path = artifacts
    registry_dir = str(tmp_path / "registry")
    registry = ModelRegistry(registry_dir)
    pipeline = BrowserPolygraph.load(model_path)
    registry.promote(pipeline, date(2023, 7, 1), "bootstrap")
    registry.stage_candidate(pipeline, date(2023, 8, 1), "candidate")

    assert main(["rollout", registry_dir, "start", "--stages", "0.25,1.0"]) == 0
    out = capsys.readouterr().out
    assert "started in shadow" in out

    assert main(["rollout", registry_dir, "status"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "shadow"
    assert status["candidate_version"] == 2

    for expectation in ("canary stage 0", "canary stage 1", "is live"):
        assert main(["rollout", registry_dir, "promote"]) == 0
        assert expectation in capsys.readouterr().out
    assert registry.live_version == 2


def test_rollout_cli_abort_and_errors(artifacts, tmp_path, capsys):
    from datetime import date

    from repro.core.pipeline import BrowserPolygraph
    from repro.core.retraining import ModelRegistry

    _, model_path = artifacts
    registry_dir = str(tmp_path / "registry")

    # Status/abort before any rollout is a clean error, not a crash.
    assert main(["rollout", registry_dir, "status"]) == 2
    capsys.readouterr()

    registry = ModelRegistry(registry_dir)
    pipeline = BrowserPolygraph.load(model_path)
    registry.promote(pipeline, date(2023, 7, 1), "bootstrap")

    # No staged candidate yet.
    assert main(["rollout", registry_dir, "start"]) == 2
    capsys.readouterr()

    registry.stage_candidate(pipeline, date(2023, 8, 1), "candidate")
    assert main(["rollout", registry_dir, "start"]) == 0
    capsys.readouterr()
    assert main(["rollout", registry_dir, "abort"]) == 0
    assert "aborted" in capsys.readouterr().out
    assert registry.live_version == 1


def test_serve_requires_model_or_registry(capsys):
    assert main(["serve"]) == 2
    assert "--registry" in capsys.readouterr().err


def test_serve_parser_accepts_runtime_flags(artifacts):
    import argparse

    from repro.cli import _build_parser

    _, model_path = artifacts
    args = _build_parser().parse_args(
        [
            "serve",
            model_path,
            "--runtime",
            "--cache-entries", "512",
            "--cache-ttl", "60",
            "--port", "0",
        ]
    )
    assert isinstance(args, argparse.Namespace)
    assert args.runtime and args.cache_entries == 512 and args.cache_ttl == 60.0
    # The runtime has no queue, worker pool or batcher to tune.
    for flag in ("--workers", "--batch-size", "--linger-ms", "--queue-capacity"):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", model_path, "--runtime", flag, "2"])


def test_serve_parser_accepts_cluster_flags(artifacts):
    from repro.cli import _build_parser

    _, model_path = artifacts
    args = _build_parser().parse_args(
        [
            "serve",
            model_path,
            "--shards", "4",
            "--shard-backend", "process",
            "--affinity", "fingerprint",
            "--transport", "shm",
        ]
    )
    assert args.shards == 4
    assert args.shard_backend == "process"
    assert args.affinity == "fingerprint"
    # One way through the cluster: nothing to hedge, one transport, one
    # shard kind.
    for flag, value in (
        ("--hedge-ms", "5"), ("--transport", "pickle"), ("--shard-backend", "thread"),
        ("--ring-slots", "4096"),
    ):
        with pytest.raises(SystemExit) as refused:
            _build_parser().parse_args(
                ["serve", model_path, "--shards", "2", flag, value]
            )
        assert refused.value.code == 2


def test_build_cluster_serves_a_router(artifacts):
    import argparse

    from repro.cli import _build_cluster
    from repro.cluster import ClusterRouter
    from repro.core.pipeline import BrowserPolygraph

    _, model_path = artifacts
    pipeline = BrowserPolygraph.load(model_path)
    args = argparse.Namespace(
        shards=2, affinity="session", cache_entries=128, cache_ttl=60.0
    )
    router = _build_cluster(args, pipeline)
    try:
        assert isinstance(router, ClusterRouter)
        assert router.polygraph is pipeline
        status = router.cluster_status()
        assert status["n_shards"] == status["healthy_shards"] == 2
        assert all(
            shard.service.polygraph is pipeline
            and shard.service.cache.max_entries == 128
            for shard in router.supervisor.shards.values()
        )
    finally:
        router.shutdown()


def test_serve_exits_2_when_the_cluster_cannot_start(artifacts, tmp_path, capsys):
    """A torn model file: refused by name, before any shard is built."""
    _, model_path = artifacts
    torn = tmp_path / "torn.json"
    torn.write_bytes(Path(model_path).read_bytes()[:200])
    code = main(["serve", str(torn), "--shards", "2", "--shard-backend", "process"])
    assert code == 2
    captured = capsys.readouterr()
    (line,) = captured.err.strip().splitlines()
    assert line.startswith(f"serve: cannot read model: {torn}")
    assert "draining" not in captured.out


@pytest.mark.parametrize(
    "case",
    ["model", "rollout", "empty registry", "no live entry", "log"],
)
def test_serve_refuses_an_unreadable_file(artifacts, tmp_path, capsys, case):
    """Every file serve reads is refused by name with exit 2, never a
    traceback: torn files, and a registry with nothing to serve."""
    from datetime import date

    from repro.core.pipeline import BrowserPolygraph
    from repro.core.retraining import ModelRegistry
    from repro.rollout import RolloutState, save_state

    _, model_path = artifacts
    torn = tmp_path / "torn.json"
    torn.write_bytes(Path(model_path).read_bytes()[:200])
    registry = ModelRegistry(tmp_path / "registry")
    pipeline = BrowserPolygraph.load(model_path)
    if case == "model":
        argv, what, path = ["serve", str(torn)], "model", torn
    elif case == "log":
        path = tmp_path / "log" / "manifest.json"
        path.parent.mkdir()
        path.write_text('{"segments": [')
        argv = ["serve", model_path, "--log", str(path.parent)]
        what = "log"
    else:
        argv = ["serve", "--registry", str(registry.root)]
        what, path = "registry", registry.root / "registry.json"
        if case == "rollout":
            registry.promote(pipeline, date(2023, 7, 1), "bootstrap")
            path = registry.root / "rollout.json"
            save_state(RolloutState(2, 1, (1.0,), 0.5, "salt"), path)
            path.write_bytes(path.read_bytes()[:50])
            what = "rollout state"
        elif case == "no live entry":
            registry.stage_candidate(pipeline, date(2023, 7, 1), "staged only")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    (line,) = err.strip().splitlines()
    assert line.startswith(f"serve: cannot read {what}: {path}: "), line
    assert "draining" not in out


def test_serve_refuses_a_port_already_bound(artifacts, capsys):
    import gc
    import socket

    _, model_path = artifacts
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        try:
            code = main(["serve", model_path, "--port", str(port)])
        finally:
            gc.unfreeze()  # serve froze this process's heap
    assert code == 2
    out, err = capsys.readouterr()
    (line,) = err.strip().splitlines()
    assert line.startswith(f"serve: cannot listen on 127.0.0.1:{port}: "), line
    assert "draining" not in out


def test_serve_refuses_a_registry_on_process_shards(artifacts, tmp_path, capsys):
    """A registry's rollouts run on one process: serving it from shards
    would drop its rollout without a word."""
    from datetime import date

    from repro.core.pipeline import BrowserPolygraph
    from repro.core.retraining import ModelRegistry

    _, model_path = artifacts
    registry_dir = str(tmp_path / "registry")
    ModelRegistry(registry_dir).promote(
        BrowserPolygraph.load(model_path), date(2023, 7, 1), "bootstrap"
    )
    for shim in ([], ["--shard-backend", "process"]):
        code = main(["serve", "--registry", registry_dir, "--shards", "2", *shim])
        assert code == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("serve: --registry with --shards")


def test_serve_refuses_a_log_on_process_shards(artifacts, tmp_path, capsys):
    """The log is written by one process: the router would keep none."""
    _, model_path = artifacts
    assert main(["serve", model_path, "--shards", "2", "--log", str(tmp_path / "log")]) == 2
    out, err = capsys.readouterr()
    (line,) = err.strip().splitlines()
    assert line.startswith("serve: --log with --shards")
    assert not (tmp_path / "log").exists() and "draining" not in out


def test_importing_the_cli_leaves_the_experiment_suite_out():
    import os
    import subprocess
    import sys

    import repro

    probe = (
        "import sys, repro.cli; "
        "print('repro.analysis.experiments' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


def test_cluster_status_command_against_live_server(artifacts, capsys):
    from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
    from repro.core.pipeline import BrowserPolygraph
    from repro.service.aingest import AsyncIngestServer
    from repro.service.api import CollectionApp

    _, model_path = artifacts
    supervisor = ShardSupervisor(
        BrowserPolygraph.load(model_path),
        config=ClusterConfig(n_shards=2),
    )
    router = ClusterRouter(supervisor).start()
    try:
        with AsyncIngestServer(CollectionApp(router), port=0) as server:
            url = f"http://127.0.0.1:{server.port}"
            assert main(["cluster", "status", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "2/2 shards healthy" in out
        assert "s0" in out and "s1" in out
        assert "router: 0 requests (session affinity)\n" in out
        assert "restarts" not in out and "failovers" not in out
    finally:
        router.shutdown()


def test_cluster_status_reports_single_process_servers(artifacts, capsys):
    from repro.core.pipeline import BrowserPolygraph
    from repro.service.aingest import AsyncIngestServer
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    with AsyncIngestServer(CollectionApp(service), port=0) as server:
        url = f"http://127.0.0.1:{server.port}"
        assert main(["cluster", "status", "--url", url]) == 1
    assert "single-process" in capsys.readouterr().out


def test_cluster_status_unreachable_server(capsys):
    assert main(["cluster", "status", "--url", "http://127.0.0.1:1"]) == 2
    assert "cannot reach" in capsys.readouterr().err


def test_serve_parser_accepts_coverage_flag(artifacts):
    from repro.cli import _build_parser

    _, model_path = artifacts
    args = _build_parser().parse_args(["serve", model_path, "--coverage"])
    assert args.coverage is True
    args = _build_parser().parse_args(["serve", model_path])
    assert args.coverage is False


def test_coverage_status_command_against_live_server(artifacts, capsys):
    from repro.core.pipeline import BrowserPolygraph
    from repro.coverage import CoverageTracker
    from repro.service.aingest import AsyncIngestServer
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    tracker = CoverageTracker()
    service.attach_coverage(tracker)
    app = CollectionApp(service, coverage=tracker)
    with AsyncIngestServer(app, port=0) as server:
        url = f"http://127.0.0.1:{server.port}"
        assert main(["coverage", "status", "--url", url]) == 0
    out = capsys.readouterr().out
    assert "known releases" in out
    assert "chrome" in out and "firefox" in out


def test_coverage_status_reports_untracked_server(artifacts, capsys):
    from repro.core.pipeline import BrowserPolygraph
    from repro.service.aingest import AsyncIngestServer
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    with AsyncIngestServer(CollectionApp(service), port=0) as server:
        url = f"http://127.0.0.1:{server.port}"
        assert main(["coverage", "status", "--url", url]) == 1
    assert "without coverage" in capsys.readouterr().out


def test_coverage_status_unreachable_server(capsys):
    assert main(["coverage", "status", "--url", "http://127.0.0.1:1"]) == 2
    assert "cannot reach" in capsys.readouterr().err


def test_serve_drains_on_sigterm(artifacts):
    import os
    import signal
    import threading
    import time
    from urllib.request import urlopen

    from repro.cli import _serve_until_signalled
    from repro.core.pipeline import BrowserPolygraph
    from repro.runtime.service import RuntimeScoringService
    from repro.service.aingest import AsyncIngestServer
    from repro.service.api import CollectionApp

    _, model_path = artifacts
    service = RuntimeScoringService(BrowserPolygraph.load(model_path))
    server = AsyncIngestServer(CollectionApp(service), host="127.0.0.1", port=0)
    announced = threading.Event()
    answered = []

    def _fire():
        # Prove the server answers, then deliver a real SIGTERM.
        try:
            if announced.wait(10.0):
                with urlopen(
                    f"http://127.0.0.1:{server.port}/health", timeout=5.0
                ) as response:
                    answered.append(response.status)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=_fire, daemon=True).start()
    before = signal.getsignal(signal.SIGTERM)
    started = time.monotonic()
    _serve_until_signalled(server, announced.set)  # returns on the signal
    service.shutdown()
    assert answered == [200]
    assert time.monotonic() - started < 10.0
    assert signal.getsignal(signal.SIGTERM) is before
    # The listener is closed: nothing answers on the port any more.
    with pytest.raises(OSError):
        urlopen(f"http://127.0.0.1:{server.port}/health", timeout=2.0)


def test_serve_builds_the_runtime_behind_the_asyncio_front_end(
    artifacts, monkeypatch, capsys
):
    import gc

    import repro.cli as cli
    from repro.runtime.service import RuntimeScoringService
    from repro.service.aingest import AsyncIngestServer

    built = []
    monkeypatch.setattr(
        cli, "_serve_until_signalled", lambda server, announce: built.append(server)
    )
    _, model_path = artifacts
    try:
        code = main(
            ["serve", model_path, "--cache-entries", "128", "--cache-ttl", "60"]
        )
    finally:
        gc.unfreeze()  # serve froze this process's heap
    assert code == 0
    (server,) = built
    assert isinstance(server, AsyncIngestServer)
    service = server.app.service
    assert isinstance(service, RuntimeScoringService)
    assert service.cache.max_entries == 128
    assert service.cache.ttl_seconds == 60.0
    assert "draining in-flight requests" in capsys.readouterr().out
