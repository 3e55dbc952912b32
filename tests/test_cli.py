"""CLI end-to-end tests (via the in-process entry point)."""

import json

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
    document = json.loads(open(model_path).read())
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
    document = json.loads(open(output).read())
    assert document["format_version"] == 1


def test_retrain_requires_one_source(artifacts, capsys):
    _, model_path = artifacts
    assert main(["retrain", model_path]) == 2
    assert "--dataset or --store" in capsys.readouterr().err


def test_store_info_and_migrate(tmp_path, capsys):
    from datetime import date

    from repro.browsers.profiles import BrowserProfile
    from repro.browsers.useragent import Vendor
    from repro.fingerprint.script import CollectionScript
    from repro.service.storage import SessionStore

    root = tmp_path / "store"
    store = SessionStore(root)
    profile = BrowserProfile(Vendor.CHROME, 112)
    for i in range(4):
        store.append(
            CollectionScript().run(
                profile.environment(), profile.user_agent(), f"cli-{i}"
            ),
            day=date(2023, 5, 2),
        )
    store.flush()

    assert main(["store", "info", str(root)]) == 0
    assert "4 records" in capsys.readouterr().out
    assert main(["store", "migrate", str(root)]) == 0
    assert "sealed 1 segment" in capsys.readouterr().out
    assert main(["store", "migrate", str(root)]) == 0
    assert "no JSONL segments" in capsys.readouterr().out

    dataset = SessionStore(root).export_dataset()
    assert len(dataset) == 4


def test_train_with_jobs_matches_serial(artifacts, tmp_path):
    dataset_path, model_path = artifacts
    parallel_path = str(tmp_path / "model-jobs.json")
    assert main(
        ["train", parallel_path, "--dataset", dataset_path, "--jobs", "2"]
    ) == 0
    serial = json.loads(open(model_path).read())
    parallel = json.loads(open(parallel_path).read())
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
            "--shard-backend", "thread",
            "--affinity", "fingerprint",
            "--transport", "shm",
        ]
    )
    assert args.shards == 4
    assert args.shard_backend == "thread"
    assert args.affinity == "fingerprint"
    # One way through the cluster: nothing to hedge, one transport.
    for flag, value in (("--hedge-ms", "5"), ("--transport", "pickle")):
        with pytest.raises(SystemExit) as refused:
            _build_parser().parse_args(
                ["serve", model_path, "--shards", "2", flag, value]
            )
        assert refused.value.code == 2


def test_build_cluster_serves_a_router(artifacts):
    import argparse

    from repro.cli import _build_cluster
    from repro.cluster import ClusterRouter

    _, model_path = artifacts
    args = argparse.Namespace(
        model=model_path, shards=2, shard_backend="thread",
        affinity="session", cache_entries=128, cache_ttl=60.0, ring_slots=256,
    )
    router = _build_cluster(args)
    try:
        assert isinstance(router, ClusterRouter)
        assert router.supervisor.healthy_count == 2
        assert router.cluster_status()["n_shards"] == 2
    finally:
        router.shutdown()


def test_serve_exits_2_when_the_cluster_cannot_start(
    artifacts, capsys, monkeypatch
):
    import repro.cluster.supervisor as supervisor_mod

    def no_shm(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(supervisor_mod, "ShmSlab", no_shm)
    _, model_path = artifacts
    code = main(["serve", model_path, "--shards", "2", "--shard-backend", "process"])
    assert code == 2
    captured = capsys.readouterr()
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("serve: cannot start cluster: shard s0 ")
    assert "No space left on device" in line


def test_serve_refuses_a_registry_on_process_shards(artifacts, tmp_path, capsys):
    """A registry's rollouts run on one process: serving it from shards
    of either backend would drop its rollout without a word."""
    from datetime import date

    from repro.core.pipeline import BrowserPolygraph
    from repro.core.retraining import ModelRegistry

    _, model_path = artifacts
    registry_dir = str(tmp_path / "registry")
    ModelRegistry(registry_dir).promote(
        BrowserPolygraph.load(model_path), date(2023, 7, 1), "bootstrap"
    )
    for backend in ("process", "thread"):
        code = main(
            ["serve", "--registry", registry_dir, "--shards", "2",
             "--shard-backend", backend]
        )
        assert code == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("serve: --registry with --shards")
        assert "--runtime" in line


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
    import threading
    from wsgiref.simple_server import make_server

    from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
    from repro.core.pipeline import BrowserPolygraph
    from repro.service.api import CollectionApp

    _, model_path = artifacts
    supervisor = ShardSupervisor.from_polygraph(
        BrowserPolygraph.load(model_path),
        config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0),
    )
    router = ClusterRouter(supervisor).start()
    httpd = make_server("127.0.0.1", 0, CollectionApp(router))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_port}"
        assert main(["cluster", "status", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "2/2 shards healthy" in out
        assert "s0" in out and "s1" in out
        assert (
            "router: 0 requests (session affinity), 0 failovers, 0 unroutable"
            in out
        )
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()
        router.shutdown()


def test_cluster_status_reports_single_process_servers(artifacts, capsys):
    import threading
    from wsgiref.simple_server import make_server

    from repro.core.pipeline import BrowserPolygraph
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    httpd = make_server("127.0.0.1", 0, CollectionApp(service))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_port}"
        assert main(["cluster", "status", "--url", url]) == 1
        assert "single-process" in capsys.readouterr().out
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


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
    import threading
    from wsgiref.simple_server import make_server

    from repro.core.pipeline import BrowserPolygraph
    from repro.coverage import CoverageTracker
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    tracker = CoverageTracker()
    service.attach_coverage(tracker)
    httpd = make_server(
        "127.0.0.1", 0, CollectionApp(service, coverage=tracker)
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_port}"
        assert main(["coverage", "status", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "known releases" in out
        assert "chrome" in out and "firefox" in out
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


def test_coverage_status_reports_untracked_server(artifacts, capsys):
    import threading
    from wsgiref.simple_server import make_server

    from repro.core.pipeline import BrowserPolygraph
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    httpd = make_server("127.0.0.1", 0, CollectionApp(service))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_port}"
        assert main(["coverage", "status", "--url", url]) == 1
        assert "without coverage" in capsys.readouterr().out
    finally:
        httpd.shutdown()
        thread.join(timeout=5)
        httpd.server_close()


def test_coverage_status_unreachable_server(capsys):
    assert main(["coverage", "status", "--url", "http://127.0.0.1:1"]) == 2
    assert "cannot reach" in capsys.readouterr().err


def test_serve_drains_on_sigterm(artifacts):
    import os
    import signal
    import threading
    import time
    from urllib.request import urlopen
    from wsgiref.simple_server import make_server

    from repro.cli import _serve_until_signalled
    from repro.core.pipeline import BrowserPolygraph
    from repro.service.api import CollectionApp
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    service = ScoringService(BrowserPolygraph.load(model_path))
    with make_server("127.0.0.1", 0, CollectionApp(service)) as httpd:
        port = httpd.server_port

        def _fire():
            # Prove the server answers, then deliver a real SIGTERM.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    with urlopen(
                        f"http://127.0.0.1:{port}/health", timeout=2.0
                    ) as response:
                        assert response.status == 200
                    break
                except OSError:
                    time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=_fire, daemon=True).start()
        before = signal.getsignal(signal.SIGTERM)
        _serve_until_signalled(httpd)  # returns only because of the signal
        assert signal.getsignal(signal.SIGTERM) is before


def test_build_service_selects_runtime(artifacts):
    import argparse

    from repro.cli import _build_service
    from repro.core.pipeline import BrowserPolygraph
    from repro.runtime.service import RuntimeScoringService
    from repro.service.scoring import ScoringService

    _, model_path = artifacts
    pipeline = BrowserPolygraph.load(model_path)
    base = argparse.Namespace(
        runtime=False, cache_entries=128, cache_ttl=60.0,
    )
    assert isinstance(_build_service(pipeline, base), ScoringService)
    base.runtime = True
    service = _build_service(pipeline, base)
    try:
        assert isinstance(service, RuntimeScoringService)
        assert service.cache.max_entries == 128
        assert service.cache.ttl_seconds == 60.0
    finally:
        service.shutdown()
