"""``serve`` boots end to end: one process, one stack, every layer on.

The real entry point runs in a child process on a port the kernel
picks (``--port 0``; the banner names the bound one) and is driven over
sockets: the asyncio front end over the batched runtime, with a
registry's resumed rollout, session streams, coverage and the serve log
composed on one process; its ``/metrics`` scrape is a well-formed
exposition holding every key the end-to-end benchmark reads.  SIGTERM
drains it, the log's buffered rows are sealed onto disk, and it exits
0.  Behind ``--shards``, with the flags the end-to-end benchmark
passes, it is still one process.  Then the paper's loop, through real
processes: ``serve --log``
collects, ``retrain --log`` refits on what it collected, and ``serve``
answers from the refitted model.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import socket
import subprocess
import sys
import threading
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.retraining import ModelRegistry
from repro.service.log import COLUMNS, SegmentLog
from repro.traffic.events import (
    EventStreamConfig,
    EventType,
    SessionEvent,
    build_event_streams,
)
from repro.traffic.replay import iter_wire_payloads
from repro.core.pipeline import BrowserPolygraph
from repro.service.scoring import ScoringService
from tests.exposition_check import (
    HARNESS_KEYS_CLUSTER,
    HARNESS_KEYS_ONE_PROCESS,
    missing_harness_keys,
    samples,
    violations,
)

_SRC = str(Path(repro.__file__).resolve().parent.parent)
_BANNER = re.compile(r"^serving (.*) scoring on http://127\.0\.0\.1:(\d+) ")


def _env():
    """This environment, with the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class _Server:
    """``python -m repro serve ARGS`` in a child, its stdout read by a thread."""

    def __init__(self, args) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args,
             "--host", "127.0.0.1", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_env(),
            text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.printed = []
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line)
        self.lines.put("")

    def banner(self):
        """``(mode, port)`` from the line printed once the port listens."""
        while True:
            line = self.lines.get(timeout=60.0)
            self.printed.append(line)
            assert line, "serve exited before listening: " + "".join(self.printed)
            match = _BANNER.match(line)
            if match:
                return match.group(1), int(match.group(2))

    def stop(self) -> str:
        """SIGTERM; what it printed from the banner on."""
        self.process.send_signal(signal.SIGTERM)
        assert self.process.wait(timeout=30.0) == 0
        while True:
            line = self.lines.get(timeout=10.0)
            if not line:
                return "".join(self.printed)
            self.printed.append(line)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)
        self.process.stdout.close()


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _logged(log_dir):
    """The rows a serve log holds, as dicts."""
    return [
        {name: columns[name][i].tolist() for name in COLUMNS}
        for columns in SegmentLog(log_dir).segments()
        for i in range(len(columns["sid"]))
    ]


def _collect_all(port, wires):
    """POST every wire to /collect on one keep-alive connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        statuses = []
        for wire in wires:
            conn.request("POST", "/collect", body=wire)
            response = conn.getresponse()
            response.read()
            statuses.append(response.status)
        return statuses
    finally:
        conn.close()


@pytest.fixture(scope="module")
def wire_fields(small_dataset):
    return json.loads(next(iter_wire_payloads(small_dataset, 1)))


def test_serve_composes_every_layer_on_one_process(
    trained, wire_fields, tmp_path
):
    registry_dir = str(tmp_path / "registry")
    registry = ModelRegistry(registry_dir)
    registry.promote(trained, date(2023, 7, 1), "bootstrap")
    registry.stage_candidate(trained, date(2023, 8, 1), "candidate")
    assert main(["rollout", registry_dir, "start", "--stages", "0.25,1.0"]) == 0
    assert main(["rollout", registry_dir, "promote"]) == 0  # canary stage 0

    log_dir = tmp_path / "events"
    server = _Server(
        ["--registry", registry_dir,
         "--session-ttl", "60", "--log", str(log_dir), "--coverage"]
    )
    try:
        mode, port = server.banner()
        assert mode.startswith("runtime (batched), session streams")
        assert "resumed rollout of v2 (canary, stage 0)\n" in server.printed

        wire = json.dumps(dict(wire_fields, sid="boot-collect")).encode()
        status, body = _request(port, "POST", "/collect", wire)
        assert status == 202 and json.loads(body)["accepted"], body

        event = SessionEvent(
            "boot-event", EventType.PAGE_LOAD, 0, 1.0, wire_fields["ua"],
            tuple(wire_fields["f"]),
        )
        status, body = _request(port, "POST", "/event", event.to_wire())
        assert status == 202 and json.loads(body)["session_created"], body

        status, body = _request(port, "GET", "/rollout")
        rollout = json.loads(body)
        assert status == 200
        assert (rollout["status"], rollout["candidate_version"]) == ("canary", 2)

        status, body = _request(port, "GET", "/coverage")
        assert status == 200

        assert _request(port, "POST", "/collect", b"\x00 not json")[0] == 400
        status, body = _request(port, "GET", "/metrics")
        text = body.decode()
        assert violations(text) == []
        assert missing_harness_keys(text, HARNESS_KEYS_ONE_PROCESS) == []
        reported = samples(text)
        assert "polygraph_ingest_requests" in reported  # the asyncio front end
        assert 'polygraph_runtime_batch_size{quantile="0.5"}' in reported
        assert reported["polygraph_session_events_total"] == 1
        assert reported["polygraph_rollout_in_flight"] == 1
        assert reported["polygraph_log_rows_appended_total"] == 2
        assert reported["polygraph_log_rows_buffered"] == 2

        printed = server.stop()
        assert "draining in-flight requests before exit\n" in printed
    finally:
        server.kill()
    # The drain sealed the two buffered rows: they are on disk.
    assert [(r["sid"], r["kind"], r["seq"]) for r in _logged(log_dir)] == [
        ("boot-collect", "collect", -1), ("boot-event", "page_load", 0),
    ]

    # The threaded WSGI front end is gone.
    with pytest.raises(SystemExit) as refused:
        main(["serve", registry_dir, "--ingest", "sync"])
    assert refused.value.code == 2


def test_serve_with_no_flags_is_the_runtime_behind_the_asyncio_front_end(
    trained, wire_fields, tmp_path
):
    model_path = str(tmp_path / "model.json")
    trained.save(model_path)
    server = _Server([model_path])
    try:
        mode, port = server.banner()
        assert mode == "runtime (batched)"
        wire = json.dumps(dict(wire_fields, sid="plain-collect")).encode()
        assert _request(port, "POST", "/collect", wire)[0] == 202
        assert _request(port, "POST", "/check", wire)[0] == 404  # no such endpoint
        text = _request(port, "GET", "/metrics")[1].decode()
        assert "polygraph_ingest_collect_requests 1" in text
        assert "polygraph_runtime_" in text
        assert "draining in-flight requests before exit\n" in server.stop()
    finally:
        server.kill()


# ``benchmarks/e2e``'s cluster workloads pass exactly these.
_BENCHMARK_CLUSTER_FLAGS = [
    "--shards", "2", "--shard-backend", "process", "--transport", "shm",
    "--affinity", "fingerprint", "--ingest", "async",
]


def _children(pid):
    """Every live process whose parent is ``pid``, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, parent = stat[stat.rindex(")") + 2 :].split()[:2]
        if int(parent) == pid and state not in ("Z", "X"):
            children.append(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_the_benchmark_cluster_flags_serve_from_one_process(
    trained, wire_fields, tmp_path
):
    """No child process and no shared-memory mapping; ``/collect``
    answers the reference verdict; the scrape and ``/cluster`` carry
    what the benchmark reads of a cluster; SIGTERM exits 0 and leaves
    the port refusing connections.  The removed ``--ring-slots`` is an
    argparse error."""
    model_path = str(tmp_path / "model.json")
    trained.save(model_path)
    server = _Server([model_path, *_BENCHMARK_CLUSTER_FLAGS])
    try:
        mode, port = server.banner()
        assert mode == "cluster (2 shards, fingerprint affinity)"
        pid = server.process.pid
        assert _children(pid) == []
        assert "/dev/shm/" not in Path(f"/proc/{pid}/maps").read_text()

        reference = ScoringService(BrowserPolygraph.load(model_path))
        for number in range(20):
            wire = json.dumps(
                dict(wire_fields, sid=f"flags-{number % 12}"), separators=(",", ":")
            ).encode()
            expected = reference.score_wire(wire)
            status, body = _request(port, "POST", "/collect", wire)
            answer = json.loads(body)
            assert status == (202 if expected.accepted else 400), body
            assert (answer["accepted"], answer["flagged"], answer["risk_factor"]) == (
                expected.accepted, expected.flagged, expected.risk_factor
            )
            assert answer.get("reject_reason") == expected.reject_reason

        text = _request(port, "GET", "/metrics")[1].decode()
        assert violations(text) == []
        collect_keys = [
            key for key in HARNESS_KEYS_CLUSTER
            if not key.startswith("polygraph_session_")
        ]
        assert missing_harness_keys(text, collect_keys) == []
        reported = samples(text)
        assert reported["polygraph_cluster_shards"] == 2
        assert sum(
            value for key, value in reported.items()
            if key.startswith("polygraph_transport_cache_")
        ) == 12  # one probe per admitted wire: the 8 replays are rejected first
        status, body = _request(port, "GET", "/cluster")
        cluster = json.loads(body)
        assert status == 200
        # One fingerprint, so one partition holds its one entry.
        held = [s["cache_entries"] for s in cluster["transport_stats"].values()]
        assert sorted(held) == [0, 1]
        assert _children(pid) == []
        assert "draining in-flight requests before exit\n" in server.stop()
    finally:
        server.kill()
    # Nothing of the server outlives it: its port refuses at once.
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5.0).close()

    refused = subprocess.run(
        [sys.executable, "-m", "repro", "serve", model_path,
         *_BENCHMARK_CLUSTER_FLAGS, "--ring-slots", "4096"],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert refused.returncode == 2
    assert "--ring-slots" in refused.stderr


def test_serve_log_then_retrain_then_serve_closes_the_loop(
    trained, small_dataset, tmp_path
):
    """Collect, retrain on what was collected, detect: every step a
    process of its own, joined by the log directory alone."""
    model_path = str(tmp_path / "model.json")
    trained.save(model_path)
    log_dir = tmp_path / "log"
    wires = list(iter_wire_payloads(small_dataset, 600))
    streams = build_event_streams(small_dataset, EventStreamConfig(seed=5))[:20]
    server = _Server([model_path, "--log", str(log_dir), "--session-ttl", "60"])
    try:
        _, port = server.banner()
        assert set(_collect_all(port, wires)) == {202}
        for stream in streams:
            for event in stream.events:
                status, body = _request(port, "POST", "/event", event.to_wire())
                assert status in (202, 400), body
        assert "draining in-flight requests before exit\n" in server.stop()
    finally:
        server.kill()
    logged = _logged(log_dir)
    collected = [r for r in logged if r["kind"] == "collect"]
    assert len(collected) == 600
    assert len(logged) > 600  # the events are in the log too
    exported = SegmentLog(log_dir).export_dataset()
    assert len(exported) == 600  # ... but only /collect rows train
    assert exported.days.min() >= np.datetime64("2000-01-01")  # no 1970 row

    refitted = str(tmp_path / "refitted.json")
    retrain = subprocess.run(
        [sys.executable, "-m", "repro", "retrain", model_path,
         "--log", str(log_dir), "--output", refitted],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert retrain.returncode == 0, retrain.stderr
    assert "retrained on 600 sessions" in retrain.stdout

    server = _Server([refitted])
    try:
        _, port = server.banner()
        wire = json.loads(wires[0])
        wire["sid"] = "after-retrain"
        status, body = _request(port, "POST", "/collect", json.dumps(wire).encode())
        assert status == 202 and json.loads(body)["accepted"], body
        server.stop()
    finally:
        server.kill()


def test_serve_log_without_sessions_logs_the_collect_rows(
    trained, small_dataset, tmp_path
):
    model_path = str(tmp_path / "model.json")
    trained.save(model_path)
    log_dir = tmp_path / "log"
    server = _Server([model_path, "--log", str(log_dir)])
    try:
        mode, port = server.banner()
        assert mode == "runtime (batched), log"
        wires = list(iter_wire_payloads(small_dataset, 5))
        assert _collect_all(port, wires + [b"not json"]) == [202] * 5 + [400]
        server.stop()
    finally:
        server.kill()
    assert [r["sid"] for r in _logged(log_dir)] == [
        json.loads(w)["sid"] for w in wires
    ]
