"""``serve`` boots end to end: one process, one stack, every layer on.

The real entry point runs in a child process on a port the kernel
picks (``--port 0``; the banner names the bound one) and is driven over
sockets: the asyncio front end over the batched runtime, with a
registry's resumed rollout, session streams with their event log and
coverage composed on one process; its ``/metrics`` scrape is a
well-formed exposition holding every key the end-to-end benchmark
reads.  SIGTERM drains it, the log's buffered events are sealed onto
disk, and it exits 0.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
from datetime import date
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.retraining import ModelRegistry
from repro.sessions import SessionEventLog
from repro.traffic.events import EventType, SessionEvent
from repro.traffic.replay import iter_wire_payloads
from tests.exposition_check import (
    HARNESS_KEYS_ONE_PROCESS,
    missing_harness_keys,
    samples,
    violations,
)

_SRC = str(Path(repro.__file__).resolve().parent.parent)
_BANNER = re.compile(r"^serving (.*) scoring on http://127\.0\.0\.1:(\d+) ")


class _Server:
    """``python -m repro serve ARGS`` in a child, its stdout read by a thread."""

    def __init__(self, args) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args,
             "--host", "127.0.0.1", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
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
         "--session-ttl", "60", "--session-log", str(log_dir), "--coverage"]
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

        printed = server.stop()
        assert "draining in-flight requests before exit\n" in printed
    finally:
        server.kill()
    # The drain sealed the one buffered event: it is on disk.
    logged = SessionEventLog(log_dir).window(seconds=1e12)
    assert [(r["sid"], r["seq"]) for r in logged] == [("boot-event", 0)]

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
