"""Async ingest front end: real sockets, ordering, backpressure.

Exercises :class:`~repro.service.aingest.AsyncIngestServer` the way a
client sees it — over TCP — pinning the contract the front end claims:
``POST /collect`` verdicts match the reference byte-for-field, every
other endpoint is the app's handler's answer, responses on one
connection come back in request order even with pipelining, framing
that cannot be trusted is refused and the connection closed, and both
kinds of backpressure (too much admitted; a client that does not read)
stop the reading instead of shedding work or growing memory.
``POST /event`` is held to the same contract on its own batch path:
answers byte-identical to the frozen reference, a session's pipelined
events folded in the order they were sent, one batch in flight,
backpressure.

Where the bytes on the wire or the number of writes matter, the
connection protocol is driven directly on the server's loop with a
recording transport: what arrives in which fragment is then exact.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import http.client
import itertools
import json
import select
import socket
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.metrics import Exposition
from repro.service import aingest
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.ingest import RejectReason
from repro.service.scoring import (
    OVERLOADED_REASON,
    ScoringService,
    Verdict,
    overloaded_verdict,
)
from repro.sessions import SessionScoringService
from repro.sessions import service as session_service
from repro.traffic.events import (
    EventStreamConfig,
    EventType,
    SessionEvent,
    StreamScenario,
    build_event_streams,
)
from repro.traffic.replay import iter_wire_payloads
from tests.exposition_check import samples, violations
from tests.oracle import POISON_BODIES, check
from tests.parent_render import (
    parent_bridge,
    parent_metrics,
    parent_render_event,
    parent_render_verdict,
)


@pytest.fixture(scope="module")
def wires(small_dataset):
    return [w for _, w in zip(range(200), iter_wire_payloads(small_dataset))]


def _serve(service, **kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)  # ephemeral
    return AsyncIngestServer(CollectionApp(service), **kwargs)


def _request(port, method, path, body=b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def _pipeline(port, requests, timeout=15.0):
    """Send raw pipelined requests; return responses in arrival order."""
    rendered = b"".join(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        + body
        for method, path, body in requests
    )
    responses = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(rendered)
        buffer = b""
        while len(responses) < len(requests):
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise AssertionError(
                        f"connection closed after {len(responses)} responses"
                    )
                buffer += chunk
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            length = next(
                int(line.partition(":")[2])
                for line in header_lines
                if line.lower().startswith("content-length:")
            )
            while len(buffer) < length:
                buffer += sock.recv(65536)
            responses.append((status_line, buffer[:length]))
            buffer = buffer[length:]
    return responses


class TestCollectParity:
    def test_collect_verdicts_match_the_reference(self, oracle_world):
        """Forty simulator rows, over a socket and the batch paths: the
        reference's bytes."""
        check(oracle_world, collects=[("row", n) for n in range(40)], cuts=[40])

    def test_malformed_wire_is_400_with_reason(self, trained):
        with _serve(ScoringService(trained)) as server:
            status, _, payload = _request(
                server.port, "POST", "/collect", b"\x00 not json"
            )
            assert status == 400
            assert json.loads(payload)["reject_reason"] == "malformed"

    def test_overloaded_service_maps_to_503_with_retry_after(self):
        class Saturated:
            scored_count = 0
            flagged_count = 0

            def score_many(self, wires):
                return [overloaded_verdict() for _ in wires]

        with _serve(Saturated()) as server:
            status, headers, payload = _request(
                server.port, "POST", "/collect", b'{"sid":"x"}'
            )
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert json.loads(payload)["reject_reason"] == OVERLOADED_REASON

    def test_post_without_length_is_411(self, trained):
        with _serve(ScoringService(trained)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"POST /collect HTTP/1.1\r\nHost: t\r\n\r\n")
                reply = sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 411")


class TestPoisonBody:
    """One hostile body must not fail the 255 requests coalesced with it."""

    @pytest.mark.parametrize("poison", sorted(POISON_BODIES))
    def test_poison_is_400_and_its_neighbours_are_served(self, oracle_world, poison):
        rows = [("row", i) for i in range(255)]
        reference = check(
            oracle_world,
            collects=rows[:128] + [("poison", sorted(POISON_BODIES).index(poison))]
            + rows[128:],
            cuts=[256],
        )["reference"]
        assert reference.service.validator.quarantine.counts() == {
            RejectReason.MALFORMED: 1
        }


class TestWsgiPassthrough:
    def test_health_and_metrics_serve_through_the_bridge(
        self, trained, wires
    ):
        with _serve(ScoringService(trained)) as server:
            _request(server.port, "POST", "/collect", wires[0])
            status, _, payload = _request(server.port, "GET", "/health")
            assert status == 200
            assert json.loads(payload)["status"] == "ok"
            status, _, payload = _request(server.port, "GET", "/metrics")
            assert status == 200
            text = payload.decode()
            # The app's series and this server's own, merged.
            assert "polygraph_sessions_scored" in text
            assert "polygraph_ingest_requests" in text
            assert "polygraph_ingest_collect_requests 1" in text

    def test_unknown_path_is_the_apps_404(self, trained):
        with _serve(ScoringService(trained)) as server:
            status, _, _ = _request(server.port, "GET", "/nope")
            assert status == 404


class _Part:
    """A rollout, cluster, coverage tracker or session layer answering
    from fixed documents."""

    def __init__(self, name):
        self.name = name

    def status_dict(self):
        return {"part": self.name}

    def collect(self, out):
        out.gauge(f"polygraph_{self.name}_part", 1)

    @property
    def parent_samples(self):
        return {f"polygraph_{self.name}_part": 1.0}

    def session_snapshot(self, session_id):
        return {"session_id": session_id} if session_id == "known" else None


def _app(trained, kind):
    """The bare app, or one with every optional part attached."""
    service = ScoringService(trained)
    if kind == "bare":
        return CollectionApp(service)
    service.rollout = _Part("rollout")
    service.cluster_status = _Part("cluster").status_dict
    return CollectionApp(service, sessions=_Part("sessions"), coverage=_Part("coverage"))


# ``/fusion`` and ``/check`` are gone: they answer as ``/nope`` does.
_GETS = ["/health", "/metrics", "/rollout", "/cluster", "/fusion", "/coverage",
         "/sessions", "/session/known", "/session/nope", "/nope"]
_HANDLED = [(kind, "GET", path, b"") for path in _GETS for kind in ("attached", "bare")]
_HANDLED += [
    ("bare", "POST", "/check", b"{}"),
    ("attached", "POST", "/check", b"not json"),
    ("attached", "POST", "/event", b""),
    ("bare", "POST", "/event", b"{}"),
    ("attached", "POST", "/collect", b""),
]


class TestHandledEndpoints:
    @pytest.mark.parametrize(
        "kind, method, path, body", _HANDLED,
        ids=[f"{k}-{m}-{p}-{len(b)}" for k, m, p, b in _HANDLED],
    )
    def test_answers_equal_the_parent_bridge(self, trained, kind, method, path, body):
        """Status line, header order and body of every answer the batch
        paths do not give, keep-alive and close, equal the frozen
        bridge's; ``/metrics`` as the parent's sample map, read when the
        scrape read the front end, in a well-formed exposition."""
        app = _app(trained, kind)
        with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
            scraped, own = [], server.collect

            def collect(out):
                scraped.append(parent_metrics(app, server))
                own(out)

            server.collect = collect
            raw = _http(method, path, body) + _http(
                method, path, body, ["Connection: close"]
            )
            reply = _exchange(server.port, raw)
        if path != "/metrics":
            assert reply == b"".join(
                parent_bridge(app, method, path, keep_alive)
                for keep_alive in (True, False)
            )
            return
        answers = _responses(reply)
        assert len(answers) == len(scraped) == 2
        for (status, headers, text), expected, keep_alive in zip(
            answers, scraped, ("keep-alive", "close")
        ):
            assert (status, headers["Content-Type"], headers["Connection"]) == (
                200, "text/plain; version=0.0.4", keep_alive
            )
            assert violations(text.decode()) == []
            assert samples(text.decode()) == expected


class TestKeepAliveOrdering:
    def test_pipelined_responses_arrive_in_request_order(
        self, trained, wires
    ):
        good, bad = wires[0], b"\x00 not json"
        with _serve(ScoringService(trained)) as server:
            responses = _pipeline(
                server.port,
                [
                    ("POST", "/collect", good),
                    ("POST", "/collect", bad),
                    ("GET", "/health", b""),
                    ("POST", "/collect", wires[1]),
                ],
            )
        statuses = [line.split(" ", 1)[1] for line, _ in responses]
        assert statuses[0].startswith("202")
        assert statuses[1].startswith("400")
        assert statuses[2].startswith("200")
        assert statuses[3].startswith("202")

    def test_connection_close_is_honored(self, trained, wires):
        with _serve(ScoringService(trained)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                body = wires[2]
                sock.sendall(
                    b"POST /collect HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                # The server must answer, then actually close: recv
                # draining to EOF (instead of blocking on a kept-alive
                # socket) is the proof.
                reply = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 202")


class TestShutdown:
    def test_a_client_accepted_while_the_server_closes_is_closed_with_it(self):
        """Clients connect while the loop is held, and the stop is queued
        before the loop sees them, so their accepts and the close fall in
        the same turn of the loop.  Each is closed with the server, and
        no socket or transport is left to warn (CI runs this under
        ``-W error``)."""
        server = _serve(_Canned()).start()
        held, release = threading.Event(), threading.Event()

        def hold():
            held.set()
            release.wait(10.0)

        server._loop.call_soon_threadsafe(hold)
        assert held.wait(10.0)
        clients = [
            socket.create_connection(("127.0.0.1", server.port), timeout=10)
            for _ in range(4)
        ]
        try:
            server._loop.call_soon_threadsafe(server._request_stop)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                release.set()
                server.close()
                gc.collect()
            assert [str(w.message) for w in caught] == []
            assert server.open_connections == 0
            for client in clients:
                try:
                    assert client.recv(1) == b""
                except ConnectionResetError:
                    pass
        finally:
            for client in clients:
                client.close()


class TestBatchingAndBackpressure:
    def test_concurrent_collects_coalesce_into_batches(
        self, trained, wires
    ):
        sample = wires[:30]
        with _serve(
            ScoringService(trained), batch_max=64, linger_ms=20.0
        ) as server:
            responses = _pipeline(
                server.port,
                [("POST", "/collect", w) for w in sample],
                timeout=30.0,
            )
            assert all(
                line.split(" ", 1)[1].startswith("202")
                for line, _ in responses
            )
            assert server.batch_rows_total == len(sample)
            # The linger let pipelined wires pile into shared batches.
            assert server.batches_total < len(sample)

    def test_high_watermark_pauses_reads_without_shedding(
        self, trained, wires
    ):
        inner = ScoringService(trained)

        class Slow:
            scored_count = 0
            flagged_count = 0

            def score_many(self, batch):
                time.sleep(0.02)
                return [inner.score_wire(w) for w in batch]

        sample = wires[40:60]
        with _serve(
            Slow(), batch_max=2, max_pending=2, linger_ms=0.0
        ) as server:
            responses = _pipeline(
                server.port,
                [("POST", "/collect", w) for w in sample],
                timeout=30.0,
            )
            # Every wire is answered — backpressure stalls the socket
            # rather than 503ing admitted work.
            assert len(responses) == len(sample)
            assert all(
                line.split(" ", 1)[1].startswith("202")
                for line, _ in responses
            )
            assert server.backpressure_pauses > 0


# ----------------------------------------------------------------------
# Helpers for the framing, rendering and backpressure tests


def _http(method, path, body=b"", extra=(), length=True):
    """One request as bytes; ``extra`` header lines go in verbatim."""
    lines = [f"{method} {path} HTTP/1.1", "Host: t", *extra]
    if length and (body or method == "POST"):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _exchange(port, raw, timeout=10.0, half_close=False):
    """Send ``raw``, read until the server closes; everything it sent."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _ingest_samples(server):
    """What the front end reports into a ``/metrics`` scrape."""
    out = Exposition()
    server.collect(out)
    return samples(out.render())


def _responses(stream):
    """``[(status code, headers, body)]`` of a complete response stream."""
    parsed = []
    while stream:
        head, _, rest = stream.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        length = int(headers["Content-Length"])
        assert len(rest) >= length, "truncated response"
        parsed.append((int(status_line.split(" ")[1]), headers, rest[:length]))
        stream = rest[length:]
    return parsed


class _Steady:
    """A real scoring service whose answers do not carry the clock."""

    def __init__(self, trained):
        self._inner = ScoringService(trained)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def score_wire(self, wire):
        verdict = self._inner.score_wire(wire)
        return dataclasses.replace(verdict, latency_ms=0.25)


class _Canned:
    """Answers ``score_many`` from a list of verdicts, or by raising."""

    scored_count = 0
    flagged_count = 0

    def __init__(self, verdicts=None, error=None):
        self.verdicts = verdicts
        self.error = error

    def score_many(self, wires):
        if self.error is not None:
            raise self.error
        if self.verdicts is None:
            return [_verdict() for _ in wires]
        return self.verdicts[: len(wires)]


def _verdict(**fields):
    base = dict(session_id="s", accepted=True, flagged=False,
                risk_factor=None, reject_reason=None, latency_ms=0.0421)
    base.update(fields)
    return Verdict(**base)


class _Recorder(asyncio.Transport):
    """Stands in for a socket transport: records writes, tracks pauses."""

    def __init__(self, loop, protocol):
        super().__init__()
        self._loop = loop
        self._protocol = protocol
        self.writes = []
        self.reading = True
        self.closed = asyncio.Event()

    def write(self, data):
        self.writes.append(bytes(data))

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return self.closed.is_set()

    def close(self):
        if not self.closed.is_set():
            self.closed.set()
            self._loop.call_soon(self._protocol.connection_lost, None)

    abort = close


def _drive(server, fragments, timeout=20.0):
    """Deliver ``fragments`` to a fresh connection on the server's loop,
    then EOF; returns the list of writes the connection made."""

    async def run():
        conn = aingest._Connection(server)
        transport = _Recorder(asyncio.get_running_loop(), conn)
        conn.connection_made(transport)
        for fragment in fragments:
            # A real transport delivers nothing while it is paused.
            while not (transport.reading or conn.final):
                await asyncio.sleep(0.001)
            if conn.final:
                break
            conn.data_received(fragment)
            await asyncio.sleep(0)  # let batches and answers interleave
        if not conn.final:
            conn.eof_received()
        await asyncio.wait_for(transport.closed.wait(), timeout)
        return transport.writes

    future = asyncio.run_coroutine_threadsafe(run(), server._loop)
    return future.result(timeout + 5.0)


# ----------------------------------------------------------------------


class TestFraming:
    """Limits a scripted client probes; each refusal closes the socket."""

    @pytest.fixture(scope="class")
    def server(self, trained):
        with _serve(ScoringService(trained)) as running:
            yield running

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 8192 + b"\r\n\r\n",
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 9000,  # no end yet
            b"NONSENSE\r\n\r\n",
            b"\r\n\r\n",
            _http("POST", "/collect", b"x", ["Content-Length: abc"], length=False),
            _http("POST", "/collect", b"x", ["Content-Length: -1"], length=False),
            _http("POST", "/collect", b"x", ["Content-Length: +1"], length=False),
            _http("POST", "/collect", b"x", ["Content-Length: 1_0"], length=False),
            _http("POST", "/collect", b"x",
                  ["Content-Length: " + "9" * 5000], length=False),
            _http("POST", "/collect", b"x",
                  [f"Content-Length: {MAX_PAYLOAD_BYTES + 129}"], length=False),
            # RFC 9112 §5.1: no whitespace between a field name and its colon.
            _http("POST", "/collect", b"abcde", ["Content-Length : 5"],
                  length=False),
            # RFC 9112 §5.2: an obs-fold continuation line.
            _http("POST", "/collect", b"abcde", ["X-Pad: a", " Content-Length: 5"],
                  length=False),
        ],
        ids=["head-too-long", "head-never-ends", "no-request-line", "empty-head",
             "length-not-a-number", "length-negative", "length-signed",
             "length-underscore", "length-huge", "length-over-cap",
             "space-before-colon", "obs-fold"],
    )
    def test_untrustworthy_head_is_400_and_close(self, server, raw):
        (status, headers, body), = _responses(_exchange(server.port, raw))
        assert status == 400
        assert headers["Connection"] == "close"
        assert json.loads(body) == {"error": "malformed request"}

    def test_largest_allowed_head_and_body_pass(self, server, wires):
        pad = 8192 - len(_http("GET", "/health", extra=["X-Pad: "]))
        raw = _http("GET", "/health", extra=["X-Pad: " + "a" * pad])
        assert raw.index(b"\r\n\r\n") + 4 == 8192
        body = b"x" * (MAX_PAYLOAD_BYTES + 128)
        raw += _http("POST", "/collect", body, ["Connection: close"])
        first, second = _responses(_exchange(server.port, raw))
        assert first[0] == 200
        assert second[0] == 400  # read in full, refused by the validator
        assert json.loads(second[2])["reject_reason"] == "oversized"

    def test_post_without_length_closes(self, server):
        raw = _http("POST", "/collect", length=False) + _http("GET", "/health")
        (status, headers, _), = _responses(_exchange(server.port, raw))
        assert status == 411
        assert headers["Connection"] == "close"

    def test_empty_collect_body_is_400_and_connection_kept(self, server):
        raw = _http("POST", "/collect") + _http(
            "GET", "/health", extra=["Connection: close"]
        )
        first, second = _responses(_exchange(server.port, raw))
        assert first[0] == 400
        assert json.loads(first[2]) == {"error": "bad content length"}
        assert first[1]["Connection"] == "keep-alive"
        assert second[0] == 200

    def test_transfer_encoding_is_refused(self, server, wires):
        # CL.TE: a proxy honouring the chunked framing would see one
        # request where a server ignoring it sees two.
        raw = _http("POST", "/collect", wires[0],
                    ["Transfer-Encoding: chunked"])
        (status, headers, _), = _responses(_exchange(server.port, raw))
        assert status == 400
        assert headers["Connection"] == "close"

    def test_disagreeing_content_lengths_are_refused(self, server, wires):
        body = wires[0]
        raw = _http("POST", "/collect", body,
                    [f"Content-Length: {len(body) - 5}"])
        (status, headers, _), = _responses(_exchange(server.port, raw))
        assert status == 400
        assert headers["Connection"] == "close"

    def test_agreeing_content_lengths_are_one_length(self, server, wires):
        body = wires[1]
        raw = _http("POST", "/collect", body,
                    [f"content-length: {len(body)}", "Connection: close"])
        (status, _, _), = _responses(_exchange(server.port, raw))
        assert status == 202

    @pytest.mark.parametrize("path", ["/collect", "/health"])
    def test_close_request_is_answered_close(self, server, wires, path):
        method, body = ("POST", wires[3]) if path == "/collect" else ("GET", b"")
        raw = _http(method, path, body, ["Connection: close"])
        raw += _http("GET", "/health")  # after a close: never parsed
        (status, headers, _), = _responses(_exchange(server.port, raw))
        assert status in (200, 202)
        assert headers["Connection"] == "close"

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /health HTTP/1.0\r\nHost: t\r\n\r\n",
            _http("GET", "/health", extra=["Connection: keep-alive, close"]),
        ],
        ids=["http-1.0-without-keep-alive", "keep-alive-and-close"],
    )
    def test_a_connection_that_does_not_persist_is_answered_close(
        self, server, raw
    ):
        # RFC 9112 §9.3; what follows on the socket is never parsed.
        raw += _http("GET", "/health")
        (status, headers, _), = _responses(_exchange(server.port, raw))
        assert (status, headers["Connection"]) == (200, "close")

    def test_http_1_0_with_keep_alive_persists(self, server):
        raw = b"GET /health HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        raw += _http("GET", "/health", extra=["Connection: close"])
        first, second = _responses(_exchange(server.port, raw))
        assert (first[0], first[1]["Connection"]) == (200, "keep-alive")
        assert (second[0], second[1]["Connection"]) == (200, "close")

    def test_clean_eof_between_requests_closes_quietly(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(_http("GET", "/health"))
            (status, headers, _), = _responses(_read_one(sock))
            assert (status, headers["Connection"]) == (200, "keep-alive")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(65536) == b""  # closed, and nothing said

    def test_half_close_after_pipelining_still_answers_everything(
        self, server, wires
    ):
        sample = wires[100:160]
        raw = b"".join(_http("POST", "/collect", w) for w in sample)
        raw += b"POST /collect HTTP/1.1\r\nContent-Le"  # cut off mid-head
        answers = _responses(_exchange(server.port, raw, half_close=True))
        assert [status for status, _, _ in answers] == [202] * len(sample)


def _read_one(sock):
    """Exactly one response off a keep-alive socket."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        buffer += sock.recv(65536)
    head, _, rest = buffer.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
    while len(rest) < length:
        rest += sock.recv(65536)
    assert len(rest) == length
    return head + b"\r\n\r\n" + rest


class TestOrderingAndErrors:
    def test_slow_bridge_request_holds_back_later_answers(self, trained, wires):
        app = CollectionApp(ScoringService(trained))
        handle = app.handle

        def slow_health(method, path):
            if path == "/health":
                time.sleep(0.3)
            return handle(method, path)

        app.handle = slow_health
        with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
            responses = _pipeline(
                server.port,
                [
                    ("POST", "/collect", wires[5]),
                    ("GET", "/health", b""),
                    ("POST", "/collect", wires[6]),
                    ("GET", "/nope", b""),
                ],
            )
            # The second collect was scored long before /health returned
            # and still left after it.
            assert [line.split(" ")[1] for line, _ in responses] == [
                "202", "200", "202", "404"
            ]
            assert b"model_accuracy" in responses[1][1]

    def test_scoring_error_answers_500_per_request(self, trained):
        service = ScoringService(trained)
        service.score_many = _Canned(error=RuntimeError("shard pool gone")).score_many
        with _serve(service) as server:
            raw = b"".join(_http("POST", "/collect", b"{}") for _ in range(7))
            raw += _http("GET", "/health")
            raw += _http("POST", "/collect", b"{}", ["Connection: close"])
            answers = _responses(_exchange(server.port, raw))
        assert [status for status, _, _ in answers] == [500] * 7 + [200, 500]
        assert json.loads(answers[0][2]) == {"error": "scoring failed"}
        assert answers[0][1]["Connection"] == "keep-alive"
        assert answers[-1][1]["Connection"] == "close"

    def test_app_error_answers_500(self, trained):
        def broken(method, path):
            raise RuntimeError("app bug")

        app = CollectionApp(ScoringService(trained))
        app.handle = broken
        with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
            raw = _http("GET", "/health") + _http(
                "GET", "/health", extra=["Connection: close"]
            )
            answers = _responses(_exchange(server.port, raw))
        assert [status for status, _, _ in answers] == [500, 500]


class TestRendering:
    SHAPES = (
        [
            _verdict(),
            _verdict(flagged=True, risk_factor=20),
            _verdict(flagged=True, risk_factor=0, latency_ms=12.3456789),
            _verdict(inferred_release="chrome-113", inferred_distance=1),
            overloaded_verdict("s", 0.0),
        ]
        + [
            _verdict(accepted=False, reject_reason=reason, latency_ms=0.0)
            for reason in RejectReason
        ]
        + [_verdict(accepted=False, reject_reason=reason.value)
           for reason in RejectReason]
    )

    def test_bytes_equal_the_replaced_front_end(self):
        # Every shape twice over, so the once-per-distinct-verdict path
        # is taken as well as the first rendering.
        verdicts = self.SHAPES + self.SHAPES[::-1]
        server = _serve(_Canned(verdicts))
        rendered = server._score_batch([b"w"] * len(verdicts))
        assert rendered == [parent_render_verdict(v) for v in verdicts]

    def test_close_request_gets_the_same_bytes_but_for_the_header(self):
        with _serve(_Canned([overloaded_verdict("s", 0.0)])) as server:
            raw = _http("POST", "/collect", b"{}", ["Connection: close"])
            reply = _exchange(server.port, raw)
        expected = parent_render_verdict(overloaded_verdict("s", 0.0))
        assert reply == expected.replace(b"keep-alive", b"close")


class TestWrites:
    def test_a_batch_leaves_in_one_write_per_connection(self, wires):
        count = 200
        with _serve(_Canned(), batch_max=256) as server:
            stream = b"".join(
                _http("POST", "/collect", wires[i % len(wires)])
                for i in range(count)
            )
            writes = _drive(server, [stream])
            assert len(_responses(b"".join(writes))) == count
            assert len(writes) == server.writes_total
            assert len(writes) <= 2  # one batch; far fewer than `count`
            assert _ingest_samples(server)["polygraph_ingest_writes"] == len(writes)

    def test_answers_behind_an_unanswered_request_wait_for_it(self, wires):
        # Batch 2 finishes first; its answers must not leave before
        # batch 1's, and then both leave together.
        release = threading.Event()

        class FirstBatchSlow(_Canned):
            def score_many(self, batch):
                first = batch[0] == wires[0]
                if first:
                    release.wait(10.0)
                return [_verdict(risk_factor=1 if first else 2) for _ in batch]

        service = FirstBatchSlow()
        with _serve(service, batch_max=4, linger_ms=0.0) as server:
            stream = b"".join(
                _http("POST", "/collect", wires[i]) for i in range(8)
            )

            async def run():
                conn = aingest._Connection(server)
                transport = _Recorder(asyncio.get_running_loop(), conn)
                conn.connection_made(transport)
                conn.data_received(stream)
                for _ in range(200):  # until batch 2 is delivered
                    if sum(s[0] is not None for s in conn.slots) == 4:
                        break
                    await asyncio.sleep(0.005)
                held_back = list(transport.writes)
                release.set()
                conn.eof_received()
                await asyncio.wait_for(transport.closed.wait(), 10.0)
                return held_back, transport.writes

            held_back, writes = asyncio.run_coroutine_threadsafe(
                run(), server._loop
            ).result(20.0)
        assert held_back == []
        assert len(writes) == 1
        risks = [json.loads(b)["risk_factor"] for _, _, b in _responses(writes[0])]
        assert risks == [1] * 4 + [2] * 4


    def test_half_close_while_the_client_is_not_reading(self, wires):
        # The write side blocks, the client half-closes, the write side
        # drains: requests that waited are answered, then the close.
        with _serve(_Canned()) as server:

            async def run():
                conn = aingest._Connection(server)
                transport = _Recorder(asyncio.get_running_loop(), conn)
                conn.connection_made(transport)
                conn.pause_writing()
                assert not transport.reading
                conn.data_received(_http("POST", "/collect", wires[0]))
                conn.eof_received()
                await asyncio.sleep(0.05)
                assert transport.writes == [] and not transport.closed.is_set()
                conn.resume_writing()
                await asyncio.wait_for(transport.closed.wait(), 10.0)
                quiet = aingest._Connection(server)  # nothing buffered at EOF
                second = _Recorder(asyncio.get_running_loop(), quiet)
                quiet.connection_made(second)
                quiet.pause_writing()
                quiet.eof_received()
                await asyncio.wait_for(second.closed.wait(), 10.0)
                return transport.writes

            writes = asyncio.run_coroutine_threadsafe(
                run(), server._loop
            ).result(20.0)
        assert [status for status, _, _ in _responses(b"".join(writes))] == [202]


# -- POST /event: the batch path ----------------------------------------


@pytest.fixture(scope="module")
def event_streams(small_dataset, trained):
    """Multi-event streams; fraud donors are guaranteed cross-cluster."""
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    streams = build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )
    fraud = [s for s in streams if s.scenario in (
        StreamScenario.ENGINE_SWAP,
        StreamScenario.SPOOF_UPDATE,
        StreamScenario.HIJACK_HANDOFF,
    )]
    benign = [s for s in streams if s.scenario is StreamScenario.BENIGN_RECOLLECT]
    return fraud + benign[: 200 - len(fraud)]


def _event_server(trained, **kwargs):
    """A front end over the per-request service with a session layer."""
    service = ScoringService(trained)
    sessions = SessionScoringService(service, ttl_seconds=1e9)
    app = CollectionApp(service, sessions=sessions)
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    return AsyncIngestServer(app, **kwargs)


def _converse(port, raw, timeout=30.0):
    """Send ``raw`` while reading; everything the server sent until it
    closed.  (A reply stream this long can fill the socket both ways: a
    client that only sends, then only reads, would deadlock.)"""
    chunks = []
    view = memoryview(raw)
    sent = 0
    deadline = time.monotonic() + timeout
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.setblocking(False)
        while True:
            assert time.monotonic() < deadline, "no close from the server"
            want_write = [sock] if sent < len(raw) else []
            readable, writable, _ = select.select([sock], want_write, [], 5.0)
            if writable:
                try:
                    sent += sock.send(view[sent : sent + (1 << 18)])
                except BlockingIOError:
                    pass
            if readable:
                chunk = sock.recv(1 << 20)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)


def _event_essence(document):
    revision = document["revision"]
    return (
        document["session_id"],
        document["accepted"],
        document["event_flagged"],
        document["event_risk"],
        document["reject_reason"],
        document["session_flagged"],
        document["session_risk"],
        None if revision is None else revision["reason"],
        document["event_seq"],
        document["session_created"],
    )


class TestEventOrdering:
    def test_back_to_back_events_of_one_session_are_folded_in_order(
        self, trained, event_streams
    ):
        """200 sessions' events, each session's written back to back, in
        one send.  The bridge gave them to four threads at once; a
        follow-up folded before its first event reads `session_created`
        and misses its revision."""
        events = [e for stream in event_streams for e in stream.events]
        assert len(event_streams) == 200 and len(events) > 800
        reference = SessionScoringService(ScoringService(trained), ttl_seconds=1e9)
        expected = [
            _event_essence(reference.observe_wire(e.to_wire()).to_dict())
            for e in events
        ]
        assert sum(1 for e in expected if e[7] is not None) >= 10
        raw = b"".join(_http("POST", "/event", e.to_wire()) for e in events[:-1])
        raw += _http("POST", "/event", events[-1].to_wire(), ["Connection: close"])
        supervisor = ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0)
        )
        router = ClusterRouter(supervisor).start()
        try:
            sessions = SessionScoringService(router, ttl_seconds=1e9)
            app = CollectionApp(router, sessions=sessions)
            with AsyncIngestServer(app, host="127.0.0.1", port=0) as server:
                answers = _responses(_converse(server.port, raw))
                assert server.event_total == len(events)
                assert server.batch_rows_total == len(events)
                assert server.batches_total < len(events) / 4
        finally:
            router.shutdown()
        assert [status for status, _, _ in answers] == [202] * len(events)
        actual = [_event_essence(json.loads(body)) for _, _, body in answers]
        wrong = [i for i, pair in enumerate(zip(actual, expected)) if pair[0] != pair[1]]
        assert wrong == []

    def test_one_event_batch_in_flight_at_a_time(self, trained, wires):
        running = []
        overlaps = []
        batches = []

        class Watching:
            def observe_rows(self, bodies):
                running.append(1)
                overlaps.append(len(running))
                batches.append(len(bodies))
                time.sleep(0.01)
                running.pop()
                raise RuntimeError("answer 500, the test only counts")

        service = ScoringService(trained)
        app = CollectionApp(service, sessions=Watching())
        server = AsyncIngestServer(
            app, host="127.0.0.1", port=0, batch_max=8
        )
        raw = b"".join(_http("POST", "/event", b"{}") for _ in range(39))
        raw += _http("POST", "/event", b"{}", ["Connection: close"])
        with server:
            clients = [
                threading.Thread(target=_converse, args=(server.port, raw))
                for _ in range(3)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(30.0)
                assert not client.is_alive()
        assert sum(batches) == 120 and len(batches) >= 15
        assert max(batches) <= 8
        assert set(overlaps) == {1}


class TestEventRendering:
    def test_bytes_equal_the_bridge_for_every_kind_of_answer(
        self, trained, event_streams
    ):
        swap = next(
            s for s in event_streams if s.scenario is StreamScenario.ENGINE_SWAP
        )
        benign = next(
            s for s in event_streams if s.scenario is StreamScenario.BENIGN_RECOLLECT
        )
        # Same surface under another browser's name: no flip, a UA change.
        renamed = dataclasses.replace(
            benign.events[1],
            user_agent=next(
                s.first.user_agent
                for s in event_streams
                if s.first.user_agent != benign.first.user_agent
            ),
        )
        last = swap.events[-1]
        # The clean first vector again: flips back, then clears nothing.
        clean = [
            dataclasses.replace(
                swap.first,
                event_type=EventType.RE_COLLECTION,
                seq=last.seq + extra,
                timestamp=last.timestamp + extra,
            )
            for extra in (1, 2)
        ]
        bodies = [
            e.to_wire() for e in (*swap.events, *clean, benign.first, renamed)
        ]
        bodies.append(swap.first.to_wire())  # a replayed first event
        bodies.append(b"not an envelope")
        bodies.append(swap.first.to_wire().replace(b"page_load", b"hover"))
        reference = SessionScoringService(ScoringService(trained), ttl_seconds=1e9)
        observed = [reference.observe_wire(body) for body in bodies]
        reasons = {o.revision.reason.value for o in observed if o.revision}
        assert {"cluster_flip", "ua_change", "flag_cleared"} <= reasons
        assert [o.verdict.reject_reason for o in observed[-3:-1]] == [
            "duplicate", "malformed_event: malformed session event: "
            "Expecting value: line 1 column 1 (char 0)",
        ]
        expected = [parent_render_event(o) for o in observed]

        # The frozen copy is what the batch worker renders …
        assert _event_server(trained)._observe_batch(bodies) == expected
        # … and what a client reads, `Connection: close` included.
        raw = b"".join(_http("POST", "/event", body) for body in bodies[:-1])
        raw += _http("POST", "/event", bodies[-1], ["Connection: close"])
        with _event_server(trained) as server:
            reply = _converse(server.port, raw)
        expected[-1] = expected[-1].replace(b"keep-alive", b"close")
        assert reply == b"".join(expected)


class _Scripted:
    """An inner service that answers by script: every wire is accepted
    and clean unless ``answers`` says otherwise for its event's seq (a
    follow-up arrives as ``sid@seq``).  The session id goes back as
    sent, whatever it holds."""

    def __init__(self, trained, answers=None) -> None:
        self.polygraph = trained
        self.answers = answers or {}

    def score_rows(self, wires, rows, found, day=None):
        """The scripted verdicts, each beside the live model's result."""
        generation, detector = self.polygraph.detection_snapshot()
        bodies = [json.loads(wire) for wire in wires]
        found[:] = [
            (generation, detector.evaluate_vector(body["f"], body["ua"]))
            for body in bodies
        ]
        return [self._answer(body["sid"]) for body in bodies]

    def _answer(self, session_id):
        seq = int(session_id.rpartition("@")[2]) if "@" in session_id else 0
        return _verdict(session_id=session_id, **self.answers.get(seq, {}))


def _scripted_server(trained, answers=None):
    """A front end whose session layer sits on a :class:`_Scripted`
    inner service, and a reference session layer over a twin of it."""
    service = ScoringService(trained)
    sessions = SessionScoringService(_Scripted(trained, answers), ttl_seconds=1e9)
    server = AsyncIngestServer(
        CollectionApp(service, sessions=sessions), host="127.0.0.1", port=0
    )
    reference = SessionScoringService(_Scripted(trained, answers), ttl_seconds=1e9)
    return server, reference


def _full_renders(monkeypatch):
    """Count the responses that did not come from a template."""
    rendered = []
    render = aingest._render

    def counting(*args):
        rendered.append(args)
        return render(*args)

    monkeypatch.setattr(aingest, "_render", counting)
    return rendered


class TestEventTemplates:
    """An answer put together from a shape template must be the bytes
    the full render writes — and an answer that cannot be must not be."""

    @staticmethod
    def _session(event_streams, session_id, n_events=3):
        benign = next(
            s for s in event_streams
            if s.scenario is StreamScenario.BENIGN_RECOLLECT and len(s.events) >= 3
        )
        return [
            dataclasses.replace(event, session_id=session_id)
            for event in benign.events[:n_events]
        ]

    def test_ids_of_any_length_share_one_batch(
        self, trained, event_streams, monkeypatch
    ):
        server, reference = _scripted_server(trained)
        rendered = _full_renders(monkeypatch)
        for turn in "abc":
            sessions = [
                self._session(event_streams, turn * length)
                for length in (1, 2, 9, 10, 11, 40)
            ]
            # Interleaved: neighbours in the batch differ in id length.
            bodies = [e.to_wire() for events in zip(*sessions) for e in events]
            expected = [
                parent_render_event(reference.observe_wire(b)) for b in bodies
            ]
            del rendered[:]
            assert server._observe_batch(bodies) == expected
            # One render per (seq, id length) the first time, none after.
            assert len(rendered) == (len(bodies) if turn == "a" else 0)

    @pytest.mark.parametrize(
        "hostile",
        ['ab"cd', "ab\\cd", "ab\x01cd", "ab\x7fcd", "ab\u00e9cd", "ab\ud800cd"],
        ids=["quote", "backslash", "control", "del", "non_ascii", "surrogate"],
    )
    def test_an_id_json_would_escape_takes_the_full_render(
        self, trained, event_streams, monkeypatch, hostile
    ):
        server, reference = _scripted_server(trained)
        rendered = _full_renders(monkeypatch)
        # A plain id of the same length goes first: its templates are
        # there for the taking when the hostile one arrives.
        for plain, renders in (("abXcd", 6), ("abYcd", 3)):
            events = self._session(event_streams, plain) + self._session(
                event_streams, hostile
            )
            bodies = [e.to_wire() for e in events]
            expected = [
                parent_render_event(reference.observe_wire(b)) for b in bodies
            ]
            del rendered[:]
            assert server._observe_batch(bodies) == expected
            # The second plain id is served from the first one's templates;
            # the hostile id never is and never leaves one.
            assert len(rendered) == renders
            assert len(server._event_templates) == 3

    def test_revisions_rejects_and_malformed_envelopes(
        self, trained, event_streams, monkeypatch
    ):
        answers = {
            1: dict(flagged=True, risk_factor=3),
            2: dict(flagged=True, risk_factor=5),
            4: dict(accepted=False, reject_reason="duplicate"),
            5: dict(accepted=False, reject_reason=OVERLOADED_REASON),
        }
        server, reference = _scripted_server(trained, answers)
        rendered = _full_renders(monkeypatch)
        swap = next(
            s for s in event_streams if s.scenario is StreamScenario.ENGINE_SWAP
        )
        steady = self._session(event_streams, "steady", n_events=1)[0]
        renamed_agent = next(
            s.first.user_agent
            for s in event_streams
            if s.first.user_agent != steady.user_agent
        )
        for turn in "ab":
            events = [
                # clean, flag raised, risk increase, flag cleared, two rejects
                dataclasses.replace(steady, session_id=f"steady-{turn}", seq=seq)
                for seq in range(6)
            ]
            events += [
                dataclasses.replace(e, session_id=f"swap-{turn}") for e in swap.events
            ]
            events += [
                dataclasses.replace(steady, session_id=f"renamed-{turn}"),
                dataclasses.replace(
                    steady, session_id=f"renamed-{turn}", seq=3,
                    user_agent=renamed_agent,
                ),
            ]
            bodies = [e.to_wire() for e in events]
            bodies += [b"not an envelope", bodies[0].replace(b"page_load", b"hover")]
            observed = [reference.observe_wire(body) for body in bodies]
            assert {o.revision.reason.value for o in observed if o.revision} == {
                "flag_raised", "risk_increase", "flag_cleared", "cluster_flip",
                "ua_change",
            }
            assert [o.verdict.reject_reason for o in observed[4:6]] == [
                "duplicate", OVERLOADED_REASON,
            ]
            assert observed[-1].verdict.reject_reason.startswith("malformed_event: ")
            del rendered[:]
            assert server._observe_batch(bodies) == [
                parent_render_event(o) for o in observed
            ]
            revised = sum(o.revision is not None for o in observed)
            # An answer with a revision is rendered in full every time.
            assert len(rendered) >= revised
            if turn == "b":
                assert len(rendered) == revised

    def test_a_template_answer_builds_no_observation(
        self, trained, event_streams, monkeypatch
    ):
        server, reference = _scripted_server(trained)
        warm, served = (
            [e.to_wire() for e in self._session(event_streams, session_id)]
            for session_id in ("warm-1", "warm-2")
        )
        expected = [parent_render_event(reference.observe_wire(b)) for b in served]
        server._observe_batch(warm)
        built = []
        observation = session_service._observation

        def counting(*args):
            built.append(args)
            return observation(*args)

        # Every SessionObservation is built here.
        monkeypatch.setattr(session_service, "_observation", counting)
        assert server._observe_batch(served) == expected
        assert built == []

    def test_a_template_answer_closes_the_connection_when_asked(
        self, trained, event_streams
    ):
        server, reference = _scripted_server(trained)
        firsts = [
            self._session(event_streams, f"close-{n}", n_events=1)[0] for n in range(6)
        ]
        bodies = [e.to_wire() for e in firsts]
        expected = [parent_render_event(reference.observe_wire(b)) for b in bodies]
        expected[-1] = expected[-1].replace(b"keep-alive", b"close")
        raw = b"".join(_http("POST", "/event", body) for body in bodies[:-1])
        raw += _http("POST", "/event", bodies[-1], ["Connection: close"])
        with server:
            # One at a time first, so the last answer is a template's.
            warm = self._session(event_streams, "close-w", n_events=1)[0].to_wire()
            assert _request(server.port, "POST", "/event", warm)[0] == 202
            assert len(server._event_templates) == 1
            assert _converse(server.port, raw) == b"".join(expected)
            assert len(server._event_templates) == 1

    def test_the_memo_is_bounded_when_the_client_picks_the_shape(
        self, trained, event_streams, monkeypatch
    ):
        monkeypatch.setattr(aingest, "_EVENT_TEMPLATE_LIMIT", 8)
        server, reference = _scripted_server(trained)
        first = self._session(event_streams, "x", n_events=1)[0]
        for start in range(0, 60, 5):
            # A session may open on any seq, and an id have any length.
            bodies = [
                dataclasses.replace(
                    first, session_id="s" * (1 + seq % 7) + str(seq), seq=seq
                ).to_wire()
                for seq in range(start, start + 5)
            ]
            expected = [
                parent_render_event(reference.observe_wire(b)) for b in bodies
            ]
            assert server._observe_batch(bodies) == expected
            assert 1 <= len(server._event_templates) <= 8


class TestEventBatches:
    def test_a_batch_leaves_in_one_write_and_is_counted(self, trained, event_streams):
        bodies = [s.first.to_wire() for s in event_streams]
        with _event_server(trained, batch_max=256) as server:
            stream = b"".join(_http("POST", "/event", body) for body in bodies)
            writes = _drive(server, [stream])
            answers = _responses(b"".join(writes))
            assert [status for status, _, _ in answers] == [202] * len(bodies)
            assert len(writes) == server.writes_total <= 2
            assert server.batches_total == 1
            assert server.batch_rows_total == len(bodies)
            assert (server.event_total, server.collect_total) == (len(bodies), 0)
            reported = _ingest_samples(server)
            assert reported["polygraph_ingest_event_requests"] == len(bodies)
            assert reported["polygraph_ingest_batches"] == 1
            assert reported["polygraph_ingest_batch_rows"] == len(bodies)

    def test_a_failed_batch_answers_500_and_the_next_is_served(
        self, trained, event_streams
    ):
        service = ScoringService(trained)
        real = SessionScoringService(service, ttl_seconds=1e9)

        class Poisoned:
            def observe_rows(self, bodies):
                if any(b"poison" in body for body in bodies):
                    raise RuntimeError("session layer bug")
                return real.observe_rows(bodies)

        app = CollectionApp(service, sessions=Poisoned())
        good = [s.first.to_wire() for s in event_streams[:5]]
        stream = b"".join(
            _http("POST", "/event", body) for body in [b"poison"] * 3 + good
        )
        stream += _http("GET", "/health")
        with AsyncIngestServer(
            app, host="127.0.0.1", port=0, batch_max=4
        ) as server:
            answers = _responses(b"".join(_drive(server, [stream])))
            assert server._pending == 0
        # The fourth request shared the poisoned batch; the rest did not.
        assert [status for status, _, _ in answers] == [500] * 4 + [202] * 4 + [200]
        assert json.loads(answers[0][2]) == {"error": "scoring failed"}
        assert json.loads(answers[4][2])["session_id"] == event_streams[1].session_id

    def test_what_is_not_a_batchable_event_takes_the_bridge(
        self, trained, event_streams
    ):
        body = event_streams[0].first.to_wire()
        stream = _http("POST", "/event") + _http("GET", "/event")
        stream += _http("POST", "/event", body, ["Connection: close"])
        with _event_server(trained) as server:
            empty, wrong_method, fine = _responses(_exchange(server.port, stream))
            assert server.event_total == 1
        assert (empty[0], json.loads(empty[2])) == (
            400, {"error": "bad content length"}
        )
        assert empty[1]["Connection"] == "keep-alive"
        assert (wrong_method[0], json.loads(wrong_method[2])) == (
            404, {"error": "unknown endpoint"}
        )
        assert fine[0] == 202
        # No session layer: the app's own 404, and nothing is buffered.
        with _serve(ScoringService(trained)) as server:
            status, _, payload = _request(server.port, "POST", "/event", body)
            assert server.event_total == 0 and server.batches_total == 0
        assert (status, json.loads(payload)) == (
            404, {"error": "session streaming not enabled"}
        )

    def test_event_backlog_pauses_reads_without_shedding(
        self, trained, event_streams
    ):
        service = ScoringService(trained)
        real = SessionScoringService(service, ttl_seconds=1e9)

        class Slow:
            def observe_rows(self, bodies):
                time.sleep(0.02)
                return real.observe_rows(bodies)

        app = CollectionApp(service, sessions=Slow())
        bodies = [s.first.to_wire() for s in event_streams[:20]]
        with AsyncIngestServer(
            app, host="127.0.0.1", port=0, batch_max=2, max_pending=2
        ) as server:
            responses = _pipeline(
                server.port, [("POST", "/event", b) for b in bodies], timeout=30.0
            )
            assert server.backpressure_pauses > 0
        assert [line.split(" ")[1] for line, _ in responses] == ["202"] * 20
        assert [json.loads(body)["session_id"] for _, body in responses] == [
            s.session_id for s in event_streams[:20]
        ]


# -- (a) any fragmentation of a pipelined stream, same bytes back ------

_KINDS = ["good", "bad_json", "range", "oversized", "replay", "health", "empty"]
_EXPECTED = {
    "good": (202, None),
    "bad_json": (400, "malformed"),
    "range": (400, "value_range"),
    "oversized": (400, "oversized"),
    "replay": (400, "duplicate"),
    "health": (200, None),
    "empty": (400, None),
}


def _mixed_stream(kinds, wires, nonce):
    """A pipelined request stream of ``kinds`` with a malformed line last."""
    parts = []
    expected = []
    last_good = None
    for index, kind in enumerate(kinds):
        document = json.loads(wires[index % len(wires)])
        document["sid"] = f"{nonce}-{index}"
        if kind == "replay":
            if last_good is None:
                kind = "good"
            else:
                document["sid"] = last_good
        if kind == "range":
            document["f"][5] = 10_001
        body = json.dumps(document, separators=(",", ":")).encode()
        if kind == "oversized":
            document["ua"] += " " * (MAX_PAYLOAD_BYTES + 64 - len(body))
            body = json.dumps(document, separators=(",", ":")).encode()
            assert len(body) == MAX_PAYLOAD_BYTES + 64
        elif kind == "bad_json":
            body = body[: len(body) // 2]
        elif kind == "good":
            last_good = document["sid"]
        if kind == "health":
            parts.append(_http("GET", "/health"))
        elif kind == "empty":
            parts.append(_http("POST", "/collect"))
        else:
            parts.append(_http("POST", "/collect", body))
        expected.append(_EXPECTED[kind])
    parts.append(b"NONSENSE\r\n\r\n")
    expected.append((400, None))
    return b"".join(parts), expected


def _fragments(stream, cuts):
    if cuts is None:
        return [stream[i : i + 1] for i in range(len(stream))]
    edges = sorted({cut % (len(stream) + 1) for cut in cuts} | {0, len(stream)})
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


class TestFragmentation:
    @pytest.fixture(scope="class")
    def server(self, trained):
        service = _Steady(trained)
        with _serve(service, batch_max=8) as running:
            yield running

    def test_response_stream_does_not_depend_on_the_fragments(
        self, server, wires
    ):
        # Session ids differ between any two deliveries (the service
        # remembers them); responses do not carry them.
        delivery = itertools.count()

        @settings(max_examples=40, deadline=None)
        @given(
            kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=10),
            cuts=st.one_of(
                st.none(),  # one byte at a time
                st.lists(st.integers(0, 1 << 20), min_size=1, max_size=40),
            ),
        )
        def check(kinds, cuts):
            whole, expected = _mixed_stream(kinds, wires, f"w{next(delivery)}")
            split, _ = _mixed_stream(kinds, wires, f"s{next(delivery)}")
            assert len(whole) == len(split)
            reference = b"".join(_drive(server, [whole]))
            answers = _responses(reference)
            assert [
                (status, json.loads(body).get("reject_reason"))
                for status, _, body in answers
            ] == expected
            assert answers[-1][1]["Connection"] == "close"
            assert b"".join(_drive(server, _fragments(split, cuts))) == reference

        check()


# -- a client that pipelines and never reads ---------------------------


class TestWriteSideBackpressure:
    # What the server may hold for one connection: the answers to the
    # `max_pending` wires admitted before the first blocked write, the
    # transport's 64 KiB high-water mark, one 256 KiB read.
    MAX_PENDING = 1024
    BOUND = 1 << 20

    def test_unread_responses_stop_the_reading_not_the_server(self, wires):
        count = 50_000
        requests = [
            _http("POST", "/collect", wires[i % len(wires)]) for i in range(200)
        ]
        stream = b"".join(requests) * (count // len(requests))
        with _serve(_Canned(), max_pending=self.MAX_PENDING) as server:
            sock = socket.socket()
            # A small receive buffer: the kernel stops absorbing the
            # unread responses early and the test stays short.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            with sock:
                sock.connect(("127.0.0.1", server.port))
                sock.setblocking(False)
                sent = self._send_until_stalled(sock, stream)
                # The server stopped reading this client …
                assert sent < len(stream)
                held, unanswered, reading = self._backlog(server, sock)
                assert not reading
                assert held < self.BOUND
                assert unanswered <= self.MAX_PENDING
                # … and only this client.
                for wire in wires[:5]:
                    status, _, _ = _request(server.port, "POST", "/collect", wire)
                    assert status == 202
                assert self._backlog(server, sock)[0] < self.BOUND
                # Once it reads, everything it sent is answered in order.
                one = parent_render_verdict(_verdict())  # what `_Canned` earns
                self._finish(sock, stream, sent, one * count)
            assert server.collect_total == count + 5

    def test_unread_event_responses_stop_the_reading_too(self, trained, wires):
        """Events are admitted work like collects: counted against the
        watermark, and a client that never reads is no longer read."""
        count = 50_000
        document = json.loads(wires[0])
        template = SessionEvent(
            "bp-@@@@@@", EventType.PAGE_LOAD, 0, 1000.0,
            document["ua"], tuple(document["f"]),
        ).to_wire()
        head, _, tail = template.partition(b"@@@@@@")
        bodies = [head + b"%06d" % i + tail for i in range(count)]
        stream = b"".join(_http("POST", "/event", body) for body in bodies)

        class Accepting:
            """Scores nothing: 100k real verdicts would be the test's time."""

            def score_rows(self, wires, rows, found, day=None):
                found[:] = [None] * len(wires)
                return [
                    _verdict(session_id=wire[8 : wire.index(b'"', 8)].decode())
                    for wire in wires
                ]

        reference = SessionScoringService(Accepting())
        replies = b"".join(
            parent_render_event(reference.observe_wire(body)) for body in bodies
        )
        assert replies.count(b" 202 Accepted") == count
        service = ScoringService(trained)
        app = CollectionApp(service, sessions=SessionScoringService(Accepting()))
        others = [
            SessionEvent(
                f"other-{i}", EventType.PAGE_LOAD, 0, 1000.0,
                document["ua"], tuple(document["f"]),
            )
            for i in range(5)
        ]
        server = AsyncIngestServer(
            app, host="127.0.0.1", port=0,
            max_pending=self.MAX_PENDING,
        )
        with server:
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            with sock:
                sock.connect(("127.0.0.1", server.port))
                sock.setblocking(False)
                sent = self._send_until_stalled(sock, stream)
                assert sent < len(stream)
                held, unanswered, reading = self._backlog(server, sock)
                assert not reading
                assert held < self.BOUND
                assert unanswered <= self.MAX_PENDING
                assert server._pending <= self.MAX_PENDING
                for event in others:
                    status, _, payload = _request(
                        server.port, "POST", "/event", event.to_wire()
                    )
                    assert status == 202
                    assert json.loads(payload)["session_id"] == event.session_id
                assert self._backlog(server, sock)[0] < self.BOUND
                self._finish(sock, stream, sent, replies)
            assert server.event_total == count + 5
            assert server.collect_total == 0

    @staticmethod
    def _send_until_stalled(sock, stream, quiet_s=1.0):
        view = memoryview(stream)
        sent = 0
        while sent < len(stream):
            if not select.select([], [sock], [], quiet_s)[1]:
                break  # not writable for a whole second: stalled
            try:
                sent += sock.send(view[sent : sent + (1 << 18)])
            except BlockingIOError:
                pass
        return sent

    @staticmethod
    def _backlog(server, sock):
        """(bytes held, requests unanswered, still reading) for ``sock``."""
        peer = sock.getsockname()

        async def look():
            for conn in server._connections:
                if conn.transport.get_extra_info("peername") == peer:
                    filled = sum(len(s[0]) for s in conn.slots if s[0])
                    held = conn.transport.get_write_buffer_size() + filled
                    reading = conn.transport.is_reading()
                    return held + len(conn.buf), len(conn.slots), reading
            raise AssertionError("connection not found")

        return asyncio.run_coroutine_threadsafe(look(), server._loop).result(10.0)

    @staticmethod
    def _finish(sock, stream, sent, replies):
        """Send the rest while reading: exactly ``replies`` must come back."""
        view = memoryview(stream)
        expected = memoryview(replies)
        received = 0
        deadline = time.monotonic() + 60.0
        while received < len(replies):
            assert time.monotonic() < deadline, f"{received} bytes answered"
            want_write = [sock] if sent < len(stream) else []
            readable, writable, _ = select.select([sock], want_write, [], 5.0)
            if writable:
                try:
                    sent += sock.send(view[sent : sent + (1 << 18)])
                except BlockingIOError:
                    pass
            if readable:
                chunk = sock.recv(1 << 20)
                assert chunk, "server closed the connection"
                assert chunk == expected[received : received + len(chunk)]
                received += len(chunk)
        assert sent == len(stream)
