"""Pipelined asyncio ingest front end for the collection endpoint.

The WSGI path (``wsgiref`` + :class:`~repro.service.api.CollectionApp`)
scores one request per server thread: parse, score, respond, repeat.
That serializes the socket on the model call and caps ingest well below
what the sharded scoring tier can absorb.  This module replaces the
front of that pipeline with a single-threaded asyncio server that keeps
many requests in flight per connection and spends as little as it can
on each:

* **one parse pass per read** — every connection is an
  :class:`asyncio.Protocol` with one input buffer.  ``data_received``
  appends to it and parses every complete pipelined request in a single
  pass (an offset advances; the buffer is trimmed once), enforcing the
  framing limits a hostile client probes: head size, one unambiguous
  ``Content-Length``, no ``Transfer-Encoding``, body cap;
* **ordered response slots** — each parsed request takes a slot in its
  connection's deque.  Whatever answers the request fills the slot; a
  flush writes the longest answered *prefix* of the deque with one
  ``transport.write``, so HTTP/1.1 pipelining stays ordered even though
  scoring completes out of order across batches;
* **batch coalescing** — ``POST /collect`` bodies from *all*
  connections land in one coalescing buffer; a batcher slices it into
  chunks and feeds them to the scoring service's widest interface
  (``score_many`` on the cluster router and the runtime, ``score_wire``
  per wire otherwise) on a small thread pool, several batches in
  flight at once.  A finished batch fills its slots and then flushes
  each connection it touched *once*; responses are rendered once per
  distinct verdict in the batch;
* **events batch too, in order** — ``POST /event`` bodies land in a
  second coalescing buffer and are handed to the session layer's
  ``observe_many`` a batch at a time.  Exactly **one event batch is in
  flight**; the next one forms while it runs (that wait is the only
  linger), so a session's events are folded in the order they were
  parsed however a client pipelines them, and delivery is the same
  fill-then-flush-once as for collects;
* **two-sided backpressure** — when the number of admitted-but-
  unanswered wires (collects and events alike) reaches the high
  watermark the server *stops reading every socket* (TCP flow control
  propagates to clients) until the backlog drains below the low
  watermark, instead of accepting work only to shed it with 503s;
  pause episodes are counted and exported.
  And a connection whose client stops *reading* its responses stops
  being read until the transport's write buffer drains, so a client
  that pipelines and never reads cannot grow server memory.

Every other endpoint — and a ``POST /event`` that has no body, or no
session layer to go to — is delegated to the existing
:class:`~repro.service.api.CollectionApp` through a minimal in-process
WSGI bridge on the same thread pool, so ``/health``, ``/metrics``,
``/cluster`` and the session lookups behave identically under either
front end.  ``GET /metrics`` responses additionally carry this server's
``polygraph_ingest_*`` counters.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.runtime.pool import OVERLOADED_REASON

__all__ = ["AsyncIngestServer"]

# Mirrors the WSGI app: the body cap IS the wire-contract cap, plus the
# fixed envelope allowance the /event and /check endpoints enjoy.
_MAX_BODY = MAX_PAYLOAD_BYTES + 128

# Hard parse limits: a request line + headers beyond this is hostile.
_MAX_HEAD = 8192

_RETRY_AFTER_SECONDS = "1"

_KEEP_ALIVE_LINE = b"\r\nConnection: keep-alive\r\n"
_CLOSE_LINE = b"\r\nConnection: close\r\n"

# /event response templates (see ``_observe_batch``).
_EVENT_TEMPLATE_LIMIT = 1024
_EVENT_BODY_OPENS = b'\r\n\r\n{"session_id": "'
_PLAIN_SID = re.compile(r"[\x20\x21\x23-\x5b\x5d-\x7e]*").fullmatch


def _render(status: str, headers: List[Tuple[str, str]], body: bytes,
            keep_alive: bool) -> bytes:
    """One HTTP/1.1 response as bytes; Content-Length always explicit."""
    lines = [f"HTTP/1.1 {status}"]
    has_length = False
    for name, value in headers:
        if name.lower() == "content-length":
            has_length = True
        lines.append(f"{name}: {value}")
    if not has_length:
        lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _error(status: str, message: str, keep_alive: bool) -> bytes:
    body = ('{"error": "%s"}' % message).encode("utf-8")
    return _render(status, [("Content-Type", "application/json")], body,
                   keep_alive)


# Framing errors end the connection: what follows cannot be trusted.
_MALFORMED = _error("400 Bad Request", "malformed request", False)
_LENGTH_REQUIRED = _error("411 Length Required", "content-length required",
                          False)


def _read_head(head: bytearray):
    """Parse one request head, given without its terminating blank line.

    Returns ``(method, target, body_length, keep_alive)``, or the
    response (``bytes``) that refuses the request and ends the
    connection.
    """
    request_line, *header_lines = head.split(b"\r\n")
    request_line = request_line.split(b" ", 2)
    if len(request_line) != 3:
        return _MALFORMED
    length = -1
    keep_alive = True
    for line in header_lines:
        name, colon, value = line.partition(b":")
        if not colon:
            continue
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            try:
                claimed = int(value) if value.isdigit() else -1
            except ValueError:  # more digits than int() will convert
                claimed = -1
            # Two lengths that disagree are the request-smuggling shape:
            # a proxy that believed the other one frames the next
            # request somewhere else than this server does.
            if (claimed < 0 or claimed > _MAX_BODY
                    or (length >= 0 and claimed != length)):
                return _MALFORMED
            length = claimed
        elif name == b"connection":
            keep_alive = value.strip().lower() != b"close"
        elif name == b"transfer-encoding":
            # No endpoint takes a chunked body, and ignoring the header
            # while a proxy in front honours it desyncs the framing.
            return _MALFORMED
    if length < 0:
        if request_line[0] == b"POST":
            return _LENGTH_REQUIRED
        length = 0
    return request_line[0], request_line[1], length, keep_alive


def _render_verdict(accepted: bool, flagged: bool, risk_factor: Optional[int],
                    reject_reason: Optional[str], latency_ms: float) -> bytes:
    """Mirror ``CollectionApp._collect`` status + document exactly."""
    document = {
        "accepted": accepted,
        "flagged": flagged,
        "risk_factor": risk_factor,
        "latency_ms": latency_ms,
    }
    headers = [("Content-Type", "application/json")]
    if not accepted:
        document["reject_reason"] = reject_reason
        if reject_reason == OVERLOADED_REASON:
            headers.append(("Retry-After", _RETRY_AFTER_SECONDS))
            status = "503 Service Unavailable"
        else:
            status = "400 Bad Request"
    else:
        status = "202 Accepted"
    body = json.dumps(document).encode("utf-8")
    return _render(status, headers, body, True)


class _Connection(asyncio.Protocol):
    """One client connection; every method runs on the server's loop.

    ``buf`` holds received bytes no request has consumed yet.  ``slots``
    holds one ``[response, keep_alive]`` per parsed request, in request
    order; ``response`` is ``None`` until the request is answered.
    ``final`` says no further request will be parsed, so the transport
    closes as soon as the deque has drained.
    """

    __slots__ = ("server", "transport", "buf", "want", "slots", "final",
                 "eof", "write_paused")

    def __init__(self, server: "AsyncIngestServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.buf = bytearray()
        # A request whose head is parsed but whose body is still on its
        # way needs this many buffered bytes; parsing again before then
        # would redo the head for every fragment a slow client sends.
        self.want = 0
        self.slots: Deque[list] = deque()
        self.final = False
        self.eof = False
        self.write_paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server.open_connections += 1
        self.server._connections.add(self)
        self._sync_reading()

    def connection_lost(self, exc) -> None:
        self.transport = None
        self.final = True
        self.slots.clear()
        self.buf.clear()
        self.server.open_connections -= 1
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        if self.final:
            return
        self.buf += data
        if len(self.buf) >= self.want:
            self._parse()

    def eof_received(self) -> bool:
        # A client may half-close after pipelining its last request and
        # is still owed every response: keep the write side open.
        self.eof = True
        self._parse()
        return True

    def pause_writing(self) -> None:
        # The client is not reading its responses.  Stop taking requests
        # from it, or the answers pile up here without limit.
        self.write_paused = True
        self._sync_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._resume()

    def _sync_reading(self) -> None:
        """Read the socket exactly when nothing says not to."""
        if self.transport is None:
            return
        if (self.final or self.eof or self.write_paused
                or self.server._paused):
            self.transport.pause_reading()  # both calls are idempotent
        else:
            self.transport.resume_reading()

    def _resume(self) -> None:
        """A reason to stop went away: parse what waited, read again."""
        if self.buf and not self.final:
            self._parse()
        self._sync_reading()

    def _parse(self) -> None:
        """Consume every complete request in the buffer, in one pass."""
        server = self.server
        buf = self.buf
        slots = self.slots
        collect_buffer = server._buffer
        # Without a session layer the app answers /event itself (404).
        event_buffer = (
            None if getattr(server.app, "sessions", None) is None
            else server._events
        )
        max_pending = server.max_pending
        size = len(buf)
        pos = 0
        requests = collects = events = 0
        answered = False
        # True when requests stay in the buffer because something said stop.
        stopped = self.write_paused and size > 0
        self.want = 0
        while pos < size and not stopped:
            if server._pending >= max_pending:
                # Read-side backpressure: past the high watermark no
                # socket is read and nothing more is admitted, so no
                # request is parsed only to be shed.
                server._pause_reads()
                stopped = True
                break
            head_end = buf.find(b"\r\n\r\n", pos)
            if head_end < 0:
                if size - pos <= _MAX_HEAD:
                    break  # the head is still arriving
                head = _MALFORMED
            elif head_end + 4 - pos > _MAX_HEAD:
                head = _MALFORMED
            else:
                head = _read_head(buf[pos:head_end])
            if isinstance(head, bytes):
                # The body can't be skipped without trusting the head:
                # refuse, and let nothing after it be parsed.
                slots.append([head, False])
                self.final = answered = True
                break
            method, target, length, keep_alive = head
            end = head_end + 4 + length
            if end > size:
                self.want = end - pos
                break
            body = bytes(buf[head_end + 4:end]) if length else b""
            pos = end
            requests += 1
            slot = [None, keep_alive]
            slots.append(slot)
            path = target.split(b"?", 1)[0]
            if method == b"POST" and path == b"/collect":
                if body:
                    collects += 1
                    server._pending += 1
                    collect_buffer.append((body, self, slot))
                else:
                    slot[0] = _error("400 Bad Request", "bad content length",
                                     keep_alive)
                    answered = True
            elif (path == b"/event" and body and method == b"POST"
                    and event_buffer is not None):
                events += 1
                server._pending += 1
                event_buffer.append((body, self, slot))
            else:
                server._bridge(self, slot, method.decode("latin-1"),
                               path.decode("latin-1"), body)
            if not keep_alive:
                self.final = True
                break
        if self.eof and not stopped:
            self.final = True  # what is left is a truncated request
        if self.final:
            buf.clear()
            self._sync_reading()
        elif pos:
            del buf[:pos]
        server.requests_total += requests
        if collects:
            server.collect_total += collects
            server._wakeup.set()
        if events:
            server.event_total += events
            server._start_event_batch()
        if answered or self.final:
            self._flush()

    def _flush(self) -> None:
        """Write the answered prefix of the deque in one call."""
        transport = self.transport
        if transport is None:
            return
        slots = self.slots
        if slots and slots[0][0] is not None:
            out = [slots.popleft()[0]]
            while slots and slots[0][0] is not None:
                out.append(slots.popleft()[0])
            self.server.writes_total += 1
            transport.write(b"".join(out))
        if self.final and not slots:
            transport.close()


class AsyncIngestServer:
    """Asyncio front end feeding a scoring service in coalesced batches.

    ``service`` is anything speaking ``score_wire`` — the cluster
    router, the batched runtime, or the per-request service; its
    ``score_many`` is used when it has one.  ``app`` is the WSGI
    :class:`CollectionApp` wrapping the *same* service, used verbatim
    for every endpoint except ``POST /collect`` and — when it has a
    session layer attached (``app.sessions``) — ``POST /event``, whose
    bodies go to that layer's ``observe_many``.

    The server owns one event-loop thread; ``start()``/``close()``
    manage it directly, while ``serve_forever()``/``shutdown()`` match
    the ``wsgiref`` surface the CLI's signal plumbing expects.
    """

    def __init__(
        self,
        service,
        app: Callable,
        *,
        host: str = "127.0.0.1",
        port: int = 8040,
        batch_max: int = 256,
        linger_ms: float = 0.5,
        max_pending: int = 8192,
        score_threads: int = 4,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if max_pending < batch_max:
            raise ValueError("max_pending must be >= batch_max")
        self.service = service
        score_many = getattr(service, "score_many", None)
        if score_many is None:
            score_wire = service.score_wire

            def score_many(wires: List[bytes]) -> list:
                return [score_wire(wire) for wire in wires]

        self._score_many = score_many
        self.app = app
        self.host = host
        self.port = port
        self.batch_max = int(batch_max)
        self.linger_s = max(0.0, float(linger_ms)) / 1000.0
        self.max_pending = int(max_pending)
        # Resume reading only once the backlog has properly drained;
        # flapping around a single watermark would pause per-request.
        self.resume_pending = max(1, self.max_pending // 2)
        self._score_threads = max(1, int(score_threads))
        # -- counters (ints: GIL-atomic, read from any thread) --
        self.requests_total = 0
        self.collect_total = 0
        self.event_total = 0
        self.batches_total = 0
        self.batch_rows_total = 0
        self.writes_total = 0
        self.backpressure_pauses = 0
        self.open_connections = 0
        # -- lifecycle --
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None
        # -- loop-thread state (created in _main) --
        self._pending = 0
        self._paused = False
        self._connections: Set[_Connection] = set()
        self._buffer: List[Tuple[bytes, _Connection, list]] = []
        self._events: List[Tuple[bytes, _Connection, list]] = []
        self._event_batch_running = False
        # Written by the one event batch in flight, so never by two threads.
        self._event_templates: Dict[tuple, Tuple[bytes, bytes]] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "AsyncIngestServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="polygraph-aingest", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError("async ingest server failed to start")
        return self

    def close(self) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._stopped.set()

    # wsgiref-compatible surface for the CLI's signal plumbing.
    def serve_forever(self) -> None:
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        self.close()

    def __enter__(self) -> "AsyncIngestServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_stop(self) -> None:
        if self._stop_async is not None:
            self._stop_async.set()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()
        finally:
            self._stopped.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._stop_async = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._score_threads,
            thread_name_prefix="polygraph-score",
        )
        try:
            server = await self._loop.create_server(
                lambda: _Connection(self), self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            self._executor.shutdown(wait=False)
            return
        self.port = server.sockets[0].getsockname()[1]
        batcher = asyncio.ensure_future(self._batch_loop())
        self._started.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            # Keep-alive connections end with the server, not whenever
            # their clients get round to it.
            for conn in list(self._connections):
                conn.transport.abort()
            await server.wait_closed()
            batcher.cancel()
            self._buffer.clear()
            self._events.clear()
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # read-side backpressure, all connections at once

    def _pause_reads(self) -> None:
        if self._paused:
            return
        self._paused = True
        self.backpressure_pauses += 1
        for conn in self._connections:
            conn._sync_reading()

    def _resume_reads(self) -> None:
        self._paused = False
        for conn in list(self._connections):
            if self._paused:
                break  # a resumed connection refilled the backlog
            conn._resume()

    # ------------------------------------------------------------------
    # /collect: coalesce across connections, score in batches

    async def _batch_loop(self) -> None:
        """Slice the shared buffer into batches; several in flight."""
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._buffer:
                continue
            if len(self._buffer) < self.batch_max and self.linger_s > 0.0:
                # A short linger lets concurrent connections pile on so
                # the scoring tier sees wide batches, not single wires.
                await asyncio.sleep(self.linger_s)
            while self._buffer:
                self._dispatch(self._buffer, self._score_batch, self._deliver)

    def _dispatch(self, buffer: List[Tuple[bytes, _Connection, list]],
                  score: Callable[[List[bytes]], List[bytes]],
                  done: Callable) -> None:
        """Take one batch off ``buffer``; ``score`` its bodies on the
        thread pool, then call ``done(future, batch)`` on the loop."""
        batch = buffer[: self.batch_max]
        del buffer[: len(batch)]
        self.batches_total += 1
        self.batch_rows_total += len(batch)
        task = self._loop.run_in_executor(
            self._executor, score, [entry[0] for entry in batch]
        )
        task.add_done_callback(lambda future: done(future, batch))

    def _score_batch(self, wires: List[bytes]) -> List[bytes]:
        """Runs on the scoring thread pool; returns rendered responses."""
        verdicts = self._score_many(wires)
        # A batch holds few distinct answers (a shard stamps one latency
        # on a whole chunk), and formatting one costs more than scoring
        # a cache hit: render each distinct response once.
        rendered = {}
        responses = []
        for verdict in verdicts:
            key = (verdict.accepted, verdict.flagged, verdict.risk_factor,
                   verdict.reject_reason, round(verdict.latency_ms, 3))
            raw = rendered.get(key)
            if raw is None:
                raw = rendered[key] = _render_verdict(*key)
            responses.append(raw)
        return responses

    def _deliver(self, done, batch: List[Tuple[bytes, _Connection, list]]) -> None:
        """Executor-completion callback; runs on the event loop.

        Fills the batch's slots, then flushes each connection it touched
        once: a batch costs a write per connection, not per response.
        """
        try:
            responses = done.result()
        except Exception:
            responses = [_error("500 Internal Server Error", "scoring failed",
                                True)] * len(batch)
        touched = set()
        for raw, (_, conn, slot) in zip(responses, batch):
            slot[0] = raw if slot[1] else raw.replace(
                _KEEP_ALIVE_LINE, _CLOSE_LINE, 1
            )
            touched.add(conn)
        self._pending -= len(batch)
        for conn in touched:
            conn._flush()
        if self._paused and self._pending <= self.resume_pending:
            self._resume_reads()

    # ------------------------------------------------------------------
    # /event: coalesce across connections, one batch in flight

    def _start_event_batch(self) -> None:
        """Hand the session layer the next batch, unless one is running.

        One batch at a time is what keeps a session's events in order:
        two batches on two threads could fold a follow-up before the
        event it follows.  It also needs no linger — whatever arrives
        while a batch runs is the next batch.
        """
        if self._event_batch_running or not self._events:
            return
        self._event_batch_running = True
        self._dispatch(self._events, self._observe_batch, self._event_batch_done)

    def _observe_batch(self, bodies: List[bytes]) -> List[bytes]:
        """Runs on the scoring thread pool; returns rendered responses.

        Status and document are ``CollectionApp._event``'s, byte for
        byte.  Almost every answer differs from an earlier one in its
        session id alone, so an answer without a revision is rendered
        once per *shape* — every field but the id, and the id's length
        (it sets ``Content-Length``) — and kept cut in two around the
        id.  Only an id that JSON writes as it stands (printable ASCII,
        no quote, no backslash: :class:`EnvelopeParser`'s rule for
        slicing one) may be put between the halves.
        """
        headers = [("Content-Type", "application/json")]
        templates = self._event_templates
        responses = []
        for observation in self.app.sessions.observe_many(bodies):
            verdict = observation.verdict
            session_id = verdict.session_id
            key = None
            if observation.revision is None and _PLAIN_SID(session_id):
                key = (
                    verdict.accepted, verdict.flagged, verdict.risk_factor,
                    verdict.reject_reason, observation.session_flagged,
                    observation.session_risk, observation.event_seq,
                    observation.session_created, len(session_id),
                )
                halves = templates.get(key)
                if halves is not None:
                    responses.append(
                        halves[0] + session_id.encode("ascii") + halves[1]
                    )
                    continue
            status = "202 Accepted" if verdict.accepted else "400 Bad Request"
            body = json.dumps(observation.to_dict()).encode("utf-8")
            raw = _render(status, headers, body, True)
            if key is not None:
                # ``event_seq`` and the reject reason are the client's
                # to choose: bounded, and cleared whole at the bound.
                if len(templates) >= _EVENT_TEMPLATE_LIMIT:
                    templates.clear()
                cut = raw.index(_EVENT_BODY_OPENS) + len(_EVENT_BODY_OPENS)
                templates[key] = (raw[:cut], raw[cut + len(session_id):])
            responses.append(raw)
        return responses

    def _event_batch_done(self, done, batch) -> None:
        self._event_batch_running = False
        # The next batch scores while this one's answers are written.
        self._start_event_batch()
        self._deliver(done, batch)

    # ------------------------------------------------------------------
    # WSGI bridge for every other endpoint

    def _bridge(self, conn: _Connection, slot: list, method: str, path: str,
                body: bytes) -> None:
        """Answer one non-collect request from the app, off the loop."""
        call = self._loop.run_in_executor(
            self._executor, self._wsgi_call, method, path, body, slot[1]
        )

        def fill(done) -> None:
            try:
                slot[0] = done.result()
            except (asyncio.CancelledError, Exception):
                slot[0] = _error("500 Internal Server Error",
                                 "scoring failed", slot[1])
            conn._flush()

        call.add_done_callback(fill)

    def _wsgi_call(self, method: str, path: str, body: bytes,
                   keep_alive: bool) -> bytes:
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(body)),
            "SERVER_PROTOCOL": "HTTP/1.1",
            "wsgi.input": io.BytesIO(body),
        }
        captured: List = []

        def start_response(status, headers, exc_info=None):
            captured[:] = [status, list(headers)]

        chunks = self.app(environ, start_response)
        try:
            payload = b"".join(chunks)
        finally:
            close = getattr(chunks, "close", None)  # PEP 3333
            if close is not None:
                close()
        status, headers = captured
        if path == "/metrics" and status.startswith("200"):
            payload += ("\n".join(self.metrics_lines()) + "\n").encode("utf-8")
            headers = [
                (k, v) for k, v in headers if k.lower() != "content-length"
            ]
        return _render(status, headers, payload, keep_alive)

    # ------------------------------------------------------------------

    def metrics_lines(self) -> List[str]:
        return [
            "# TYPE polygraph_ingest_requests counter",
            f"polygraph_ingest_requests {self.requests_total}",
            "# TYPE polygraph_ingest_writes counter",
            f"polygraph_ingest_writes {self.writes_total}",
            "# TYPE polygraph_ingest_collect_requests counter",
            f"polygraph_ingest_collect_requests {self.collect_total}",
            "# TYPE polygraph_ingest_event_requests counter",
            f"polygraph_ingest_event_requests {self.event_total}",
            "# TYPE polygraph_ingest_batches counter",
            f"polygraph_ingest_batches {self.batches_total}",
            "# TYPE polygraph_ingest_batch_rows counter",
            f"polygraph_ingest_batch_rows {self.batch_rows_total}",
            "# TYPE polygraph_ingest_backpressure_pauses counter",
            f"polygraph_ingest_backpressure_pauses {self.backpressure_pauses}",
            "# TYPE polygraph_ingest_open_connections gauge",
            f"polygraph_ingest_open_connections {self.open_connections}",
            "# TYPE polygraph_ingest_pending_wires gauge",
            f"polygraph_ingest_pending_wires {self._pending}",
        ]
