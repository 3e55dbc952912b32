"""Single-threaded load generator: ``selectors`` over a few sockets.

Two phase shapes, both over HTTP/1.1 pipelined keep-alive connections:

* **open loop** — request ``i`` is due at ``t0 + i / rate`` whatever the
  server does; latency is measured from that due time, so a stall is
  charged to every request it delays.  How late the generator itself
  ran is reported (``late_ms_max``) and bounds the run's validity.
* **closed loop** — a fixed number of requests in flight per connection;
  the next one is sent when a response arrives.  Yields throughput and
  CPU cost at saturation, not latency percentiles.

Every response is checked against the expected verdict that travels
with its request.  Responses on one connection arrive in request order
(the server's per-connection response lanes), so matching is FIFO.

A request is ``head + <10-digit counter> + tail``: the counter lands in
the session id, which makes every request unique without re-rendering
the body (the body length, and so ``Content-Length``, never changes).
"""

from __future__ import annotations

import contextlib
import gc
import json
import selectors
import socket
import time
from collections import deque
from typing import Callable, Deque, List, NamedTuple, Optional, Sequence, Tuple

_RECV_BYTES = 1 << 18
_HEADER_END = b"\r\n\r\n"
_LENGTH_KEY = b"Content-Length: "
_DRAIN_TIMEOUT_S = 10.0
# Open loop: the generator wakes at least this often.  A request due
# inside a tick is sent at the tick's end, so the tick adds at most this
# much to a latency (it is part of ``late_ms_max``); a finer tick buys
# little and costs the generator a core share the server needs.
_TICK_S = 0.0005


class Request(NamedTuple):
    """One pre-rendered request and the answer it must get.

    ``lag`` > 0 replays the counter value of the request sent ``lag``
    positions earlier on the same connection (a replayed session id).
    """

    head: bytes
    tail: bytes
    lag: int
    expect: tuple  # (status bytes, extracted fields)


def due_time(t0: float, index: int, rate: float) -> float:
    """When open-loop request ``index`` is due.  Depends on nothing else."""
    return t0 + index / rate


class PhaseResult:
    """What one phase measured.

    The phase is cut into windows of about ``window_s``; ``marks`` holds,
    for each window boundary, how many correct responses had arrived, the
    caller's probe reading (the server's CPU seconds) and the clock at
    that instant -- a boundary is noticed a little after it is due, so a
    window is as long as its two marks say, not as long as it was meant.
    """

    def __init__(self, kind: str, window_s: float) -> None:
        self.kind = kind
        self.attempted = 0
        self.correct = 0
        self.failed = 0
        self.unanswered = 0
        self.latencies_ms: List[float] = []  # correct responses, arrival order
        self.window_s = window_s
        self.marks: List[Tuple[int, float, float]] = []
        self.late_ms_max = 0.0
        self.late_requests = 0  # open loop: sent more than ``late_ms`` after due
        self.elapsed_s = 0.0  # first send to last response
        self.loadgen_cpu_s = 0.0
        self.mismatches: List[str] = []  # first few, for the failure report

    def note_mismatch(self, text: str) -> None:
        if len(self.mismatches) < 5:
            self.mismatches.append(text)

    def windows(self) -> List[Tuple[List[float], float, float, float]]:
        """Per window: its correct responses' latencies, probe delta, start, end."""
        return [
            (self.latencies_ms[a:b], probe_b - probe_a, at_a, at_b)
            for (a, probe_a, at_a), (b, probe_b, at_b) in zip(self.marks, self.marks[1:])
        ]


class Lane:
    """One connection: its request list, send cursor and FIFO of expectations."""

    def __init__(self, requests: Sequence[Request], counter_by_pass: bool) -> None:
        if not requests:
            raise ValueError("a lane needs at least one request")
        self.requests = requests
        self.size = len(requests)
        # Session streams keep their ids within a pass over the list and
        # change them between passes; one-shot requests count every send.
        self.counter_by_pass = counter_by_pass
        self.sent = 0
        self.inflight: Deque[Tuple[tuple, float]] = deque()
        self.inbuf = b""
        self.outbuf = b""
        self.sock: Optional[socket.socket] = None

    def render_next(self) -> Tuple[bytes, tuple]:
        head, tail, lag, expect = self.requests[self.sent % self.size]
        if self.counter_by_pass:
            counter = self.sent // self.size
        else:
            counter = self.sent - lag
        self.sent += 1
        return head + (b"%010d" % counter) + tail, expect


class LoadGenerator:
    """Drives one server over ``len(lanes)`` connections from one thread."""

    def __init__(
        self,
        port: int,
        lanes: Sequence[Lane],
        extract: Callable[[dict], tuple],
        probe: Callable[[], float] = lambda: 0.0,
        host: str = "127.0.0.1",
    ) -> None:
        self.host = host
        self.port = port
        self.lanes = list(lanes)
        self.extract = extract
        # Read at every window boundary (the server tree's CPU seconds).
        self.probe = probe
        self.selector = selectors.DefaultSelector()

    # -- connections ----------------------------------------------------

    def connect(self) -> None:
        for lane in self.lanes:
            sock = socket.create_connection((self.host, self.port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            lane.sock = sock
            self.selector.register(sock, selectors.EVENT_READ, lane)

    def close(self) -> None:
        for lane in self.lanes:
            if lane.sock is not None:
                try:
                    self.selector.unregister(lane.sock)
                except (KeyError, ValueError):
                    pass
                lane.sock.close()
                lane.sock = None
        self.selector.close()

    def __enter__(self) -> "LoadGenerator":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- socket plumbing ------------------------------------------------

    def _send(self, lane: Lane, data: bytes) -> None:
        if lane.outbuf:
            lane.outbuf += data
            return
        try:
            sent = lane.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            lane.outbuf = data[sent:]
            self.selector.modify(
                lane.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, lane
            )

    def _flush(self, lane: Lane) -> None:
        try:
            sent = lane.sock.send(lane.outbuf)
        except BlockingIOError:
            return
        lane.outbuf = lane.outbuf[sent:]
        if not lane.outbuf:
            self.selector.modify(lane.sock, selectors.EVENT_READ, lane)

    def _receive(self, lane: Lane, result: PhaseResult) -> int:
        """Read what is there, check every complete response; returns how many."""
        try:
            data = lane.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return 0
        if not data:
            raise ConnectionError("server closed a benchmark connection")
        now = time.perf_counter()
        buf = lane.inbuf + data if lane.inbuf else data
        pos = 0
        done = 0
        inflight = lane.inflight
        extract = self.extract
        latencies = result.latencies_ms
        while True:
            head_end = buf.find(_HEADER_END, pos)
            if head_end < 0:
                break
            at = buf.find(_LENGTH_KEY, pos, head_end)
            if at >= 0:
                at += len(_LENGTH_KEY)
                length = int(buf[at : buf.index(b"\r", at)])
            else:
                length = _content_length(buf[pos:head_end])
            end = head_end + 4 + length
            if end > len(buf):
                break
            expect, due = inflight.popleft()
            status = buf[pos + 9 : pos + 12]
            try:
                fields = extract(json.loads(buf[head_end + 4 : end]))
            except ValueError:
                fields = None
            if status == expect[0] and fields == expect[1]:
                result.correct += 1
                latencies.append((now - due) * 1000.0)
            else:
                result.failed += 1
                result.note_mismatch(
                    f"expected {expect[0].decode()} {expect[1]}, "
                    f"got {status.decode('latin-1')} {fields}"
                )
            pos = end
            done += 1
        lane.inbuf = buf[pos:]
        return done

    def _poll(self, timeout: float, result: PhaseResult) -> List[Tuple[Lane, int]]:
        answered = []
        for key, events in self.selector.select(timeout):
            lane = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(lane)
            if events & selectors.EVENT_READ:
                done = self._receive(lane, result)
                if done:
                    answered.append((lane, done))
        return answered

    def _drain(self, result: PhaseResult) -> None:
        deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
        while any(lane.inflight or lane.outbuf for lane in self.lanes):
            if time.perf_counter() > deadline:
                for lane in self.lanes:
                    result.unanswered += len(lane.inflight)
                    lane.inflight.clear()
                break
            self._poll(0.05, result)
        result.failed += result.unanswered

    # -- phases ---------------------------------------------------------

    def closed_loop(
        self, seconds: float, depth: int, window_s: float = 0.25,
        max_requests: Optional[int] = None,
    ) -> PhaseResult:
        """Keep ``depth`` requests in flight per connection for ``seconds``.

        With ``max_requests`` the phase ends as soon as that many have
        been sent (and answered), so the work done does not depend on how
        fast the host happens to be.
        """
        with _collector_paused():
            return self._closed_loop(seconds, depth, window_s, max_requests)

    def _closed_loop(
        self, seconds: float, depth: int, window_s: float, max_requests: Optional[int]
    ) -> PhaseResult:
        result = PhaseResult("closed", window_s)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        stop_at = t0 + seconds
        result.marks.append((0, self.probe(), t0))
        boundary = t0 + window_s
        for lane in self.lanes:
            self._send_batch(lane, depth, t0, result)
        while True:
            now = time.perf_counter()
            if now >= boundary:
                result.marks.append((len(result.latencies_ms), self.probe(), now))
                boundary += window_s
            if now >= stop_at:
                break
            if max_requests is not None and result.attempted >= max_requests:
                break
            for lane, done in self._poll(min(boundary, stop_at) - now, result):
                self._send_batch(lane, done, time.perf_counter(), result)
        self._drain(result)
        result.elapsed_s = time.perf_counter() - t0
        result.loadgen_cpu_s = time.process_time() - cpu0
        return result

    def _send_batch(self, lane: Lane, count: int, due: float, result: PhaseResult) -> None:
        parts = []
        for _ in range(count):
            data, expect = lane.render_next()
            parts.append(data)
            lane.inflight.append((expect, due))
        result.attempted += count
        self._send(lane, b"".join(parts))

    def open_loop(
        self, seconds: float, rate: float, window_s: float = 0.25, late_ms: float = 50.0
    ) -> PhaseResult:
        """Send request ``i`` at ``t0 + i / rate``, striped over the connections.

        A request sent more than ``late_ms`` after it was due was delayed
        by the generator (or a pause of the whole guest), not the server;
        those are counted.
        """
        with _collector_paused():
            return self._open_loop(seconds, rate, window_s, late_ms / 1000.0)

    def _open_loop(
        self, seconds: float, rate: float, window_s: float, late_s: float
    ) -> PhaseResult:
        result = PhaseResult("open", window_s)
        total = int(seconds * rate)
        lanes = self.lanes
        n_lanes = len(lanes)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result.marks.append((0, self.probe(), t0))
        boundary = t0 + window_s
        index = 0
        late_max = 0.0
        end_at = t0 + seconds
        while True:
            now = time.perf_counter()
            if now >= boundary:
                result.marks.append((len(result.latencies_ms), self.probe(), now))
                boundary += window_s
            if index >= total and now >= end_at:
                break
            batches: List[List[bytes]] = [[] for _ in lanes]
            first_due = due_time(t0, index, rate)
            while index < total:
                due = due_time(t0, index, rate)
                if due > now:
                    break
                lane = lanes[index % n_lanes]
                data, expect = lane.render_next()
                lane.inflight.append((expect, due))
                batches[index % n_lanes].append(data)
                index += 1
            if now - first_due > late_max and any(batches):
                late_max = now - first_due
            if now - first_due > late_s:
                result.late_requests += sum(len(parts) for parts in batches)
            for lane, parts in zip(lanes, batches):
                if parts:
                    self._send(lane, b"".join(parts))
            next_due = due_time(t0, index, rate) if index < total else end_at
            wake = min(max(next_due, now + _TICK_S), boundary)
            while True:
                remaining = wake - time.perf_counter()
                if remaining <= 0:
                    break
                self._poll(remaining, result)
        result.attempted = total
        self._drain(result)
        result.late_ms_max = late_max * 1000.0
        result.elapsed_s = time.perf_counter() - t0
        result.loadgen_cpu_s = time.process_time() - cpu0
        return result


@contextlib.contextmanager
def _collector_paused():
    """No cyclic GC inside a phase.

    The generator holds tens of thousands of pre-rendered requests; a
    full collection walks them all and showed up as the generator
    sending 60 ms late.  A phase allocates no cycles, so nothing is lost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _content_length(header_block: bytes) -> int:
    """Case-insensitive fallback for a server that spells the header otherwise."""
    for line in header_block.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return int(value)
    return 0
