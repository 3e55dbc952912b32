"""The load generator against a stub server: scheduling and checking.

Run on demand (not part of the repo's tier-1 suite):

    python3 -m unittest discover -s benchmarks/e2e/tests -v
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2ebench.loadgen import Lane, LoadGenerator, Request, due_time  # noqa: E402

_DOC = {"accepted": True, "flagged": False}
_EXPECT = (b"202", (True, False))


def _extract(doc):
    return (doc.get("accepted"), doc.get("flagged"))


class StubServer:
    """Answers every request with the same verdict, ``delay_s`` late."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.threads = []
        self._accepting = threading.Thread(target=self._accept, daemon=True)
        self._accepting.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn: socket.socket) -> None:
        body = json.dumps(_DOC).encode()
        reply = b"HTTP/1.1 202 Accepted\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        buf = b""
        with conn:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                buf += data
                answers = 0
                while True:
                    head_end = buf.find(b"\r\n\r\n")
                    if head_end < 0:
                        break
                    at = buf.index(b"Content-Length: ") + 16
                    length = int(buf[at : buf.index(b"\r", at)])
                    if len(buf) < head_end + 4 + length:
                        break
                    buf = buf[head_end + 4 + length :]
                    answers += 1
                if answers:
                    time.sleep(self.delay_s)
                    conn.sendall(reply * answers)

    def close(self) -> None:
        self.listener.close()


def _requests(n: int = 64):
    body_head, body_tail = b'{"sid":"t', b'"}'
    head = (
        b"POST /collect HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
        % (len(body_head) + 10 + len(body_tail))
    )
    return [Request(head + body_head, body_tail, 0, _EXPECT) for _ in range(n)]


class OpenLoopSchedule(unittest.TestCase):
    def test_due_time_is_a_function_of_the_index_alone(self):
        self.assertEqual(due_time(10.0, 0, 200.0), 10.0)
        self.assertAlmostEqual(due_time(10.0, 50, 200.0), 10.25)

    def _run(self, delay_s: float):
        server = StubServer(delay_s)
        try:
            lanes = [Lane(_requests(), False), Lane(_requests(), False)]
            with LoadGenerator(server.port, lanes, _extract) as generator:
                return generator.open_loop(1.0, 200.0, window_s=0.5)
        finally:
            server.close()

    def test_a_slow_server_does_not_delay_the_schedule(self):
        fast = self._run(0.0)
        slow = self._run(0.15)
        for result in (fast, slow):
            self.assertEqual(result.attempted, 200)
            self.assertEqual(result.correct, 200)
            self.assertEqual(result.failed, 0)
            # Every request left on time whatever the answers did.
            self.assertLess(result.late_ms_max, 25.0)
        # Latency runs from the due time, so the server's delay shows in full.
        self.assertGreaterEqual(min(slow.latencies_ms), 150.0 - 1.0)
        self.assertLess(sorted(fast.latencies_ms)[100], 50.0)

    def test_windows_partition_the_phase(self):
        result = self._run(0.0)
        windows = result.windows()
        self.assertEqual(len(windows), 2)
        self.assertEqual(sum(len(lat) for lat, _, _, _ in windows), 200)
        for _, _, start, end in windows:
            self.assertAlmostEqual(end - start, 0.5, delta=0.05)


class ResponseChecking(unittest.TestCase):
    def test_a_wrong_expectation_is_a_failed_request(self):
        server = StubServer(0.0)
        try:
            wrong = [r._replace(expect=(b"202", (True, True))) for r in _requests()]
            lanes = [Lane(_requests(), False), Lane(wrong, False)]
            with LoadGenerator(server.port, lanes, _extract) as generator:
                result = generator.closed_loop(0.3, depth=4, window_s=0.1)
        finally:
            server.close()
        self.assertGreater(result.correct, 0)
        self.assertGreater(result.failed, 0)
        self.assertEqual(result.correct + result.failed, result.attempted)
        self.assertTrue(result.mismatches)

    def test_counter_makes_every_request_unique(self):
        lane = Lane(_requests(4), False)
        rendered = {lane.render_next()[0] for _ in range(12)}
        self.assertEqual(len(rendered), 12)

    def test_replay_reuses_an_earlier_counter(self):
        requests = _requests(4)
        requests[3] = requests[3]._replace(lag=2)
        lane = Lane(requests, False)
        rendered = [lane.render_next()[0] for _ in range(4)]
        self.assertEqual(rendered[3], rendered[1])


if __name__ == "__main__":
    unittest.main()
