"""The worker pool: a bounded queue with backpressure and graceful drain.

Work that must never slow the latency-critical path — the rollout's
shadow comparisons — runs behind this pool.  Its queue is bounded:
when it is full, :meth:`WorkerPool.submit` refuses the item and the
caller records an explicit shed, which is operationally honest in a
way an unbounded backlog is not.  Workers block on the queue and hand
each item to ``handler``.

``shutdown(drain=True)`` stops intake, lets the workers finish every
queued item, and joins them.  With ``drain=False`` the backlog is
dropped first.

This module also defines the typed :class:`Overloaded` verdict a
serving path answers with when it refuses a request unscored (a dead
shard, a broken slab pipe, an unroutable key); the cluster router's
failover keys on it.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.runtime.stats import RuntimeStats
from repro.service.scoring import Verdict

__all__ = ["Overloaded", "WorkerPool", "overloaded_verdict"]

OVERLOADED_REASON = "overloaded"


@dataclass(frozen=True)
class Overloaded(Verdict):
    """A typed shed verdict: the runtime refused the request unscored."""


def overloaded_verdict(session_id: str = "", latency_ms: float = 0.0) -> Overloaded:
    """Build the shed verdict for one refused request."""
    return Overloaded(
        session_id=session_id,
        accepted=False,
        flagged=False,
        risk_factor=None,
        reject_reason=OVERLOADED_REASON,
        latency_ms=latency_ms,
    )


class _Sentinel:
    """Queue poison pill; one per worker on shutdown."""


_SENTINEL = _Sentinel()


class WorkerPool:
    """Threads draining a bounded request queue.

    Parameters
    ----------
    handler:
        ``handler(item)`` — processes one queued request.
    n_workers:
        Number of worker threads.
    queue_capacity:
        Bound on the request queue; beyond it :meth:`submit` sheds.
    stats:
        Shared :class:`RuntimeStats`; queue depth/peak gauges and the
        ``requests_shed`` counter land here.
    """

    def __init__(
        self,
        handler: Callable[[object], None],
        n_workers: int = 4,
        queue_capacity: int = 2048,
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.handler = handler
        self.n_workers = n_workers
        self.queue_capacity = queue_capacity
        self.stats = stats if stats is not None else RuntimeStats()
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_capacity)
        self._threads: List[threading.Thread] = []
        self._accepting = False
        self._started = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._accepting = True
            for index in range(self.n_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"polygraph-worker-{index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def submit(self, item: object) -> bool:
        """Enqueue a request; ``False`` means the pool shed it."""
        if not self._accepting:
            self.stats.incr("requests_shed")
            return False
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self.stats.incr("requests_shed")
            return False
        depth = self._queue.qsize()
        self.stats.set_gauge("queue_depth", depth)
        return True

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Stop intake, settle the backlog, join the workers.

        With ``drain=True`` the workers finish the backlog first; with
        ``drain=False`` it is dropped.
        """
        with self._lock:
            if not self._started:
                return
            self._accepting = False
        if not drain:
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        with self._lock:
            self._started = False
        self.stats.set_gauge("queue_depth", 0)

    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (approximate)."""
        return self._queue.qsize()

    @property
    def is_running(self) -> bool:
        """Whether the workers are alive."""
        with self._lock:
            return self._started

    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if isinstance(item, _Sentinel):
                return
            try:
                self.handler(item)
            except Exception:  # noqa: BLE001 — a bad item must not kill the worker
                pass
