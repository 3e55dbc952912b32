"""Shard lifecycle: replicas, heartbeats, failover, restart.

A *shard* is one model replica in a forked child process behind a small
uniform surface (``score_chunk``, ``ping``, ``kill``, ``restart``),
reached through the shared-memory slab of
:mod:`repro.cluster.transport`.  Ingest, dedup and the verdict cache run
router-side, one :class:`~repro.cluster.transport.ShmTransport` per
shard, and only cache misses cross.  A crashed shard is a dead process,
not a corrupted heap.  Shards need the ``fork`` start method: the child
inherits its slab as a mapping.

Every child *loads its own model replica from a file* and checks it
against the sha256 digest recorded when it was saved (and, given the
digest a registry recorded, the parent checks the file carries it
before the first fork): no shard ever serves bytes nobody can account
for.  A shard serves the model it booted with for its whole life; model
changes (rollouts, retrains) reach serving through one
:class:`~repro.runtime.service.RuntimeScoringService` and its
:class:`~repro.rollout.manager.RolloutManager`, never through shards.

:class:`ShardSupervisor` owns N shards plus the consistent-hash ring.
A heartbeat thread pings every shard; ``unhealthy_after`` consecutive
failures (heartbeat or router-reported) take the shard off the ring —
its arcs drain to the ring-order successors — and the supervisor then
restarts it and puts it back.  The router never waits on a sick shard:
re-routing is a ring lookup away the moment the node is removed.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.ring import HashRing
from repro.cluster.transport import ShmSlab, ShmTransport, attach_slab_views
from repro.core.pipeline import BrowserPolygraph
from repro.durable import read_json
from repro.fingerprint.features import N_FEATURES
from repro.runtime.service import RuntimeConfig
from repro.service.scoring import Verdict

__all__ = [
    "ClusterConfig",
    "ProcessShard",
    "ShardError",
    "ShardSupervisor",
]


class ShardError(RuntimeError):
    """A shard could not serve: dead process, broken pipe, bad replica."""


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and health-checking knobs of the serving cluster."""

    n_shards: int = 2
    # Shims: benchmarks/e2e (frozen) passes backend="process" and
    # transport="shm", which every shard is; the fields go when ROADMAP
    # item 1(a)'s benchmark PR drops the arguments.
    backend: str = "process"
    transport: str = "shm"
    vnodes: int = 64
    heartbeat_interval_s: float = 0.25
    unhealthy_after: int = 2  # consecutive failures before removal
    ping_timeout_s: float = 5.0
    ring_slots: int = 4096  # shm slab rows per shard

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.backend != "process":
            raise ValueError("backend must be 'process'")
        if self.transport != "shm":
            raise ValueError("transport must be 'shm'")
        if self.unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")


# ----------------------------------------------------------------------
# the shard


def _shard_worker(conn, router_end, model_path: str, slab: ShmSlab) -> None:
    """Child-process main loop: one model replica behind a pipe and a slab.

    The child checks the slab it inherited at fork and handshakes
    ``("shm_ready", attached, namespace_probe, vendor_risk, generation)``
    — the parent needs the escalation config because ingest and the
    Section 8 escalation run router-side, and the child only evaluates
    raw feature rows (``shmscore``, which names the batch's user-agent
    classes) straight out of the slab with one vectorized model call.
    ``attached=False`` tells the parent the slab could not be mapped; it
    reaps this child and raises.

    Each ``("shmdone", seq, generation, inferred)`` reply names, under
    ``unknown_ua_policy="infer"``, the ``(ua_key, (inferred_release,
    inferred_distance))`` of every class in the batch that was scored
    against a neighbouring release; the result rows cannot carry it.
    Inference depends on the key alone, so it is named per class, not
    per row, and the tuple is usually ``()``.

    The fork copied every descriptor the router held: its end of this
    pipe (closed first, so that ``recv`` sees EOF, and the child exits,
    once the router is gone, however it went) and, when a restart forks
    after ``serve`` has bound its port, the listener and the open client
    connections.  Every descriptor but stdio and this child's pipe end
    is closed before the handshake, so a drained server's port refuses
    connections while a shard lives.  The slab is an anonymous mapping,
    with no descriptor to keep.
    """
    router_end.close()
    # Terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; the supervisor stops children through a ("stop",) pipe
    # message, so the signal would only interrupt conn.recv() with a
    # stray traceback mid-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    polygraph = BrowserPolygraph.load(model_path)
    # After the load, the child's last open: an inherited object that
    # closes its old descriptor later can hit no reused number.
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    infer = polygraph.config.unknown_ua_policy == "infer"
    try:
        shm_meta, shm_results, shm_rows = attach_slab_views(slab)
        attached = True
    except Exception:  # noqa: BLE001 — report it; the parent decides
        attached = False
    conn.send(
        (
            "shm_ready",
            attached,
            bool(polygraph.config.enable_namespace_probe),
            int(polygraph.config.vendor_mismatch_risk),
            polygraph.model_generation,
        )
    )
    if not attached:
        conn.close()
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "shmscore":
            _, seq, start, count, ua_keys = message
            try:
                generation, detector = polygraph.detection_snapshot()
                user_agents = [
                    ua_keys[index]
                    for index in shm_meta[start : start + count].tolist()
                ]
                results = detector.evaluate_vectors(
                    shm_rows[start : start + count], user_agents
                )
                shm_results[start : start + count] = [
                    (
                        result.predicted_cluster,
                        -1
                        if result.expected_cluster is None
                        else result.expected_cluster,
                        1 if result.flagged else 0,
                        -1 if result.risk_factor is None else result.risk_factor,
                    )
                    for result in results
                ]
                inferred = ()
                if infer:
                    inferred = tuple(
                        {
                            ua_key: (result.inferred_release, result.inferred_distance)
                            for ua_key, result in zip(user_agents, results)
                            if result.inferred_release is not None
                        }.items()
                    )
                conn.send(("shmdone", seq, generation, inferred))
            except Exception as exc:  # noqa: BLE001 — reply, don't die
                conn.send(("shmerr", seq, f"{type(exc).__name__}: {exc}"))
        elif op == "ping":
            conn.send(polygraph.model_generation)
        elif op == "stop":
            conn.send(("stopped",))
            break
    conn.close()


# Transport counts that only grow (so does ``unknown_ua``): a restarted
# shard carries them on.
_CARRIED = ("zero_copy_batches", "zero_copy_rows", "backpressure_waits",
            "cache_hits", "cache_misses", "scored", "flagged")


class ProcessShard:
    """One scoring shard hosted in a child process.

    Ingest, dedup and the verdict cache run router-side in a
    :class:`~repro.cluster.transport.ShmTransport`; only cache misses
    cross the process boundary, as zero-copy feature rows in a
    shared-memory slab.  The shard owns no thread: every pipe use —
    scoring and heartbeat pings — happens on the caller's thread under
    the transport lock, and :meth:`score_chunk` works in sub-chunks so
    pings interleave between them.

    A dead child fails the misses in flight with
    :data:`~repro.service.scoring.OVERLOADED_REASON` verdicts, which the
    router treats as its cue to re-route.  A slab that cannot be created
    or attached fails :meth:`start` with :class:`ShardError`, with the
    child reaped and the mapping closed — there is no second data plane
    to degrade to.

    Crash/restart semantics: the slab outlives the child.  ``restart``
    forks a fresh child over the *same* mapping, with a fresh transport
    — cache, dedup window and gauges start cold, as they would after
    a real crash; the model file, and so every verdict, is unchanged.
    The monotonic counts of every retired transport are carried into
    :meth:`transport_stats`, so no ``_total`` series falls on a restart,
    nor vanishes while a restart keeps failing.
    """

    _SHM_SUBCHUNK = 4096

    def __init__(
        self,
        shard_id: str,
        model_path: Union[str, Path],
        runtime_config: RuntimeConfig = RuntimeConfig(),
        expected_digest: Optional[str] = None,
        model_version: int = 1,
        ring_slots: int = 4096,
    ) -> None:
        self.shard_id = shard_id
        self.model_path = Path(model_path)
        self.runtime_config = runtime_config
        self.model_version = model_version
        if expected_digest is not None:
            # Parent-side check: the child loads the replica on its own.
            on_disk = read_json(self.model_path).get("sha256")
            if on_disk not in (None, expected_digest):
                raise ShardError(
                    f"replica digest mismatch for {self.model_path.name}: "
                    f"expected {expected_digest[:12]}..., file carries "
                    f"{on_disk[:12]}..."
                )
        self.ring_slots = ring_slots
        self._ctx = multiprocessing.get_context("fork")
        self._process = None
        self._conn = None
        self._alive = False
        self._slab: Optional[ShmSlab] = None
        self._transport: Optional[ShmTransport] = None
        # The last retired transport's stats, its carried counts summed
        # over every transport retired before it (``None`` until one
        # retires); swapped with ``_transport`` under ``_retire_lock``.
        self._retired: Optional[dict] = None
        self._retire_lock = threading.Lock()
        # Cluster-shared CoverageTracker; applied to each fresh transport.
        self.coverage = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ProcessShard":
        if self._alive:
            return self
        with self._retire_lock:
            if self._transport is not None:
                self._retired = self._carried(self._transport.transport_stats())
                self._transport = None
        try:
            if self._slab is None:
                self._slab = ShmSlab(self.ring_slots, N_FEATURES)
            parent_conn, child_conn = self._ctx.Pipe()
            self._process = self._ctx.Process(
                target=_shard_worker,
                args=(child_conn, parent_conn, str(self.model_path), self._slab),
                name=f"polygraph-shard-{self.shard_id}",
                daemon=True,
            )
            self._process.start()
            child_conn.close()
            self._conn = parent_conn
            if not parent_conn.poll(30.0):
                raise ShardError("handshake timed out")
            tag, attached, namespace_probe, vendor_risk, generation = (
                parent_conn.recv()
            )
            if tag != "shm_ready":
                raise ShardError(f"bad handshake: {tag!r}")
            if not attached:
                raise ShardError("child could not attach the slab")
        except (EOFError, OSError, ValueError, ShardError) as exc:
            # No slab, no shard: reap the child, unmap the slab.
            self.kill()
            self._reap()
            self._close_slab()
            raise ShardError(
                f"shard {self.shard_id} cannot start its shared-memory "
                f"transport: {type(exc).__name__}: {exc}"
            ) from exc
        self._transport = ShmTransport(
            self._slab,
            parent_conn,
            self.runtime_config,
            namespace_probe=namespace_probe,
            vendor_risk=vendor_risk,
            generation=generation,
        )
        self._transport.coverage = self.coverage
        self._alive = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the child; nothing is queued, so ``drain`` has no effect."""
        if self._alive:
            try:
                self._call(("stop",), timeout=30.0)
            except ShardError:
                pass
            self._alive = False
        self._reap()
        self._close_slab()

    def kill(self) -> None:
        """Crash simulation: SIGKILL the child mid-batch."""
        transport = self._transport
        if transport is not None:
            transport.broken = True
        process = self._process
        if process is not None and process.is_alive():
            process.kill()
        self._alive = False

    def restart(self) -> None:
        """Fresh child over the same slab; transport starts cold."""
        self.kill()
        self._reap()
        self.start()

    def _close_slab(self) -> None:
        self._transport = None
        slab = self._slab
        self._slab = None
        if slab is not None:
            slab.close()

    def _reap(self) -> None:
        process = self._process
        self._process = None
        if process is not None:
            process.join(timeout=5.0)
        conn = self._conn
        self._conn = None
        if conn is not None:
            conn.close()

    # -- serving --------------------------------------------------------

    def score_chunk(self, wires: Sequence[bytes], rows=None, found=None) -> List[Verdict]:
        transport = self._transport
        if not self._alive or transport is None:
            raise ShardError(f"shard {self.shard_id} is not running")
        verdicts: List[Verdict] = []
        part: Optional[list] = None if found is None else []
        # Sub-chunks bound how long the transport lock is held so
        # heartbeat pings interleave mid-chunk.
        for begin in range(0, len(wires), self._SHM_SUBCHUNK):
            end = begin + self._SHM_SUBCHUNK
            verdicts.extend(
                transport.score_wires(wires[begin:end], rows and rows[begin:end], part)
            )
            if part is not None:
                found[begin:end] = part
        if transport.broken:
            self._alive = False
        return verdicts

    # -- control --------------------------------------------------------

    def ping(self) -> int:
        """One control round trip; the child's model generation."""
        return self._call(("ping",), timeout=5.0)

    def transport_stats(self) -> Optional[dict]:
        """Counter snapshot of this shard's transport (``None`` until
        started), its counts summed over every transport it retired.
        Between transports — a restart that keeps failing — the retired
        counts stand, with the gauges at 0."""
        with self._retire_lock:
            transport = self._transport
            if transport is not None:
                return self._carried(transport.transport_stats())
            retired = self._retired
            if retired is None:
                return None
            return dict(
                retired,
                broken=True,
                ring_occupancy=0,
                ring_occupancy_peak=0,
                cache_entries=0,
                unknown_ua=dict(retired["unknown_ua"]),
            )

    def _carried(self, stats: dict) -> dict:
        """``stats`` plus the retired transports' counts."""
        retired = self._retired
        if retired is not None:
            for key in _CARRIED:
                stats[key] += retired[key]
            unknown = stats["unknown_ua"]
            for vendor, count in retired["unknown_ua"].items():
                unknown[vendor] = unknown.get(vendor, 0) + count
        return stats

    def _call(self, message: tuple, timeout: float):
        """One control round trip over the pipe the transport shares."""
        transport = self._transport
        if not self._alive or transport is None:
            raise ShardError(f"shard {self.shard_id} is not running")
        with transport.lock:
            if transport.broken:
                raise ShardError(f"shard {self.shard_id} pipe is broken")
            try:
                self._conn.send(message)
                if not self._conn.poll(timeout):
                    raise ShardError(
                        f"shard {self.shard_id} control call timed out"
                    )
                return self._conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                transport.broken = True
                self._alive = False
                raise ShardError(
                    f"shard {self.shard_id} pipe broke: {type(exc).__name__}"
                ) from exc


# ----------------------------------------------------------------------
# supervisor


class _Health:
    __slots__ = ("healthy", "failures", "restarts")

    def __init__(self) -> None:
        self.healthy = True
        self.failures = 0
        self.restarts = 0


class ShardSupervisor:
    """Owns N shards, the ring, and the heartbeat/restart loop.

    Parameters
    ----------
    model_path:
        The replica source every shard loads (and re-loads on restart).
    expected_digest:
        sha256 recorded by the registry for that file; every shard
        verifies its replica against it before serving.
    model_version:
        The registry version the replicas correspond to (reported per
        shard in :meth:`status_dict`).
    """

    def __init__(
        self,
        model_path: Union[str, Path],
        config: ClusterConfig = ClusterConfig(),
        runtime_config: RuntimeConfig = RuntimeConfig(),
        expected_digest: Optional[str] = None,
        model_version: int = 1,
    ) -> None:
        self.config = config
        self.runtime_config = runtime_config
        self.model_path = Path(model_path)
        self.shards: Dict[str, ProcessShard] = {
            f"s{index}": ProcessShard(
                f"s{index}",
                self.model_path,
                runtime_config=runtime_config,
                expected_digest=expected_digest,
                model_version=model_version,
                ring_slots=config.ring_slots,
            )
            for index in range(config.n_shards)
        }
        self.ring = HashRing(vnodes=config.vnodes)
        self._health: Dict[str, _Health] = {
            shard_id: _Health() for shard_id in self.shards
        }
        self._lock = threading.RLock()
        self._heartbeat: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._owned_tmp: Optional[tempfile.TemporaryDirectory] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_polygraph(
        cls,
        polygraph: BrowserPolygraph,
        config: ClusterConfig = ClusterConfig(),
        runtime_config: RuntimeConfig = RuntimeConfig(),
    ) -> "ShardSupervisor":
        """Serve an in-memory pipeline: save one replica source, share it."""
        tmp = tempfile.TemporaryDirectory(prefix="polygraph-cluster-")
        path = Path(tmp.name) / "model-v001.json"
        digest = polygraph.save(path)
        supervisor = cls(
            path,
            config=config,
            runtime_config=runtime_config,
            expected_digest=digest,
            model_version=1,
        )
        supervisor._owned_tmp = tmp
        return supervisor

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        with self._lock:
            try:
                for shard_id, shard in self.shards.items():
                    shard.start()
                    self.ring.add(shard_id)
            except Exception:
                # A cluster starts whole or not at all: stop the shards
                # already up (children, slabs) before re-raising.
                self.shutdown(drain=False)
                raise
            if self._heartbeat is None:
                self._stop.clear()
                self._heartbeat = threading.Thread(
                    target=self._heartbeat_loop,
                    name="polygraph-cluster-heartbeat",
                    daemon=True,
                )
                self._heartbeat.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop the heartbeat, then settle and stop every shard."""
        self._stop.set()
        heartbeat = self._heartbeat
        self._heartbeat = None
        if heartbeat is not None:
            heartbeat.join(timeout=10.0)
        with self._lock:
            for shard in self.shards.values():
                try:
                    shard.stop(drain=drain)
                except ShardError:
                    pass
        tmp = self._owned_tmp
        self._owned_tmp = None
        if tmp is not None:
            tmp.cleanup()

    def drain(self) -> None:
        """Graceful SIGTERM path: score every queued request, then stop."""
        self.shutdown(drain=True)

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # -- routing surface ------------------------------------------------

    def route(self, key: bytes) -> List[object]:
        """Healthy shards in failover order for ``key``."""
        with self._lock:
            return [self.shards[sid] for sid in self.ring.preference(key)]

    # -- health ---------------------------------------------------------

    def note_failure(self, shard_id: str) -> None:
        """Router-reported failure; counted like a missed heartbeat."""
        with self._lock:
            health = self._health.get(shard_id)
            if health is None:
                return
            health.failures += 1
            if health.healthy and health.failures >= self.config.unhealthy_after:
                self._mark_unhealthy(shard_id)

    def kill(self, shard_id: str) -> None:
        """Crash one shard (tests, chaos drills); recovery is automatic."""
        self.shards[shard_id].kill()

    def _mark_unhealthy(self, shard_id: str) -> None:
        health = self._health[shard_id]
        if health.healthy:
            health.healthy = False
            self.ring.remove(shard_id)

    def _mark_healthy(self, shard_id: str) -> None:
        health = self._health[shard_id]
        health.healthy = True
        health.failures = 0
        self.ring.add(shard_id)

    @property
    def healthy_count(self) -> int:
        with self._lock:
            return sum(1 for h in self._health.values() if h.healthy)

    def restarts(self, shard_id: str) -> int:
        with self._lock:
            return self._health[shard_id].restarts

    def check_once(self) -> None:
        """One heartbeat sweep (the loop calls this; tests may too)."""
        for shard_id, shard in list(self.shards.items()):
            with self._lock:
                health = self._health[shard_id]
                healthy = health.healthy
            if healthy:
                try:
                    shard.ping()
                except Exception:  # noqa: BLE001 — any failure counts
                    self.note_failure(shard_id)
                else:
                    with self._lock:
                        health.failures = 0
            else:
                try:
                    shard.restart()
                    shard.ping()
                except Exception:  # noqa: BLE001 — retry next sweep
                    continue
                with self._lock:
                    self._mark_healthy(shard_id)
                    health.restarts += 1

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval_s):
            self.check_once()

    # -- coverage -------------------------------------------------------

    def attach_coverage(self, tracker) -> None:
        """Share one CoverageTracker across every shard's transport.

        Each router-side transport feeds it the admitted UA keys of its
        ingest; shards re-apply the tracker on restart.
        """
        with self._lock:
            for shard in self.shards.values():
                shard.coverage = tracker
                if shard._transport is not None:
                    shard._transport.coverage = tracker

    # -- introspection --------------------------------------------------

    def transport_stats(self) -> Dict[str, dict]:
        """Per-shard transport counters (a shard never started has none)."""
        with self._lock:
            shards = list(self.shards.items())
        stats: Dict[str, dict] = {}
        for shard_id, shard in shards:
            shard_stats = shard.transport_stats()
            if shard_stats is not None:
                stats[shard_id] = shard_stats
        return stats

    def status_dict(self) -> dict:
        """JSON-friendly view for ``GET /cluster`` and the CLI."""
        with self._lock:
            shards = [
                {
                    "shard_id": shard_id,
                    "healthy": health.healthy,
                    "failures": health.failures,
                    "restarts": health.restarts,
                    "model_version": self.shards[shard_id].model_version,
                    "on_ring": shard_id in self.ring,
                }
                for shard_id, health in self._health.items()
            ]
            return {
                "n_shards": self.config.n_shards,
                "healthy_shards": sum(1 for s in shards if s["healthy"]),
                "vnodes": self.config.vnodes,
                "shards": shards,
            }
