"""Shard lifecycle: replicas, heartbeats, failover, restart.

A *shard* is one model replica behind a small uniform surface
(``score_chunk``, ``ping``, ``install``, ``kill``, ``restart``).  Two
backends:

* :class:`ThreadShard` — the replica and its
  :class:`~repro.runtime.service.RuntimeScoringService` live in this
  process.  The default: cheap to boot, trivially debuggable.
* :class:`ProcessShard` — the replica lives in a child process, one
  process per shard, reached through the shared-memory slab of
  :mod:`repro.cluster.transport`; ingest, dedup and the verdict cache
  run router-side and only cache misses cross.  Buys fault isolation (a
  crashed shard is a dead process, not a corrupted heap).

Both backends *load their own model replica from a file* and verify it
against the registry's sha256 digest before serving — the replication
contract: no shard ever serves bytes the registry cannot account for.

:class:`ShardSupervisor` owns N shards plus the consistent-hash ring.
A heartbeat thread pings every shard; ``unhealthy_after`` consecutive
failures (heartbeat or router-reported) take the shard off the ring —
its arcs drain to the ring-order successors — and the supervisor then
restarts it and puts it back.  The router never waits on a sick shard:
re-routing is a ring lookup away the moment the node is removed.
"""

from __future__ import annotations

import multiprocessing
import signal
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.ring import HashRing
from repro.cluster.transport import ShmSlab, ShmTransport, attach_slab_views
from repro.core.model_store import stored_digest
from repro.core.pipeline import BrowserPolygraph
from repro.fingerprint.features import N_FEATURES
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.scoring import Verdict

__all__ = [
    "ClusterConfig",
    "ProcessShard",
    "ShardError",
    "ShardStatus",
    "ShardSupervisor",
    "ThreadShard",
]


class ShardError(RuntimeError):
    """A shard could not serve: dead process, stopped runtime, bad replica."""


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and health-checking knobs of the serving cluster."""

    n_shards: int = 2
    backend: str = "thread"  # "thread" | "process"
    # Shim: benchmarks/e2e (frozen) passes transport="shm"; the field
    # goes when ROADMAP item 1(a)'s benchmark PR drops the argument.
    transport: str = "shm"
    vnodes: int = 64
    heartbeat_interval_s: float = 0.25
    unhealthy_after: int = 2  # consecutive failures before removal
    ping_timeout_s: float = 5.0
    ring_slots: int = 4096  # shm slab rows per shard

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.backend not in ("thread", "process"):
            raise ValueError("backend must be 'thread' or 'process'")
        if self.transport != "shm":
            raise ValueError("transport must be 'shm'")
        if self.unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")


@dataclass(frozen=True)
class ShardStatus:
    """One heartbeat's view of one shard."""

    shard_id: str
    model_version: int
    model_generation: int
    queue_depth: int
    scored_count: int
    flagged_count: int
    queue_depth_peak: int = 0


def _verify_replica(path: Path, expected_digest: Optional[str]) -> None:
    """Refuse a replica whose bytes the registry cannot account for."""
    if expected_digest is None:
        return
    on_disk = stored_digest(path)
    if on_disk is not None and on_disk != expected_digest:
        raise ShardError(
            f"replica digest mismatch for {path.name}: expected "
            f"{expected_digest[:12]}..., file carries {on_disk[:12]}..."
        )


# ----------------------------------------------------------------------
# thread backend


class ThreadShard:
    """One scoring shard hosted in this process.

    The shard loads its *own* :class:`BrowserPolygraph` replica from
    ``model_path`` (digest-verified), so installs and generation bumps
    on one shard never touch another — exactly the isolation a
    multi-host deployment would have, minus the network.
    """

    def __init__(
        self,
        shard_id: str,
        model_path: Union[str, Path],
        runtime_config: RuntimeConfig = RuntimeConfig(),
        expected_digest: Optional[str] = None,
        model_version: int = 1,
    ) -> None:
        self.shard_id = shard_id
        self.model_path = Path(model_path)
        self.runtime_config = runtime_config
        self.model_version = model_version
        _verify_replica(self.model_path, expected_digest)
        self.polygraph = BrowserPolygraph.load(self.model_path)
        self.service: Optional[RuntimeScoringService] = None
        # Cluster-shared CoverageTracker (set by the supervisor); every
        # (re)started runtime re-attaches it.
        self.coverage = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ThreadShard":
        if self.service is None:
            self.service = RuntimeScoringService(
                self.polygraph, config=self.runtime_config
            ).start()
            if self.coverage is not None:
                self.service.attach_coverage(self.coverage)
        return self

    def stop(self, drain: bool = True) -> None:
        """Take the runtime away; a batch already being scored finishes."""
        service = self.service
        self.service = None
        if service is not None:
            service.shutdown(drain=drain)

    def kill(self) -> None:
        """Crash simulation: the shard stops answering.

        A ``score_many`` already running finishes; every later call
        raises :class:`ShardError` and the router fails over.
        """
        self.stop(drain=False)

    def restart(self) -> None:
        """Fresh runtime over the replica this shard already holds.

        The dedup window and verdict cache start cold (they died with
        the runtime, as they would in a real crash); the model replica
        and its version survive, so verdicts are unchanged.
        """
        self.stop(drain=False)
        self.service = RuntimeScoringService(
            self.polygraph, config=self.runtime_config
        ).start()
        if self.coverage is not None:
            self.service.attach_coverage(self.coverage)

    # -- serving --------------------------------------------------------

    def score_chunk(self, wires: Sequence[bytes]) -> List[Verdict]:
        """Score one routed chunk as one batch."""
        service = self.service
        if service is None:
            raise ShardError(f"shard {self.shard_id} is not running")
        return service.score_many(wires)

    # -- control --------------------------------------------------------

    def ping(self) -> ShardStatus:
        service = self.service
        if service is None:
            raise ShardError(f"shard {self.shard_id} is not running")
        # No queue in front of an in-process runtime: depth is always 0.
        return ShardStatus(
            shard_id=self.shard_id,
            model_version=self.model_version,
            model_generation=self.polygraph.model_generation,
            queue_depth=0,
            scored_count=service.scored_count,
            flagged_count=service.flagged_count,
        )

    def install(
        self, path: Union[str, Path], digest: Optional[str], version: int
    ) -> int:
        """Adopt a new replica: load, digest-verify, atomic swap."""
        path = Path(path)
        _verify_replica(path, digest)
        replica = BrowserPolygraph.load(path)
        self.polygraph.install(replica.cluster_model)
        self.model_path = path
        self.model_version = version
        return version

    def transport_stats(self) -> Optional[dict]:
        """Thread shards score in-process — no transport to report."""
        return None


# ----------------------------------------------------------------------
# process backend


def _shard_worker(
    conn, model_path: str, slab_name: str, n_slots: int, n_features: int
) -> None:
    """Child-process main loop: one model replica behind a pipe and a slab.

    The child attaches the parent-created slab and handshakes
    ``("shm_ready", attached, namespace_probe, vendor_risk, generation)``
    — the parent needs the escalation config because ingest and the
    Section 8 escalation run router-side, and the child only evaluates
    raw feature rows (``shmscore``, which names the batch's user-agent
    classes) straight out of the slab with one vectorized model call.
    ``attached=False`` tells the parent the slab could not be mapped; it
    reaps this child and raises.
    """
    # Terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; the supervisor stops children through a ("stop",) pipe
    # message, so the signal would only interrupt conn.recv() with a
    # stray traceback mid-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    polygraph = BrowserPolygraph.load(model_path)
    model_version = 0
    try:
        shm_meta, shm_results, shm_rows, close_slab = attach_slab_views(
            slab_name, n_slots, n_features
        )
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
                conn.send(("shmdone", seq, generation))
            except Exception as exc:  # noqa: BLE001 — reply, don't die
                conn.send(("shmerr", seq, f"{type(exc).__name__}: {exc}"))
        elif op == "ping":
            conn.send((model_version, polygraph.model_generation))
        elif op == "install":
            _, path, digest, version = message
            try:
                _verify_replica(Path(path), digest)
                replica = BrowserPolygraph.load(path)
                polygraph.install(replica.cluster_model)
                model_version = version
                conn.send(("ok", version, polygraph.model_generation))
            except Exception as exc:  # noqa: BLE001 — reply, don't die
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        elif op == "stop":
            conn.send(("stopped",))
            break
    shm_meta = shm_results = shm_rows = None
    try:
        close_slab()
    except BufferError:
        pass
    conn.close()


class ProcessShard:
    """One scoring shard hosted in a child process.

    Ingest, dedup and the verdict cache run router-side in a
    :class:`~repro.cluster.transport.ShmTransport`; only cache misses
    cross the process boundary, as zero-copy feature rows in a
    shared-memory slab.  The shard owns no thread: every pipe use —
    scoring, heartbeat pings, installs — happens on the caller's thread
    under the transport lock, and :meth:`score_chunk` works in
    sub-chunks so pings and installs interleave between them.

    A dead child fails the misses in flight with
    :data:`~repro.runtime.pool.OVERLOADED_REASON` verdicts, which the
    router treats as its cue to re-route.  A slab that cannot be created
    or attached fails :meth:`start` with :class:`ShardError`, with the
    child reaped and no segment left behind — there is no second data
    plane to degrade to.

    Crash/restart semantics: the slab outlives the child.  ``restart``
    spawns a fresh child that re-attaches the *same* slab by name, with
    a fresh transport — cache and dedup window start cold, exactly like
    :meth:`ThreadShard.restart` after a crash.
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
        _verify_replica(self.model_path, expected_digest)
        self.ring_slots = ring_slots
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._process = None
        self._conn = None
        self._alive = False
        self._slab: Optional[ShmSlab] = None
        self._transport: Optional[ShmTransport] = None
        # Cluster-shared CoverageTracker; applied to each fresh transport.
        self.coverage = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ProcessShard":
        if self._alive:
            return self
        try:
            if self._slab is None:
                self._slab = ShmSlab(self.ring_slots, N_FEATURES)
            parent_conn, child_conn = self._ctx.Pipe()
            self._process = self._ctx.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    str(self.model_path),
                    self._slab.name,
                    self._slab.n_slots,
                    self._slab.n_features,
                ),
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
            # No slab, no shard: reap the child, unlink the segment.
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
        """Fresh child re-attaching the same slab; transport starts cold."""
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

    def score_chunk(self, wires: Sequence[bytes]) -> List[Verdict]:
        transport = self._transport
        if not self._alive or transport is None:
            raise ShardError(f"shard {self.shard_id} is not running")
        verdicts: List[Verdict] = []
        # Sub-chunks bound how long the transport lock is held so
        # heartbeat pings and installs interleave mid-chunk.
        for begin in range(0, len(wires), self._SHM_SUBCHUNK):
            verdicts.extend(
                transport.score_wires(wires[begin : begin + self._SHM_SUBCHUNK])
            )
        if transport.broken:
            self._alive = False
        return verdicts

    # -- control --------------------------------------------------------

    def ping(self) -> ShardStatus:
        # The child tracks installs it performed; before the first
        # install its counter is 0 and the boot version stands.
        version, generation = self._call(("ping",), timeout=5.0)
        stats = self._transport.transport_stats()
        return ShardStatus(
            shard_id=self.shard_id,
            model_version=version or self.model_version,
            model_generation=generation,
            queue_depth=stats["ring_occupancy"],
            scored_count=stats["scored"],
            flagged_count=stats["flagged"],
            queue_depth_peak=stats["ring_occupancy_peak"],
        )

    def install(
        self, path: Union[str, Path], digest: Optional[str], version: int
    ) -> int:
        reply = self._call(("install", str(path), digest, version), timeout=30.0)
        if reply[0] != "ok":
            raise ShardError(f"shard {self.shard_id} install failed: {reply[1]}")
        # The child swapped models: drop the router-side cache and
        # derived parse state, pinned to the child's new generation
        # so in-flight stale batch results are refused.
        self._transport.on_model_swap(reply[2])
        if self.coverage is not None:
            # Re-seed the shared tracker's known-release table from
            # the replica the child just adopted (installs are rare;
            # one parent-side load keeps classification aligned).
            replica = BrowserPolygraph.load(path)
            self.coverage.set_known_keys(
                replica.cluster_model.ua_to_cluster, generation=reply[2]
            )
        self.model_path = Path(path)
        self.model_version = version
        return version

    def transport_stats(self) -> Optional[dict]:
        """Counter snapshot of this shard's transport (``None`` until started)."""
        transport = self._transport
        return transport.transport_stats() if transport is not None else None

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
        The registry version the replicas correspond to; becomes the
        initial serving version.
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
        self.expected_digest = expected_digest
        self.shards: Dict[str, object] = {}
        for index in range(config.n_shards):
            shard_id = f"s{index}"
            if config.backend == "thread":
                shard = ThreadShard(
                    shard_id,
                    self.model_path,
                    runtime_config=runtime_config,
                    expected_digest=expected_digest,
                    model_version=model_version,
                )
            else:
                shard = ProcessShard(
                    shard_id,
                    self.model_path,
                    runtime_config=runtime_config,
                    expected_digest=expected_digest,
                    model_version=model_version,
                    ring_slots=config.ring_slots,
                )
            self.shards[shard_id] = shard
        self.ring = HashRing(vnodes=config.vnodes)
        self._health: Dict[str, _Health] = {
            shard_id: _Health() for shard_id in self.shards
        }
        self._serving_version = model_version
        self._lock = threading.RLock()
        self._heartbeat: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._owned_tmp: Optional[tempfile.TemporaryDirectory] = None
        self.rollout_managers: List[object] = []

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_registry(
        cls,
        registry,
        config: ClusterConfig = ClusterConfig(),
        runtime_config: RuntimeConfig = RuntimeConfig(),
    ) -> "ShardSupervisor":
        """Replicate the registry's live model across the shards."""
        version = registry.live_version
        if version < 1:
            raise LookupError("the registry has no live model to replicate")
        entry = next(e for e in registry.versions() if e["version"] == version)
        return cls(
            Path(registry.root) / entry["path"],
            config=config,
            runtime_config=runtime_config,
            expected_digest=entry.get("sha256"),
            model_version=version,
        )

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

    @property
    def serving_version(self) -> int:
        """The model version the quorum of the cluster has converged on."""
        with self._lock:
            return self._serving_version

    def set_serving_version(self, version: int) -> None:
        with self._lock:
            self._serving_version = version

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

    # -- rollout integration -------------------------------------------

    def attach_rollout(self, registry, config=None) -> List[object]:
        """Resume the registry's persisted rollout on every shard.

        Each thread shard gets its own
        :class:`~repro.rollout.manager.RolloutManager` resumed from the
        *same* persisted state file, so every shard routes arms with the
        same salt and the same stage fraction — a session's sticky
        canary bucket agrees no matter which shard answers it.  (The
        process backend scores across a pipe and cannot host an
        in-process manager; arm routing there needs the child to resume
        the state itself, which this PR does not wire.)
        """
        if self.config.backend != "thread":
            raise NotImplementedError(
                "rollout attach requires the thread backend"
            )
        from repro.rollout import RolloutManager

        managers: List[object] = []
        for shard in self.shards.values():
            manager = RolloutManager(registry, runtime=shard.service, config=config)
            manager.resume()
            managers.append(manager)
        self.rollout_managers = managers
        return managers

    @property
    def rollout(self):
        """The first shard's rollout manager (``/rollout`` endpoint)."""
        return self.rollout_managers[0] if self.rollout_managers else None

    # -- coverage -------------------------------------------------------

    def attach_coverage(self, tracker) -> None:
        """Share one CoverageTracker across every shard's scoring path.

        Thread shards feed it from their runtimes (and re-sync its
        known-release table on model swaps); shm process shards feed
        admitted UA keys from the router-side transport ingest.  Shards
        re-apply the tracker on restart.
        """
        with self._lock:
            for shard in self.shards.values():
                shard.coverage = tracker
                service = getattr(shard, "service", None)
                if service is not None:
                    service.attach_coverage(tracker)
                transport = getattr(shard, "_transport", None)
                if transport is not None:
                    transport.coverage = tracker

    def unknown_ua_counts(self) -> Dict[str, int]:
        """Per-vendor unknown-UA totals summed across shard-local runtimes.

        Thread shards count in their runtimes; process shards have no
        runtime (ingest runs in the router-side transport), so they
        contribute only through the coverage tracker's
        ``polygraph_coverage_unknown_total`` when one is attached.
        """
        totals: Dict[str, int] = {}
        with self._lock:
            shards = list(self.shards.values())
        for shard in shards:
            counts = getattr(
                getattr(shard, "service", None), "unknown_ua_counts", None
            )
            if not counts:
                continue
            for vendor, count in dict(counts).items():
                totals[vendor] = totals.get(vendor, 0) + count
        return totals

    # -- introspection --------------------------------------------------

    def shard_versions(self) -> Dict[str, int]:
        with self._lock:
            return {
                shard_id: shard.model_version
                for shard_id, shard in self.shards.items()
            }

    def transport_stats(self) -> Dict[str, dict]:
        """Per-shard transport counters (empty for the thread backend)."""
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
            shards = []
            for shard_id, shard in self.shards.items():
                health = self._health[shard_id]
                entry = {
                    "shard_id": shard_id,
                    "healthy": health.healthy,
                    "failures": health.failures,
                    "restarts": health.restarts,
                    "model_version": shard.model_version,
                    "on_ring": shard_id in self.ring,
                }
                shard_stats = shard.transport_stats()
                if shard_stats is not None:
                    entry["transport"] = shard_stats["mode"]
                shards.append(entry)
            document = {
                "backend": self.config.backend,
                "n_shards": self.config.n_shards,
                "healthy_shards": sum(1 for s in shards if s["healthy"]),
                "serving_version": self._serving_version,
                "vnodes": self.config.vnodes,
                "shards": shards,
            }
            if self.config.backend == "process":
                document["transport"] = self.config.transport
            return document
