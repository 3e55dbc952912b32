"""The traced run: each layer's public calls, timed from outside.

In one process, build the objects ``serve`` builds and replay a fixed
slice of the workload's wires one public call at a time.  For every
batch there is a *parent* span — the call the front end makes
(``ClusterRouter.score_many``, the runtime's submit/collect, or the
session layer's ``observe_wire``) — and *child* spans: the same batch
pushed through each layer's own public function on stand-alone objects
(ingest → cache probe → routing → model → cache put → hooks → shard
transport).  Children are replays, not instrumentation: what the parent
spends that no child explains is ``router.unattributed_share``, and is
the case for in-program tracing in a later change.

Spans are kept in memory and written to ``out/trace.json`` when the
invocation ends, one entry per workload:
``{"name", "start", "end", "parent", "batch"}``, times in seconds on one
``perf_counter`` clock, ``parent`` an index into the list (or null),
``batch`` shared by all spans of one batch.  A span's self time is its
duration minus its children's durations.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import ClusterConfig, ClusterRouter, RouterConfig, ShardSupervisor
from repro.cluster.ring import wire_routing_key
from repro.cluster.sessions import ClusterSessionService
from repro.core.pipeline import BrowserPolygraph
from repro.coverage import CoverageTracker
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.service import RuntimeScoringService
from repro.service.scoring import ScoringService
from repro.traffic.events import SessionEvent

from .server import descendants, stop_own_resource_tracker, tree_cpu_seconds

TRACE_WIRES = 20_480
BATCH = 256
_REFERENCE_WIRES = 4_096  # per-request reference path: slow, so a sub-slice


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []

    def call(self, name: str, batch: int, parent: Optional[int], fn, *args):
        """Run ``fn(*args)`` inside a span; returns ``(span index, result)``."""
        index = len(self.spans)
        span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "batch": batch}
        self.spans.append(span)
        span["start"] = time.perf_counter()
        result = fn(*args)
        span["end"] = time.perf_counter()
        return index, result

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _fresh_sids(wires: Sequence[bytes], marker: bytes) -> List[bytes]:
    """The same wires under other session ids (no dedup hit on a replay)."""
    return [w.replace(b'{"sid":"', b'{"sid":"' + marker, 1) for w in wires]


def _core_wires(workload, wires: Sequence[bytes]) -> List[bytes]:
    """Event envelopes stripped to the one-shot wire the inner layers see."""
    if workload.path != "/event":
        return list(wires)
    cores = []
    for position, wire in enumerate(wires):
        event = SessionEvent.from_wire(wire)
        cores.append(
            SessionEvent(
                session_id=f"t{position:09d}",
                event_type=event.event_type,
                seq=event.seq,
                timestamp=event.timestamp,
                user_agent=event.user_agent,
                values=event.values,
                suspicious_globals=event.suspicious_globals,
            ).core_wire()
        )
    return cores


def _own_tree_cpu() -> float:
    return tree_cpu_seconds(descendants(os.getpid()))


def traced_replay(run, harness) -> dict:
    """Fill ``run.summary.layers`` with the in-process per-layer timings.

    Returns the workload's trace document (``meta`` and ``spans``).
    """
    workload = run.workload
    layers = run.summary.layers
    tracer = Tracer()
    wires = workload.trace_wires[:TRACE_WIRES]
    batches = [wires[i : i + BATCH] for i in range(0, len(wires), BATCH)]
    clustered = "--shards" in workload.serve_args
    affinity = "fingerprint" if "fingerprint" in workload.serve_args else "session"

    started = time.perf_counter()
    polygraph = BrowserPolygraph.load(harness.model_path)
    layers["setup.model_load_s"] = time.perf_counter() - started
    layers["setup.train_fit_s"] = harness.train_fit_s

    # -- the parent: the call the front end makes, on live objects -------
    supervisors: List[ShardSupervisor] = []
    runtime = None
    try:
        if clustered:
            config = ClusterConfig(n_shards=2, backend="process", transport="shm")
            started = time.perf_counter()
            supervisor = ShardSupervisor(harness.model_path, config=config).start()
            layers["setup.shard_spawn_s"] = time.perf_counter() - started
            supervisors.append(supervisor)
            router = ClusterRouter(supervisor, RouterConfig(affinity=affinity))
            if workload.path == "/event":
                sessions = ClusterSessionService(router, ttl_seconds=600.0)
                parent_name = "sessions.observe_wire"

                def parent(batch):
                    observe = sessions.observe_wire
                    return [observe(wire) for wire in batch]
            else:
                parent_name = "router.score_many"
                parent = router.score_many
        else:
            runtime = RuntimeScoringService(polygraph).start()
            runtime.attach_coverage(CoverageTracker())
            parent_name = "runtime.submit_collect"

            def parent(batch):
                submit = runtime.submit_wire
                return [p.result() for p in [submit(wire) for wire in batch]]

        cpu0 = _own_tree_cpu()
        parents = [
            tracer.call(parent_name, number, None, parent, batch)[0]
            for number, batch in enumerate(batches)
        ]
        parent_cpu_s = _own_tree_cpu() - cpu0

        # -- the children: each layer's public call on its own objects ---
        replay_shards = None
        if clustered and workload.path == "/collect":
            # A second, cold set of shards: the parent's already hold
            # every fingerprint of the slice in their caches.
            replay_shards = ShardSupervisor(harness.model_path, config=config).start()
            supervisors.append(replay_shards)
        ingest = WireIngest()
        cache = VerdictCache(max_entries=8192, ttl_seconds=300.0)
        coverage = CoverageTracker()
        coverage.set_known_keys(polygraph.cluster_model.ua_to_cluster, generation=1)
        model = polygraph.cluster_model
        misses_total = 0
        for number, batch in enumerate(batches):
            top = parents[number]
            cores = _core_wires(workload, _fresh_sids(batch, b"i"))
            if clustered:
                ring = supervisors[0].ring

                def route(chunk):
                    node_for = ring.node_for
                    return [node_for(wire_routing_key(w, affinity)) for w in chunk]

                _, owners = tracer.call("ring.route", number, top, route, batch)
            inner_index = top
            if replay_shards is not None:
                by_shard: Dict[str, List[bytes]] = {}
                for wire, owner in zip(_fresh_sids(batch, b"s"), owners):
                    by_shard.setdefault(owner, []).append(wire)

                def score_chunks(chunks):
                    shards = replay_shards.shards
                    return [shards[sid].score_chunk(chunk) for sid, chunk in chunks.items()]

                inner_index, _ = tracer.call(
                    "transport.score_chunk", number, top, score_chunks, by_shard
                )
            _, prepared = tracer.call(
                "fastingest.ingest_many", number, inner_index, ingest.ingest_many, cores
            )
            admitted = [fields for fields in prepared if fields.__class__ is tuple]

            def probe(rows):
                make_key = cache.make_key
                keys = [make_key(fields[2], fields[4]) for fields in rows]
                return keys, cache.get_many(keys)

            _, (keys, cached) = tracer.call(
                "cache.get_many", number, inner_index, probe, admitted
            )
            missed = [i for i, hit in enumerate(cached) if hit is None]
            misses_total += len(missed)
            if missed:
                matrix = np.asarray([admitted[i][2] for i in missed], dtype=float)
                agents = [admitted[i][4] for i in missed]
                detect_index, results = tracer.call(
                    "core.detect_vectors", number, inner_index,
                    polygraph.detect_vectors, matrix, agents,
                )
                tracer.call(
                    "core.transform", number, detect_index, model.predict_clusters, matrix
                )

                def put(indices, values):
                    for i, value in zip(indices, values):
                        cache.put(keys[i], value, generation=None)

                tracer.call("cache.put", number, inner_index, put, missed, results)
            if not clustered:
                tracer.call(
                    "coverage.observe_many", number, top, coverage.observe_many,
                    [fields[4] for fields in admitted],
                )

        # -- reference paths, on a sub-slice ------------------------------
        reference = ScoringService(polygraph)
        sample = _core_wires(workload, _fresh_sids(wires[:_REFERENCE_WIRES], b"r"))

        def per_request(chunk):
            score = reference.score_wire
            return [score(wire) for wire in chunk]

        tracer.call("scoring.score_wire", -1, None, per_request, sample)
        rows = [
            (fields[2], fields[1])
            for fields in WireIngest().ingest_many(
                _core_wires(workload, _fresh_sids(wires[:_REFERENCE_WIRES], b"d"))
            )
            if fields.__class__ is tuple
        ]

        def single(pairs):
            detect = polygraph.detect_session
            return [detect(list(values), user_agent) for values, user_agent in pairs]

        tracer.call("core.detect_single", -1, None, single, rows)
    finally:
        if runtime is not None:
            runtime.shutdown(drain=True)
        for supervisor in supervisors:
            supervisor.shutdown(drain=True)
        # The shards above made this process start a resource tracker,
        # which would otherwise outlive it.
        stop_own_resource_tracker()

    # -- spans → per-layer metrics ----------------------------------------
    n = len(wires)
    us = 1e6
    parent_s = tracer.total(parent_name)
    ingest_s = tracer.total("fastingest.ingest_many")
    get_s = tracer.total("cache.get_many")
    put_s = tracer.total("cache.put")
    detect_s = tracer.total("core.detect_vectors")
    transform_s = tracer.total("core.transform")
    route_s = tracer.total("ring.route")
    chunk_s = tracer.total("transport.score_chunk")
    layers["fastingest.ingest_us_per_wire"] = us * ingest_s / n
    layers["cache.get_us_per_key"] = us * get_s / n
    layers["cache.put_us_per_key"] = us * put_s / max(1, misses_total)
    layers["core.transform_us_per_row"] = us * transform_s / max(1, misses_total)
    layers["core.detect_us_per_row"] = us * (detect_s - transform_s) / max(1, misses_total)
    layers["core.detect_single_us"] = us * tracer.total("core.detect_single") / max(1, len(rows))
    layers["scoring.score_wire_us"] = us * tracer.total("scoring.score_wire") / max(1, len(sample))
    layers["ring.route_us_per_wire"] = us * route_s / n if clustered else 0.0
    layers["coverage.observe_us_per_row"] = us * tracer.total("coverage.observe_many") / n
    layers["sessions.observe_us_per_event"] = (
        us * parent_s / n if workload.path == "/event" else 0.0
    )
    if replay_shards is not None:
        layers["router.score_many_us_per_wire"] = us * parent_s / n
        # What the shard round-trip adds over its router-side ingest,
        # cache and the model call it hides.
        layers["transport.roundtrip_us_per_row"] = (
            us * (chunk_s - ingest_s - get_s - put_s - detect_s) / max(1, misses_total)
        )
        layers["router.unattributed_share"] = (parent_s - route_s - chunk_s) / parent_s
    else:
        explained = ingest_s + get_s + put_s + detect_s + route_s
        explained += tracer.total("coverage.observe_many")
        layers["router.score_many_us_per_wire"] = 0.0
        layers["transport.roundtrip_us_per_row"] = 0.0
        layers["router.unattributed_share"] = (parent_s - explained) / parent_s
    layers.setdefault("setup.shard_spawn_s", 0.0)
    # Server CPU per request at saturation, minus what the same wires
    # cost through the parent call alone: the HTTP front end's share.
    layers["aingest.front_us_per_req"] = (
        1000.0 * layers.get("loadgen.raw_cpu_ms_per_req", 0.0) - us * parent_cpu_s / n
    )
    layers["trace.spans"] = float(len(tracer.spans))
    return {
        "meta": {"seed": harness.seed, "wires": n, "batch": BATCH},
        "spans": tracer.spans,
    }
