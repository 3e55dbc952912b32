"""The high-throughput scoring runtime.

:class:`RuntimeScoringService` is the web-scale variant of
:class:`~repro.service.scoring.ScoringService`: the same wire contract,
the same verdicts, a batch at a time instead of a request at a time.

Batch lifecycle — all of it on the calling thread::

    score_many(wires) · score_rows(wires, rows, found)
        │  ingest_many: wire contract, memoized parse, dedup  (one lock;
        │               a proven envelope row skips the parse)
        │  coverage / rollout.route                            (if attached)
        │  cache.get_many                                      (one lock)
        ├─ rejects ─────────────► Verdict(accepted=False)  ┐ one latency
        ├─ hits ────────────────► Verdict from cached result ┘ stamp
        └─ misses ─► ONE evaluate_vectors() per rollout arm, against one
                     (generation, detector) snapshot
                        │ raises ─► Verdict("internal_error: <Name>")
                        ▼
                     cache.put_many(generation=) · escalate · Verdict
        rollout.mirror_many: the batch's mirrored live-arm rows, one call
        log.append_many: a /collect batch's accepted rows     (if attached)

``score_wire(w)`` is ``score_many([w])[0]``.  The service owns no
thread and no queue: whoever forms the batch — the asyncio front end's
coalescer, the session layer — lends the thread, and bounding admitted work
is that caller's job (the front end stops reading sockets at its high
watermark).

Because coarse-grained fingerprints are deliberately low-cardinality
(Section 7), a production-shaped replay hits the cache for the
overwhelming majority of sessions and the model is consulted a few
hundred times per hundred thousand requests.

Correctness contract: for any request sequence, cut into batches any
way, the runtime produces the verdicts and counters of the per-request
:class:`ScoringService` — batching and caching are pure optimizations.
On retrain the pipeline swaps models atomically and notifies this
service, which invalidates the verdict cache; a batch in flight scores
entirely against the snapshot it took, and its results are refused by
the cache afterwards (generation check).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import BrowserPolygraph
from repro.coverage.tracker import vendor_of
from repro.runtime.batch import Miss, answer_known, cache_keys, finish_misses
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.stats import RuntimeStats
from repro.service.ingest import PayloadValidator
from repro.service.log import COLLECT, SegmentLog
from repro.service.scoring import Verdict, collect_verdicts
from repro.traffic.dataset import Dataset

__all__ = ["PendingVerdict", "RuntimeConfig", "RuntimeScoringService"]

# Cache-key tag separating candidate-arm verdicts during a rollout.
_CANDIDATE_ARM = "__candidate__"

# rollout.route() for a wire that was never routed (rejected at ingest).
_UNROUTED = (False, False)


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the high-throughput runtime: the verdict cache's."""

    cache_entries: int = 8192  # 0 disables the verdict cache
    cache_ttl_seconds: Optional[float] = 300.0

    def __post_init__(self) -> None:
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")


class PendingVerdict:
    """An already-decided verdict behind the old handle surface."""

    __slots__ = ("_verdict",)

    def __init__(self, verdict: Verdict) -> None:
        self._verdict = verdict

    def done(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> Verdict:
        return self._verdict


class RuntimeScoringService:
    """Batched, cached scoring over a fitted pipeline.

    Drop-in for :class:`ScoringService` where it matters: ``score_wire``
    takes the same bytes and returns the same :class:`Verdict`; the
    ``validator`` (quarantine, dedup window) and optional ``log`` are
    honoured; ``scored_count`` / ``flagged_count`` / ``flag_rate`` keep
    their meanings.  New surface: :meth:`score_rows` (the batch core everything else
    delegates to), :attr:`runtime_stats` and :meth:`collect`.

    Thread-safe: :meth:`score_many` may be entered from any number of
    threads at once.  A batch takes the ingest lock once, the cache
    lock once for the probe and once per model call's results, and the
    counter lock once.
    """

    def __init__(
        self,
        polygraph: BrowserPolygraph,
        validator: Optional[PayloadValidator] = None,
        log: Optional[SegmentLog] = None,
        config: RuntimeConfig = RuntimeConfig(),
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        if not polygraph.is_fitted:
            raise ValueError(
                "RuntimeScoringService requires a fitted BrowserPolygraph"
            )
        self.polygraph = polygraph
        self.validator = validator if validator is not None else PayloadValidator()
        self.log = log
        self.config = config
        self.runtime_stats = stats if stats is not None else RuntimeStats()
        self.cache: Optional[VerdictCache] = None
        if config.cache_entries > 0:
            self.cache = VerdictCache(
                max_entries=config.cache_entries,
                ttl_seconds=config.cache_ttl_seconds,
                stats=self.runtime_stats,
            )
            self.cache.set_model_generation(polygraph.model_generation)
        self.scored_count = 0
        self.flagged_count = 0
        # Per-vendor unknown-UA volume (polygraph_unknown_ua_total) and
        # the optional coverage tracker fed from every scoring path.
        self.unknown_ua_counts: Dict[str, int] = {}
        self.coverage = None
        self._lock = threading.Lock()  # scored/flagged/unknown counters
        # Wire-contract enforcement lives in the fast-ingest engine;
        # parse memos are model-independent and survive retrains,
        # except the UA memo which is cleared on model swap.
        self._ingest = WireIngest(self.validator)
        # Optional rollout manager (repro.rollout): routes sessions to a
        # candidate arm and mirrors live verdicts for shadow comparison.
        # Read once per batch without the lock — attribute loads are
        # atomic, and a stale read only means one batch routes with
        # the old split, which the stage-transition cache invalidation
        # already accounts for.
        self._rollout = None
        polygraph.add_retrain_listener(self._on_model_swap)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "RuntimeScoringService":
        """Nothing to start (no thread, no queue); returns ``self``."""
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Detach from the pipeline's retrain notifications.

        ``drain`` is accepted for the callers that stop scoring services
        uniformly; there is no backlog to drain or shed — every
        :meth:`score_many` has answered by the time it returns.
        """
        self.polygraph.remove_retrain_listener(self._on_model_swap)

    def __enter__(self) -> "RuntimeScoringService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # scoring

    def score_wire(self, wire: bytes, day: Optional[date] = None) -> Verdict:
        """The per-request surface: a batch of one."""
        return self.score_rows([wire], None, None, day)[0]

    # Shim: benchmarks/e2e/e2ebench/trace.py (frozen) replays through
    # submit_wire(w).result(); it and PendingVerdict go when ROADMAP
    # item 1(a)'s benchmark PR replays score_many instead.
    def submit_wire(
        self, wire: bytes, day: Optional[date] = None
    ) -> PendingVerdict:
        return PendingVerdict(self.score_many([wire], day=day)[0])

    def score_many(
        self, wires: Sequence[bytes], day: Optional[date] = None
    ) -> List[Verdict]:
        """Score one batch on the calling thread; verdicts in input order.

        Rejects and cache hits are answered without the model; all of
        the batch's misses go through one vectorized model call per
        rollout arm, against one ``(generation, detector)`` snapshot.
        A model call that raises answers its misses with a typed
        ``internal_error`` verdict instead of propagating — the rest of
        the batch, and the next batch, are served normally.
        """
        return self.score_rows(wires, None, None, day)

    def score_rows(
        self,
        wires: Sequence[bytes],
        rows,
        found,
        day: Optional[date] = None,
    ) -> List[Verdict]:
        """:meth:`score_many` beside the session layer's envelope rows.

        ``rows[i]`` ends with the session a rollout routes ``wires[i]``
        by (:meth:`WireIngest.ingest_many` reads the rest).  ``found``
        gets the ``(model, result)`` behind each verdict, or ``None``:
        the model is the live generation or the candidate's detector.
        A batch without ``rows`` is a ``/collect`` batch, and its
        accepted rows go to the log; the session layer logs its events.
        """
        started = time.perf_counter()
        prepared = self._ingest.ingest_many(wires, rows)
        if self.coverage is not None:
            # Fed in arrival order, classified against the tracker's own
            # copy of the live release table (re-synced on model swap).
            self.coverage.observe_many(
                [f[4] for f in prepared if f.__class__ is tuple], day=day
            )
        rollout = self._rollout
        routes = None
        if rollout is not None:
            route = rollout.route
            # An event routes by its session, not by the ``sid@seq`` it
            # scores under: a session's events stay on one arm.
            at = 0 if rows is None else -1
            routes = [
                route(key[at]) if f.__class__ is tuple else _UNROUTED
                for f, key in zip(prepared, rows or prepared)
            ]
        cache = self.cache
        keys = cached = None
        if cache is not None:
            keys = cache_keys(cache, prepared)
            if routes is not None:
                # Arm-tagged key: the candidate's verdicts must never be
                # served to live-arm sessions (or vice versa) while both
                # models answer from the same cache.
                keys = [
                    (_CANDIDATE_ARM,) + key if candidate else key
                    for key, (candidate, _) in zip(keys, routes)
                ]
            cached = cache.get_many(keys)
        if found is not None:
            live = self.polygraph.model_generation
            candidate = rollout and rollout.candidate_detector()
            found[:] = [None] * len(prepared)
            for i, result in enumerate(cached or ()):
                if result is not None:
                    found[i] = (candidate if routes and routes[i][0] else live, result)
        config = self.polygraph.config
        probe = config.enable_namespace_probe
        risk = config.vendor_mismatch_risk
        verdicts: List[Optional[Verdict]] = [None] * len(prepared)
        misses, scored, flagged, unknown = answer_known(
            prepared, keys, cached, verdicts, probe, risk,
            (time.perf_counter() - started) * 1000.0,
        )
        live, candidates, mirrored = misses, [], []
        if routes is not None:
            if cached is not None:
                mirrored = [
                    (fields[2], fields[4], result)
                    for (_, mirror), fields, result in zip(routes, prepared, cached)
                    if mirror and result is not None
                ]
            live = [m for m in misses if not routes[m.index][0]]
            candidates = [m for m in misses if routes[m.index][0]]
        arms = []  # (misses, generation, detector, is the candidate's)
        if candidates:
            candidate_detector = rollout.candidate_detector()
            if candidate_detector is None:
                # The rollout ended between routing and scoring: serve
                # these from the live model, uncached (their arm-tagged
                # keys belong to a rollout that is over).
                for miss in candidates:
                    miss.cache_key = None
                live = live + candidates
            else:
                arms.append(
                    (candidates, self.polygraph.model_generation,
                     candidate_detector, True)
                )
        if live:
            arms.insert(0, (live, *self.polygraph.detection_snapshot(), False))
        stats = self.runtime_stats
        for arm, generation, detector, is_candidate in arms:
            model_started = time.perf_counter()
            results = self._evaluate(arm, detector, verdicts, started)
            if results is None:
                continue
            model_ms = (time.perf_counter() - model_started) * 1000.0
            if is_candidate:
                rollout.observe_candidate_batch(len(arm), model_ms)
            else:
                stats.observe_stage("model", model_ms)
                if routes is not None:
                    mirrored += [
                        (miss.values, miss.ua_key, result)
                        for miss, result in zip(arm, results)
                        if routes[miss.index][1]
                    ]
            arm_flagged, arm_unknown = finish_misses(
                arm, results, generation, cache, verdicts, probe, risk,
                (time.perf_counter() - started) * 1000.0,
                found, detector if is_candidate else generation,
            )
            scored += len(arm)
            flagged += arm_flagged
            unknown += arm_unknown
        if mirrored:
            rollout.mirror_many(mirrored)
        if rows is None and self.log is not None:
            now = time.time()
            self.log.append_many(
                [
                    (f[0], COLLECT, -1, now, f[1], f[4], f[2], v.flagged, v.risk_factor)
                    for f, v in zip(prepared, verdicts)
                    if v.accepted
                ],
                day,
            )
        if scored:
            with self._lock:
                self.scored_count += scored
                self.flagged_count += flagged
                counts = self.unknown_ua_counts
                for ua_key in unknown:
                    vendor = vendor_of(ua_key)
                    counts[vendor] = counts.get(vendor, 0) + 1
        stats.observe_stage("total", (time.perf_counter() - started) * 1000.0)
        return verdicts  # type: ignore[return-value]

    def _evaluate(
        self,
        misses: List[Miss],
        detector,
        verdicts: List[Optional[Verdict]],
        started: float,
    ) -> Optional[list]:
        """One vectorized model call over one arm's misses.

        Returns the raw results, or ``None`` after answering every miss
        with a typed ``internal_error`` verdict because the call raised:
        a caller always gets an answer, never the model's exception.
        """
        try:
            results = detector.evaluate_vectors(
                np.asarray([m.values for m in misses], dtype=float),
                [m.ua_key for m in misses],
            )
        except Exception as exc:  # noqa: BLE001 — answer, don't raise
            self.runtime_stats.incr("internal_errors")
            reason = f"internal_error: {type(exc).__name__}"
            latency_ms = (time.perf_counter() - started) * 1000.0
            for miss in misses:
                verdicts[miss.index] = Verdict(
                    session_id=miss.session_id,
                    accepted=False,
                    flagged=False,
                    risk_factor=None,
                    reject_reason=reason,
                    latency_ms=latency_ms,
                )
            return None
        self.runtime_stats.observe_batch(len(misses))
        return results

    # ------------------------------------------------------------------
    # rollout

    @property
    def rollout(self):
        """The attached rollout manager, or ``None``."""
        return self._rollout

    def attach_rollout(self, manager) -> None:
        """Route traffic through a rollout manager from now on."""
        self._rollout = manager

    def detach_rollout(self, manager=None) -> None:
        """Stop routing through ``manager`` (or whatever is attached)."""
        if manager is None or self._rollout is manager:
            self._rollout = None

    # ------------------------------------------------------------------
    # coverage

    def attach_coverage(self, tracker) -> "RuntimeScoringService":
        """Feed a :class:`~repro.coverage.tracker.CoverageTracker`.

        The tracker's known-release table is seeded from the live model
        here and re-synced inside :meth:`_on_model_swap`, so retrains
        keep classification aligned with the serving generation.
        """
        self.coverage = tracker
        generation, detector = self.polygraph.detection_snapshot()
        tracker.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )
        return self

    # ------------------------------------------------------------------
    # retraining

    def retrain(
        self, dataset: Dataset, align_rare: bool = True, jobs: int = 1
    ) -> None:
        """Retrain the underlying pipeline and refresh runtime state.

        The pipeline swaps the model atomically under its lock;
        in-flight batches finish against the snapshot they took, the
        retrain listener invalidates the verdict cache, and stale batch
        results are refused by the cache's generation check.
        """
        self.polygraph.retrain(dataset, align_rare=align_rare, jobs=jobs)

    def _on_model_swap(self, generation: int) -> None:
        self.runtime_stats.incr("model_swaps")
        if self.cache is not None:
            self.cache.invalidate(generation)
        self._ingest.clear_ua_memo()
        if self.coverage is not None:
            _, detector = self.polygraph.detection_snapshot()
            self.coverage.set_known_keys(
                detector.model.ua_to_cluster, generation=generation
            )

    # ------------------------------------------------------------------
    # metrics

    @property
    def requests_total(self) -> int:
        """Requests ingested (accepted + rejected), from the ingest engine."""
        return self._ingest.requests_total

    @property
    def rejected_count(self) -> int:
        """Requests rejected by the wire contract or dedup window."""
        return self._ingest.rejected_count

    @property
    def flag_rate(self) -> float:
        """Share of scored sessions flagged so far."""
        return self.flagged_count / self.scored_count if self.scored_count else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Verdict-cache hit rate (0 when the cache is disabled)."""
        return self.cache.hit_rate if self.cache is not None else 0.0

    def collect(self, out) -> None:
        """Report the scoring counters, the runtime registry, the
        rollout, coverage and the log (when attached) into ``out``."""
        rejects = self.validator.quarantine.counts()
        with self._lock:
            scored, flagged = self.scored_count, self.flagged_count
            unknown = dict(self.unknown_ua_counts)
        collect_verdicts(
            out, scored, flagged,
            {reason.value: count for reason, count in rejects.items()}, unknown,
        )
        out.counter("polygraph_runtime_requests_total", self.requests_total)
        out.counter("polygraph_runtime_requests_rejected", self.rejected_count)
        out.gauge("polygraph_model_generation", self.polygraph.model_generation)
        stats = self.runtime_stats
        cache = self.cache
        if cache is not None:
            cache.sync_stats()
            stats.set_gauge("cache_entries", len(cache), peak=cache.peak_entries)
        stats.collect(out)
        rollout = self._rollout
        if rollout is not None:
            rollout.collect(out)
        if self.coverage is not None:
            self.coverage.collect(out)
        if self.log is not None:
            self.log.collect(out)
