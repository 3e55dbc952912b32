"""The loops every coalesced scoring path runs, written once.

A batch of wires is answered in the same three steps wherever it is
scored — in process by :class:`~repro.runtime.service.RuntimeScoringService`
or router-side by :class:`~repro.cluster.transport.ShmTransport`:

1. :func:`cache_keys` — one verdict-cache key per admitted wire;
2. :func:`answer_known` — rejects and cache hits become verdicts on the
   spot, everything else comes back as a list of :class:`Miss`;
3. :func:`finish_misses` — once the caller has turned (some of) the
   misses into raw model results, cache them, escalate, answer.

What differs between the callers stays with them: how a list of misses
becomes ``(generation, results)`` (a local model call per rollout arm,
or a slab round trip to a child process), what a failed model call
answers (``internal_error`` or ``overloaded``), and their counters.

The batch is the unit of accounting: rejects and hits share one latency
stamp, and so does each group of misses scored together — a per-wire
clock on a bulk path mostly measures the clock.  That is also what lets
a front end render one response per *distinct* verdict.

Escalation parity: raw (un-escalated) results are what the cache holds;
the Section 8 namespace-probe escalation is re-applied per wire, hit or
miss, exactly as ``BrowserPolygraph.escalate_result`` does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.runtime.cache import VerdictCache
from repro.service.scoring import Verdict

__all__ = ["Miss", "answer_known", "cache_keys", "finish_misses"]

# Frozen-dataclass construction, amortized: every verdict of a group
# shares its constant fields, so they live in a proto dict; a verdict
# is a dict copy plus the per-wire fields, swapped in wholesale
# (``__init__`` would re-run eight guarded ``object.__setattr__``
# calls per wire).
_REJECTED = {
    "session_id": "", "accepted": False, "flagged": False,
    "risk_factor": None, "reject_reason": None, "latency_ms": 0.0,
    "inferred_release": None, "inferred_distance": None,
}
_verdict_new = Verdict.__new__
_set_attr = object.__setattr__


class Miss:
    """One admitted wire the cache could not answer."""

    __slots__ = ("index", "session_id", "values", "globs", "ua_key", "cache_key")

    def __init__(self, index, session_id, values, globs, ua_key, cache_key) -> None:
        self.index = index
        self.session_id = session_id
        self.values = values
        self.globs = globs
        self.ua_key = ua_key
        self.cache_key = cache_key


def _accept(state: dict, result, escalate, vendor_risk: int, unknown: List[str]) -> bool:
    """Fill an accepted verdict's state from a raw result; return ``flagged``.

    ``escalate`` is truthy when the namespace probe is on and the wire
    carried suspicious globals.  A result outside the trained table
    (unknown release, or scored against an inferred neighbour) has its
    ``ua_key`` appended to ``unknown``.
    """
    inferred = result.inferred_release
    if inferred is not None:
        state["inferred_release"] = inferred
        state["inferred_distance"] = result.inferred_distance
        unknown.append(result.ua_key)
    elif result.expected_cluster is None:
        unknown.append(result.ua_key)
    if escalate:
        state["flagged"] = True
        state["risk_factor"] = vendor_risk
        return True
    state["risk_factor"] = result.risk_factor
    flagged = state["flagged"] = result.flagged
    return flagged


def cache_keys(cache: VerdictCache, prepared: Sequence) -> List[Optional[tuple]]:
    """One cache key per ingest outcome; ``None`` for rejected wires.

    ``prepared`` is what :meth:`WireIngest.ingest_many` returns: the
    fields tuple of an admitted wire, or its ``RejectReason``.
    ``cache.make_key`` is inlined: ingest always hands back int tuples,
    which the key reuses.
    """
    return [
        (fields[4], fields[2]) if fields.__class__ is tuple else None
        for fields in prepared
    ]


def answer_known(
    prepared: Sequence,
    keys: Optional[Sequence[Optional[tuple]]],
    cached: Optional[Sequence],
    verdicts: List[Optional[Verdict]],
    namespace_probe: bool,
    vendor_risk: int,
    latency_ms: float,
) -> Tuple[List[Miss], int, int, List[str]]:
    """Answer a batch's rejects and cache hits in place; return the rest.

    ``keys`` / ``cached`` are the batch's cache probe (both ``None``
    without a cache).  Fills ``verdicts[i]`` for every rejected or
    cache-answered wire and returns ``(misses, scored, flagged,
    unknown)``: the wires still to be scored, how many hits were
    answered and how many of those flagged, and the ``ua_key`` of every
    hit whose release is outside the trained table.
    """
    misses: List[Miss] = []
    miss_append = misses.append
    unknown: List[str] = []
    scored = flagged_count = 0
    reject_proto = dict(_REJECTED, latency_ms=latency_ms)
    hit_proto = dict(reject_proto, accepted=True)
    for i, fields in enumerate(prepared):
        if fields.__class__ is not tuple:
            state = reject_proto.copy()
            state["reject_reason"] = fields.value
        else:
            result = cached[i] if cached is not None else None
            if result is None:
                miss_append(
                    Miss(
                        i, fields[0], fields[2], fields[3], fields[4],
                        keys[i] if keys is not None else None,
                    )
                )
                continue
            state = hit_proto.copy()
            state["session_id"] = fields[0]
            if _accept(state, result, namespace_probe and fields[3], vendor_risk, unknown):
                flagged_count += 1
            scored += 1
        verdict = _verdict_new(Verdict)
        _set_attr(verdict, "__dict__", state)
        verdicts[i] = verdict
    return misses, scored, flagged_count, unknown


def finish_misses(
    misses: Sequence[Miss],
    results: Sequence,
    generation: Optional[int],
    cache: Optional[VerdictCache],
    verdicts: List[Optional[Verdict]],
    namespace_probe: bool,
    vendor_risk: int,
    latency_ms: float,
    found: Optional[list] = None,
    model: object = None,
) -> Tuple[int, List[str]]:
    """Cache, escalate and answer misses whose raw results just arrived.

    ``results[j]`` is the model's answer for ``misses[j]``, computed
    against model ``generation`` — the cache refuses it if a retrain
    has landed since.  A miss whose ``cache_key`` is ``None`` is served
    uncached.  Returns ``(flagged, unknown)`` as :func:`answer_known`
    does; every miss passed in counts as scored.  ``found``, if given,
    gets ``(model, result)`` at each miss's index (``score_rows``).
    """
    if cache is not None:
        cache.put_many([miss.cache_key for miss in misses], results, generation)
    unknown: List[str] = []
    flagged_count = 0
    proto = dict(_REJECTED, accepted=True, latency_ms=latency_ms)
    for miss, result in zip(misses, results):
        state = proto.copy()
        state["session_id"] = miss.session_id
        if _accept(state, result, namespace_probe and miss.globs, vendor_risk, unknown):
            flagged_count += 1
        verdict = _verdict_new(Verdict)
        _set_attr(verdict, "__dict__", state)
        verdicts[miss.index] = verdict
        if found is not None:
            found[miss.index] = (model, result)
    return flagged_count, unknown
