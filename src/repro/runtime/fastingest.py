"""The shared fast-ingest engine: wire contract enforcement, memoized.

Extracted from :class:`~repro.runtime.service.RuntimeScoringService` so
that every component sitting in front of a model — the in-process
runtime, and the router side of the shared-memory shard transport
(:mod:`repro.cluster.transport`) — enforces the wire contract with the
*same* code path.  The contract itself is defined by
:class:`~repro.service.ingest.PayloadValidator`; this class mirrors its
checks in the identical order while skipping work that is provably
redundant for repeated byte patterns:

* the **user-agent memo** maps raw UA strings to their parsed
  equivalence class (``vendor-version``), bounded and cleared whole;
* the **wire-suffix memo** keys the bytes *after* the session id:
  live payloads from the same browser differ only in ``sid``, so a
  repeated suffix skips the JSON parse and the static checks entirely;
* the **UA-slice memo** maps the raw bytes between ``"ua":"`` and the
  next quote to ``(user_agent, ua_key)``: a never-seen suffix in the
  collection script's own shape is read from byte slices (UA from this
  memo, each feature from a table of JSON's spelling of every
  admissible value) without building a JSON tree.

The slice read can only *admit*: anything it cannot vouch for — a
``g`` key, reordered or duplicate keys, spacing, escapes, floats,
out-of-range values — takes the full parse, which is where every
static ``RejectReason`` and quarantine detail comes from.  Parity with
``PayloadValidator.ingest_wire`` is pinned by the runtime test suite.
"""

from __future__ import annotations

import functools
import json
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.browsers.useragent import UserAgentError, parse_user_agent
from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.service.ingest import (
    MAX_FEATURE_VALUE,
    MAX_SESSION_ID_LENGTH,
    MAX_SUSPICIOUS_GLOBALS,
    PayloadValidator,
    RejectReason,
)

__all__ = ["WireIngest"]

_UA_MEMO_LIMIT = 4096
_WIRE_MEMO_LIMIT = 8192

_MISSING = object()  # memo sentinel: cached values may be None

_SID_PREFIX = b'{"sid":"'

# Escapes or control bytes in a byte-sliced sid change its JSON meaning
# (the slice would not round-trip), so their presence forces the full
# parse.  One C-level scan replaces an ``in`` scan plus a ``min()``.
_SID_UNSAFE = re.compile(rb"[\x00-\x1f\\]").search

# The collection script's own tail, after the sid's closing quote:
# ``","ua":"`` UA ``","f":[`` INTS ``]}``.
_UA_OPEN = b'","ua":"'
_F_OPEN = b'","f":['
_TAIL_CLOSE = b"]}"


@functools.lru_cache(maxsize=None)
def _feature_spellings() -> Dict[bytes, int]:
    """JSON's own spelling of every admissible feature value.

    One lookup is the ``int()``, the canonical-form check (no sign, no
    leading zero, no fraction, no exponent, no spacing) and the
    ``MAX_FEATURE_VALUE`` check.  Built on first use, not at import:
    shard children import this module and never ingest.
    """
    return {b"%d" % value: value for value in range(MAX_FEATURE_VALUE + 1)}


class WireIngest:
    """Wire-contract enforcement with parse memoization.

    One instance fronts one validator (one quarantine log, one dedup
    window).  :meth:`ingest` is the whole surface: bytes in,
    ``(reject_reason, fields)`` out, where ``fields`` is
    ``(session_id, user_agent, values, suspicious_globals, ua_key)``
    for admitted payloads.

    Stateless checks run lock-free; the shared mutable state (the
    quarantine log, the dedup window, the counters) is touched under
    one lock, so concurrent producers serialize on a few dict and set
    operations rather than on a JSON parse.
    """

    __slots__ = (
        "validator",
        "_lock",
        "_ua_class",
        "_ua_slices",
        "_feature_of",
        "_wire_memo",
        "requests_total",
        "rejected_count",
    )

    def __init__(self, validator: Optional[PayloadValidator] = None) -> None:
        self.validator = validator if validator is not None else PayloadValidator()
        self._lock = threading.Lock()
        self._ua_class: Dict[str, Optional[str]] = {}
        self._ua_slices: Dict[bytes, Tuple[str, str]] = {}
        self._feature_of = _feature_spellings().__getitem__
        self._wire_memo: Dict[bytes, tuple] = {}
        self.requests_total = 0
        self.rejected_count = 0

    # ------------------------------------------------------------------

    def ingest(
        self, wire: bytes
    ) -> Tuple[Optional[RejectReason], Optional[tuple]]:
        """Validate one wire payload; admit or reject.

        Identical checks in identical order to
        ``PayloadValidator.ingest_wire``, sharing the validator's
        quarantine log and dedup window.  The fast path fires when the
        wire opens with the canonical ``{"sid":"<id>"`` shape and its
        suffix has been fully parsed and statically validated before:
        then only the session-id checks and the dedup window run.
        """
        prepared = self._prepare(wire)
        if len(prepared) != 5:
            return self._reject(prepared[0], prepared[1])
        return self._admit(*prepared)

    def ingest_many(
        self, wires: Sequence[bytes]
    ) -> List[Union[RejectReason, tuple]]:
        """Bulk :meth:`ingest`: one validator-lock round trip per chunk.

        Returns one outcome per wire, in order: the admitted fields
        tuple, or the :class:`RejectReason` (its detail already
        recorded in the quarantine log).  One fused loop applies the
        stateless checks (:meth:`_prepare`), the dedup window, and the
        counters under a single lock acquisition — a 256-wire chunk
        pays one lock, not 256, and no per-wire wrapper tuples.
        Outcomes are wire-for-wire identical to :meth:`ingest` loops.
        """
        prepare = self._prepare
        validator = self.validator
        record = validator.quarantine.record
        duplicate = RejectReason.DUPLICATE
        window, seen_ids, seen_set = validator.dedup_state()
        maxlen = seen_ids.maxlen
        ids_append = seen_ids.append
        seen_add = seen_set.add
        seen_discard = seen_set.discard
        out: List[Union[RejectReason, tuple]] = []
        append = out.append
        accepted = 0
        rejected = 0
        with self._lock:
            for wire in wires:
                prepared = prepare(wire)
                if len(prepared) == 5:
                    if window:
                        session_id = prepared[0]
                        if session_id in seen_set:
                            record(duplicate, session_id)
                            rejected += 1
                            append(duplicate)
                            continue
                        if len(seen_ids) == maxlen:
                            seen_discard(seen_ids[0])
                        ids_append(session_id)
                        seen_add(session_id)
                    accepted += 1
                    append(prepared)
                else:
                    reason = prepared[0]
                    record(reason, prepared[1])
                    rejected += 1
                    append(reason)
            validator.accepted_count += accepted
            self.requests_total += len(wires)
            self.rejected_count += rejected
        return out

    def _prepare(self, wire: bytes):
        """The lock-free half of :meth:`ingest`: every stateless check.

        Returns the 5-tuple ``fields`` for candidates that still need
        the locked dedup-window pass, or the 2-tuple
        ``(reason, detail_str)`` for statically-invalid wires — the
        caller discriminates on ``len``.
        """
        validator = self.validator
        if len(wire) > MAX_PAYLOAD_BYTES:
            return (
                RejectReason.OVERSIZED,
                f"{len(wire)} bytes > {MAX_PAYLOAD_BYTES}",
            )
        sid_bytes: Optional[bytes] = None
        suffix: Optional[bytes] = None
        if wire.startswith(_SID_PREFIX):
            quote = wire.find(b'"', 8)
            if quote >= 8:
                raw_sid = wire[8:quote]
                tail = wire[quote:]
                # Memo first: keys are only ever inserted after a full
                # parse or a slice read validated the suffix (including
                # that it holds no second "sid" key), so a hit re-checks
                # just the sid.  Escapes or control bytes in the sid change its
                # JSON meaning — those still force the full parse.
                cached = self._wire_memo.get(tail)
                if cached is not None:
                    if _SID_UNSAFE(raw_sid) is None:
                        try:
                            session_id = raw_sid.decode("utf-8")
                        except UnicodeDecodeError:
                            session_id = None
                        if session_id is not None:
                            if len(session_id) > MAX_SESSION_ID_LENGTH or (
                                not session_id
                            ):
                                return (
                                    RejectReason.BAD_SESSION_ID,
                                    session_id[:80],
                                )
                            return (session_id,) + cached
                elif _SID_UNSAFE(raw_sid) is None:
                    fields = self._read_canonical(raw_sid, tail)
                    if fields is not None:
                        return fields
                    if b'"sid"' not in tail:
                        sid_bytes = raw_sid
                        suffix = tail
        try:
            body = json.loads(wire.decode("utf-8"))
            session_id = str(body["sid"])
            user_agent = str(body["ua"])
            values = tuple(map(int, body["f"]))
            raw_globs = body.get("g", _MISSING)
            globs = (
                () if raw_globs is _MISSING
                else tuple(str(g) for g in raw_globs)
            )
        except (
            ValueError, KeyError, TypeError, RecursionError, OverflowError
        ) as exc:
            # RecursionError: a body nested ~1000 deep; OverflowError:
            # int(1e999).  Both fit in 1 KB, and an escape here would
            # fail every other wire of the batch.
            return RejectReason.MALFORMED, str(exc)[:120]
        if not session_id or len(session_id) > MAX_SESSION_ID_LENGTH:
            return RejectReason.BAD_SESSION_ID, session_id[:80]
        if len(values) != validator.expected_features:
            return (
                RejectReason.WRONG_ARITY,
                f"{len(values)} values, expected {validator.expected_features}",
            )
        # C-loop min/max instead of a per-element genexpr; the arity
        # check above guarantees ``values`` is non-empty.
        if min(values) < 0 or max(values) > MAX_FEATURE_VALUE:
            return RejectReason.VALUE_RANGE, "feature out of range"
        if len(globs) > MAX_SUSPICIOUS_GLOBALS:
            return (
                RejectReason.GLOBALS_OVERFLOW,
                f"{len(globs)} suspicious globals",
            )
        ua_key = self.ua_class_of(user_agent)
        if ua_key is None:
            return RejectReason.UNPARSEABLE_UA, user_agent[:80]
        # Memoize the statically-validated suffix — but only when the
        # byte-sliced sid round-trips to the JSON-parsed one, proving
        # the slice boundaries are exactly right for this shape.
        if suffix is not None and session_id.encode("utf-8") == sid_bytes:
            memo = self._wire_memo
            if len(memo) >= _WIRE_MEMO_LIMIT:
                memo.clear()
            memo[suffix] = (user_agent, values, globs, ua_key)
        return session_id, user_agent, values, globs, ua_key

    def _read_canonical(self, raw_sid: bytes, tail: bytes) -> Optional[tuple]:
        """First sight of a tail in the script's own shape, read from slices.

        Returns the fields tuple :meth:`_prepare`'s full parse would
        return, or ``None`` for "take the full parse".  It can only
        admit: the tail must be exactly ``","ua":"`` + UA + ``","f":[``
        + INTS + ``]}`` with a UA the slice memo knows (or can learn),
        every INTS part in the spelling table and the validator's
        arity; ``raw_sid`` (already free of escapes and control bytes)
        must be UTF-8 of an admissible length.  An admitted tail enters
        the wire-suffix memo exactly as a fully parsed one does.
        """
        if not (tail.startswith(_UA_OPEN) and tail.endswith(_TAIL_CLOSE)):
            return None
        ua_end = tail.find(b'"', 8)  # -1 fails the next test too
        if not tail.startswith(_F_OPEN, ua_end):
            return None
        ua_slice = tail[8:ua_end]
        ua = self._ua_slices.get(ua_slice)
        if ua is None:
            ua = self._learn_ua_slice(ua_slice)
            if ua is None:
                return None
        try:
            values = tuple(map(self._feature_of, tail[ua_end + 7 : -2].split(b",")))
            session_id = raw_sid.decode("utf-8")
        except (KeyError, UnicodeDecodeError):
            return None
        if (
            len(values) != self.validator.expected_features
            or not session_id
            or len(session_id) > MAX_SESSION_ID_LENGTH
        ):
            return None
        memo = self._wire_memo
        if len(memo) >= _WIRE_MEMO_LIMIT:
            memo.clear()
        user_agent, ua_key = ua
        memo[tail] = (user_agent, values, (), ua_key)
        return session_id, user_agent, values, (), ua_key

    def _learn_ua_slice(self, ua_slice: bytes) -> Optional[Tuple[str, str]]:
        """Memoize raw UA bytes → ``(user_agent, ua_key)``, or ``None``.

        Learned only when the bytes mean themselves in JSON (no escape,
        no control byte, valid UTF-8) and the UA parses.
        """
        if _SID_UNSAFE(ua_slice) is not None:
            return None
        try:
            user_agent = ua_slice.decode("utf-8")
        except UnicodeDecodeError:
            return None
        ua_key = self.ua_class_of(user_agent)
        if ua_key is None:
            return None
        memo = self._ua_slices
        if len(memo) >= _UA_MEMO_LIMIT:
            memo.clear()
        ua = memo[ua_slice] = (user_agent, ua_key)
        return ua

    # ------------------------------------------------------------------

    def _admit(
        self,
        session_id: str,
        user_agent: str,
        values: Tuple[int, ...],
        globs: Tuple[str, ...],
        ua_key: str,
    ) -> Tuple[Optional[RejectReason], Optional[tuple]]:
        """Dedup window + counters for a statically-valid payload."""
        validator = self.validator
        with self._lock:
            if validator.is_duplicate(session_id):
                validator.quarantine.record(RejectReason.DUPLICATE, session_id)
                self.requests_total += 1
                self.rejected_count += 1
                return RejectReason.DUPLICATE, None
            validator.remember(session_id)
            validator.accepted_count += 1
            self.requests_total += 1
        return None, (session_id, user_agent, values, globs, ua_key)

    def _reject(
        self, reason: RejectReason, detail: str
    ) -> Tuple[RejectReason, None]:
        with self._lock:
            self.validator.quarantine.record(reason, detail)
            self.requests_total += 1
            self.rejected_count += 1
        return reason, None

    def ua_class_of(self, user_agent: str) -> Optional[str]:
        """Memoized raw UA string → parsed equivalence class (ua_key).

        Reads are lock-free: dict get/set are atomic under the GIL and
        a racing recompute is benign (same result, idempotent insert).
        """
        memo = self._ua_class
        ua_key = memo.get(user_agent, _MISSING)
        if ua_key is not _MISSING:
            return ua_key
        try:
            ua_key = parse_user_agent(user_agent).key()
        except UserAgentError:
            ua_key = None
        if len(memo) >= _UA_MEMO_LIMIT:
            memo.clear()
        memo[user_agent] = ua_key
        return ua_key

    def clear_ua_memo(self) -> None:
        """Drop every memo that holds a UA-derived value.

        ``ua_key`` is a pure function of the UA string, so no memo can
        go stale across a model swap: this bounds memory, it is not an
        invalidation.  All three memos hold ``ua_key``s and go together.
        """
        with self._lock:
            self._ua_class.clear()
            self._ua_slices.clear()
            self._wire_memo.clear()
