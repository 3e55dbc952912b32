"""Event envelopes in, single-vector rows out — parsed once.

An event envelope is a fingerprint wire with ``ev``/``seq``/``ts``
spliced in after the session id.  The session layer needs three things
from it: the event's own fields, the *inner wire* the wrapped scoring
service is handed — the envelope's own ``core_wire()`` for a first
event (the parity anchor), the same bytes under a derived id
(``sid@seq``) for a follow-up — and, where it can be had, the *row*
that wire parses to, so the batch core need not parse it again.

Done naively that is a JSON decode, 28 ``int()`` calls and a JSON
encode per event, for bytes that almost never differ: the paper's
traffic has ~1.3k distinct fingerprints in 205k sessions, and every
event of a browser carries the same one.  :class:`EnvelopeParser`
applies the idiom :mod:`repro.runtime.fastingest` uses for
``/collect``: a bounded memo keyed on the envelope's *fingerprint tail*
(the bytes from ``,"ua":`` to the end).  On a hit the event's fields
come from four byte slices and the inner wire from splicing the session
id back in front of the tail.

A tail is admitted only after a full parse **proved** that splicing is
exact for it: the wire the hit path would build for this envelope
equals, byte for byte, the one the full path built from the parsed
event.  That holds only when the tail is the canonical serialization of
``ua``/``f``/``g`` and nothing else — a tail with a second
``sid``/``seq``/``ev``/``ts`` key, reordered keys, spacing, floats or
strings for feature values never gets in.  A hit additionally needs the
session id to be printable ASCII without escapes (what ``json.dumps``
emits unchanged) and the bytes between id and tail to be exactly
``,"ev":"<known type>","seq":<int>,"ts":<decimal>``; anything else takes
the full parse.

The same proof runs the wire contract's fingerprint checks
(:func:`~repro.runtime.fastingest.check_fingerprint`) once per tail,
and the memo keeps the ``ua_key`` they prove (``None`` if they fail).
A hit on a proven tail whose inner wire passes the id-dependent checks
(id length, wire size) yields the row ``(scored id, user_agent, values,
globals, ua_key, session_id)`` — what ``WireIngest`` would parse from
the inner wire, plus the event's session; any other event yields
``(session_id,)`` and the batch core parses its wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import re
from typing import Dict, Tuple

from repro.fingerprint.features import N_FEATURES
from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.runtime.fastingest import check_fingerprint
from repro.service.ingest import MAX_SESSION_ID_LENGTH
from repro.traffic.events import MAX_EVENT_TIMESTAMP, EventType, SessionEvent

__all__ = ["EnvelopeParser", "event_fields", "inner_wire"]

# Cleared whole at the limit, like fastingest's ``_WIRE_MEMO_LIMIT``.
_MEMO_LIMIT = 8192

_SID_PREFIX = b'{"sid":"'
_TAIL_MARK = b',"ua":'

# A sliced session id stands for itself only if JSON would write it the
# same way: printable ASCII, no escapes.  (The slice ends at the first
# quote, so it cannot hold one.)
_SID_UNSAFE = re.compile(rb"[^\x20-\x7e]|\\").search

_EVENT_TYPES = {kind.value.encode("ascii"): kind for kind in EventType}

# What the hit path reads with int()/float() must be what json.loads
# would have produced: JSON's own number grammar (no sign, no leading
# zeros, no exponent), short enough that neither conversion can round
# differently or overflow.
_HEAD = re.compile(
    rb',"ev":"(' + b"|".join(_EVENT_TYPES) + rb')"'
    rb',"seq":(0|[1-9][0-9]{0,8})'
    rb',"ts":((?:0|[1-9][0-9]{0,14})(?:\.[0-9]{1,9})?)'
).fullmatch

#: A :class:`SessionEvent`'s fields as a tuple, as ``parse_row`` yields.
event_fields = operator.attrgetter(
    *(field.name for field in dataclasses.fields(SessionEvent))
)


def _derived_session_id(session_id: str, seq: int) -> str:
    """The id the inner service scores an event under.

    A follow-up is not a replay, so it gets an id the dedup window has
    not seen: ``sid@seq``, readable in quarantine logs, or when the
    suffix would blow the wire contract's length cap a fixed-width
    blake2b digest (still unique per ``(sid, seq)``, still under the
    cap).  A first event keeps its own id, and so does an event whose
    own id the contract refuses (empty, or over the cap): it is refused
    ``bad_session_id`` at every seq, as at seq 0.
    """
    if not seq or not 0 < len(session_id) <= MAX_SESSION_ID_LENGTH:
        return session_id
    derived = f"{session_id}@{seq}"
    if len(derived) <= MAX_SESSION_ID_LENGTH:
        return derived
    digest = hashlib.blake2b(
        derived.encode("utf-8"), digest_size=24
    ).hexdigest()
    return f"ev-{digest}"


def inner_wire(event: SessionEvent) -> bytes:
    """The single-vector wire the inner service scores for ``event``:
    its ``core_wire()`` under :func:`_derived_session_id`."""
    scored_as = _derived_session_id(event.session_id, event.seq)
    if scored_as != event.session_id:
        event = dataclasses.replace(event, session_id=scored_as)
    return event.core_wire()


def _spliced(session_id: str, seq: int, tail: bytes) -> Tuple[str, bytes]:
    """The scored id and :func:`inner_wire`, by slicing, for an ASCII id
    and a canonical tail."""
    scored_as = _derived_session_id(session_id, seq)
    return scored_as, _SID_PREFIX + scored_as.encode("ascii") + b'"' + tail


class EnvelopeParser:
    """``wire -> (event fields, inner wire, row)``, memoized on the tail.

    One instance may serve any number of threads: the memo maps a tail
    to the immutable ``(user_agent, values, globals, ua_key)`` it parses
    to, reads and writes are single dict operations, and a racing
    recompute inserts the same entry.
    """

    __slots__ = ("_memo", "_arity")

    def __init__(self, expected_features: int = N_FEATURES) -> None:
        self._memo: Dict[bytes, tuple] = {}
        self._arity = expected_features  # the inner service's

    def parse(self, wire: bytes) -> Tuple[SessionEvent, bytes]:
        """``(event, inner wire)`` of one envelope."""
        fields, inner, _ = self.parse_row(wire)
        return SessionEvent(*fields), inner

    def parse_row(self, wire: bytes) -> Tuple[tuple, bytes, tuple]:
        """``(event_fields, inner wire, row)`` of one envelope (raises
        ``ValueError`` if malformed)."""
        sid = tail = None
        if wire.startswith(_SID_PREFIX):
            quote = wire.find(b'"', 8)
            cut = wire.find(_TAIL_MARK, quote) if quote >= 8 else -1
            if cut >= 0 and _SID_UNSAFE(wire, 8, quote) is None:
                head = _HEAD(wire, quote + 1, cut)
                if head is not None:
                    sid = wire[8:quote]
                    tail = wire[cut:]
                    fingerprint = self._memo.get(tail)
                    kind, seq, timestamp = head.groups()
                    timestamp = float(timestamp)
                    # Past the event calendar: the full parse rejects it.
                    if fingerprint is not None and timestamp < MAX_EVENT_TIMESTAMP:
                        seq = int(seq)
                        session_id = sid.decode("ascii")
                        user_agent, values, suspicious_globals, ua_key = fingerprint
                        scored_as, inner = _spliced(session_id, seq, tail)
                        row = (session_id,)
                        if ua_key is not None and len(inner) <= MAX_PAYLOAD_BYTES and (
                            0 < len(scored_as) <= MAX_SESSION_ID_LENGTH
                        ):
                            row = (scored_as, user_agent, values,
                                   suspicious_globals, ua_key, session_id)
                        return (session_id, _EVENT_TYPES[kind], seq, timestamp,
                                user_agent, values, suspicious_globals), inner, row
        event = SessionEvent.from_wire(wire)
        inner = inner_wire(event)
        if tail is not None and inner == _spliced(sid.decode(), event.seq, tail)[1]:
            ua_key = check_fingerprint(
                event.user_agent, event.values, event.suspicious_globals, self._arity
            )
            memo = self._memo
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[tail] = (
                event.user_agent, event.values, event.suspicious_globals,
                ua_key if ua_key.__class__ is str else None,
            )
        return event_fields(event), inner, (event.session_id,)
