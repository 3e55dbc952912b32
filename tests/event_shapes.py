"""Event-envelope material shared by the session-layer suites.

Hostile envelope shapes, a traffic builder that mixes them into real
event streams, and the differential harness that holds the batch path
(``observe_many`` over arbitrary cuts) to one-at-a-time scoring on a
twin service.  Not a test module itself.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.traffic.events import SessionEvent, StreamScenario


# /collect bodies inside the 1 KiB wire cap that raise something other
# than ValueError/KeyError/TypeError out of a naive parse: RecursionError
# from json.loads (twice), OverflowError from int(1e999).  One of these
# in a coalesced batch must cost one ``malformed`` answer, not the batch.
POISON_BODIES = {
    "nested-sid": b'{"sid":' + b"[" * 1010,
    "brackets": b"[" * 1020,
    "overflow": (
        b'{"sid":"abcdefgh12345678","ua":"Mozilla/5.0","f":[1e999],"g":[]}'
    ),
}


def _dump(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _edit(change: Callable[[dict], None]) -> Callable[[SessionEvent], bytes]:
    def shape(event: SessionEvent) -> bytes:
        document = json.loads(event.to_wire())
        change(document)
        return _dump(document)

    return shape


def _reversed_keys(event: SessionEvent) -> bytes:
    document = json.loads(event.to_wire())
    return _dump(dict(reversed(list(document.items()))))


def _non_ascii_sid(event: SessionEvent) -> bytes:
    document = json.loads(event.to_wire())
    document["sid"] = "é" + document["sid"]
    return json.dumps(
        document, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _respell_ts(spell: Callable[[bytes], bytes]) -> Callable[[SessionEvent], bytes]:
    def shape(event: SessionEvent) -> bytes:
        head, mark, rest = event.to_wire().partition(b',"ts":')
        number, comma, tail = rest.partition(b",")
        return head + mark + spell(number) + comma + tail

    return shape


def _set(key: str, value) -> Callable[[SessionEvent], bytes]:
    return _edit(lambda document: document.__setitem__(key, value))


# name -> envelope bytes for one event.  Every shape is applied to all
# events of a session, so a hostile *tail* is seen more than once — a
# memo that wrongly admitted it would then serve it.
HOSTILE_SHAPES: Dict[str, Callable[[SessionEvent], bytes]] = {
    "truncated": lambda e: e.to_wire()[: len(e.to_wire()) // 2],
    "reversed_keys": _reversed_keys,
    "escaped_sid": lambda e: e.to_wire().replace(b'{"sid":"', b'{"sid":"\\u0078', 1),
    "surrogate_sid": lambda e: e.to_wire().replace(b'{"sid":"', b'{"sid":"\\ud800', 1),
    "non_ascii_sid": _non_ascii_sid,
    "long_sid": _edit(lambda d: d.__setitem__("sid", d["sid"] + "x" * 70)),
    "seq_string": _edit(lambda d: d.__setitem__("seq", str(d["seq"]))),
    "seq_negative": _edit(lambda d: d.__setitem__("seq", -d["seq"] - 1)),
    "seq_11_digits": _edit(lambda d: d.__setitem__("seq", 10_000_000_000 + d["seq"])),
    "ts_exponent": _respell_ts(lambda number: b"%.9e" % float(number)),
    # An integer no float can hold: OverflowError inside the parse.
    "ts_overflow": _respell_ts(lambda number: b"9" * 400),
    "ts_missing": _edit(lambda d: d.__delitem__("ts")),
    # Outside the event calendar: each would stop the session clock.
    "ts_infinity": _respell_ts(lambda number: b"Infinity"),
    "ts_nan": _respell_ts(lambda number: b"NaN"),
    "ts_1e308": _respell_ts(lambda number: b"1e308"),
    # Canonically spelled, so it meets the memo's hit path.
    "ts_far_future": _respell_ts(lambda number: b"999999999999999"),
    "unknown_ev": _set("ev", "hover"),
    "extra_key": _set("x", 1),
    "dup_sid": lambda e: e.to_wire()[:-1] + b',"sid":"someone-else"}',
    "dup_seq": lambda e: e.to_wire()[:-1] + b',"seq":7}',
    "wrong_arity": _edit(lambda d: d["f"].pop()),
    "bad_ua": _set("ua", "definitely not a browser"),
    "globals": _set("g", ["__nightmare", "callPhantom"]),
    "empty_globals": _set("g", []),
    "float_values": _edit(lambda d: d.__setitem__("f", [float(v) for v in d["f"]])),
    "spaced": lambda e: json.dumps(json.loads(e.to_wire())).encode("utf-8"),
    "nested": lambda e: b'{"sid":' + b"[" * 1100,
}

# Envelopes of these shapes parse, yet splicing would be inexact for
# them (or their head is not the canonical one): never memoized.
NEVER_MEMOIZED = (
    "reversed_keys", "escaped_sid", "surrogate_sid", "non_ascii_sid",
    "seq_string", "seq_negative", "seq_11_digits", "ts_exponent",
    "ts_missing", "extra_key", "dup_sid", "dup_seq", "empty_globals",
    "float_values", "spaced",
)


def scenario_streams(streams, per_scenario: int = 3) -> list:
    """A few streams of every scenario, fraud families first."""
    chosen = []
    for scenario in (
        StreamScenario.ENGINE_SWAP,
        StreamScenario.SPOOF_UPDATE,
        StreamScenario.HIJACK_HANDOFF,
        StreamScenario.BENIGN_RECOLLECT,
        StreamScenario.SINGLE_SHOT,
    ):
        matching = [s for s in streams if s.scenario is scenario]
        assert matching, scenario
        chosen.extend(matching[:per_scenario])
    return chosen


def traffic(n_streams: int, shapes=HOSTILE_SHAPES):
    """Strategy: what :func:`build_traffic` needs besides the streams."""
    return st.fixed_dictionaries(
        {
            "picks": st.lists(
                st.tuples(
                    st.integers(0, n_streams - 1),
                    st.one_of(st.none(), st.sampled_from(sorted(shapes))),
                ),
                min_size=1,
                max_size=10,
            ),
            "keep_order": st.booleans(),
            "replays": st.lists(st.integers(0, 1 << 16), max_size=4),
            "rnd": st.randoms(use_true_random=False),
            # Mostly small: a session's events must straddle batches.
            "cuts": st.lists(
                st.one_of(st.integers(1, 8), st.integers(1, 256)),
                min_size=1,
                max_size=20,
            ),
            "ttl_seconds": st.sampled_from([600.0, 1e9]),
            "max_sessions": st.sampled_from([3, 100_000]),
        }
    )


def build_traffic(
    candidates, picks, keep_order, replays, rnd, nonce: str,
    shapes=HOSTILE_SHAPES, **_
) -> List[bytes]:
    """Envelope wires for the picked sessions, interleaved.

    Session ids are made unique per ``nonce`` (the inner services the
    suites reuse across examples remember ids).  ``keep_order`` merges
    the sessions keeping each one's own event order; without it the
    whole sequence is shuffled, so follow-ups arrive before the event
    they follow.  ``replays`` re-sends exact copies of earlier wires.
    """
    sessions: List[List[bytes]] = []
    for number, (index, shape) in enumerate(picks):
        render = SessionEvent.to_wire if shape is None else shapes[shape]
        sessions.append(
            [
                render(
                    dataclasses.replace(
                        event, session_id=f"{nonce}.{number}.{event.session_id}"[:40]
                    )
                )
                for event in candidates[index].events
            ]
        )
    if keep_order:
        wires = []
        queues = [list(reversed(s)) for s in sessions]
        while queues:
            queue = rnd.choice(queues)
            wires.append(queue.pop())
            if not queue:
                queues.remove(queue)
    else:
        wires = [wire for session in sessions for wire in session]
        rnd.shuffle(wires)
    for replay in replays:
        source = replay % len(wires)
        wires.insert(rnd.randint(source + 1, len(wires)), wires[source])
    return wires


def cut_batches(wires: Sequence[bytes], cuts: Sequence[int]) -> List[List[bytes]]:
    batches = []
    position = 0
    turn = 0
    while position < len(wires):
        size = cuts[turn % len(cuts)]
        batches.append(list(wires[position : position + size]))
        position += size
        turn += 1
    return batches


def sessions_state(sessions) -> tuple:
    """Everything one :class:`SessionScoringService` remembers."""
    tracker = sessions.tracker
    return (
        sessions.status_dict(),
        sessions._virtual_now,
        [(sid, tracker._sessions[sid].to_dict()) for sid in tracker.active_ids()],
        dict(sessions._fusion_by_sid),
    )


def validator_state(validator) -> tuple:
    """Quarantine counts by reason and the dedup window, in order."""
    return (
        {reason.value: n for reason, n in validator.quarantine.counts().items()},
        validator.accepted_count,
        list(validator.dedup_state()[1]),
    )


class _NothingSticks(dict):
    def __setitem__(self, key, value) -> None:
        pass


def differential(
    batched, sequential, wires: Sequence[bytes], cuts: Sequence[int]
) -> Tuple[List[dict], List[dict]]:
    """Feed ``wires`` to ``batched`` in cut batches and to ``sequential``
    one at a time; both observation lists as JSON-ready documents.

    The sequential side also goes without the envelope memo (every wire
    takes the full parse), so a wrong memo answer shows as a difference
    rather than on both sides.
    """
    sequential._envelopes._memo = _NothingSticks()
    in_batches: List[dict] = []
    for batch in cut_batches(wires, cuts):
        observed = batched.observe_many(batch)
        assert len(observed) == len(batch)
        in_batches.extend(o.to_dict() for o in observed)
    one_by_one = [sequential.observe_wire(wire).to_dict() for wire in wires]
    return in_batches, one_by_one


def first_difference(left: Sequence, right: Sequence) -> Optional[tuple]:
    """The first ``(index, left, right)`` that differs, for messages."""
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index, a, b
    if len(left) != len(right):
        return min(len(left), len(right)), None, None
    return None
