"""One generator of serve traffic, and the oracle every single-process
serve path is held to.

A verdict is a pure function of the model, the 28-feature row and the
claimed user-agent; batching, caching, row parsing, rollout routing
and the socket in front are optimisations, so none of them may change
an answer.  :func:`traces` draws what one ``serve`` is sent:

* ``/collect`` wires — simulator rows and their repeats, never-seen
  rows, forged ``chrome-<v>`` keys, unknown releases, byte mutations of
  the collection script's own shape, every poison body, every hostile
  envelope shape cut down to its ``/collect`` members, and the rest of
  the hostile kinds below;
* ``/event`` streams — every hostile and row-edge envelope shape,
  revisions, replays, follow-ups sent before the event they follow;
* a model install before a drawn step (without a canary), a batch cut,
  a cache size, an identical-candidate canary or none, session bounds,
  an event log and a session store.

:func:`run_oracle` plays one trace through four paths:

1. the reference: :class:`ScoringService` one wire at a time, its
   ``/collect`` answers rendered by the frozen
   :mod:`tests.parent_render`, and its events folded one at a time by
   the frozen per-event fold of :mod:`tests.parent_fold`;
2. :meth:`RuntimeScoringService.score_many` over the drawn cuts;
3. :meth:`SessionScoringService.observe_rows` over that runtime;
4. the real :class:`AsyncIngestServer` on a loopback port, over a
   runtime and session layer of its own.

and asserts byte-identical answers, equal validator, quarantine,
coverage and store state, and equal session state and event-log rows.

Two facts of today's contract the frozen fold predates, and which the
oracle states itself: an install re-bases every session (cluster ids of
two models do not compare), and a follow-up keeps its inferred-release
fields (the frozen copy re-labels from six fields), so a follow-up's
verdict is held to the inner verdict the reference folded.

Not a test module itself: ``tests/test_oracle.py`` runs it over drawn
traces, and other suites over traces spelled by hand (:func:`check`,
the ``oracle_world`` fixture of ``tests/conftest.py``).  The event
material (:data:`HOSTILE_SHAPES`, :func:`build_traffic`,
:func:`differential`, ...) is shared with the session and cluster
suites.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import re
import socket
import tempfile
import types
from collections import deque
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.browsers.useragent import Vendor, format_user_agent
from repro.core.pipeline import BrowserPolygraph
from repro.core.retraining import ModelRegistry
from repro.coverage import CoverageConfig, CoverageTracker
from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.rollout import GuardrailConfig, RolloutConfig, RolloutManager
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.aingest import _MAX_BODY, AsyncIngestServer
from repro.service.api import CollectionApp
from repro.service.ingest import MAX_FEATURE_VALUE, MAX_SESSION_ID_LENGTH
from repro.service.scoring import ScoringService, Verdict
from repro.service.storage import SessionStore
from repro.sessions import SessionEventLog, SessionScoringService
from repro.sessions.service import SessionObservation
from repro.traffic.events import (
    EventStreamConfig,
    EventType,
    SessionEvent,
    StreamScenario,
    build_event_streams,
)
from repro.traffic.replay import iter_payloads

from tests.parent_fold import ParentFoldService
from tests.parent_render import parent_render_event, parent_render_verdict

# ----------------------------------------------------------------------
# hostile material

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
    # Past the fast path's nine digits; the second past int32 as well.
    "seq_10_digits": _edit(lambda d: d.__setitem__("seq", 1_000_000_000 + d["seq"])),
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
    "seq_string", "seq_negative", "seq_10_digits", "ts_exponent",
    "ts_missing", "extra_key", "dup_sid", "dup_seq", "empty_globals",
    "float_values", "spaced",
)


def _sid_of_length(length: int):
    def change(document):
        document["sid"] = (document["sid"] + "x" * MAX_SESSION_ID_LENGTH)[:length]

    return _edit(change)


def _set_value(value):
    def change(document):
        document["f"][0] = value

    return _edit(change)


def _respell_first_value(event: SessionEvent) -> bytes:
    # JSON's ``1e1`` is the float 10.0: the event parses, its inner
    # wire spells ``10``, so the tail can never be proven.
    wire = _edit(lambda d: d["f"].__setitem__(0, float(d["f"][0])))(event)
    return wire.replace(b'"f":[%d.0' % event.values[0], b'"f":[%de0' % event.values[0], 1)


# Envelopes aimed at the row path's edges (the envelope parser proving
# a tail and handing the batch core a row), next to the hostile shapes.
ROW_SHAPES: Dict[str, Callable[[SessionEvent], bytes]] = {
    # ``sid@seq`` over the cap: follow-ups score as ``ev-<digest>``.
    "sid_at_cap": _sid_of_length(MAX_SESSION_ID_LENGTH),
    # ``sid@1``..``sid@9`` fit, ``sid@10`` would not.
    "sid_near_cap": _sid_of_length(MAX_SESSION_ID_LENGTH - 2),
    # Rejected for its id at every seq, follow-ups included.
    "sid_over_cap": _sid_of_length(MAX_SESSION_ID_LENGTH + 1),
    "empty_sid": _set("sid", ""),
    "unknown_ua": _set("ua", format_user_agent(Vendor.CHROME, 400)),
    "value_over_range": _set_value(MAX_FEATURE_VALUE + 1),
    "value_at_range": _set_value(MAX_FEATURE_VALUE),
    "value_negative": _set_value(-1),
    "value_respelled": _respell_first_value,
    "too_many_globals": _set("g", [f"__g{i}" for i in range(17)]),
    # The envelope parses and fits the front end's body cap; its inner
    # wire is past MAX_PAYLOAD_BYTES.
    "oversized": lambda e: _set(
        "g", ["_" * (_MAX_BODY - 2 - len(_set("g", [""])(e)))]
    )(e),
}

# Every /event body kind a trace draws from: the poison bodies too.
EVENT_SHAPES: Dict[str, Callable[[SessionEvent], bytes]] = {
    **HOSTILE_SHAPES,
    **ROW_SHAPES,
    **{
        f"poison_{name}": (lambda event, body=body: body)
        for name, body in POISON_BODIES.items()
    },
}

# ----------------------------------------------------------------------
# event streams


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

    Session ids are made unique per ``nonce`` (services reused across
    examples remember ids).  ``keep_order`` merges the sessions keeping
    each one's own event order; without it the whole sequence is
    shuffled, so follow-ups arrive before the event they follow.
    ``replays`` re-sends exact copies of earlier wires.
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
        if not wires:
            break
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
    """Everything one session service remembers."""
    return (
        sessions.status_dict(),
        sessions._virtual_now,
        [(sid, state.to_dict()) for sid, state in sessions.tracker._sessions.items()],
    )


def validator_state(validator) -> tuple:
    """Quarantine counts by reason and the dedup window, in order."""
    return (
        {reason.value: n for reason, n in validator.quarantine.counts().items()},
        validator.accepted_count,
        list(validator.dedup_state()[1]),
    )


class NothingSticks(dict):
    """A memo that remembers nothing: every wire takes the full parse."""

    def __setitem__(self, key, value) -> None:
        pass


def differential(
    batched, sequential, wires: Sequence[bytes], cuts: Sequence[int]
) -> Tuple[List[dict], List[dict]]:
    """Feed ``wires`` to ``batched`` in cut batches and to ``sequential``
    one at a time (without the envelope memo, so a wrong memo answer
    shows as a difference); both observation lists as documents."""
    sequential._envelopes._memo = NothingSticks()
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


# ----------------------------------------------------------------------
# /collect material

COLLECT_KINDS = (
    "row", "row", "row", "row",          # natural simulator traffic
    "unknown", "forged", "derivative", "garbage_ua", "globals",
    "bad_json", "range", "oversized", "replay", "same_sid",
    "mutated", "poison", "hostile", "shape",
)
UNKNOWN_RELEASES = (
    format_user_agent(Vendor.CHROME, 131),
    format_user_agent(Vendor.FIREFOX, 133),
    format_user_agent(Vendor.EDGE, 132),
)
# Byte edits of the collection script's own shape, at and around the
# places the runtime's slice read cuts it.
_MUTATIONS = (
    b'"', b"\\", b",", b"]", b"[", b"}", b"{", b" ", b"-", b"0", b"007",
    b"10001", b"1e3", b"1.0", b"\xff", b"\xc3\xa9", b"\x00", b"\x7f",
    b'"sid":"x",', b',"g":[]', b'","ua":"', b'","f":[', b"]}",
    b"\xed\xa0\x80", b"\xef\xbb\xbf",
)


def hostile_collects(sid: str, ua: str, f: list) -> List[bytes]:
    """Wires the slice read must hand to the full parse (or refuse as
    it does), each spelled around one row."""
    return [
        b"x" * (MAX_PAYLOAD_BYTES + 100),
        b"not json",
        b'{"sid":"a"',
        _dump({"sid": sid, "ua": ua}),
        _dump({"sid": sid, "ua": ua, "f": [1, 2]}),
        _dump({"sid": sid, "ua": ua, "f": f + [1]}),
        _dump({"sid": "", "ua": ua, "f": f}),
        _dump({"sid": (sid + "x" * MAX_SESSION_ID_LENGTH)[:MAX_SESSION_ID_LENGTH], "ua": ua, "f": f}),
        _dump({"sid": sid + "x" * MAX_SESSION_ID_LENGTH, "ua": ua, "f": f}),
        _dump({"sid": sid, "ua": ua, "f": [-5] + f[1:]}),
        _dump({"sid": sid, "ua": ua, "f": f[:-1] + [MAX_FEATURE_VALUE]}),
        _dump({"sid": sid, "ua": ua, "f": f, "g": ["g"] * 40}),
        _dump({"sid": sid, "ua": ua, "f": f, "g": None}),
        _dump({"sid": 123, "ua": ua, "f": f}),
        _dump({"sid": sid, "ua": ua + ' "q"', "f": f}),
        # Key orders, escapes and spellings the slices cannot vouch for.
        _dump({"ua": ua, "f": f, "sid": sid}),
        _dump({"sid": sid + '"b', "ua": ua, "f": f}),
        _dump({"sid": "é" + sid, "ua": ua + " é", "f": f}),
        json.dumps({"sid": "é" + sid, "ua": ua, "f": f}, ensure_ascii=False).encode(),
        json.dumps({"sid": sid, "ua": ua, "f": f}).encode(),
        b'{"sid":"first","sid":"%s","ua":"%s","f":%s}' % (sid.encode(), ua.encode(), _dump(f)),
    ]


def _mutated(wire: bytes, n: int) -> bytes:
    """The ``n``-th single edit of ``wire``: a token inserted at, written
    over or cut out of a position (an ``n`` past the last wraps round)."""
    token = _MUTATIONS[n % len(_MUTATIONS)]
    n //= len(_MUTATIONS)
    mode = n % 3
    at = (n // 3) % (len(wire) + 1)
    keep_from = at if mode == 0 else at + len(token)
    return wire[:at] + (b"" if mode == 2 else token) + wire[keep_from:]


def mutations(wire: bytes) -> int:
    """How many single edits :func:`_mutated` makes of ``wire``."""
    return len(_MUTATIONS) * 3 * (len(wire) + 1)


# An envelope's own members, cut out to leave a /collect body.
_EVENT_MEMBERS = re.compile(rb'"ev":"[a-z_]+","seq":\d+,"ts":[0-9.]+,')


def collect_wires(rows, picks) -> List[bytes]:
    """One ``/collect`` wire per ``(kind, n)`` pick; sids unique unless
    the kind says so."""
    wires: List[bytes] = []
    for position, (kind, n) in enumerate(picks):
        user_agent, values = rows[n % len(rows)]
        body = {"sid": f"c{position}", "ua": user_agent, "f": list(values)}
        if kind == "unknown":
            body["ua"] = UNKNOWN_RELEASES[n % len(UNKNOWN_RELEASES)]
        elif kind == "forged":
            # An attacker-chosen version over another row's surface.
            body["ua"] = format_user_agent(Vendor.CHROME, 10_000 + n)
            body["f"] = list(rows[(n // 7) % len(rows)][1])
        elif kind == "derivative":
            # Another OS token and a derivative's suffix: a different
            # string in the same vendor-version equivalence class.
            body["ua"] = user_agent.replace(
                "Windows NT 10.0; Win64; x64", "Macintosh; Intel Mac OS X 10_15_7"
            ) + " OPR/98.0.0.0"
        elif kind == "garbage_ua":
            body["ua"] = "Not A Browser"
        elif kind == "globals":
            body["g"] = ["antBrowserInjected"]
        elif kind == "range":
            body["f"][n % len(values)] = MAX_FEATURE_VALUE + 1
        elif kind == "oversized":
            # Past the wire contract's cap, inside the front end's.
            body["ua"] = user_agent + " " * (MAX_PAYLOAD_BYTES + 16 - len(_dump(body)))
        elif kind == "same_sid" and position:
            body["sid"] = f"c{position - 1}"
        wire = _dump(body)
        if kind == "bad_json":
            wire = wire[: len(wire) // 2]
        elif kind == "mutated":
            # The row is ``n``'s remainder, the edit its quotient.
            wire = _mutated(wire, n // len(rows))
        elif kind == "poison":
            wire = POISON_BODIES[sorted(POISON_BODIES)[n % len(POISON_BODIES)]]
        elif kind == "hostile":
            choices = hostile_collects(body["sid"], user_agent, list(values))
            wire = choices[n % len(choices)]
        elif kind == "shape":
            # A hostile envelope shape, sent to /collect as it stands but
            # for the envelope's own members.
            event = SessionEvent(body["sid"], EventType.PAGE_LOAD, 0, 12.5, user_agent, values)
            shape = HOSTILE_SHAPES[sorted(HOSTILE_SHAPES)[n % len(HOSTILE_SHAPES)]]
            wire = _EVENT_MEMBERS.sub(b"", shape(event), count=1)
        elif kind == "replay" and position:
            wire = wires[position - 1 - n % position]
        wires.append(wire)
    return wires


# ----------------------------------------------------------------------
# the trace

N_ROWS = 48
N_STREAMS = 15  # scenario_streams(..., per_scenario=3)
_LANES = ("collect", "event")


def traces():
    """Strategy: the plain data :func:`build_trace` turns into a trace."""
    return st.fixed_dictionaries(
        {
            "collects": st.lists(
                st.tuples(st.sampled_from(COLLECT_KINDS), st.integers(0, 1 << 20)),
                max_size=160,
            ),
            "sessions": st.lists(
                st.tuples(
                    st.integers(0, N_STREAMS - 1),
                    st.one_of(
                        st.none(), st.none(), st.sampled_from(sorted(EVENT_SHAPES))
                    ),
                ),
                max_size=10,
            ),
            "keep_order": st.booleans(),
            "replays": st.lists(st.integers(0, 1 << 16), max_size=4),
            "seed": st.integers(0, 1 << 16),
            "lanes": st.lists(st.sampled_from(_LANES), min_size=1, max_size=6),
            # Mostly small: a session's events must straddle batches.
            "cuts": st.lists(
                st.one_of(st.integers(1, 8), st.integers(1, 128)),
                min_size=1,
                max_size=12,
            ),
            # Where in the trace the install lands (taken modulo its steps).
            "install_at": st.one_of(st.none(), st.integers(0, 1 << 10)),
            "canary": st.sampled_from([False, False, True]),
            "cache_entries": st.sampled_from([0, 4, 8192]),
            "ttl_seconds": st.sampled_from([600.0, 1e9]),
            "max_sessions": st.sampled_from([1, 3, 100_000]),
            "logged": st.booleans(),
            "stored": st.booleans(),
            "day": st.sampled_from([None, None, None, date(2023, 9, 1)]),
        }
    )


def case(**drawn) -> dict:
    """A trace's plain data, spelled by hand: nothing sent on the
    plainest deployment, and whatever ``drawn`` names on top."""
    plain = {
        "collects": [], "sessions": [], "keep_order": True,
        "replays": [], "seed": 0, "lanes": list(_LANES), "cuts": [64],
        "install_at": None, "canary": False, "cache_entries": 8192,
        "ttl_seconds": 1e9, "max_sessions": 100_000,
        "logged": False, "stored": False, "day": None,
    }
    unknown = set(drawn) - set(plain)
    assert not unknown, unknown
    plain.update(drawn)
    return plain


def check(world, **drawn):
    """:func:`run_oracle` over the trace :func:`case` spells."""
    return run_oracle(world, build_trace(world, case(**drawn)))


class Trace(types.SimpleNamespace):
    """A trace's drawn data, with ``steps`` and ``install_at`` worked out.

    ``steps`` are ``(lane, bodies)``: one ``score_many`` or
    ``observe_rows`` call; on the socket, one
    pipelined burst answered before the next is sent.  The model is
    installed before step ``install_at``.  A ``day`` other than
    ``None`` is a library caller's: the front end passes none, so the
    socket path sits such a trace out.
    """


def build_trace(world, drawn: dict) -> Trace:
    queues = {
        "collect": deque(collect_wires(world.rows, drawn["collects"])),
        "event": deque(
            build_traffic(
                world.streams, drawn["sessions"], drawn["keep_order"],
                drawn["replays"], random.Random(drawn["seed"]), nonce="e",
                shapes=EVENT_SHAPES,
            )
        ),
    }
    steps = []
    lanes, cuts = drawn["lanes"], drawn["cuts"]
    turn = 0
    while any(queues.values()):
        lane = lanes[turn % len(lanes)]
        if not queues[lane]:
            lane = next(name for name in _LANES if queues[name])
        queue = queues[lane]
        size = min(cuts[turn % len(cuts)], len(queue))
        steps.append((lane, tuple(queue.popleft() for _ in range(size))))
        turn += 1
    for _, bodies in steps:
        assert all(0 < len(body) <= _MAX_BODY for body in bodies)
    # The install lands before an event step other than the first, so
    # sessions straddle it, or before any step when there is none.  A
    # live install under a canary would leave the frozen candidate a
    # different model, whose answers may differ: never both.
    install_at = None
    if not drawn["canary"] and drawn["install_at"] is not None and steps:
        places = [n for n, (lane, _) in enumerate(steps) if lane == "event"][1:]
        places = places or list(range(len(steps)))
        install_at = places[drawn["install_at"] % len(places)]
    return Trace(**{**drawn, "steps": tuple(steps), "install_at": install_at})


# ----------------------------------------------------------------------
# the world the traces run in


@dataclasses.dataclass(frozen=True)
class World:
    """Models, material and a registry shared by every trace."""

    model: object  # namespace probe on, unknown releases inferred
    other: object  # clusters and verdicts both moved
    registry: object
    rows: List[Tuple[str, Tuple[int, ...]]]
    streams: list


def oracle_models(trained):
    """``(model, other)``.  ``model`` is ``trained``'s with the namespace
    probe on and unknown releases inferred, so escalation and the
    ``inferred_*`` fields are live; ``other`` has its centroids rolled
    by one and its UA table by two, so installing it moves every
    session's clusters and changes most verdicts."""
    model = copy.copy(trained.cluster_model)
    model.config = dataclasses.replace(
        model.config, enable_namespace_probe=True, unknown_ua_policy="infer"
    )
    other = copy.deepcopy(model)
    k = other.config.n_clusters
    other.kmeans.cluster_centers_ = np.roll(other.kmeans.cluster_centers_, 1, axis=0)
    other.ua_to_cluster = {
        ua: (cluster + 2) % k for ua, cluster in other.ua_to_cluster.items()
    }
    other._rebuild_table()
    return model, other


def build_world(trained, small_dataset, registry_root) -> World:
    """The models, material and registry every trace runs in."""
    model, other = oracle_models(trained)
    registry = ModelRegistry(registry_root)
    registry.promote(trained, date(2023, 7, 1), "bootstrap")
    table = model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    streams = scenario_streams(
        build_event_streams(small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok)
    )
    assert len(streams) == N_STREAMS
    return World(
        model=model,
        other=other,
        registry=registry,
        rows=[(p.user_agent, p.values) for p in iter_payloads(small_dataset, N_ROWS)],
        streams=streams,
    )


# ----------------------------------------------------------------------
# running a trace


class _Reference(ParentFoldService):
    """The frozen per-event fold over the per-request service, every
    wire parsed in full, keeping each inner verdict it folds."""

    def __init__(self, inner, **kwargs) -> None:
        super().__init__(inner, **kwargs)
        self._envelopes._memo = NothingSticks()
        self.folded: List[Tuple[str, Verdict]] = []

    def _fold_rows(self, events, verdicts, found) -> list:
        self.folded += [(event[0], verdict) for event, verdict in zip(events, verdicts)]
        return super()._fold_rows(events, verdicts, found)


@dataclasses.dataclass
class _Stack:
    pipeline: BrowserPolygraph
    service: object
    sessions: object
    log: Optional[SessionEventLog]
    store: Optional[SessionStore]


def _stack(world: World, trace: Trace, root: Path, name: str) -> _Stack:
    pipeline = BrowserPolygraph(world.model.config).install(world.model)
    store = SessionStore(root / name) if trace.stored else None
    if name == "reference":
        service = ScoringService(pipeline, store=store)
    else:
        service = RuntimeScoringService(
            pipeline, store=store, config=RuntimeConfig(cache_entries=trace.cache_entries)
        )
    service.attach_coverage(
        CoverageTracker(config=CoverageConfig(window=16, min_observations=4))
    )
    log = SessionEventLog(root / f"{name}-log", segment_events=8) if trace.logged else None
    layer = _Reference if name == "reference" else SessionScoringService
    sessions = layer(
        service,
        ttl_seconds=trace.ttl_seconds,
        max_sessions=trace.max_sessions,
        event_log=log,
    )
    return _Stack(pipeline, service, sessions, log, store)


def _canary(world: World, stack: _Stack, root: Path, name: str) -> RolloutManager:
    """25% of sessions routed to a candidate that is the live model,
    half of the live arm mirrored to the shadow; no guardrail can fire."""
    manager = RolloutManager(
        world.registry,
        runtime=stack.service,
        config=RolloutConfig(stages=(0.25, 1.0), shadow_sample_rate=0.5),
        guardrails=GuardrailConfig(
            max_disagreement_rate=1.0, max_flag_rate_delta=1.0, max_latency_p99_ms=1e9
        ),
        state_path=root / f"{name}-rollout.json",
    )
    candidate = BrowserPolygraph(world.model.config).install(world.model)
    manager.begin(candidate, 2, baseline_version=1, salt="oracle")
    manager.advance(force=True)  # shadow -> 25% canary
    return manager


_LATENCY = re.compile(rb'"latency_ms": [-+.0-9e]+')
_LENGTH = re.compile(rb"Content-Length: \d+")


def timeless(response: bytes) -> bytes:
    """A rendered answer with its latency zeroed (and its length fixed)."""
    head, blank, body = response.partition(b"\r\n\r\n")
    body = _LATENCY.sub(b'"latency_ms": 0', body)
    return _LENGTH.sub(b"Content-Length: %d" % len(body), head) + blank + body


def essence(verdict: Verdict) -> tuple:
    """Everything about a verdict but the clock."""
    return (type(verdict).__name__,) + tuple(
        value for key, value in verdict.__dict__.items() if key != "latency_ms"
    )


def _exchange(sock: socket.socket, path: bytes, bodies: Sequence[bytes]) -> List[bytes]:
    """Pipeline ``POST path`` for every body; the answers, in order."""
    sock.sendall(
        b"".join(
            b"POST %s HTTP/1.1\r\nHost: oracle\r\nContent-Length: %d\r\n\r\n%s"
            % (path, len(body), body)
            for body in bodies
        )
    )
    buffer = bytearray()
    answers: List[bytes] = []
    while len(answers) < len(bodies):
        end = buffer.find(b"\r\n\r\n")
        if end >= 0:
            length = int(re.search(rb"Content-Length: (\d+)", buffer[:end]).group(1))
            if len(buffer) >= end + 4 + length:
                answers.append(bytes(buffer[: end + 4 + length]))
                del buffer[: end + 4 + length]
                continue
        chunk = sock.recv(1 << 16)
        assert chunk, f"connection closed after {len(answers)} of {len(bodies)} answers"
        buffer += chunk
    return answers


def _reference_step(stack: _Stack, lane: str, bodies, day):
    """``(answers, verdict essences)`` of the reference, wire by wire."""
    if lane == "collect":
        verdicts = [stack.service.score_wire(body, day=day) for body in bodies]
        answers = [parent_render_verdict(v) for v in verdicts]
        return [timeless(a) for a in answers], [essence(v) for v in verdicts]
    answers, essences = [], []
    for body in bodies:
        before = len(stack.sessions.folded)
        observation = stack.sessions.observe_wire(body, day=day)
        answers.append(parent_render_event(observation))
        verdict = observation.verdict
        if len(stack.sessions.folded) > before:
            # The inner verdict under the session's id, every other
            # field kept (the frozen fold drops a follow-up's inferred
            # release).
            session_id, verdict = stack.sessions.folded[-1]
            if verdict.accepted:
                verdict = dataclasses.replace(verdict, session_id=session_id)
        essences.append(essence(verdict))
    return answers, essences


def _batch_step(stack: _Stack, lane: str, bodies, day):
    """``(answers, verdict essences)`` of the batch paths, one call."""
    if lane == "collect":
        verdicts = stack.service.score_many(list(bodies), day=day)
        return [timeless(parent_render_verdict(v)) for v in verdicts], [
            essence(v) for v in verdicts
        ]
    observations = [
        SessionObservation.from_row(row)
        for row in stack.sessions.observe_rows(list(bodies), day=day)
    ]
    return [parent_render_event(o) for o in observations], [
        essence(o.verdict) for o in observations
    ]


def _inner_state(stack: _Stack) -> tuple:
    service = stack.service
    return (
        validator_state(service.validator),
        service.scored_count,
        service.flagged_count,
        dict(service.unknown_ua_counts),
        service.coverage.status_dict(),
        None if stack.store is None else [p.read_bytes() for p in stack.store.segments()],
        None if stack.log is None else stack.log.window(seconds=1e12),
    )


def run_oracle(world: World, trace: Trace) -> Dict[str, _Stack]:
    """Play ``trace`` through every path; fail on the first difference.
    Returns each path's stack by name (``reference``, ``batch`` and,
    for a trace without a ``day``, ``socket``), for what a caller
    asserts besides."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        reference = _stack(world, trace, root, "reference")
        stacks = {"batch": _stack(world, trace, root, "batch")}
        if trace.day is None:
            stacks["socket"] = _stack(world, trace, root, "socket")
        managers = [
            _canary(world, stack, root, name)
            for name, stack in stacks.items()
            if trace.canary
        ]
        server = sock = None
        try:
            if "socket" in stacks:
                served = stacks["socket"]
                # One scoring thread: bursts are scored in the order sent.
                server = AsyncIngestServer(
                    CollectionApp(served.service, sessions=served.sessions),
                    port=0,
                    score_threads=1,
                ).start()
            for number, (lane, bodies) in enumerate(trace.steps):
                if number == trace.install_at:
                    for stack in (reference, *stacks.values()):
                        stack.pipeline.install(world.other)
                    # Clusters of two models do not compare: re-base.
                    for state in reference.sessions.tracker._sessions.values():
                        state.last_cluster = None
                where = (number, lane)
                expected, expected_verdicts = _reference_step(
                    reference, lane, bodies, trace.day
                )
                got, got_verdicts = _batch_step(
                    stacks["batch"], lane, bodies, trace.day
                )
                assert got_verdicts == expected_verdicts, (
                    where, first_difference(got_verdicts, expected_verdicts)
                )
                assert got == expected, (where, first_difference(got, expected))
                if server is not None:
                    # Connected at the first burst: a connection the
                    # server is still accepting as it closes would leak.
                    if sock is None:
                        sock = socket.create_connection(
                            ("127.0.0.1", server.port), timeout=30
                        )
                    answers = _exchange(sock, b"/" + lane.encode(), bodies)
                    got = [timeless(a) if lane != "event" else a for a in answers]
                    assert got == expected, (
                        "socket", where, first_difference(got, expected)
                    )
            for manager in managers:
                assert manager.drain_shadow()
                assert manager.in_flight and manager.report.mismatches == 0
        finally:
            if sock is not None:
                sock.close()
            if server is not None:
                server.close()
            for manager in managers:
                manager.close()
            for stack in stacks.values():
                stack.service.shutdown()
        state = _inner_state(reference)
        sessions = sessions_state(reference.sessions)
        for name, stack in stacks.items():
            runtime = stack.service
            assert _inner_state(stack) == state, name
            assert runtime.rejected_count == runtime.validator.quarantine.total_rejects
            if runtime.cache is not None:
                assert len(runtime.cache) <= trace.cache_entries
            assert sessions_state(stack.sessions) == sessions, name
    return {"reference": reference, **stacks}
