"""Every single-process serve path answers what the reference answers.

One generated trace (:func:`tests.oracle.traces`) goes through the
per-request reference, the runtime's ``score_many``, the session
layer's ``observe_rows`` and the asyncio front end on a loopback port;
:func:`tests.oracle.run_oracle` holds the last three to the first.  The
explicit examples send every hostile envelope shape, every row-edge
shape, every hostile collect spelling and every poison body down all
four paths.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from tests.oracle import (
    COLLECT_KINDS,
    EVENT_SHAPES,
    N_STREAMS,
    POISON_BODIES,
    build_trace,
    case,
    hostile_collects,
    run_oracle,
    traces,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _every_shape(**deployment) -> dict:
    """A trace holding every collect kind (twice, so repeats and replays
    meet), every poison body and hostile spelling, every event shape and
    each stream."""
    shape = dict(
        collects=[(kind, 7 * i) for i, kind in enumerate(COLLECT_KINDS * 2)]
        + [("poison", n) for n in range(len(POISON_BODIES))]
        + [("hostile", n) for n in range(len(hostile_collects("s", "u", [0])))],
        sessions=[(i % N_STREAMS, shape) for i, shape in enumerate(sorted(EVENT_SHAPES))]
        + [(i, None) for i in range(N_STREAMS)],
        replays=[3, 50, 400],
        seed=1,
        lanes=["collect", "event", "event"],
        cuts=[5, 64, 1, 17],
        cache_entries=4,
    )
    return case(**{**shape, **deployment})


class TestTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(drawn=traces())
    @example(
        drawn=_every_shape(install_at=7, logged=True)
    )
    @example(
        drawn=_every_shape(
            canary=True, cache_entries=8192, keep_order=False,
            ttl_seconds=600.0, max_sessions=3,
        )
    )
    def test_every_path_answers_what_the_reference_answers(self, oracle_world, drawn):
        run_oracle(oracle_world, build_trace(oracle_world, drawn))
