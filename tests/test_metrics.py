"""The ``/metrics`` exposition: one builder writes the text format.

:class:`repro.metrics.Exposition` types, groups, escapes and spells
every sample; :mod:`tests.exposition_check` holds it to the format's
rules, and a scan keeps the format out of every other ``src/`` module.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.metrics import Exposition
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_wire_payloads
from tests.exposition_check import samples, violations
from tests.parent_render import parent_metrics

SRC = Path(__file__).resolve().parents[1] / "src"


class TestExposition:
    def test_each_family_is_typed_once_and_kept_together(self):
        out = Exposition()
        out.counter("a_total", 1, shard="s0")
        out.gauge("b", 2)
        out.counter("a_total", 3, shard="s1")
        out.summary("c", {0.5: 1.5, 0.99: 7}, stage="model")
        assert out.render() == (
            "# TYPE a_total counter\n"
            'a_total{shard="s0"} 1\n'
            'a_total{shard="s1"} 3\n'
            "# TYPE b gauge\n"
            "b 2\n"
            "# TYPE c summary\n"
            'c{stage="model",quantile="0.5"} 1.5\n'
            'c{stage="model",quantile="0.99"} 7\n'
        )

    def test_numbers_and_label_values_are_spelled_for_the_format(self):
        out = Exposition()
        out.gauge("g", True, v='a"b\\c\nd')
        out.gauge("g", 2.0, v="int")
        out.gauge("g", 0.1, v="float")
        out.gauge("g", float("inf"), v="inf")
        out.gauge("g", float("-inf"), v="-inf")
        out.gauge("g", float("nan"), v="nan")
        text = out.render()
        assert text.splitlines()[1:] == [
            'g{v="a\\"b\\\\c\\nd"} 1',
            'g{v="int"} 2',
            'g{v="float"} 0.1',
            'g{v="inf"} +Inf',
            'g{v="-inf"} -Inf',
            'g{v="nan"} NaN',
        ]
        assert violations(text) == []

    @pytest.mark.parametrize(
        "add",
        [
            lambda out: out.gauge("bad-name", 1),
            lambda out: out.gauge("g", 1, **{"bad-label": "x"}),
            lambda out: out.summary("s", {50: 1.0}),
            lambda out: (out.gauge("x", 1), out.counter("x", 1)),
        ],
        ids=["metric-name", "label-name", "quantile", "type-clash"],
    )
    def test_what_the_format_cannot_hold_is_refused(self, add):
        with pytest.raises(ValueError):
            add(Exposition())


class TestTheChecker:
    @pytest.mark.parametrize(
        "text, rule",
        [
            ("a 1\n", "no TYPE line"),
            ("# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na{x=\"1\"} 2\n", "not together"),
            ("# TYPE a gauge\na 1\n# TYPE a gauge\n", "second TYPE"),
            ("a 1\n# TYPE a gauge\n", "TYPE line after samples"),
            ('# TYPE s summary\ns{quantile="p50"} 1\n', "float quantile"),
            ('# TYPE s summary\ns{quantile="1.5"} 1\n', "float quantile"),
            ("# TYPE s summary\ns 1\n", "float quantile"),
            ('# TYPE a gauge\na{x="\\q"} 1\n', "bad escape"),
            ('# TYPE a gauge\na{x="1"} 1\na{x="1"} 2\n', "twice"),
            ("# TYPE a gauge\na one\n", "malformed sample"),
            ("# TYPE a gauge\na 1", "newline"),
        ],
    )
    def test_each_rule_is_enforced(self, text, rule):
        assert any(rule in problem for problem in violations(text)), violations(text)

    def test_summary_sum_and_count_belong_to_their_family(self):
        text = (
            "# TYPE s summary\n"
            's{quantile="0.5"} 1\ns_sum 3\ns_count 2\n'
        )
        assert violations(text) == []


def test_a_bare_app_scrape_is_well_formed_and_the_parents_samples(
    trained, small_dataset
):
    service = ScoringService(trained)
    wires = [w for _, w in zip(range(12), iter_wire_payloads(small_dataset))]
    for wire in wires + wires[:2] + [b"\x00 not json"]:
        service.score_wire(wire)
    app = CollectionApp(service)
    status, headers, body = app.handle("GET", "/metrics")
    text = body.decode()
    assert status == "200 OK"
    assert headers == [("Content-Type", "text/plain; version=0.0.4")]
    assert violations(text) == []
    assert samples(text) == parent_metrics(app)
    assert samples(text)['polygraph_payloads_rejected_by_reason{reason="duplicate"}'] == 2


# ----------------------------------------------------------------------
# the format lives in one module

_FORMAT = re.compile(r'# TYPE |\{\{?[a-zA-Z_]\w*=\\?"')


def test_only_the_exposition_module_writes_the_text_format():
    """No ``src/`` module but :mod:`repro.metrics` holds a ``# TYPE``
    line or builds a ``{label="`` sample string: a part reports into the
    builder, which alone types, groups and escapes."""
    offenders = [
        f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "repro" / "metrics.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _FORMAT.search(line)
    ]
    assert offenders == []


def test_the_scan_finds_what_the_renderers_used_to_write():
    for line in (
        '"# TYPE polygraph_sessions_scored counter",',
        "f'polygraph_unknown_ua_total{{vendor=\"{vendor}\"}} '",
        'f"{{kind=\\"ttl\\"}} {n}",',
        "f'{prefix}_batch_size{{quantile=\"p{q}\"}} '",
    ):
        assert _FORMAT.search(line), line
