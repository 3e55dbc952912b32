"""The detector's decision table: one answer per (claimed UA, cluster).

Algorithm 1's verdict is a pure function of the detector, the claimed
user-agent and the predicted cluster, so a :class:`FraudDetector`
decides each pair once.  What is pinned here: a table read equals
deciding from scratch for every kind of key a client can send, under
every ``unknown_ua_policy``, before and after an install; keys outside
the trained table never enter the table and their side memo stays
bounded however many forged versions arrive; and the batch, single-row
and dataset paths all read the one table.
"""

from __future__ import annotations

import copy
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browsers.useragent import Vendor, format_user_agent
from repro.core.detection import _SIDE_MEMO_LIMIT, FraudDetector
from repro.core.pipeline import BrowserPolygraph

POLICIES = ("ignore", "flag", "infer")


def _with_policy(model, policy):
    """A shallow copy of ``model`` deciding unknown UAs by ``policy``."""
    twin = copy.copy(model)
    twin.config = replace(model.config, unknown_ua_policy=policy)
    return twin


@pytest.fixture(scope="module", params=POLICIES)
def generations(request, trained, relabelled_model):
    """``(model, detector)`` of one pipeline before and after an install."""
    model = _with_policy(trained.cluster_model, request.param)
    other = _with_policy(relabelled_model, request.param)
    polygraph = BrowserPolygraph(model.config).install(model)
    _, before = polygraph.detection_snapshot()
    polygraph.install(other)
    _, after = polygraph.detection_snapshot()
    return (model, before), (other, after)


_KNOWN = st.sampled_from(["chrome-112", "firefox-110", "edge-111", "chrome-79"])
_VENDORS = st.sampled_from([vendor.value for vendor in Vendor])

# Every kind of claimed user-agent a wire can carry.
_CLAIMS = st.one_of(
    _KNOWN,
    # Parseable, known or not, including pre-table and future releases.
    st.builds("{}-{}".format, _VENDORS, st.integers(0, 200)),
    # Forged versions: attacker-chosen, unbounded.
    st.builds("chrome-{}".format, st.integers(10**4, 10**12)),
    # Another spelling of a known key (parses to it, is not it).
    _KNOWN.map(lambda key: key.replace("-", "-0")),
    # Mostly unparseable.
    st.text(max_size=12),
    # Full user-agent strings.
    st.builds(format_user_agent, st.sampled_from(list(Vendor)), st.integers(12, 130)),
)


class TestTableEqualsDecidingFromScratch:
    @settings(max_examples=300, deadline=None)
    @given(claims=st.lists(_CLAIMS, min_size=1, max_size=6), cluster=st.integers(0, 10))
    def test_every_kind_of_key(self, generations, claims, cluster):
        for model, detector in generations:
            for claim in claims:
                answer = detector.decision(claim, cluster)
                assert answer == detector._decide(detector._parse(claim), cluster)
                # A repeat is a read, and only trained keys enter the table.
                assert detector.decision(claim, cluster) is answer
                assert ((claim, cluster) in detector._table) == (
                    claim in model.ua_to_cluster
                )
            assert len(detector._side) <= _SIDE_MEMO_LIMIT
            assert {key for key, _ in detector._table} <= set(model.ua_to_cluster)

    def test_an_install_starts_an_empty_table(self, trained, relabelled_model):
        polygraph = BrowserPolygraph(trained.config).install(trained.cluster_model)
        _, old = polygraph.detection_snapshot()
        answer = old.decision("chrome-112", 3)
        polygraph.install(relabelled_model)
        _, new = polygraph.detection_snapshot()
        assert new is not old and new._table == {} and new._side == {}
        moved = new.decision("chrome-112", 4)
        k = trained.config.n_clusters
        assert moved.expected_cluster == (answer.expected_cluster + 1) % k
        assert (moved.flagged, moved.risk_factor) == (answer.flagged, answer.risk_factor)
        # The old generation's in-flight batches keep their own answers.
        assert old.decision("chrome-112", 3) is answer


class TestOneTableForEveryPath:
    def _claims(self, small_dataset, n):
        keys = list(small_dataset.ua_keys[:n])
        hostile = [
            "chrome-70000", "chrome-0112", "not a browser", "",
            format_user_agent(Vendor.FIREFOX, 110), "firefox-999",
        ]
        return [hostile[i % len(hostile)] if i % 5 == 0 else key for i, key in enumerate(keys)]

    def test_batch_rows_equal_single_rows(self, generations, small_dataset):
        matrix = small_dataset.matrix()[:400]
        claims = self._claims(small_dataset, 400)
        for model, detector in generations:
            rows = detector.evaluate_vectors(matrix, claims)
            assert rows == [
                detector.evaluate_vector(vector, claim)
                for vector, claim in zip(matrix, claims)
            ]
            fresh = FraudDetector(model)
            assert rows == [
                fresh._decide(fresh._parse(claim), row.predicted_cluster)
                for claim, row in zip(claims, rows)
            ]

    def test_dataset_report_reads_the_same_table(self, generations, small_dataset):
        window = small_dataset.rows(0, 2000)
        for _, detector in generations:
            report = detector.evaluate_dataset(window)
            rows = detector.evaluate_vectors(window.matrix(), list(window.ua_keys))
            assert report.predicted.tolist() == [r.predicted_cluster for r in rows]
            assert report.flagged.tolist() == [r.flagged for r in rows]
            assert report.expected.tolist() == [
                -1 if r.expected_cluster is None else r.expected_cluster for r in rows
            ]
            assert report.risk_factors.tolist() == [
                -1 if r.risk_factor is None else r.risk_factor for r in rows
            ]


class TestBounds:
    def test_forged_versions_leave_the_side_memo_bounded(self, trained, small_dataset):
        detector = FraudDetector(trained.cluster_model)
        forged = [f"chrome-{70_000 + n}" for n in range(65_000)]
        matrix = np.repeat(small_dataset.matrix()[:1], len(forged), axis=0)
        results = detector.evaluate_vectors(matrix, forged)
        assert [r.ua_key for r in results] == forged
        assert not any(r.flagged for r in results)  # "ignore": out of scope
        assert detector._table == {}
        assert 0 < len(detector._side) <= _SIDE_MEMO_LIMIT

    def test_the_table_is_bounded_by_known_keys_times_k(self, trained, small_dataset):
        detector = FraudDetector(trained.cluster_model)
        known = sorted(trained.cluster_model.ua_to_cluster)
        k = trained.config.n_clusters
        for cluster in range(k):
            for key in known:
                detector.decision(key, cluster)
        detector.evaluate_dataset(small_dataset)
        assert len(detector._table) == len(known) * k
        assert detector._side == {}


class TestSharedAcrossThreads:
    def test_racing_fills_and_clears_answer_every_row_right(
        self, trained, small_dataset, monkeypatch
    ):
        """One detector is shared by the runtime, the session layer and
        the shadow.  More threads than cores race fills and whole-memo
        clears (a side memo of 4) under a short switch interval: every
        row is still its own decision and the memo stays near its bound."""
        monkeypatch.setattr("repro.core.detection._SIDE_MEMO_LIMIT", 4)
        detector = FraudDetector(trained.cluster_model)
        reference = FraudDetector(trained.cluster_model)
        matrix = small_dataset.matrix()[:64]
        known = list(small_dataset.ua_keys[:64])
        n_threads = 8
        failures = []

        def hammer(number):
            claims = [
                f"chrome-{70_000 + number * 64 + i}" if i % 2 else known[i]
                for i in range(64)
            ]
            for _ in range(30):
                rows = detector.evaluate_vectors(matrix, claims)
                expected = [
                    reference._decide(reference._parse(claim), row.predicted_cluster)
                    for claim, row in zip(claims, rows)
                ]
                if rows != expected:
                    failures.append(number)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(detector._side) <= 4 + n_threads
        assert {key for key, _ in detector._table} <= set(known)
