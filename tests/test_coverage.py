"""Release-coverage intelligence: tracker bands, planner, infer policy."""

import io
import json
from datetime import date, timedelta

import pytest

from repro.browsers.releases import default_calendar
from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent
from repro.core.config import PipelineConfig
from repro.core.pipeline import BrowserPolygraph
from repro.coverage import (
    CoverageConfig,
    CoverageTracker,
    RefreshPlanner,
    vendor_of,
)
from repro.fingerprint.collector import FingerprintCollector
from repro.fingerprint.script import CollectionScript
from repro.gauntlet.ledger import DIGEST_COLUMNS, TIMING_COLUMNS, DayLedger
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService


@pytest.fixture(scope="module")
def infer_pipeline(small_dataset):
    """Polygraph trained with the interim nearest-release policy."""
    config = PipelineConfig(unknown_ua_policy="infer")
    return BrowserPolygraph(config).fit(small_dataset)


# The training window tops out at version 114 for all three vendors and
# carries the legacy EdgeHTML releases (edge-17/18/19); the infer tests
# below assert against that shape.
def _max_known(pipeline, vendor):
    versions = [
        int(key.rsplit("-", 1)[1])
        for key in pipeline.cluster_model.ua_to_cluster
        if key.startswith(f"{vendor}-")
    ]
    return max(versions)


class TestVendorOf:
    def test_in_scope_vendors(self):
        assert vendor_of("chrome-118") == "chrome"
        assert vendor_of("edge-79") == "edge"
        assert vendor_of("firefox-119") == "firefox"

    def test_everything_else_is_other(self):
        assert vendor_of("safari-16") == "other"
        assert vendor_of("<unparseable>") == "other"


class TestCoverageTracker:
    def _tracker(self, **overrides):
        config = dict(
            window=50, min_observations=10, baseline_rate=0.05,
            adoption_allowance=0.25, adoption_days=7,
        )
        config.update(overrides)
        return CoverageTracker(config=CoverageConfig(**config))

    def test_observe_classifies_against_table(self):
        tracker = self._tracker()
        tracker.set_known_keys(["chrome-117"], generation=3)
        assert tracker.observe("chrome-117") is True
        assert tracker.observe("chrome-118") is False
        assert tracker.unknown_rate("chrome") == 0.5
        assert tracker.known_release_count == 1

    def test_observe_many_counts_unknowns(self):
        tracker = self._tracker()
        tracker.set_known_keys(["chrome-117", "firefox-118"])
        unknown = tracker.observe_many(
            ["chrome-117", "chrome-118", "firefox-118", "safari-16"]
        )
        assert unknown == 2
        assert tracker.unknown_rate("other") == 1.0

    def test_window_eviction_keeps_rate_current(self):
        tracker = self._tracker(window=10, min_observations=1)
        tracker.set_known_keys(["chrome-117"])
        for _ in range(10):
            tracker.observe("chrome-118")
        assert tracker.unknown_rate("chrome") == 1.0
        for _ in range(10):
            tracker.observe("chrome-117")
        # The unknown observations have been evicted from the window.
        assert tracker.unknown_rate("chrome") == 0.0

    def test_retrain_swaps_table(self):
        tracker = self._tracker()
        tracker.set_known_keys(["chrome-117"], generation=1)
        assert not tracker.is_known("chrome-118")
        tracker.set_known_keys(["chrome-117", "chrome-118"], generation=2)
        assert tracker.is_known("chrome-118")
        assert tracker.status_dict()["model_generation"] == 2

    def test_band_widens_inside_adoption_window(self):
        calendar = default_calendar()
        tracker = CoverageTracker(
            calendar=calendar,
            config=CoverageConfig(
                window=50, min_observations=10, baseline_rate=0.05,
                adoption_allowance=0.25, adoption_days=7,
            ),
        )
        # chrome-118 ships 2023-10-10 and is absent from the table.
        tracker.set_known_keys(["chrome-117"])
        shipped = date(2023, 10, 10)
        band = tracker.expected_band("chrome", day=shipped)
        assert band.adopting and band.high == pytest.approx(0.30)
        # Once the adoption window passes the band tightens back.
        later = tracker.expected_band(
            "chrome", day=shipped + timedelta(days=7)
        )
        assert later.high == pytest.approx(0.05)
        # Covering the release closes the window immediately.
        tracker.set_known_keys(["chrome-117", "chrome-118"])
        covered = tracker.expected_band("chrome", day=shipped)
        assert not covered.adopting

    def test_out_of_band_requires_warmup(self):
        tracker = self._tracker(min_observations=10)
        tracker.set_known_keys(["chrome-117"])
        day = date(2024, 3, 1)  # far from any calendar release
        for _ in range(9):
            tracker.observe("chrome-999", day=day)
        assert not tracker.out_of_band("chrome", day=day)
        tracker.observe("chrome-999", day=day)
        assert tracker.out_of_band("chrome", day=day)

    def test_adoption_spike_is_not_out_of_band(self):
        tracker = self._tracker(min_observations=5, adoption_allowance=1.0)
        tracker.set_known_keys(["chrome-117"])
        shipped = date(2023, 10, 10)
        for _ in range(10):
            tracker.observe("chrome-118", day=shipped)
        # 100% unknown, but chrome-118 shipped today: adoption, not attack.
        assert not tracker.out_of_band("chrome", day=shipped)

    def test_status_and_metrics_snapshot(self):
        tracker = self._tracker()
        tracker.set_known_keys(["chrome-117"], generation=5)
        day = date(2024, 3, 1)
        tracker.observe("chrome-117", day=day)
        tracker.observe("chrome-999", day=day)
        status = tracker.status_dict()
        assert status["day"] == "2024-03-01"
        assert status["vendors"]["chrome"]["observed"] == 2
        assert status["vendors"]["chrome"]["unknown"] == 1
        assert status["top_unknown"][0]["ua_key"] == "chrome-999"
        lines = tracker.metrics_lines()
        assert "polygraph_coverage_known_releases 1" in lines
        assert "polygraph_coverage_generation 5" in lines
        assert 'polygraph_coverage_unknown_total{vendor="chrome"} 1' in lines

    def test_forged_versions_cannot_grow_the_unknown_key_counter(self):
        from repro.coverage.tracker import _TOP_UNKNOWN_KEYS

        tracker = self._tracker()
        tracker.set_known_keys(["chrome-117"])
        day = date(2024, 3, 1)
        # Space-saving keeps any key seen more than (observations / cap)
        # times — 64 here — and estimates no forged key above that.
        for _ in range(200):
            tracker.observe("chrome-999", day=day)
        forged = [f"chrome-{version}" for version in range(1_000, 66_000)]
        assert tracker.observe_many(forged, day=day) == 65_000
        assert len(tracker._unknown_keys.counts) == _TOP_UNKNOWN_KEYS
        # The real heavy hitter keeps its slot and leads the top list.
        status = tracker.status_dict()
        assert status["top_unknown"][0]["ua_key"] == "chrome-999"
        assert status["top_unknown"][0]["count"] == 200
        assert status["vendors"]["chrome"]["unknown"] == 65_200

    def test_unknown_key_counts_are_exact_up_to_the_cap(self):
        from collections import Counter

        from repro.coverage.tracker import _TOP_UNKNOWN_KEYS

        tracker = self._tracker()
        # Exactly as many distinct keys as the cap, heavy and light ones
        # interleaved, so every slot is taken and none is ever recycled.
        keys = [
            f"chrome-{n % _TOP_UNKNOWN_KEYS}"
            for n in range(_TOP_UNKNOWN_KEYS * 3)
            if n % 5 or n % 7
        ]
        keys += [f"chrome-{n}" for n in range(0, _TOP_UNKNOWN_KEYS, 9)] * 4
        assert len(set(keys)) == _TOP_UNKNOWN_KEYS
        tracker.observe_many(keys, day=date(2024, 3, 1))
        assert tracker._unknown_keys.counts == Counter(keys)
        assert tracker.status_dict()["top_unknown"] == [
            {"ua_key": key, "count": count}
            for key, count in Counter(keys).most_common(5)
        ]


class TestRefreshPlanner:
    def _pair(self, known, **config):
        tracker = CoverageTracker(
            config=CoverageConfig(
                window=50, min_observations=5, baseline_rate=0.05,
                adoption_allowance=0.25, adoption_days=7,
            )
        )
        tracker.set_known_keys(known)
        return tracker, RefreshPlanner(tracker, **config)

    def test_first_day_release_triggers_forced_retrain(self):
        _, planner = self._pair(["chrome-117"])
        decision = planner.decide(date(2023, 10, 10))  # chrome-118 ships
        assert decision.triggered and decision.retrain and decision.force
        assert "chrome-118" in decision.reason
        assert decision.vendors == ("chrome",)

    def test_covered_release_day_is_quiet(self):
        calendar = default_calendar()
        shipped = [
            r.key()
            for r in calendar.new_releases_between(
                date(2023, 10, 10), date(2023, 10, 11)
            )
        ]
        _, planner = self._pair(["chrome-117"] + shipped)
        assert not planner.decide(date(2023, 10, 10)).triggered

    def test_band_breach_triggers(self):
        tracker, planner = self._pair(["chrome-117"])
        day = date(2024, 3, 1)  # no release in sight
        for _ in range(10):
            tracker.observe("chrome-999", day=day)
        decision = planner.decide(day)
        assert decision.triggered and decision.force
        assert "out of band" in decision.reason
        assert decision.vendors == ("chrome",)

    def test_cooldown_suppresses_repeat_triggers(self):
        tracker, planner = self._pair(["chrome-117"], cooldown_days=3)
        day = date(2024, 3, 1)
        for _ in range(10):
            tracker.observe("chrome-999", day=day)
        assert planner.decide(day).triggered
        planner.note_retrain(day)
        assert not planner.decide(day + timedelta(days=2)).triggered
        assert planner.decide(day + timedelta(days=3)).triggered

    def test_out_of_scope_vendor_never_asks_for_retrain(self):
        # "other" has no calendar: sustained unknown traffic there is out
        # of band, but first-day triggers can only name real vendors.
        tracker, planner = self._pair(["chrome-117"])
        day = date(2024, 3, 1)
        for _ in range(10):
            tracker.observe("safari-16", day=day)
        decision = planner.decide(day)
        assert decision.triggered
        assert decision.vendors == ("other",)


class TestInferPolicy:
    def test_unknown_release_maps_to_nearest_neighbour(self, infer_pipeline):
        top = _max_known(infer_pipeline, "chrome")
        profile = BrowserProfile(Vendor.CHROME, top)
        vector = FingerprintCollector().collect(profile.environment())
        result = infer_pipeline.detect_session(vector, f"chrome-{top + 1}")
        assert result.inferred_release == f"chrome-{top}"
        assert result.inferred_distance == 1
        assert not result.known_ua
        # A genuine current-engine fingerprint matches the neighbour's
        # cluster, so the interim verdict is clean.
        assert not result.flagged

    def test_edgehtml_never_borrows_across_the_engine_boundary(
        self, infer_pipeline
    ):
        detector = infer_pipeline.detection_snapshot()[1]
        # edge-78 is EdgeHTML; edge-79 (Chromium) is numerically closer
        # than any legacy release, but the neighbour must stay in-engine.
        result = detector._infer("edge-78", predicted=0)
        assert result is not None
        assert result.inferred_release == "edge-19"
        assert result.inferred_distance == 59

    def test_chromium_edge_stays_chromium(self, infer_pipeline):
        detector = infer_pipeline.detection_snapshot()[1]
        result = detector._infer("edge-80", predicted=0)
        assert result.inferred_release == "edge-79"
        assert result.inferred_distance == 1

    def test_version_ties_break_toward_older(self, infer_pipeline):
        # chrome-76 and chrome-78 are known, chrome-77 is not.
        table = infer_pipeline.cluster_model.ua_to_cluster
        assert "chrome-76" in table and "chrome-78" in table
        assert "chrome-77" not in table
        detector = infer_pipeline.detection_snapshot()[1]
        result = detector._infer("chrome-77", predicted=0)
        assert result.inferred_release == "chrome-76"

    def test_unparseable_key_falls_back_to_ignore(self, infer_pipeline):
        profile = BrowserProfile(Vendor.CHROME, 112)
        vector = FingerprintCollector().collect(profile.environment())
        result = infer_pipeline.detect_session(vector, "definitely-not-a-ua")
        assert not result.flagged
        assert result.expected_cluster is None
        assert result.inferred_release is None

    def test_known_release_untouched_by_infer(self, infer_pipeline):
        profile = BrowserProfile(Vendor.CHROME, 112)
        vector = FingerprintCollector().collect(profile.environment())
        result = infer_pipeline.detect_session(vector, "chrome-112")
        assert result.known_ua
        assert result.inferred_release is None


class TestServiceIntegration:
    def _wire(self, version, session_id):
        ua = format_user_agent(Vendor.CHROME, version)
        profile = BrowserProfile(Vendor.CHROME, version)
        return CollectionScript().run(
            profile.environment(), ua, session_id
        ).to_wire()

    def test_verdict_carries_infer_provenance(self, infer_pipeline):
        service = ScoringService(infer_pipeline)
        top = _max_known(infer_pipeline, "chrome")
        verdict = service.score_wire(self._wire(top + 1, "cov-1"))
        assert verdict.accepted
        assert verdict.inferred_release == f"chrome-{top}"
        assert verdict.inferred_distance == 1
        known = service.score_wire(self._wire(112, "cov-2"))
        assert known.inferred_release is None

    def test_unknown_ua_counter_without_coverage(self, infer_pipeline):
        service = ScoringService(infer_pipeline)
        top = _max_known(infer_pipeline, "chrome")
        service.score_wire(self._wire(top + 1, "cov-3"))
        service.score_wire(self._wire(112, "cov-4"))
        assert service.unknown_ua_counts == {"chrome": 1}

    def test_attach_coverage_feeds_tracker(self, infer_pipeline):
        service = ScoringService(infer_pipeline)
        tracker = CoverageTracker(
            config=CoverageConfig(window=50, min_observations=5)
        )
        service.attach_coverage(tracker)
        assert tracker.known_release_count == len(
            infer_pipeline.cluster_model.ua_to_cluster
        )
        top = _max_known(infer_pipeline, "chrome")
        service.score_wire(self._wire(top + 1, "cov-5"))
        status = tracker.status_dict()
        assert status["vendors"]["chrome"]["unknown"] == 1

    def test_coverage_endpoint(self, infer_pipeline):
        service = ScoringService(infer_pipeline)
        bare = CollectionApp(service)
        status, _, body = _request(bare, "GET", "/coverage")
        assert status == "404 Not Found"
        tracker = CoverageTracker()
        service.attach_coverage(tracker)
        app = CollectionApp(service, coverage=tracker)
        status, _, body = _request(app, "GET", "/coverage")
        assert status == "200 OK"
        document = json.loads(body)
        assert set(document["vendors"]) == {
            "chrome", "edge", "firefox", "other"
        }

    def test_metrics_expose_unknown_ua_and_coverage(self, infer_pipeline):
        service = ScoringService(infer_pipeline)
        tracker = CoverageTracker()
        service.attach_coverage(tracker)
        app = CollectionApp(service, coverage=tracker)
        top = _max_known(infer_pipeline, "chrome")
        _request(app, "POST", "/collect", self._wire(top + 1, "cov-6"))
        status, _, body = _request(app, "GET", "/metrics")
        assert status == "200 OK"
        text = body.decode("utf-8")
        assert 'polygraph_unknown_ua_total{vendor="chrome"} 1' in text
        assert 'polygraph_coverage_unknown_total{vendor="chrome"} 1' in text

    def test_cluster_metrics_aggregate_unknown_ua(self, infer_pipeline):
        from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor

        top = _max_known(infer_pipeline, "chrome")
        with ShardSupervisor.from_polygraph(
            infer_pipeline,
            config=ClusterConfig(n_shards=2, heartbeat_interval_s=5.0),
        ) as supervisor:
            router = ClusterRouter(supervisor)
            router.score_many(
                [self._wire(top + 1, "cov-cl-1"), self._wire(112, "cov-cl-2")]
            )
            assert supervisor.unknown_ua_counts() == {"chrome": 1}
            text = "\n".join(router.runtime_metrics_lines())
            assert 'polygraph_unknown_ua_total{vendor="chrome"} 1' in text


def _ledger_row(**overrides):
    row = {name: 0 for name in DIGEST_COLUMNS}
    row.update({name: None for name in TIMING_COLUMNS})
    row.update(
        day="2023-10-10", new_release_keys=[], rollout_status=None,
        rollout_stage=None, staged_version=None, serving_version=1,
        stock_age_days=0.0, coverage_reason=None,
    )
    row.update(overrides)
    return row


class TestLedgerBlindWindow:
    def test_summary_blind_window_metrics(self):
        ledger = DayLedger()
        ledger.record(**_ledger_row(
            day="2023-10-10", new_releases=1, unknown_sessions=10,
            unknown_fraud=4, unknown_fraud_flagged=3, unknown_legit=6,
            unknown_legit_flagged=1, coverage_trigger=1,
            coverage_reason="calendar first-day retrain (chrome-118)",
        ))
        ledger.record(**_ledger_row(day="2023-10-11", retrained=1))
        summary = ledger.summary()
        assert summary["unknown_ua_sessions"] == 10
        assert summary["unknown_ua_detection_rate"] == 0.75
        assert summary["unknown_ua_false_positive_rate"] == pytest.approx(
            1 / 6, abs=1e-4
        )
        assert summary["coverage_retrain_triggers"] == 1
        assert summary["mean_retrain_lag_days"] == 1.0
        assert summary["max_retrain_lag_days"] == 1

    def test_retrain_lag_right_censored(self):
        ledger = DayLedger()
        ledger.record(**_ledger_row(day="d0", new_releases=1))
        ledger.record(**_ledger_row(day="d1"))
        ledger.record(**_ledger_row(day="d2", retrained=1))
        ledger.record(**_ledger_row(day="d3", new_releases=1))
        ledger.record(**_ledger_row(day="d4"))
        assert ledger.retrain_lags() == [2, 2]  # second is censored

    def test_from_cells_skips_aggregate_and_tolerates_missing(self):
        ledger = DayLedger()
        ledger.record(**_ledger_row(day="2023-10-10", n_sessions=5))
        cells = ledger.to_cells()
        # Old artifacts lack the blind-window columns entirely.
        for cell in cells:
            for name in ("unknown_sessions", "coverage_trigger"):
                del cell[name]
        cells.append({"cell": "aggregate", "sessions": 5})
        rebuilt = DayLedger.from_cells(cells)
        assert len(rebuilt) == 1
        assert rebuilt.summary()["unknown_ua_sessions"] == 0
        assert rebuilt.summary()["unknown_ua_detection_rate"] is None


def _request(app, method, path, body=b""):
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    from wsgiref.util import setup_testing_defaults

    environ = {}
    setup_testing_defaults(environ)
    environ.update(
        {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
    )
    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], b"".join(chunks)
