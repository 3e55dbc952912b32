"""Retraining orchestrator and model registry tests."""

import json
from datetime import date
from pathlib import Path

import pytest

from repro.core.retraining import (
    STATUS_CANDIDATE,
    STATUS_LIVE,
    STATUS_ROLLED_BACK,
    ModelRegistry,
    RetrainingOrchestrator,
)
from repro.durable import UnreadableFileError
from repro.traffic.generator import TrafficConfig, TrafficSimulator


@pytest.fixture(scope="module")
def autumn():
    config = TrafficConfig(
        start=date(2023, 7, 20), end=date(2023, 11, 10), seed=31
    ).scaled(20_000)
    return TrafficSimulator(config).generate()


@pytest.fixture(scope="module")
def quiet_window():
    config = TrafficConfig(
        start=date(2023, 7, 20), end=date(2023, 9, 10), seed=41
    ).scaled(10_000)
    return TrafficSimulator(config).generate()


class TestModelRegistry:
    def test_promote_and_load_roundtrip(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        version = registry.promote(trained, date(2023, 7, 1), "bootstrap")
        assert version == 1
        loaded = registry.load()
        assert loaded.cluster_table == trained.cluster_table

    def test_versions_increment(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "first")
        registry.promote(trained, date(2023, 8, 1), "second")
        assert registry.latest_version == 2
        assert [v["version"] for v in registry.versions()] == [1, 2]
        assert registry.versions()[1]["reason"] == "second"

    def test_load_specific_version(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "first")
        assert registry.load(version=1).accuracy == pytest.approx(trained.accuracy)

    def test_empty_registry_rejected(self, tmp_path):
        with pytest.raises(LookupError):
            ModelRegistry(tmp_path).load()

    def test_unknown_version_rejected(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "first")
        with pytest.raises(LookupError):
            registry.load(version=9)

    def test_entries_carry_digest_and_status(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "first")
        entry = registry.versions()[0]
        assert entry["status"] == STATUS_LIVE
        assert len(entry["sha256"]) == 64

    def test_staged_candidate_not_loaded_by_default(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "first")
        registry.stage_candidate(trained, date(2023, 8, 1), "staged")
        assert registry.latest_version == 2
        assert registry.live_version == 1
        assert registry.versions()[1]["status"] == STATUS_CANDIDATE
        # load() follows live status, not recency.
        assert registry.load().cluster_table == trained.cluster_table
        registry.mark_live(2)
        assert registry.live_version == 2

    def test_rollback_restores_prior_model_bit_for_bit(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "v1")
        v1_bytes = (tmp_path / "model-v001.json").read_bytes()
        registry.promote(trained, date(2023, 8, 1), "v2")

        prior = registry.rollback()
        assert prior == 1
        assert registry.live_version == 1
        assert registry.versions()[1]["status"] == STATUS_ROLLED_BACK
        # The v1 artifact on disk never moved.
        assert (tmp_path / "model-v001.json").read_bytes() == v1_bytes
        # And reloading + re-saving it reproduces those bytes exactly.
        reloaded = registry.load()
        reloaded.save(tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == v1_bytes

    def test_rollback_without_prior_rejected(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "only")
        with pytest.raises(LookupError):
            registry.rollback()

    def test_tampered_model_file_rejected(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "v1")
        path = tmp_path / "model-v001.json"
        document = json.loads(path.read_text())
        document["accuracy"] = 1.0  # hand-edit the stored model
        path.write_text(json.dumps(document, indent=2))
        with pytest.raises(ValueError, match="digest"):
            registry.load(1)

    def test_swapped_model_file_rejected(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "v1")
        index_path = tmp_path / "registry.json"
        index = json.loads(index_path.read_text())
        digest = index[0]["sha256"]
        index[0]["sha256"] = "0" * 64  # index no longer matches the file
        index_path.write_text(json.dumps(index, indent=2))
        with pytest.raises(UnreadableFileError, match="digest") as raised:
            registry.load(1)
        message = str(raised.value)
        assert message.startswith(f"{tmp_path / 'model-v001.json'}: ")
        assert "0" * 12 in message and digest[:12] in message

    def test_a_load_parses_the_model_file_once(self, trained, tmp_path, monkeypatch):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "v1")
        read, reads = Path.read_bytes, []

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        registry.load()
        assert reads.count(tmp_path / "model-v001.json") == 1


    def test_torn_index_is_a_typed_error_naming_the_file(self, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "bootstrap")
        registry.stage_candidate(trained, date(2023, 8, 1), "candidate")
        index = tmp_path / "registry.json"
        whole = index.read_bytes()
        for cut in range(len(whole) + 1):
            index.write_bytes(whole[:cut])
            try:
                versions = ModelRegistry(tmp_path).versions()
            except UnreadableFileError as exc:
                assert str(exc).startswith(f"{index}: "), (cut, exc)
            else:
                assert versions == json.loads(whole), cut

    def test_serve_refuses_a_torn_index(self, trained, tmp_path, capsys):
        from repro.cli import main

        ModelRegistry(tmp_path).promote(trained, date(2023, 7, 1), "bootstrap")
        index = tmp_path / "registry.json"
        index.write_bytes(index.read_bytes()[:40])
        assert main(["serve", "--registry", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("serve: cannot read registry: ")
        assert "registry.json" in line

    def test_index_write_that_dies_leaves_the_old_index(
        self, trained, tmp_path, monkeypatch
    ):
        import repro.durable as durable

        registry = ModelRegistry(tmp_path)
        registry.promote(trained, date(2023, 7, 1), "bootstrap")
        before = (tmp_path / "registry.json").read_bytes()

        def dies(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(durable.os, "replace", dies)
        with pytest.raises(OSError):
            registry.stage_candidate(trained, date(2023, 8, 1), "candidate")
        assert (tmp_path / "registry.json").read_bytes() == before
        assert [e["version"] for e in ModelRegistry(tmp_path).versions()] == [1]


class TestOrchestrator:
    def test_bootstrap_promotes_v1(self, small_dataset, tmp_path):
        orchestrator = RetrainingOrchestrator(ModelRegistry(tmp_path))
        polygraph = orchestrator.bootstrap(small_dataset, date(2023, 7, 1))
        assert polygraph.accuracy > 0.985
        assert orchestrator.registry.latest_version == 1

    def test_quiet_window_does_not_retrain(
        self, small_dataset, quiet_window, tmp_path
    ):
        orchestrator = RetrainingOrchestrator(ModelRegistry(tmp_path))
        orchestrator.bootstrap(small_dataset, date(2023, 7, 1))
        outcome = orchestrator.scheduled_check(quiet_window, date(2023, 9, 12))
        assert not outcome.drift_detected
        assert not outcome.retrained
        assert orchestrator.registry.latest_version == 1

    def test_autumn_drift_triggers_verified_promotion(
        self, small_dataset, autumn, tmp_path
    ):
        orchestrator = RetrainingOrchestrator(ModelRegistry(tmp_path))
        orchestrator.bootstrap(small_dataset, date(2023, 7, 1))
        outcome = orchestrator.scheduled_check(autumn, date(2023, 11, 5))
        assert outcome.drift_detected and outcome.retrained and outcome.promoted
        assert orchestrator.registry.latest_version == 2
        # The promoted model knows the drifted releases.
        assert (
            orchestrator.current.cluster_model.expected_cluster("firefox-119")
            is not None
        )
        # And a repeat check on the same window is quiet.
        repeat = orchestrator.scheduled_check(autumn, date(2023, 11, 6))
        assert not repeat.drift_detected

    def test_drift_stages_candidate_when_rollout_attached(
        self, small_dataset, autumn, tmp_path
    ):
        from repro.rollout import LIVE, SHADOW, RolloutConfig, RolloutManager

        registry = ModelRegistry(tmp_path)
        manager = RolloutManager(
            registry,
            config=RolloutConfig(stages=(1.0,)),
            state_path=tmp_path / "rollout.json",
        )
        orchestrator = RetrainingOrchestrator(registry, rollout=manager)
        orchestrator.bootstrap(small_dataset, date(2023, 7, 1))
        baseline = orchestrator.current

        outcome = orchestrator.scheduled_check(autumn, date(2023, 11, 5))
        assert outcome.drift_detected and outcome.retrained
        # Not promoted: staged for rollout instead.
        assert not outcome.promoted
        assert outcome.staged_version == 2
        assert registry.versions()[1]["status"] == STATUS_CANDIDATE
        assert registry.live_version == 1
        assert manager.in_flight and manager.state.status == SHADOW
        assert orchestrator.current is baseline

        # While the rollout is in flight, further checks defer.
        repeat = orchestrator.scheduled_check(autumn, date(2023, 11, 6))
        assert repeat.drift_detected and not repeat.retrained
        assert "deferred" in repeat.detail

        # Rollout completes → the orchestrator adopts the candidate.
        manager.advance(force=True)
        state = manager.advance(force=True)
        assert state.status == LIVE
        assert registry.live_version == 2
        assert orchestrator.current is not baseline
        quiet = orchestrator.scheduled_check(autumn, date(2023, 11, 7))
        assert not quiet.drift_detected

    def test_window_cap_slides(self, small_dataset, autumn, tmp_path):
        cap = len(small_dataset)
        orchestrator = RetrainingOrchestrator(
            ModelRegistry(tmp_path), max_window_sessions=cap
        )
        orchestrator.bootstrap(small_dataset, date(2023, 7, 1))
        orchestrator.scheduled_check(autumn, date(2023, 11, 5))
        assert len(orchestrator.window) <= cap

    def test_check_before_bootstrap_rejected(self, quiet_window, tmp_path):
        orchestrator = RetrainingOrchestrator(ModelRegistry(tmp_path))
        with pytest.raises(RuntimeError):
            orchestrator.scheduled_check(quiet_window, date(2023, 9, 1))

    def test_invalid_floor_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RetrainingOrchestrator(ModelRegistry(tmp_path), accuracy_floor=1.5)

    def test_history_records_every_check(
        self, small_dataset, quiet_window, tmp_path
    ):
        orchestrator = RetrainingOrchestrator(ModelRegistry(tmp_path))
        orchestrator.bootstrap(small_dataset, date(2023, 7, 1))
        orchestrator.scheduled_check(quiet_window, date(2023, 9, 12))
        assert len(orchestrator.history) == 1
        assert orchestrator.history[0].check_date == date(2023, 9, 12)
