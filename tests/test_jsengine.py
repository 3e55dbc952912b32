"""Catalog, evolution model, and JSEnvironment tests."""

import numpy as np
import pytest

from repro.jsengine.catalog import (
    ALL_INTERFACES,
    CATALOG_SIZE,
    STABLE_INTERFACES,
    VOLATILE_INTERFACES,
    extended_interfaces,
)
from repro.jsengine.environment import JSEnvironment
from repro.jsengine.evolution import (
    CANONICAL_TIME_PROPERTIES,
    CHROMIUM_ERA_STARTS,
    Engine,
    EvolutionModel,
    GECKO_119_SHIFT,
    GECKO_ERA_STARTS,
    PRIMARY_INTERFACES,
    default_model,
)


class TestCatalog:
    def test_catalog_size_matches_paper(self):
        assert len(ALL_INTERFACES) == CATALOG_SIZE == 1006

    def test_volatile_list_has_200_entries(self):
        assert len(VOLATILE_INTERFACES) == 200

    def test_no_duplicates(self):
        assert len(set(ALL_INTERFACES)) == len(ALL_INTERFACES)

    def test_primary_interfaces_are_volatile(self):
        assert set(PRIMARY_INTERFACES) <= set(VOLATILE_INTERFACES)

    def test_extended_interfaces_deterministic(self):
        assert extended_interfaces(30) == extended_interfaces(30)

    def test_extended_interfaces_unique(self):
        names = extended_interfaces(600)
        assert len(set(names)) == 600

    def test_extended_interfaces_negative_rejected(self):
        with pytest.raises(ValueError):
            extended_interfaces(-1)


class TestEvolutionModel:
    @pytest.fixture(scope="class")
    def model(self):
        return default_model()

    def test_counts_deterministic_across_instances(self):
        a = EvolutionModel(seed=1)
        b = EvolutionModel(seed=1)
        for iface in ("Element", "Document", "StaticRange"):
            assert a.property_count(iface, Engine.CHROMIUM, 100) == b.property_count(
                iface, Engine.CHROMIUM, 100
            )

    def test_different_seeds_differ(self):
        a = EvolutionModel(seed=1)
        b = EvolutionModel(seed=2)
        diffs = sum(
            a.property_count(i, Engine.CHROMIUM, 100)
            != b.property_count(i, Engine.CHROMIUM, 100)
            for i in PRIMARY_INTERFACES
        )
        assert diffs > 0

    def test_counts_constant_within_an_era(self, model):
        # Modern eras only: ancient versions can still see +1 steps from
        # the legacy BrowserPrint-style properties introduced mid-window.
        for version_a, version_b in ((102, 105), (110, 113), (90, 101)):
            assert model.property_count(
                "Element", Engine.CHROMIUM, version_a
            ) == model.property_count("Element", Engine.CHROMIUM, version_b)

    def test_counts_jump_at_era_boundaries(self, model):
        for boundary in CHROMIUM_ERA_STARTS[1:]:
            before = model.property_count("Element", Engine.CHROMIUM, boundary - 1)
            after = model.property_count("Element", Engine.CHROMIUM, boundary)
            assert after > before

    def test_chromium_counts_monotone_across_eras(self, model):
        counts = [
            model.property_count("Document", Engine.CHROMIUM, v)
            for v in (60, 70, 95, 105, 111, 115)
        ]
        assert counts == sorted(counts)

    def test_gecko_era_boundaries(self, model):
        assert model.gecko_era(46) == 0
        assert model.gecko_era(50) == 0
        assert model.gecko_era(51) == 1
        assert model.gecko_era(100) == 2
        assert model.gecko_era(101) == 3

    def test_stable_interfaces_never_change(self, model):
        for iface in STABLE_INTERFACES[:20]:
            counts = {
                model.property_count(iface, engine, version)
                for engine in (Engine.CHROMIUM, Engine.GECKO)
                for version in (60, 90, 110)
            }
            assert len(counts) == 1

    def test_unknown_interface_counts_zero(self, model):
        assert model.property_count("NoSuchInterface", Engine.CHROMIUM, 100) == 0

    def test_edgehtml_smaller_than_chromium(self, model):
        for iface in ("Element", "Document", "Range"):
            assert model.property_count(iface, Engine.EDGEHTML, 18) < (
                model.property_count(iface, Engine.CHROMIUM, 100)
            )

    def test_gecko_119_reverts_to_era_two_scale(self, model):
        # The 119 refactor exposes a surface sized like Firefox 93-100.
        for iface in GECKO_119_SHIFT:
            if iface not in model._profiles:
                continue
            v119 = model.property_count(iface, Engine.GECKO, 119)
            v100 = model.property_count(iface, Engine.GECKO, 100)
            assert abs(v119 - v100) <= 2

    def test_gecko_119_differs_from_118(self, model):
        diffs = sum(
            model.property_count(i, Engine.GECKO, 119)
            != model.property_count(i, Engine.GECKO, 118)
            for i in PRIMARY_INTERFACES
        )
        assert diffs >= 10

    def test_property_names_match_counts(self, model):
        for iface in ("Element", "Navigator", "StaticRange", "Window"):
            for engine, version in ((Engine.CHROMIUM, 112), (Engine.GECKO, 100)):
                names = model.property_names(iface, engine, version)
                assert len(names) == model.property_count(iface, engine, version)

    def test_property_names_unique(self, model):
        names = model.property_names("Element", Engine.CHROMIUM, 112)
        assert len(set(names)) == len(names)

    def test_time_properties_catalog_size(self, model):
        assert len(model.time_properties) == 313

    def test_canonical_time_properties_present(self, model):
        keys = {p.key() for p in model.time_properties}
        for named in CANONICAL_TIME_PROPERTIES:
            assert named.key() in keys

    def test_device_memory_semantics(self, model):
        assert model.has_property("Navigator", "deviceMemory", Engine.CHROMIUM, 100)
        assert not model.has_property("Navigator", "deviceMemory", Engine.CHROMIUM, 60)
        assert not model.has_property("Navigator", "deviceMemory", Engine.GECKO, 100)

    def test_speech_synthesis_is_gecko_only(self, model):
        assert model.has_property("Window", "speechSynthesis", Engine.GECKO, 100)
        assert not model.has_property(
            "Window", "speechSynthesis", Engine.CHROMIUM, 100
        )

    def test_count_vector_matches_scalar_queries(self, model):
        interfaces = ["Element", "Document", "StaticRange"]
        vector = model.count_vector(interfaces, Engine.CHROMIUM, 112)
        assert vector.tolist() == [
            model.property_count(i, Engine.CHROMIUM, 112) for i in interfaces
        ]


class TestJSEnvironment:
    def test_count_and_names_consistent(self):
        env = JSEnvironment(Engine.CHROMIUM, 112)
        for iface in ("Element", "Range", "Window"):
            assert env.own_property_count(iface) == len(
                env.get_own_property_names(iface)
            )

    def test_positive_adjustment_injects_names(self):
        env = JSEnvironment(Engine.CHROMIUM, 112, count_adjustments={"Element": 2})
        base = JSEnvironment(Engine.CHROMIUM, 112)
        assert env.own_property_count("Element") == base.own_property_count("Element") + 2
        assert len(env.get_own_property_names("Element")) == env.own_property_count("Element")

    def test_negative_adjustment_trims(self):
        env = JSEnvironment(Engine.CHROMIUM, 112, count_adjustments={"Element": -3})
        base = JSEnvironment(Engine.CHROMIUM, 112)
        assert env.own_property_count("Element") == base.own_property_count("Element") - 3

    def test_zeroed_interface_reports_nothing(self):
        env = JSEnvironment(
            Engine.GECKO, 110, zeroed_interfaces=("ServiceWorker",)
        )
        assert env.own_property_count("ServiceWorker") == 0
        assert env.get_own_property_names("ServiceWorker") == ()
        assert not env.prototype_has_own("ServiceWorker", "anything")

    def test_with_overrides_merges(self):
        env = JSEnvironment(Engine.CHROMIUM, 112, count_adjustments={"Element": 1})
        layered = env.with_overrides(
            count_adjustments={"Element": 2}, zeroed_interfaces=("Crypto",)
        )
        assert layered.count_adjustments["Element"] == 3
        assert "Crypto" in layered.zeroed_interfaces
        # The original environment is untouched.
        assert env.count_adjustments["Element"] == 1
        assert "Crypto" not in env.zeroed_interfaces

    def test_missing_interface_is_empty(self):
        env = JSEnvironment(Engine.CHROMIUM, 112)
        assert env.own_property_count("TotallyMadeUp") == 0

    def test_negative_adjustment_never_goes_below_zero(self):
        env = JSEnvironment(
            Engine.CHROMIUM, 112, count_adjustments={"StaticRange": -1000}
        )
        assert env.own_property_count("StaticRange") == 0
        assert env.get_own_property_names("StaticRange") == ()
