"""Unit tests for the seeded fault plan and its presets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import FaultConfig
from repro.errors import ConfigError
from repro.faults import (
    FAULT_PRESETS,
    FaultPlan,
    ServerFault,
    fault_preset,
    resolve_faults,
)
from repro.net.addresses import AddressFamily
from repro.rng import derive_seed

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6

ALWAYS = FaultConfig(
    a_failure_rate=1.0,
    aaaa_failure_rate=1.0,
    server_timeout_rate=1.0,
    tunnel_breakage_rate=1.0,
    link_degradation_rate=1.0,
    link_degradation_factor=0.25,
)
NEVER = FaultConfig()


class TestDeterminism:
    def test_identical_plans_answer_identically(self):
        a = FaultPlan(fault_preset("mild"), master_seed=5)
        b = FaultPlan(fault_preset("mild"), master_seed=5)
        questions = [
            (name, fam, rnd, att)
            for name in ("alpha", "beta")
            for fam in (V4, V6)
            for rnd in range(4)
            for att in range(3)
        ]
        assert [a.dns_failure(*q) for q in questions] == [
            b.dns_failure(*q) for q in questions
        ]

    def test_query_order_does_not_matter(self):
        a = FaultPlan(fault_preset("heavy"), master_seed=5)
        b = FaultPlan(fault_preset("heavy"), master_seed=5)
        keys = [(sid, rnd) for sid in (1, 2, 3) for rnd in (0, 1)]
        forward = {k: a.server_fault(k[0], V6, k[1], "probe:0") for k in keys}
        backward = {
            k: b.server_fault(k[0], V6, k[1], "probe:0") for k in reversed(keys)
        }
        assert forward == backward

    def test_different_seeds_differ(self):
        a = FaultPlan(fault_preset("heavy"), master_seed=1)
        b = FaultPlan(fault_preset("heavy"), master_seed=2)
        answers_a = [a.dns_failure("x", V6, r, 0) for r in range(200)]
        answers_b = [b.dns_failure("x", V6, r, 0) for r in range(200)]
        assert answers_a != answers_b

    def test_attempts_are_independent_draws(self):
        plan = FaultPlan(fault_preset("heavy"), master_seed=3)
        answers = {
            plan.dns_failure("site", V6, 0, attempt) for attempt in range(200)
        }
        assert answers == {True, False}


class TestRates:
    def test_zero_rates_never_fire(self):
        plan = FaultPlan(NEVER, master_seed=1)
        assert not plan.dns_failure("x", V6, 0, 0)
        assert plan.server_fault(1, V6, 0, "probe:0") is None
        assert not plan.tunnel_broken(64496, 0)
        assert plan.link_degradation(64496, 0) == 1.0
        assert plan.path_degradation((1, 2, 3), 0) == 1.0

    def test_rate_one_always_fires(self):
        plan = FaultPlan(ALWAYS, master_seed=1)
        assert plan.dns_failure("x", V4, 0, 0)
        assert plan.dns_failure("x", V6, 0, 0)
        fault = plan.server_fault(1, V4, 0, "probe:0")
        assert fault == ServerFault("timeout", ALWAYS.timeout_seconds)
        assert plan.tunnel_broken(64496, 0)
        assert plan.link_degradation(64496, 0) == 0.25

    def test_path_degradation_compounds_per_as(self):
        plan = FaultPlan(ALWAYS, master_seed=1)
        assert plan.path_degradation((1, 2), 0) == pytest.approx(0.25**2)

    def test_v6_multiplier_scales_failure_rate(self):
        cfg = FaultConfig(server_timeout_rate=0.05, v6_fault_multiplier=3.0)
        plan = FaultPlan(cfg, master_seed=9)
        n = 2000
        v4_faults = sum(
            plan.server_fault(s, V4, 0, "probe:0") is not None for s in range(n)
        )
        v6_faults = sum(
            plan.server_fault(s, V6, 0, "probe:0") is not None for s in range(n)
        )
        assert v4_faults == pytest.approx(n * 0.05, rel=0.4)
        assert v6_faults == pytest.approx(n * 0.15, rel=0.4)

    def test_reset_rate_capped_by_timeout_rate(self):
        # The v6 multiplier pushes the timeout rate to the whole unit
        # interval; the reset band is squeezed out rather than overlapping.
        cfg = FaultConfig(
            server_timeout_rate=0.5,
            server_reset_rate=0.5,
            v6_fault_multiplier=2.0,
        )
        plan = FaultPlan(cfg, master_seed=1)
        for site in range(50):
            fault = plan.server_fault(site, V6, 0, "probe:0")
            assert fault is not None and fault.kind == "timeout"

    def test_tunnel_and_link_decisions_are_memoised(self):
        plan = FaultPlan(fault_preset("heavy"), master_seed=4)
        assert plan.tunnel_broken(64496, 1) is plan.tunnel_broken(64496, 1)
        assert plan.link_degradation(20, 1) == plan.link_degradation(20, 1)

    def test_one_shot_decisions_bypass_the_seed_cache(self):
        """Per-attempt coordinates are asked about once; they must not
        churn the ``derive_seed`` LRU the per-round stream names use."""
        plan = FaultPlan(fault_preset("heavy"), master_seed=4)
        before = derive_seed.cache_info()
        for site in range(40):
            for family in (V4, V6):
                for attempt in range(4):
                    plan.server_fault(site, family, 3, f"probe:{attempt}")
                    plan.server_fault(site, family, 3, f"loop:{attempt}")
                    plan.dns_failure(f"site-{site}.example", family, 3, attempt)
        assert derive_seed.cache_info() == before


class TestPresets:
    def test_none_preset_is_inactive(self):
        assert not FAULT_PRESETS["none"].active

    @pytest.mark.parametrize("name", ["mild", "heavy"])
    def test_named_presets_are_active_and_valid(self, name):
        preset = fault_preset(name)
        assert preset.active
        preset.validate()

    def test_unknown_preset_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown fault preset"):
            fault_preset("catastrophic")


class TestResolveFaults:
    def test_none_defaults_to_no_faults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_faults(None) == FaultConfig()

    def test_none_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "mild")
        assert resolve_faults(None) == FAULT_PRESETS["mild"]

    def test_empty_environment_means_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert resolve_faults(None) == FaultConfig()

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "heavy")
        assert resolve_faults("mild") == FAULT_PRESETS["mild"]

    def test_config_passes_through_validated(self):
        cfg = FaultConfig(aaaa_failure_rate=0.1)
        assert resolve_faults(cfg) is cfg
        with pytest.raises(ConfigError):
            resolve_faults(dataclasses.replace(cfg, aaaa_failure_rate=-0.1))

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "nope")
        with pytest.raises(ConfigError, match="unknown fault preset"):
            resolve_faults(None)


class TestPlanRejectsInvalidConfig:
    def test_constructor_validates(self):
        bad = dataclasses.replace(NEVER, tunnel_breakage_rate=1.5)
        with pytest.raises(ConfigError, match="tunnel_breakage_rate"):
            FaultPlan(bad, master_seed=1)


class TestNat64Outage:
    def test_zero_rate_never_fires(self):
        plan = FaultPlan(NEVER, master_seed=3)
        assert not any(
            plan.nat64_outage(asn, r) for asn in (5, 9) for r in range(20)
        )

    def test_rate_one_always_fires(self):
        plan = FaultPlan(
            FaultConfig(nat64_outage_rate=1.0), master_seed=3
        )
        assert all(
            plan.nat64_outage(asn, r) for asn in (5, 9) for r in range(20)
        )

    def test_decisions_are_deterministic_and_memoised(self):
        config = FaultConfig(nat64_outage_rate=0.5)
        a = FaultPlan(config, master_seed=17)
        b = FaultPlan(config, master_seed=17)
        coords = [(asn, r) for asn in (5, 9, 12) for r in range(10)]
        first = [a.nat64_outage(*c) for c in coords]
        assert first == [b.nat64_outage(*c) for c in coords]
        # repeated queries answer from the memo, identically
        assert first == [a.nat64_outage(*c) for c in coords]

    def test_presets_schedule_outages(self):
        assert fault_preset("none").nat64_outage_rate == 0.0
        assert fault_preset("mild").nat64_outage_rate > 0.0
        assert (
            fault_preset("heavy").nat64_outage_rate
            > fault_preset("mild").nat64_outage_rate
        )
