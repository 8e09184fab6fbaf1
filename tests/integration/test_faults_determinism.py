"""Fault injection end to end: determinism, digests, graceful degradation.

Three invariants pinned here:

* faults **off** leaves the repository digest bit-identical to the
  pre-fault-injection baseline (hard acceptance criterion);
* faults **on** is exactly as reproducible as faults off — a seed sweep
  shows serial and process backends agreeing on digests *and* failure
  counters;
* a worker that dies mid-campaign degrades gracefully: the campaign
  completes, the affected vantage matches the serial run, and the
  degradation counter records the event.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.config import ExecutionConfig, small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.faults import FaultPlan, fault_preset
from repro.net.addresses import AddressFamily
from repro.obs import metrics

#: digest of the seed-7 scale-0.5 4-round campaign BEFORE repro.faults
#: existed; fault injection disabled must never change it.
TINY4_BASELINE_DIGEST = (
    "0b8ff155b4e3529f28129df4cd4190967f5c33168905152b1f09f648550bb4d9"
)
#: same pin for the session-scoped seed-11 full campaign fixture.
SMALL11_BASELINE_DIGEST = (
    "6507ce08857e6e2107fcaf945d19a74925df278e46d16966ab7d619037e8e5d5"
)

TINY = small_config(seed=7, scale=0.5)
TINY_FAULTY = dataclasses.replace(TINY, faults=fault_preset("mild"))
TINY_ROUNDS = 4

SWEEP_SEEDS = range(100, 110)
SWEEP_ROUNDS = 3


def _faulty_config(seed: int):
    return dataclasses.replace(
        small_config(seed=seed, scale=0.4), faults=fault_preset("mild")
    )


def _fault_counters(repository):
    return {
        name: Counter(
            repository.database(name).table("faults").column("kind").values_list()
        )
        for name in repository.vantage_names
    }


def _wire_rows(cdb) -> dict:
    return {name: table.rows() for name, table in cdb.tables.items()}


class TestFaultsOffDigestUnchanged:
    def test_tiny_campaign_matches_pre_faults_baseline(self):
        result = run_campaign(build_world(TINY), n_rounds=TINY_ROUNDS)
        assert result.repository.content_digest() == TINY4_BASELINE_DIGEST

    def test_small_campaign_matches_pre_faults_baseline(self, small_campaign):
        assert (
            small_campaign.repository.content_digest()
            == SMALL11_BASELINE_DIGEST
        )

    def test_no_faults_recorded_without_a_plan(self, small_campaign):
        repo = small_campaign.repository
        for name in repo.vantage_names:
            assert repo.database(name).table("faults").n_rows == 0


class TestSeedSweepDeterminism:
    """Serial and process backends agree for every seed, faults enabled."""

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_backends_identical_under_faults(self, seed):
        cfg = _faulty_config(seed)
        serial = run_campaign(
            build_world(cfg),
            n_rounds=SWEEP_ROUNDS,
            execution=ExecutionConfig(backend="serial"),
        )
        process = run_campaign(
            build_world(cfg),
            n_rounds=SWEEP_ROUNDS,
            execution=ExecutionConfig(backend="process", jobs=2),
        )
        assert (
            serial.repository.content_digest()
            == process.repository.content_digest()
        )
        serial_counters = _fault_counters(serial.repository)
        assert serial_counters == _fault_counters(process.repository)
        # The sweep is pointless if faults never fire.
        assert any(counts for counts in serial_counters.values())
        assert serial.reports == process.reports

    def test_failure_counters_surface_in_reports(self):
        result = run_campaign(build_world(TINY_FAULTY), n_rounds=TINY_ROUNDS)
        total_report_failures = sum(
            report.n_failures
            for reports in result.reports.values()
            for report in reports
        )
        total_db_faults = sum(
            result.repository.database(name).table("faults").n_rows
            for name in result.repository.vantage_names
        )
        assert total_report_failures == total_db_faults > 0


class TestFaultPlanIsVantageIndependent:
    def test_same_question_same_answer_across_plans(self):
        config = fault_preset("heavy")
        a = FaultPlan(config, master_seed=99)
        b = FaultPlan(config, master_seed=99)
        for site in (1, 7, 42):
            for rnd in (0, 3):
                for fam in (AddressFamily.IPV4, AddressFamily.IPV6):
                    assert a.dns_failure("x", fam, rnd, 0) == b.dns_failure(
                        "x", fam, rnd, 0
                    )
                    assert a.server_fault(
                        site, fam, rnd, "probe:0"
                    ) == b.server_fault(site, fam, rnd, "probe:0")
        assert a.tunnel_broken(64496, 2) == b.tunnel_broken(64496, 2)
        assert a.link_degradation(64496, 2) == b.link_degradation(64496, 2)


class TestGracefulDegradation:
    """A worker crash never aborts the campaign (acceptance criterion)."""

    def test_killed_worker_degrades_and_matches_serial(self, monkeypatch):
        serial = run_campaign(build_world(TINY_FAULTY), n_rounds=TINY_ROUNDS)
        victim = serial.repository.vantage_names[0]

        monkeypatch.setenv("REPRO_TEST_KILL_SHARD", victim)
        degraded_before = metrics.counter("engine.shards_degraded").value
        process = run_campaign(
            build_world(TINY_FAULTY),
            n_rounds=TINY_ROUNDS,
            execution=ExecutionConfig(backend="process", jobs=2),
        )
        assert (
            metrics.counter("engine.shards_degraded").value
            == degraded_before + 1
        )
        # The campaign finished and the affected vantage matches serial.
        assert victim in process.repository.vantage_names
        assert _wire_rows(process.repository.database(victim)) == _wire_rows(
            serial.repository.database(victim)
        )
        assert (
            process.repository.content_digest()
            == serial.repository.content_digest()
        )

    def test_hard_worker_exit_breaks_pool_but_campaign_completes(
        self, monkeypatch
    ):
        serial = run_campaign(build_world(TINY_FAULTY), n_rounds=TINY_ROUNDS)
        victim = serial.repository.vantage_names[0]

        # ":exit" hard-kills the worker process (os._exit), exercising the
        # BrokenProcessPool recovery path; the break can take innocent
        # in-flight shards down with it, so the degradation counter is
        # >= 1 rather than exactly 1 here.
        monkeypatch.setenv("REPRO_TEST_KILL_SHARD", f"{victim}:exit")
        degraded_before = metrics.counter("engine.shards_degraded").value
        process = run_campaign(
            build_world(TINY_FAULTY),
            n_rounds=TINY_ROUNDS,
            execution=ExecutionConfig(backend="process", jobs=2),
        )
        assert metrics.counter("engine.shards_degraded").value > degraded_before
        assert (
            process.repository.content_digest()
            == serial.repository.content_digest()
        )
