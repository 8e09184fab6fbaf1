"""Execution-engine integration: backend equivalence and the disk cache.

The engine's hard invariant is that the serial and process backends
produce bit-identical measurement repositories for the same scenario
config; these tests pin it with
:meth:`~repro.monitor.aggregate.CentralRepository.content_digest`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.config import ExecutionConfig, small_config
from repro.core.campaign import (
    build_campaign_shards,
    merge_shard_results,
    run_campaign,
    run_world_ipv6_day,
)
from repro.core.world import build_world
from repro.data.columnar import ColumnarDatabase
from repro.engine.executor import SerialExecutor
from repro.engine.store import config_digest
from repro.experiments import scenario
from repro.obs import metrics

#: tiny but non-degenerate scenario for cross-backend runs.
TINY = small_config(seed=7, scale=0.5)
TINY_ROUNDS = 4


@pytest.fixture(scope="module")
def tiny_serial():
    world = build_world(TINY)
    weekly = run_campaign(
        world, n_rounds=TINY_ROUNDS, execution=ExecutionConfig(backend="serial")
    )
    w6d = run_world_ipv6_day(
        world, n_rounds=6, execution=ExecutionConfig(backend="serial")
    )
    return weekly, w6d


@pytest.fixture(scope="module")
def tiny_process():
    world = build_world(TINY)
    weekly = run_campaign(
        world,
        n_rounds=TINY_ROUNDS,
        execution=ExecutionConfig(backend="process", jobs=2),
    )
    w6d = run_world_ipv6_day(
        world, n_rounds=6, execution=ExecutionConfig(backend="process", jobs=2)
    )
    return weekly, w6d


class TestBackendEquivalence:
    def test_weekly_repositories_bit_identical(self, tiny_serial, tiny_process):
        serial, _ = tiny_serial
        process, _ = tiny_process
        assert (
            serial.repository.content_digest()
            == process.repository.content_digest()
        )

    def test_weekly_reports_identical(self, tiny_serial, tiny_process):
        assert tiny_serial[0].reports == tiny_process[0].reports

    def test_w6d_repositories_bit_identical(self, tiny_serial, tiny_process):
        _, serial = tiny_serial
        _, process = tiny_process
        assert (
            serial.repository.content_digest()
            == process.repository.content_digest()
        )

    def test_engine_counters_recorded(self, tiny_serial):
        assert metrics.counter("engine.shards_dispatched").value > 0
        assert metrics.histogram("engine.shard_seconds").count > 0


class TestScenarioDiskCache:
    def test_second_build_hits_the_disk_tier(self, tmp_path):
        saved_store = scenario._store()
        scenario.configure_cache(tmp_path)
        try:
            scenario.clear_caches()
            misses_before = metrics.counter("scenario.cache_misses").value
            first = scenario.get_experiment_data(TINY)
            assert (
                metrics.counter("scenario.cache_misses").value
                == misses_before + 1
            )
            entry = tmp_path / "campaigns" / config_digest(TINY, "weekly")
            assert (entry / "meta.json").exists()
            assert (entry / "world.pkl").exists()  # world pickled alongside

            # drop the memory tier; the disk tier must carry the reload
            scenario.clear_caches()
            hits_before = metrics.counter("scenario.cache_hits").value
            store_hits_before = metrics.counter("engine.store.hits").value
            second = scenario.get_experiment_data(TINY)
            assert metrics.counter("scenario.cache_hits").value == hits_before + 1
            assert (
                metrics.counter("engine.store.hits").value
                == store_hits_before + 1
            )
            assert (
                second.repository.content_digest()
                == first.repository.content_digest()
            )
            assert second.world is not None
            # analysis layers rebuilt from restored data match
            assert set(second.contexts) == set(first.contexts)
        finally:
            scenario.clear_caches()
            if saved_store is not None:
                scenario.configure_cache(saved_store.root)
            else:
                scenario.configure_cache(None)

    def test_disabled_cache_writes_nothing(self, tmp_path):
        saved_store = scenario._store()
        scenario.configure_cache(None)
        try:
            scenario.clear_caches()
            scenario.get_experiment_data(TINY)
            assert not (tmp_path / "campaigns").exists()
        finally:
            scenario.clear_caches()
            if saved_store is not None:
                scenario.configure_cache(saved_store.root)
            else:
                scenario.configure_cache(None)


class TestInMemoryHandOver:
    def test_serial_merge_adopts_shard_databases(self):
        world = build_world(TINY)
        shards = build_campaign_shards(world, n_rounds=2, max_sites_per_round=0)
        results = SerialExecutor().run(shards, world=world)
        merged = merge_shard_results(world, results)
        for result in results:
            assert isinstance(result.database, ColumnarDatabase)
            assert merged.repository.database(result.vantage_name) is (
                result.database
            )


class TestWorldPickle:
    """``world.pkl`` holds the world, not the memo caches a campaign grew."""

    def test_pickle_leaves_memo_caches_out(self, tiny_serial):
        world = tiny_serial[0].world
        world.dns_cursor()  # the campaigns released theirs
        try:
            assert world._endpoint_cache and world._dns_timeline is not None
            loaded = pickle.loads(pickle.dumps(world, pickle.HIGHEST_PROTOCOL))
            assert loaded._dns_timeline is None
            assert not loaded._endpoint_cache and not loaded._path_cache
            assert not loaded._addresses and not loaded._owner_cache
            assert not loaded.model._round_factors
            # The live world keeps its caches.
            assert world._endpoint_cache and world._dns_timeline is not None
        finally:
            world.release_dns_timeline()

    def test_campaign_releases_the_dns_timeline(self, tiny_serial):
        weekly, w6d = tiny_serial
        assert weekly.world._dns_timeline is None
        assert w6d.world._dns_timeline is None

    def test_loaded_world_reproduces_the_campaign(self, tiny_serial):
        weekly, _ = tiny_serial
        blob = pickle.dumps(weekly.world, pickle.HIGHEST_PROTOCOL)
        rerun = run_campaign(
            pickle.loads(blob),
            n_rounds=TINY_ROUNDS,
            execution=ExecutionConfig(backend="serial"),
        )
        assert (
            rerun.repository.content_digest()
            == weekly.repository.content_digest()
        )
