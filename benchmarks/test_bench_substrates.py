"""Substrate benchmarks: topology, routing, DNS, monitoring throughput.

These time the building blocks rather than a paper artifact — useful to
track where campaign time goes and to catch regressions in the hot paths
(route computation and the per-site monitoring step dominate).
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.routing import PathOracle, compute_routes_to
from repro.config import DualStackConfig, TopologyConfig, small_config
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.net.addresses import AddressFamily
from repro.topology.dualstack import deploy_ipv6
from repro.topology.generator import generate_topology

V4 = AddressFamily.IPV4


@pytest.fixture(scope="module")
def medium_dualstack():
    config = TopologyConfig(n_tier1=6, n_transit=60, n_stub=300, n_content=150, n_cdn=4)
    topo = generate_topology(config, random.Random(41))
    return deploy_ipv6(topo, DualStackConfig(), random.Random(42))


class TestTopologyBench:
    def test_bench_generate_topology(self, benchmark):
        config = TopologyConfig(
            n_tier1=6, n_transit=60, n_stub=300, n_content=150, n_cdn=4
        )
        topo = benchmark(generate_topology, config, random.Random(7))
        assert topo.is_connected()

    def test_bench_deploy_ipv6(self, benchmark, medium_dualstack):
        base = medium_dualstack.base
        ds = benchmark(deploy_ipv6, base, DualStackConfig(), random.Random(1))
        assert ds.v6_enabled


class TestRoutingBench:
    def test_bench_routes_to_one_destination(self, benchmark, medium_dualstack):
        dest = medium_dualstack.asn_list[-1]
        state = benchmark(compute_routes_to, medium_dualstack, dest, V4)
        assert state.best

    def test_bench_paths_to_many_destinations(self, benchmark, medium_dualstack):
        ds = medium_dualstack
        source = ds.asn_list[len(ds.asn_list) // 2]

        def compute_all():
            oracle = PathOracle(ds, sources=[source])
            return sum(
                1
                for dest in ds.asn_list[:150]
                if oracle.as_path(source, dest, V4) is not None
            )

        reached = benchmark(compute_all)
        assert reached == 150


class TestWorldBench:
    def test_bench_build_world(self, benchmark):
        cfg = small_config(seed=5)
        world = benchmark(build_world, cfg)
        assert world.vantages

    def test_bench_one_monitoring_round(self, benchmark):
        cfg = small_config(seed=6)
        world = build_world(cfg)
        from repro.monitor.tool import MonitoringTool

        def one_round():
            vantage = world.vantages[0]
            tool = MonitoringTool(
                vantage=vantage,
                env=world.environment_for(vantage),
                config=cfg.monitor,
                rng=random.Random(3),
            )
            return tool.run_round(0)

        report = benchmark(one_round)
        assert report.n_monitored > 0

    def test_bench_full_small_campaign(self, benchmark):
        # One iteration only - this is the end-to-end smoke benchmark.
        cfg = small_config(seed=8)

        def campaign():
            return run_campaign(build_world(cfg), n_rounds=4)

        result = benchmark.pedantic(campaign, rounds=1, iterations=1)
        assert result.total_measurements() > 0
