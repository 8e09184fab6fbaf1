"""The Fig 2 monitoring pipeline over the hand-built mini environment."""

from __future__ import annotations

import pytest

from repro.data.series import (
    converged_speeds,
    dest_asn,
    modal_as_path,
    v6_reachability,
)
from repro.errors import MonitorError
from repro.monitor.tool import MonitoringTool
from repro.net.addresses import AddressFamily

from .conftest import SITES

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


@pytest.fixture()
def tool(mini_vantage, mini_env, monitor_config, mini_rng) -> MonitoringTool:
    return MonitoringTool(mini_vantage, mini_env, monitor_config, mini_rng)


class TestRoundFlow:
    def test_round_report_counts(self, tool):
        report = tool.run_round(0)
        assert report.n_monitored == len(SITES)
        assert report.n_new == len(SITES)
        assert report.n_dual_stack == 3  # all but v4only
        assert report.n_measured == 2  # healthy + slowv6 (diffpages fails identity)
        assert report.makespan_seconds > 0

    def test_rounds_must_increase(self, tool):
        tool.run_round(0)
        with pytest.raises(MonitorError):
            tool.run_round(0)

    def test_inactive_before_start_round(self, mini_vantage, mini_env, monitor_config, mini_rng):
        from dataclasses import replace

        late = replace(mini_vantage, start_round=5)
        tool = MonitoringTool(late, mini_env, monitor_config, mini_rng)
        report = tool.run_round(0)
        assert report.n_monitored == 0
        assert len(tool.database.dns_counts) == 0

    def test_one_site_list_call_per_active_round(
        self, mini_vantage, mini_env, monitor_config, mini_rng
    ):
        from dataclasses import replace

        calls = []
        top_list = mini_env.site_list

        def counting_site_list(round_idx):
            calls.append(round_idx)
            return top_list(round_idx)

        env = replace(mini_env, site_list=counting_site_list)
        late = replace(mini_vantage, start_round=1)
        tool = MonitoringTool(late, env, monitor_config, mini_rng)
        for round_idx in range(4):
            tool.run_round(round_idx)
        assert calls == [1, 2, 3]

    def test_monitored_set_persists(self, tool):
        tool.run_round(0)
        tool.run_round(1)
        assert tool.run_round(2).n_new == 0
        assert set(tool._monitored) == set(SITES)


class TestRecordedData:
    def test_dns_counters(self, tool):
        tool.run_round(0)
        queried, v4, v6 = tool.database.dns_counts[0]
        assert queried == 4
        assert v4 == 4
        assert v6 == 3
        assert v6_reachability(tool.database.freeze(), 0) == pytest.approx(3 / 4)

    def test_page_check_blocks_different_content(self, tool):
        tool.run_round(0)
        sid = SITES["diffpages.example"]
        checks = tool.database.page_checks[sid]
        assert len(checks) == 1
        assert not checks[0].identical
        assert (sid, V4) not in tool.database.downloads

    def test_download_observations(self, tool):
        tool.run_round(0)
        sid = SITES["healthy.example"]
        for family in (V4, V6):
            rows = tool.database.downloads[(sid, family)]
            assert len(rows) == 1
            obs = rows[0]
            assert obs.converged
            assert obs.n_samples >= 5
            assert obs.mean_speed > 0
            assert obs.page_bytes == 40_000

    def test_path_observations(self, tool):
        tool.run_round(0)
        sid = SITES["slowv6.example"]
        cdb = tool.database.freeze()
        assert modal_as_path(cdb, sid, V4) == (1, 2)
        assert modal_as_path(cdb, sid, V6) == (1, 3, 4, 5, 6, 2)
        assert dest_asn(cdb, sid, V6) == 2

    def test_slow_v6_is_measurably_slower(self, tool):
        for round_idx in range(3):
            tool.run_round(round_idx)
        db = tool.database.freeze()
        sid = SITES["slowv6.example"]
        v4_mean = sum(converged_speeds(db, sid, V4)) / 3
        v6_mean = sum(converged_speeds(db, sid, V6)) / 3
        assert v6_mean < 0.7 * v4_mean

    def test_healthy_site_is_comparable(self, tool):
        for round_idx in range(3):
            tool.run_round(round_idx)
        db = tool.database.freeze()
        sid = SITES["healthy.example"]
        v4_mean = sum(converged_speeds(db, sid, V4)) / 3
        v6_mean = sum(converged_speeds(db, sid, V6)) / 3
        assert abs(v6_mean - v4_mean) / v4_mean < 0.1


class TestCap:
    def test_max_sites_per_round(self, mini_vantage, mini_env, monitor_config, mini_rng):
        tool = MonitoringTool(
            mini_vantage, mini_env, monitor_config, mini_rng, max_sites_per_round=2
        )
        report = tool.run_round(0)
        assert report.n_monitored == 2

    def test_negative_cap_rejected(self, mini_vantage, mini_env, monitor_config, mini_rng):
        with pytest.raises(MonitorError):
            MonitoringTool(
                mini_vantage, mini_env, monitor_config, mini_rng, max_sites_per_round=-1
            )
