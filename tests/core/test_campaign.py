"""Campaign drivers over the session-scoped small world."""

from __future__ import annotations

import pytest

from repro.core.campaign import run_world_ipv6_day
from repro.data.series import dual_stack_sites, v6_reachability
from repro.errors import ConfigError
from repro.net.addresses import AddressFamily

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


class TestRunCampaign:
    def test_all_vantages_registered(self, small_campaign, small_world):
        repo = small_campaign.repository
        assert set(repo.vantage_names) == {v.name for v in small_world.vantages}

    def test_reports_cover_every_round(self, small_campaign, small_cfg):
        for name, reports in small_campaign.reports.items():
            assert len(reports) == small_cfg.campaign.n_rounds

    def test_vantages_idle_before_start(self, small_campaign, small_world):
        for vantage in small_world.vantages:
            reports = small_campaign.reports[vantage.name]
            for report in reports[: vantage.start_round]:
                assert report.n_monitored == 0
            if vantage.start_round < len(reports):
                assert reports[vantage.start_round].n_monitored > 0

    def test_dual_stack_sites_measured_everywhere(self, small_campaign):
        repo = small_campaign.repository
        for name in repo.vantage_names:
            assert len(dual_stack_sites(repo.database(name))) > 0

    def test_total_measurements_positive(self, small_campaign):
        assert small_campaign.total_measurements() > 0

    def test_reachability_growth_over_campaign(self, small_campaign, small_cfg):
        db = small_campaign.repository.database("Penn")
        early = v6_reachability(db, 0)
        late = v6_reachability(db, small_cfg.campaign.n_rounds - 1)
        assert late > early

    def test_w6d_jump_visible(self, small_campaign, small_cfg):
        db = small_campaign.repository.database("Penn")
        w6d = small_cfg.adoption.world_ipv6_day_round
        before = v6_reachability(db, w6d - 1)
        during = v6_reachability(db, w6d)
        assert during > before


class TestMeasuredPerformanceStructure:
    def test_measured_speeds_positive_and_sane(self, small_campaign):
        db = small_campaign.repository.database("Penn")
        for speed in db.table("downloads").column("mean_speed").values:
            assert 0 < speed < 10_000

    def test_dest_ases_match_recorded_paths(self, small_campaign):
        db = small_campaign.repository.database("Penn")
        for _, _, _, dest_asn, as_path in db.table("paths").rows():
            assert as_path[-1] == dest_asn


class TestWorldIpv6Day:
    def test_participant_roster_is_monitored(self, small_w6d, small_world):
        participants = {s.site_id for s in small_world.catalog.w6d_participants()}
        if not participants:
            pytest.skip("no participants in this draw")
        db = small_w6d.campaign.repository.database("Penn")
        measured = set(dual_stack_sites(db))
        assert measured <= participants
        assert measured  # most participants are measurable during the event

    def test_default_vantages_exclude_comcast(self, small_w6d):
        assert "Comcast" not in small_w6d.campaign.repository.vantage_names

    def test_rounds_run_to_completion(self, small_w6d):
        for reports in small_w6d.campaign.reports.values():
            assert len(reports) == 24

    def test_custom_vantage_subset(self, small_campaign):
        result = run_world_ipv6_day(
            small_campaign.world, vantage_names=("LU",), n_rounds=4
        )
        assert result.repository.vantage_names == ["LU"]

    def test_unknown_vantage_name_is_rejected(self, small_world):
        with pytest.raises(ConfigError, match="Atlantis"):
            run_world_ipv6_day(
                small_world, vantage_names=("LU", "Atlantis"), n_rounds=1
            )
