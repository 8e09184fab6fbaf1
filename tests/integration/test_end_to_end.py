"""End-to-end integration: world -> campaign -> analysis -> findings.

These tests assert the paper's two headline findings hold in the small
scenario, plus consistency properties that cut across subsystems.
"""

from __future__ import annotations

import pytest

from repro.analysis.classify import SiteCategory
from repro.analysis.hypotheses import ASVerdict, verdict_fractions
from repro.data.series import v6_reachability
from repro.net.addresses import AddressFamily
from repro.net.tunnels import TunnelKind

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6

ANALYSIS_VANTAGES = ("Penn", "Comcast", "LU", "UPCB")


class TestHeadlineFindings:
    def test_h1_sp_ases_mostly_explained(self, small_data):
        """H1: on shared paths, v6 is comparable (or explained by servers)."""
        for name in ANALYSIS_VANTAGES:
            evaluations = small_data.context(name).sp_evaluations
            assert evaluations, f"{name} has no SP ASes"
            fractions = verdict_fractions(evaluations.values())
            explained = (
                fractions[ASVerdict.COMPARABLE]
                + fractions[ASVerdict.ZERO_MODE]
                + fractions[ASVerdict.SMALL_N]
            )
            assert explained >= 0.8, f"{name}: explained={explained:.2f}"

    def test_h2_dp_ases_mostly_worse(self, small_data):
        """H2: on differing paths, v6 is usually worse (pooled).

        Per-vantage DP populations are tiny in the miniature world, so
        the assertion pools destination ASes across vantage points; the
        per-vantage version runs at experiment scale in benchmarks/.
        """
        comparable = total = 0
        for name in ANALYSIS_VANTAGES:
            for evaluation in small_data.context(name).dp_evaluations.values():
                total += 1
                comparable += evaluation.verdict is ASVerdict.COMPARABLE
        assert total > 0
        assert comparable / total <= 0.5

    def test_h2_gap_between_sp_and_dp(self, small_data):
        sp_comparable = sp_total = dp_comparable = dp_total = 0
        for name in ANALYSIS_VANTAGES:
            for e in small_data.context(name).sp_evaluations.values():
                sp_total += 1
                sp_comparable += e.verdict is ASVerdict.COMPARABLE
            for e in small_data.context(name).dp_evaluations.values():
                dp_total += 1
                dp_comparable += e.verdict is ASVerdict.COMPARABLE
        assert sp_total > 0 and dp_total > 0
        assert sp_comparable / sp_total - dp_comparable / dp_total >= 0.25


class TestGroundTruthAgreement:
    """The analysis, which only sees measurements, recovers world truth."""

    def test_dl_classification_matches_catalog(self, small_data):
        world = small_data.world
        context = small_data.context("Penn")
        for sid in context.sites_in(SiteCategory.DL):
            site = world.catalog.site(sid)
            truth_dl = site.is_dl() or (
                world.dualstack.tunnel_of(site.v6_origin_asn) is not None
                and world.dualstack.tunnel_of(site.v6_origin_asn).kind
                is TunnelKind.SIX_TO_FOUR
            )
            assert truth_dl, f"site {sid} classified DL but is not"

    def test_sp_sites_have_equal_paths_in_db(self, small_data):
        context = small_data.context("Penn")
        for sid in context.sites_in(SiteCategory.SP)[:50]:
            c = context.classifications[sid]
            assert c.path_v4 == c.path_v6

    def test_zero_mode_sites_have_healthy_servers(self, small_data):
        world = small_data.world
        context = small_data.context("Penn")
        for evaluation in context.sp_evaluations.values():
            if evaluation.verdict is not ASVerdict.ZERO_MODE:
                continue
            for sid in evaluation.zero_mode_site_ids:
                assert not world.catalog.site(sid).server.v6_impaired

    def test_impaired_servers_measure_slower_v6(self, small_data):
        from repro.analysis.metrics import site_relative_difference

        world = small_data.world
        context = small_data.context("Penn")
        checked = 0
        for sid in context.sites_in(SiteCategory.SP):
            site = world.catalog.site(sid)
            if not site.server.v6_impaired:
                continue
            diff = site_relative_difference(context.db, sid)
            if diff is None:
                continue
            checked += 1
            assert diff < -0.05, f"impaired site {sid} measured diff {diff:.2f}"
        if checked == 0:
            pytest.skip("no impaired SP sites in this draw")

    def test_adoption_rounds_respected_by_monitor(self, small_data):
        """No v6 measurement exists before a site's adoption round."""
        world = small_data.world
        db = small_data.context("Penn").db
        first_rounds: dict = {}
        for sid, family, round_idx, *_ in db.table("downloads").rows():
            first_rounds.setdefault((sid, family), round_idx)
        for (sid, family), first_round in list(first_rounds.items())[:300]:
            if family != V6.value:
                continue
            site = world.catalog.site(sid)
            earliest = site.adoption_round
            if earliest is None:
                earliest = site.w6d_event_round
            assert earliest is not None and first_round >= earliest


class TestCrossVantageConsistency:
    def test_xchecks_mostly_positive(self, small_data):
        from repro.analysis.crosscheck import cross_check

        result = cross_check(
            {
                name: small_data.context(name).sp_evaluations
                for name in ANALYSIS_VANTAGES
            }
        )
        if result.checkable_ases == 0:
            pytest.skip("no cross-checkable ASes in this draw")
        assert result.positive >= result.negative

    def test_reachability_similar_across_vantages(self, small_data, small_cfg):
        last = small_cfg.campaign.n_rounds - 1
        values = [
            v6_reachability(small_data.campaign.repository.database(name), last)
            for name in ANALYSIS_VANTAGES
        ]
        assert max(values) - min(values) < 0.05
