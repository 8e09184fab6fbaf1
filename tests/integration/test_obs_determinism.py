"""Observability must not perturb seeded results.

The whole instrumentation layer (spans, metrics, logging) reads wall
clocks and bumps counters but never touches a seeded RNG stream, so a
campaign's measured values are bit-identical with tracing enabled or
disabled.  This test runs the session fixture's exact scenario a second
time with full observability on and compares the H1/H2 verdicts.
"""

from __future__ import annotations

import logging

import pytest

from repro import obs
from repro.analysis.hypotheses import ASVerdict, verdict_fractions
from repro.core.campaign import run_campaign
from repro.core.world import build_world
from repro.experiments.scenario import build_contexts


@pytest.fixture()
def obs_enabled():
    """Enable tracing + verbose logging for one test, then restore."""
    obs.enable()
    root = logging.getLogger("repro")
    saved_level = root.level
    root.setLevel(logging.DEBUG)
    yield
    obs.disable()
    obs.get_tracer().reset()
    root.setLevel(saved_level)


def _verdicts(contexts) -> dict:
    out = {}
    for name, context in contexts.items():
        out[name] = (
            verdict_fractions(context.sp_evaluations.values()),
            verdict_fractions(context.dp_evaluations.values()),
        )
    return out


class TestObservabilityDeterminism:
    def test_traced_campaign_matches_untraced_fixture(
        self, small_cfg, small_campaign, small_data, obs_enabled
    ):
        # The session fixtures ran with tracing disabled; rebuild the same
        # seeded scenario with tracing + debug logging enabled.
        world = build_world(small_cfg)
        traced = run_campaign(world)
        contexts = build_contexts(small_cfg, traced)

        assert traced.total_measurements() == small_campaign.total_measurements()
        for name in small_campaign.repository.vantage_names:
            untraced_db = small_campaign.repository.database(name)
            traced_db = traced.repository.database(name)
            assert traced_db.row_counts() == untraced_db.row_counts()

        baseline = _verdicts(small_data.contexts)
        assert _verdicts(contexts) == baseline
        assert any(
            fractions[0].get(ASVerdict.COMPARABLE, 0) > 0
            for fractions in baseline.values()
        ), "fixture produced no comparable SP verdicts; test is vacuous"

    def test_tracer_saw_the_pipeline(
        self, small_cfg, obs_enabled
    ):
        tracer = obs.get_tracer()
        tracer.reset()
        world = build_world(small_cfg)
        run_campaign(world)
        names = {span.name for span in tracer.spans}
        assert "world.build" in names
        assert "campaign.round" in names
        assert "bgp.compute" in names
        registry = obs.get_registry()
        assert registry.counter("monitor.sites_monitored").value > 0
        assert registry.counter("dns.cache_misses").value > 0
        assert registry.gauge("monitor.slot_occupancy").max_value >= 1
