"""The throughput model: determinism, monotonicity, noise structure."""

from __future__ import annotations

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.sampling import GaussTape
from repro.config import PerformanceConfig
from repro.dataplane.path import ForwardingPath
from repro.dataplane.performance import ThroughputModel
from repro.net.addresses import AddressFamily
from repro.rng import RngStreams

V4 = AddressFamily.IPV4
V6 = AddressFamily.IPV6


def path_of(hops: int, quality: float = 1.0, family=V4) -> ForwardingPath:
    return ForwardingPath(
        family=family,
        as_path=tuple(range(1, hops + 2)),
        quality=quality,
        tunnels=(),
        tunnel_quality=0.8,
    )


@pytest.fixture()
def model() -> ThroughputModel:
    return ThroughputModel(PerformanceConfig(), RngStreams(77))


class TestPathFactor:
    def test_one_hop_is_unit(self, model):
        assert model.path_factor(path_of(1)) == pytest.approx(1.0)

    def test_monotone_decreasing_in_hops(self, model):
        factors = [model.path_factor(path_of(h)) for h in range(1, 7)]
        assert factors == sorted(factors, reverse=True)

    def test_saturates(self, model):
        sat = model.config.hop_saturation
        assert model.path_factor(path_of(sat)) == pytest.approx(
            model.path_factor(path_of(sat + 3))
        )

    def test_quality_scales_linearly(self, model):
        assert model.path_factor(path_of(3, quality=0.5)) == pytest.approx(
            0.5 * model.path_factor(path_of(3, quality=1.0))
        )

    def test_family_blind(self, model):
        """H1 by construction: the model treats v4 and v6 packets alike."""
        assert model.path_factor(path_of(4, family=V4)) == pytest.approx(
            model.path_factor(path_of(4, family=V6))
        )


class TestRoundFactor:
    def test_deterministic_per_key(self, model):
        a = model.round_factor(5, V4, 3)
        b = model.round_factor(5, V4, 3)
        assert a == b

    def test_varies_across_rounds(self, model):
        values = {model.round_factor(5, V4, r) for r in range(20)}
        assert len(values) > 10

    def test_shared_across_model_instances(self):
        m1 = ThroughputModel(PerformanceConfig(), RngStreams(77))
        m2 = ThroughputModel(PerformanceConfig(), RngStreams(77))
        assert m1.round_factor(5, V4, 3) == m2.round_factor(5, V4, 3)

    def test_zero_sigma_disables_noise(self):
        config = PerformanceConfig(round_noise_sigma=0.0)
        model = ThroughputModel(config, RngStreams(77))
        assert model.round_factor(5, V4, 3) == 1.0


class TestSampling:
    def test_round_mean_speed_composition(self, model):
        path = path_of(3)
        speed = model.round_mean_speed(
            100.0, path, model.path_factor(path), site_id=5, round_idx=2
        )
        expected = 100.0 * model.path_factor(path) * model.round_factor(5, V4, 2)
        assert speed == pytest.approx(expected)

    def test_nonpositive_server_speed_rejected(self, model):
        with pytest.raises(ValueError):
            model.round_mean_speed(0.0, path_of(2), 1.0, 1, 1)

    def test_download_noise_is_unbiased(self, model):
        # The monitor's GETs sample round_mean * exp(g), g off the tape.
        tape = GaussTape(
            random.Random(4), model.config.measurement_noise_sigma, 1000
        )
        samples = [50.0 * math.exp(tape.one()) for _ in range(4000)]
        # Lognormal with small sigma: mean within ~2% of the round mean.
        assert statistics.mean(samples) == pytest.approx(50.0, rel=0.02)

    def test_server_base_speed_mean_matches_config(self, model):
        rng = random.Random(9)
        samples = [model.sample_server_base_speed(rng) for _ in range(6000)]
        assert statistics.mean(samples) == pytest.approx(
            model.config.server_base_speed_mean, rel=0.05
        )

    @given(st.integers(1, 12), st.floats(0.5, 1.5))
    @settings(max_examples=30, deadline=None)
    def test_speed_always_positive(self, hops, quality):
        model = ThroughputModel(PerformanceConfig(), RngStreams(1))
        path = path_of(hops, quality)
        speed = model.round_mean_speed(80.0, path, model.path_factor(path), 1, 1)
        assert speed > 0
