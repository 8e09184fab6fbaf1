"""Deterministic RNG streams."""

from __future__ import annotations

import random

from repro import obs
from repro.rng import RngStreams, derive_seed, derive_uniform


class TestDeriveSeed:
    def test_stable_mapping(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_differs_by_name_and_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_pinned_value(self):
        """SHA-256-derived: stable across Python versions and processes.
        A changed pin means every seeded scenario in the repo changed."""
        assert derive_seed(11, "adoption") == 18420719352658139260

    def test_memoised(self):
        before = derive_seed.cache_info().hits
        derive_seed(7, "memo-probe")
        derive_seed(7, "memo-probe")
        assert derive_seed.cache_info().hits > before


class TestDeriveUniform:
    def test_in_unit_interval(self):
        for idx in range(200):
            draw = derive_uniform(11, f"decision:{idx}")
            assert 0.0 <= draw < 1.0

    def test_deterministic(self):
        assert derive_uniform(11, "x") == derive_uniform(11, "x")
        assert derive_uniform(11, "x") != derive_uniform(11, "y")

    def test_matches_seed_bits(self):
        """The uniform is the top 53 bits of the derived seed — the same
        entropy a ``random.Random(seed).random()`` would consume, without
        constructing the generator."""
        seed = derive_seed(11, "x")
        assert derive_uniform(11, "x") == (seed >> 11) * (2.0**-53)

    def test_no_generator_constructed(self):
        obs.reset()
        counter = obs.metrics.counter("rng.constructions")
        derive_uniform(11, "counter-probe")
        assert counter.value == 0


class TestConstructionCounter:
    def test_stream_counts_first_construction_only(self):
        obs.reset()
        counter = obs.metrics.counter("rng.constructions")
        streams = RngStreams(42)
        streams.stream("x")
        streams.stream("x")
        assert counter.value == 1

    def test_fresh_counts_every_call(self):
        obs.reset()
        counter = obs.metrics.counter("rng.constructions")
        streams = RngStreams(42)
        streams.fresh("x")
        streams.fresh("x")
        assert counter.value == 2


class TestRngStreams:
    def test_same_name_returns_same_stream(self):
        streams = RngStreams(42)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_are_independent(self):
        a = RngStreams(42)
        b = RngStreams(42)
        # Consuming one stream must not perturb another.
        a.stream("noise").random()
        assert a.stream("signal").random() == b.stream("signal").random()

    def test_fresh_does_not_affect_cached(self):
        streams = RngStreams(42)
        cached_before = streams.stream("x").random()
        streams2 = RngStreams(42)
        streams2.fresh("x").random()
        streams2.fresh("x").random()
        assert streams2.stream("x").random() == cached_before

    def test_fresh_is_repeatable(self):
        streams = RngStreams(42)
        assert streams.fresh("x").random() == streams.fresh("x").random()

    def test_names_lists_created_streams(self):
        streams = RngStreams(42)
        streams.stream("a")
        streams.stream("b")
        assert set(streams.names()) == {"a", "b"}
