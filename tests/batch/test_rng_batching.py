"""Property tests: bulk draws are element-identical to sequential draws.

The batched execution plane's whole bit-identity argument rests on these
primitives: ``RngStreams.uniforms`` / ``uniform_block`` must consume a
shared stream exactly as sequential ``random()`` calls would, and
``gauss_block`` must replicate CPython's Box-Muller partner caching.
"""

from __future__ import annotations

import random
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.sampling import gauss_block, uniform_block
from repro.rng import RngStreams

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
NAMES = st.text(
    alphabet=string.ascii_letters + string.digits + ":._-",
    min_size=1,
    max_size=24,
)
SIGMAS = st.floats(min_value=1e-3, max_value=8.0, allow_nan=False)
MUS = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestUniformBlocks:
    @given(seed=SEEDS, name=NAMES, n=st.integers(0, 200))
    @settings(max_examples=60)
    def test_uniforms_match_sequential_stream_draws(self, seed, name, n):
        bulk = RngStreams(seed)
        scalar = RngStreams(seed)
        assert bulk.uniforms(name, n) == [
            scalar.stream(name).random() for _ in range(n)
        ]
        # The stream advanced identically: the next draws still agree.
        assert bulk.stream(name).random() == scalar.stream(name).random()

    @given(seed=SEEDS, n=st.integers(0, 100))
    @settings(max_examples=40)
    def test_uniform_block_matches_sequential(self, seed, n):
        bulk = random.Random(seed)
        scalar = random.Random(seed)
        assert uniform_block(bulk, n) == [scalar.random() for _ in range(n)]
        assert bulk.random() == scalar.random()

    @given(seed=SEEDS, name=NAMES, n=st.integers(1, 50), child=NAMES)
    @settings(max_examples=40)
    def test_spawn_children_unaffected_by_parent_bulk_draws(
        self, seed, name, n, child
    ):
        drained = RngStreams(seed)
        pristine = RngStreams(seed)
        drained.uniforms(name, n)  # bulk-consume on one parent only
        assert (
            drained.spawn(child).master_seed
            == pristine.spawn(child).master_seed
        )
        assert drained.spawn(child).uniforms(name, 8) == pristine.spawn(
            child
        ).uniforms(name, 8)


class TestGaussBlocks:
    @given(
        seed=SEEDS,
        n=st.integers(0, 65),
        warmup=st.integers(0, 3),
        mu=MUS,
        sigma=SIGMAS,
    )
    @settings(max_examples=80)
    def test_gauss_block_matches_sequential(self, seed, n, warmup, mu, sigma):
        bulk = random.Random(seed)
        scalar = random.Random(seed)
        # A few scalar draws first, so blocks start both with and without
        # a cached Box-Muller partner.
        for _ in range(warmup):
            assert bulk.gauss(mu, sigma) == scalar.gauss(mu, sigma)
        assert gauss_block(bulk, n, mu, sigma) == [
            scalar.gauss(mu, sigma) for _ in range(n)
        ]
        # Partner cache and underlying stream both carry over exactly.
        assert bulk.gauss(mu, sigma) == scalar.gauss(mu, sigma)
        assert bulk.random() == scalar.random()

    @given(seed=SEEDS, blocks=st.lists(st.integers(0, 9), max_size=6))
    @settings(max_examples=40)
    def test_chained_blocks_match_one_sequential_run(self, seed, blocks):
        bulk = random.Random(seed)
        scalar = random.Random(seed)
        out = []
        for size in blocks:
            out.extend(gauss_block(bulk, size, 0.0, 1.5))
        assert out == [scalar.gauss(0.0, 1.5) for _ in range(sum(blocks))]
