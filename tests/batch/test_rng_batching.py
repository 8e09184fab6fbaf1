"""Property tests: bulk draws are element-identical to sequential draws.

The batched execution plane's whole bit-identity argument rests on these
primitives: ``RngStreams.uniforms`` / ``uniform_block`` must consume a
shared stream exactly as sequential ``random()`` calls would,
``gauss_block`` must replicate CPython's Box-Muller partner caching, and
a round's ``GaussTape`` must read the stream exactly as one ``gauss``
call per draw would, whatever its reservation.
"""

from __future__ import annotations

import random
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.sampling import GaussTape, gauss_block, uniform_block
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


class TestGaussTape:
    @given(
        seed=SEEDS,
        warmup=st.integers(0, 3),
        reads=st.integers(0, 40),
        reserve_share=st.floats(0.0, 1.0),
        sigma=SIGMAS,
        rounds=st.integers(1, 3),
    )
    @settings(max_examples=120)
    def test_tape_reads_match_sequential_gauss(
        self, seed, warmup, reads, reserve_share, sigma, rounds
    ):
        """Reservations from 0 up to every read, refills past them, and a
        cached partner left at the start or the end of a tape."""
        taped = random.Random(seed)
        scalar = random.Random(seed)
        for _ in range(warmup):
            assert taped.gauss(0.0, sigma) == scalar.gauss(0.0, sigma)
        for round_no in range(rounds):
            n = reads + round_no  # odd and even totals across rounds
            tape = GaussTape(taped, sigma, int(reserve_share * n))
            assert [tape.one() for _ in range(n)] == [
                scalar.gauss(0.0, sigma) for _ in range(n)
            ]
            # The stream ends the tape exactly where sequential draws
            # leave it, the cached partner included.
            assert taped.getstate() == scalar.getstate()

    @given(seed=SEEDS, reads=st.integers(0, 20), reserved=st.integers(0, 20))
    @settings(max_examples=30)
    def test_noise_off_reads_zero_and_leaves_the_stream(
        self, seed, reads, reserved
    ):
        rng = random.Random(seed)
        state = rng.getstate()
        tape = GaussTape(rng, 0.0, reserved)
        assert [tape.one() for _ in range(reads)] == [0.0] * reads
        assert rng.getstate() == state
