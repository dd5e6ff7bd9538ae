"""GeneratorPool: batch-seeded generators must equal ``default_rng``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparksim import rngpool
from repro.sparksim.rngpool import FAST_SEEDING, GeneratorPool


def _drain(gen: np.random.Generator) -> tuple:
    """A draw sequence shaped like one batch candidate's consumption."""
    return (
        gen.lognormal(mean=0.0, sigma=0.25, size=7).tolist(),
        gen.random(7).tolist(),
        gen.exponential(scale=0.5, size=3).tolist(),
        float(gen.lognormal(mean=-0.01, sigma=0.14)),
    )


@pytest.fixture
def pool_every_batch(monkeypatch):
    """Drive the vectorized sweep even for small batches, which
    production hands to plain ``default_rng`` construction."""
    monkeypatch.setattr(rngpool, "_MIN_POOLED", 1)


def test_small_batches_take_plain_generators():
    pool = GeneratorPool()
    small = list(range(rngpool._MIN_POOLED - 1))
    got = pool.generators(small)
    assert not pool._gens            # the pool was never filled
    assert [_drain(g) for g in got] == \
        [_drain(np.random.default_rng(s)) for s in small]
    wide = list(range(rngpool._MIN_POOLED))
    got = [_drain(g) for g in pool.generators(wide)]
    assert len(pool._gens) == len(wide)
    assert got == [_drain(np.random.default_rng(s)) for s in wide]


@pytest.mark.usefixtures("pool_every_batch")
class TestFastSeeding:
    def test_verified_on_this_numpy(self):
        # The arithmetic replica must hold on the pinned toolchain; if
        # numpy ever changes its seeding this becomes the loud signal
        # that the pool silently fell back (still correct, just slower).
        assert FAST_SEEDING

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_state_matches_pcg64(self, seed):
        cols = [w.tolist() for w in rngpool._seed_words_vec([seed])]
        fast = rngpool._srandom(cols[0][0], cols[1][0], cols[2][0],
                                cols[3][0])
        assert fast == np.random.PCG64(seed).state

    def test_pool_draws_equal_default_rng(self):
        seeds = [0, 1, 17, 2**31, 2**63 - 1, 2**64 - 1, 42, 42]
        pool = GeneratorPool()
        got = [_drain(g) for g in pool.generators(seeds)]
        want = [_drain(np.random.default_rng(s)) for s in seeds]
        assert got == want

    def test_pool_is_reusable_across_batches(self):
        pool = GeneratorPool()
        for batch in ([3, 5, 7], [11], [13, 3, 5, 7, 999]):
            got = [_drain(g) for g in pool.generators(batch)]
            want = [_drain(np.random.default_rng(s)) for s in batch]
            assert got == want

    def test_out_of_range_seeds_fall_back(self):
        seeds = [2**64, 2**70 + 123, 5]
        got = [_drain(g) for g in GeneratorPool().generators(seeds)]
        want = [_drain(np.random.default_rng(s)) for s in seeds]
        assert got == want

    def test_fallback_when_fast_seeding_disabled(self, monkeypatch):
        monkeypatch.setattr(rngpool, "FAST_SEEDING", False)
        seeds = [1, 2, 3]
        got = [_drain(g) for g in GeneratorPool().generators(seeds)]
        want = [_drain(np.random.default_rng(s)) for s in seeds]
        assert got == want
