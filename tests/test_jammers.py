"""Jammer chain tests: initialization, transitions, long-run statistics."""

import numpy as np
import pytest

from jamsense.jammers import JammerChain, init_chains, step

# Pinned under the frozen seed-derivation contract (seed=123, bounds
# 0.85..0.98); regenerate only if the RNG contract itself changes.
PINNED_CHAINS_SEED123 = [
    (0.8626471569690569, 0.9533389325468611, True),
    (0.9384776410287542, 0.9467001060067615, True),
    (0.9738831163054547, 0.9735265559246122, True),
]


def test_degenerate_bounds():
    for chain in init_chains(8, (0.9, 0.9), seed=5):
        assert chain.stay_idle == 0.9
        assert chain.stay_active == 0.9


def test_pinned_chain_list():
    chains = init_chains(3, (0.85, 0.98), seed=123)
    got = [(c.stay_idle, c.stay_active, c.active) for c in chains]
    assert got == PINNED_CHAINS_SEED123


def test_zero_channels():
    assert init_chains(0, (0.85, 0.98), seed=1) == []


def test_one_chain_per_channel():
    assert len(init_chains(17, (0.85, 0.98), seed=1)) == 17


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        init_chains(3, (0.9, 0.8), seed=1)
    with pytest.raises(ValueError):
        init_chains(3, (-0.1, 0.5), seed=1)
    with pytest.raises(ValueError):
        init_chains(3, (0.5, 1.2), seed=1)


def test_adding_channels_preserves_existing_chains():
    # Per-channel substreams: chain k is identical whether 10 or 20
    # channels exist, including its whole trajectory.
    short = init_chains(10, (0.85, 0.98), seed=123)
    long = init_chains(20, (0.85, 0.98), seed=123)
    for a, b in zip(short, long):
        assert (a.stay_idle, a.stay_active, a.active) == (
            b.stay_idle, b.stay_active, b.active,
        )
    for _ in range(200):
        for a, b in zip(short, long):
            assert step(a) == step(b)


def test_absorbing_idle():
    chain = JammerChain(stay_idle=1.0, stay_active=0.5, active=False)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert step(chain, rng) is False


def test_certain_release_from_active():
    chain = JammerChain(stay_active=0.0, stay_idle=0.5, active=True)
    assert step(chain, np.random.default_rng(0)) is False


def test_symmetric_chain_half_active():
    chain = JammerChain(stay_idle=0.9, stay_active=0.9, active=False)
    rng = np.random.default_rng(42)
    active = sum(step(chain, rng) for _ in range(100_000))
    assert active / 100_000 == pytest.approx(0.5, abs=0.02)


def test_empirical_transition_frequencies():
    chain = JammerChain(stay_idle=0.9, stay_active=0.95, active=False)
    rng = np.random.default_rng(7)
    stay_idle = idle_visits = stay_active = active_visits = 0
    state = chain.active
    for _ in range(100_000):
        new = step(chain, rng)
        if state:
            active_visits += 1
            stay_active += new
        else:
            idle_visits += 1
            stay_idle += not new
        state = new
    assert stay_idle / idle_visits == pytest.approx(0.9, abs=0.01)
    assert stay_active / active_visits == pytest.approx(0.95, abs=0.01)


def test_chain_validation():
    with pytest.raises(ValueError):
        JammerChain(stay_idle=1.1, stay_active=0.5, active=False)
    with pytest.raises(ValueError):
        JammerChain(stay_idle=0.5, stay_active=-0.2, active=False)


def test_step_without_stream_rejected():
    chain = JammerChain(stay_idle=0.5, stay_active=0.5, active=False)
    with pytest.raises(ValueError):
        step(chain)
