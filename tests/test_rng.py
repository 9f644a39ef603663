"""Seed derivation known answers, and WordDraws against numpy's Generator."""

import numpy as np
import pytest

from jamsense.rng import WordDraws, derive_seed, mix64

# Recorded values: the substream seeds of every existing trajectory.
MIX64_KNOWN = {
    0: 0x1E1CFA2F3FD4D502,
    1: 0xEB7B8EE588685ADC,
    2**64 - 1: 0xD27D853A99E0DC7C,
    0x0123456789ABCDEF: 0xA93D5216ACC960AB,
}
DERIVE_SEED_KNOWN = [
    ((0,), 0x0),
    ((2**64 - 1,), 0xFFFFFFFFFFFFFFFF),
    ((0, 1, 0), 0x74E9D942163AEA0F),
    ((42, 1, 7), 0x58BA442B33498DED),
    ((0, 4), 0xD9C2E34C8388EBF0),
    ((12345, 2, 3), 0x25EA5AE1A1F6DE93),
    ((2**64 + 5, 3), 0x180495A01AB51BC8),
]
# Bounds whose Lemire draw rejects often: the threshold (2**32 - k) % k is
# close to half of, or nearly all of, the 32-bit range.
HEAVY_REJECTION = (2**31 + 1, 3 * 2**30, 2**32 - 1)
BOUNDS = (1, 2, 3, 7, 10, 1000, *HEAVY_REJECTION, 2**32)


def pair(seed):
    """A Generator and a WordDraws over the same PCG64 stream."""
    return (
        np.random.Generator(np.random.PCG64(seed)),
        WordDraws(np.random.Generator(np.random.PCG64(seed))),
    )


@pytest.mark.parametrize("x, expected", sorted(MIX64_KNOWN.items()))
def test_mix64_known_answers(x, expected):
    assert mix64(x) == expected


def test_mix64_is_two_to_one():
    # The frozen second multiplier is even, so inputs that differ only in
    # bit 63 before that multiply collide, and so do the run seeds of every
    # replication of two master seeds.
    assert mix64(0x541F0DBE72C3535D) == mix64(0x816E44C8A1A3A290) == 0xE8272631F696F91E
    twins = (13791292389986077057, 7644238237854857292)
    for r in range(3):
        assert derive_seed(twins[0], 1, r) == derive_seed(twins[1], 1, r)


@pytest.mark.parametrize("args, expected", DERIVE_SEED_KNOWN)
def test_derive_seed_known_answers(args, expected):
    assert derive_seed(*args) == expected


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_draws_equal_generator(seed):
    # Derandomized: the call sequence comes from its own seeded stream.
    gen, words = pair(seed)
    script = np.random.default_rng(1000 + seed)
    for _ in range(3000):
        if script.random() < 0.3:
            assert words.random() == gen.random()
        else:
            k = BOUNDS[int(script.integers(len(BOUNDS)))]
            assert words.integers(k) == int(gen.integers(k))


@pytest.mark.parametrize("k", HEAVY_REJECTION)
def test_heavy_rejection_bounds_equal_generator(k):
    gen, words = pair(k)
    assert [words.integers(k) for _ in range(2000)] == [
        int(gen.integers(k)) for _ in range(2000)
    ]


def test_bound_one_consumes_nothing():
    gen, words = pair(3)
    assert [words.integers(1) for _ in range(100)] == [0] * 100
    assert words.random() == gen.random()
    assert words.integers(5) == int(gen.integers(5))


def test_kept_half_word_outlives_random_calls():
    # integers takes a word's low half and keeps the high half for the next
    # integers call, even across random() calls in between.
    gen, words = pair(4)
    for _ in range(50):
        assert words.integers(9) == int(gen.integers(9))
        assert words.random() == gen.random()
        assert words.random() == gen.random()


def test_long_sequences_cross_block_boundaries():
    # Several 512-word blocks of doubles, then of 32-bit draws.
    gen, words = pair(5)
    assert [words.random() for _ in range(1500)] == [gen.random() for _ in range(1500)]
    assert [words.integers(10) for _ in range(3000)] == [
        int(gen.integers(10)) for _ in range(3000)
    ]
    assert words.random() == gen.random()


def test_scalar_calls_equal_a_size_n_fill():
    # The engine's initial actions: n scalar draws equal one size=n draw.
    gen, words = pair(6)
    assert [words.integers(10) for _ in range(37)] == gen.integers(0, 10, size=37).tolist()


def test_takes_over_a_pending_half_word():
    gen, _ = pair(7)
    used = np.random.Generator(np.random.PCG64(7))
    assert int(used.integers(10)) == int(gen.integers(10))
    # `used` keeps its first word's high half for its next 32-bit draw.
    words = WordDraws(used)
    assert [words.integers(10) for _ in range(5)] == [
        int(gen.integers(10)) for _ in range(5)
    ]


@pytest.mark.parametrize("k", [0, -1, 2**32 + 1])
def test_bounds_outside_the_32_bit_range_raise(k):
    _, words = pair(8)
    with pytest.raises(ValueError):
        words.integers(k)
