"""Deterministic seed derivation and named PRNG substreams.

Every random draw in a simulation comes from a PCG64 generator whose seed
is derived from the master seed with `mix64`, a splitmix64-style finalizer
with a non-standard second multiplier.  That multiplier is even, so `mix64`
maps exactly two inputs to each of its 2**63 outputs (see its docstring).
The derivation below is part of the reproducibility contract (see README):
identical (seed, path) pairs always yield identical streams, and the
streams for distinct paths are independent for practical purposes.

Purpose tags are stable; renumbering them would silently change every
simulation trajectory, so never do that.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Substream purpose tags (frozen contract).
REPLICATION = 1  # per-replication run seed
JAMMER = 2       # one stream per jammer chain, keyed by channel index
SENSING = 3      # per-step sensing noise draws
POLICY = 4       # action selection draws (incl. initial actions)
TRANSMIT = 5     # transmit-channel choice among candidates


def mix64(x: int) -> int:
    """Scramble a 64-bit integer with a splitmix64-style finalizer.

    The second multiplier, 0x94D4A13CD491BDE6, is not splitmix64's
    0x94D049BB133111EB.  It is even, so its multiply drops the top bit of
    its input, and `mix64` is not bijective: x and the x' that differs from
    it before that multiply only in bit 63 collide, for example
    mix64(0x541F0DBE72C3535D) == mix64(0x816E44C8A1A3A290).  Every
    substream seed of every pinned trajectory goes through this constant,
    so it is frozen.
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D4A13CD491BDE6) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Fold integer path components into `seed`, one mix per component.

    derive_seed(s) == s & 2**64-1; each component c maps the running seed
    through mix64(seed ^ mix64(c)).
    """
    s = seed & _MASK64
    for component in path:
        s = mix64(s ^ mix64(component & _MASK64))
    return s


def substream(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the substream identified by (seed, path)."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *path)))


_BLOCK = 512               # raw words fetched per refill
_TWO_M53 = 1.0 / (1 << 53)
_MASK32 = (1 << 32) - 1


class WordDraws:
    """`random()` and `integers(k)` served from a PCG64 stream's raw words.

    Value for value equal to the same calls on the `Generator` it wraps,
    which it advances in blocks of raw words, so that generator must not be
    drawn from afterwards.  `random()` is numpy's `(w >> 11) * 2**-53`.
    `integers(k)` is numpy's bounded draw for a 32-bit range (Lemire, ACM
    TOMACS 2019): each 32-bit value is the low half of a fresh word, then
    the high half kept from it, and this kept half outlives `random()`
    calls, as in numpy; k == 1 consumes nothing.
    """

    def __init__(self, gen: np.random.Generator):
        bit_gen = gen.bit_generator
        self._raw = bit_gen.random_raw
        state = bit_gen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._pop = [].pop

    def _refill(self) -> int:
        words = self._raw(_BLOCK).tolist()
        words.reverse()
        self._pop = words.pop
        return words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            w = self._pop()
        except IndexError:
            w = self._refill()
        self._half = w >> 32
        return w & _MASK32

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        try:
            w = self._pop()
        except IndexError:
            w = self._refill()
        return (w >> 11) * _TWO_M53

    def integers(self, k: int) -> int:
        """Uniform integer in [0, k), for 1 <= k <= 2**32."""
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"integers(k) needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0
        m = self._uint32() * k
        if m & _MASK32 < k:
            threshold = ((1 << 32) - k) % k
            while m & _MASK32 < threshold:
                m = self._uint32() * k
        return m >> 32
