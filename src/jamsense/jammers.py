"""Two-state Markov jammers, one per channel.

Each jammer is bound to a single channel and toggles between idle and
active: from idle it stays idle with probability `stay_idle`, from
active it stays active with probability `stay_active`.  The active set
of jammers is the ground-truth channel occupancy for the step.

Each chain owns its own named RNG substream (keyed by channel index), so
adding channels never perturbs the trajectories of existing ones.
Transitions are sampled once per time step, before sensing, so all
sub-slots of a step see one coherent truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import rng as rngmod


@dataclass
class JammerChain:
    """One channel's jammer process.

    stay_idle: probability of remaining idle at a step (idle -> active
        otherwise); stay_active: probability of remaining active
        (active -> idle otherwise).
    """

    stay_idle: float
    stay_active: float
    active: bool
    rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.stay_idle <= 1.0:
            raise ValueError(f"stay_idle={self.stay_idle} outside [0, 1]")
        if not 0.0 <= self.stay_active <= 1.0:
            raise ValueError(f"stay_active={self.stay_active} outside [0, 1]")


def init_chains(
    n_channels: int,
    bounds: Tuple[float, float] = (0.85, 0.98),
    seed: int = 0,
) -> List[JammerChain]:
    """Create one chain per channel with persistence drawn uniformly in bounds.

    Per chain, in a fixed order from its own substream: stay_idle,
    stay_active, then the initial state as a fair coin flip.
    """
    lo, hi = bounds
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"bounds {bounds} must satisfy 0 <= lo <= hi <= 1")
    if n_channels < 0:
        raise ValueError(f"n_channels must be >= 0, got {n_channels}")
    chains = []
    for k in range(n_channels):
        stream = rngmod.substream(seed, rngmod.JAMMER, k)
        stay_idle = lo + (hi - lo) * stream.random()
        stay_active = lo + (hi - lo) * stream.random()
        active = stream.random() < 0.5
        chains.append(
            JammerChain(
                stay_idle=stay_idle,
                stay_active=stay_active,
                active=active,
                rng=stream,
            )
        )
    return chains


def step(chain: JammerChain, rng: Optional[np.random.Generator] = None) -> bool:
    """Advance the chain one step and return the new state (True = active)."""
    stream = rng if rng is not None else chain.rng
    if stream is None:
        raise ValueError("chain has no RNG substream and none was provided")
    u = stream.random()
    if chain.active:
        chain.active = u < chain.stay_active
    else:
        chain.active = not (u < chain.stay_idle)
    return chain.active
