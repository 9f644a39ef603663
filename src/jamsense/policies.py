"""Channel-selection policies.

Three strategies are provided:

* pseudo-random: keep sensing a channel after observing a jammer on it;
  otherwise exploit a random neighbor's current channel with probability
  epsilon_n, else explore a channel that neither the node nor any
  neighbor is currently sensing.
* uniform: pick uniformly among all channels, ignoring observations.
* q-learning: a stateless per-node action-value baseline with
  epsilon-greedy selection and collaborative reward sharing.  This is a
  simplified reconstruction of a learning-based comparison scheme, not a
  faithful reimplementation of any published one; treat its results as a
  rough baseline only.

Each policy takes only the values it reads.  The choices are pure
functions of their arguments and the RNG stream: with a fixed seed and
fixed arguments they are replay-identical.  `update_q` is the one
exception to purity: it updates in place the table row it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Annotated, MutableSequence, Sequence

import numpy as np

from .fusion import Belief
from .schema import Range, read_back

_OCCUPIED = int(Belief.OCCUPIED)


class PolicyKind(Enum):
    PSEUDO_RANDOM = "pseudo_random"
    UNIFORM = "uniform"
    QLEARNING = "qlearning"


def choose_action_pseudo_random(
    own_action: int,
    observation: int,
    neighbor_channels: Sequence[int],
    n_channels: int,
    rng: np.random.Generator,
    epsilon_n: float,
) -> int:
    """Sticky/exploit/explore selection.

    `observation` is the Belief verdict of the channel just sensed, and
    `neighbor_channels` the channels the neighbours sense, in listed order:
    a list of ints or a memoryview slice of an integer array.

    1. After observing a jammer, sense the same channel again.
    2. Otherwise draw u ~ U(0,1); if u <= epsilon_n and there are
       neighbors, adopt a uniformly chosen neighbor's current channel.
    3. Otherwise pick uniformly among channels not currently sensed by
       the node or any neighbor; if that set is empty, fall back to any
       channel other than the node's own.
    """
    if not 0.0 <= epsilon_n <= 1.0:
        raise ValueError(f"epsilon_n={epsilon_n} outside [0, 1]")
    if observation == _OCCUPIED:
        return own_action
    u = rng.random()
    if u <= epsilon_n and neighbor_channels:
        return neighbor_channels[int(rng.integers(len(neighbor_channels)))]
    excluded = {own_action, *neighbor_channels}
    pool = [c for c in range(n_channels) if c not in excluded]
    if not pool:
        pool = [c for c in range(n_channels) if c != own_action]
    if not pool:  # single-channel band: nothing else to switch to
        return own_action
    return pool[int(rng.integers(len(pool)))]


def choose_action_uniform(n_channels: int, rng: np.random.Generator) -> int:
    """Uniform over all channels."""
    return int(rng.integers(n_channels))


@dataclass(frozen=True)
class QParams:
    """Bandit hyperparameters of the q-learning policy."""

    learning_rate: Annotated[float, Range(0, 1, open_lo=True)] = 0.1
    discount: Annotated[float, Range(0, 1, open_hi=True)] = 0.9
    epsilon: Annotated[float, Range(0, 1)] = 0.1

    def __post_init__(self) -> None:
        read_back(self)


def choose_action_qlearning(
    row: Sequence[float], q: QParams, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over one node's action values (ties: lowest index).

    `row` is a list of floats or a 1-d ndarray; either gives the same choice:
    the greedy pick is the first index that holds the row's max.
    """
    if rng.random() < q.epsilon:
        return int(rng.integers(len(row)))
    values = list(row)
    return values.index(max(values))


def update_q(
    q: QParams, row: MutableSequence[float], action: int, reward: float
) -> None:
    """One bandit-style update: Q += lr * (r + discount*max(row) - Q).

    The bootstrap max is taken over the row before the update.  `row` is
    one node's action values, a list of floats or a 1-d ndarray, updated in
    place; both give bit-identical values.  This is the spec of the update:
    the engine's q-learning kernel applies the same arithmetic inline and
    keeps each row's max instead of taking it anew per update.
    """
    best = max(row)
    row[action] += q.learning_rate * (reward + q.discount * best - row[action])
