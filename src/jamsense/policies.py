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

Policies are pure functions of their inputs and the RNG stream: with a
fixed seed and fixed inputs they are replay-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .fusion import Belief

_OCCUPIED = int(Belief.OCCUPIED)


class PolicyKind(Enum):
    PSEUDO_RANDOM = "pseudo_random"
    UNIFORM = "uniform"
    QLEARNING = "qlearning"


@dataclass
class PolicyInput:
    """Everything a policy may look at when picking the next channel.

    Of its neighbours a node sees only the channels they are sensing.
    """

    node: int
    own_action: int
    observation: int  # Belief verdict of the channel just sensed
    neighbor_channels: Tuple[int, ...]  # neighbours' channels, in listed order
    n_channels: int
    rng: np.random.Generator


def choose_action_pseudo_random(inp: PolicyInput, epsilon_n: float = 0.1) -> int:
    """Sticky/exploit/explore selection.

    1. After observing a jammer, sense the same channel again.
    2. Otherwise draw u ~ U(0,1); if u <= epsilon_n and there are
       neighbors, adopt a uniformly chosen neighbor's current channel.
    3. Otherwise pick uniformly among channels not currently sensed by
       the node or any neighbor; if that set is empty, fall back to any
       channel other than the node's own.
    """
    if not 0.0 <= epsilon_n <= 1.0:
        raise ValueError(f"epsilon_n={epsilon_n} outside [0, 1]")
    if inp.observation == _OCCUPIED:
        return inp.own_action
    u = inp.rng.random()
    if u <= epsilon_n and inp.neighbor_channels:
        idx = int(inp.rng.integers(len(inp.neighbor_channels)))
        return inp.neighbor_channels[idx]
    excluded = {inp.own_action}
    excluded.update(inp.neighbor_channels)
    pool = [c for c in range(inp.n_channels) if c not in excluded]
    if not pool:
        pool = [c for c in range(inp.n_channels) if c != inp.own_action]
    if not pool:  # single-channel band: nothing else to switch to
        return inp.own_action
    return pool[int(inp.rng.integers(len(pool)))]


def choose_action_uniform(inp: PolicyInput) -> int:
    """Uniform over all channels, independent of observations and neighbors."""
    return int(inp.rng.integers(inp.n_channels))


@dataclass(frozen=True)
class QParams:
    """Bandit hyperparameters of the q-learning policy."""

    learning_rate: float = 0.1
    discount: float = 0.9
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate={self.learning_rate} outside (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount={self.discount} outside [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon={self.epsilon} outside [0, 1]")


def choose_action_qlearning(inp: PolicyInput, q: QParams, table: np.ndarray) -> int:
    """Epsilon-greedy over the node's action values (ties: lowest index)."""
    if inp.rng.random() < q.epsilon:
        return int(inp.rng.integers(inp.n_channels))
    return int(np.argmax(table[inp.node, : inp.n_channels]))


def update_q(
    q: QParams, table: np.ndarray, node: int, action: int, reward: float
) -> None:
    """One bandit-style update: Q += lr * (r + discount*max(Q_row) - Q).

    The bootstrap max is taken over the node's row before the update.
    `table` (nodes x channels) is updated in place.
    """
    row = table[node]
    best = float(row.max())
    row[action] += q.learning_rate * (reward + q.discount * best - row[action])
