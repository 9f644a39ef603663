"""OR-rule fusion of sensing observations into per-channel belief vectors.

Beliefs are tri-valued: UNKNOWN (no sensing information), VACANT, or
OCCUPIED.  The integer encoding 0 < 1 < 2 makes OR fusion an elementwise
max: a channel is occupied if any fused input says occupied, vacant if
any says vacant and none says occupied, and unknown otherwise.  Channels
left unknown are ignored when selecting a transmit channel.

A node first fuses its own observation with the observations it received
from neighbors (decision vector), then fuses its decision vector with
its neighbors' decision vectors (super-decision vector), which extends
its information reach from one hop to two.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import List, Sequence

import numpy as np


class Belief(IntEnum):
    UNKNOWN = 0
    VACANT = 1
    OCCUPIED = 2


# Plain-int aliases for hot loops (enum attribute access is not free).
_UNKNOWN = int(Belief.UNKNOWN)
_VACANT = int(Belief.VACANT)
_OCCUPIED = int(Belief.OCCUPIED)


@dataclass(frozen=True)
class Observation:
    """One node's verdict about the single channel it sensed this step."""

    node: int
    channel: int
    verdict: int  # Belief.VACANT or Belief.OCCUPIED
    time: int

    def __post_init__(self) -> None:
        if self.verdict not in (_VACANT, _OCCUPIED):
            raise ValueError(f"verdict must be VACANT or OCCUPIED, got {self.verdict}")


@dataclass
class DecisionVector:
    """Per-channel beliefs held by `owner` at step `time`."""

    beliefs: np.ndarray  # int8, shape (n_channels,)
    owner: int
    time: int

    def __len__(self) -> int:
        return len(self.beliefs)


class SuperDecisionVector(DecisionVector):
    """Second-stage fusion of decision vectors; same shape and encoding."""


def fuse_observations(
    own: Observation, shared: Sequence[Observation], n_channels: int
) -> DecisionVector:
    """OR-fuse the node's own and received observations for one step.

    A channel is OCCUPIED if any observation on it says occupied, VACANT
    if all observations on it say vacant, UNKNOWN with no observation.
    Mixing observations from different steps is a contract violation.
    """
    beliefs = [_UNKNOWN] * n_channels
    time = own.time
    for obs in (own, *shared):
        if obs.time != time:
            raise ValueError(
                f"observation from step {obs.time} fused into step {time}"
            )
        channel = obs.channel
        if not 0 <= channel < n_channels:
            raise ValueError(f"channel {channel} out of range")
        if obs.verdict > beliefs[channel]:
            beliefs[channel] = int(obs.verdict)
    return DecisionVector(
        beliefs=np.asarray(beliefs, dtype=np.int8), owner=own.node, time=time
    )


def fuse_decisions(
    own: DecisionVector, neighbor_vectors: Sequence[DecisionVector]
) -> SuperDecisionVector:
    """Elementwise OR of decision vectors with UNKNOWN as neutral element.

    The engine computes every node's super vector at once, as one
    `np.maximum.reduceat` over `NeighborGraph.fuse_index`; this function is
    the reference the tests check those vectors against.
    """
    merged = own.beliefs.copy()
    for vec in neighbor_vectors:
        if len(vec.beliefs) != len(merged):
            raise ValueError(
                f"vector length {len(vec.beliefs)} != {len(merged)}"
            )
        if vec.time != own.time:
            raise ValueError(
                f"decision vector from step {vec.time} fused into step {own.time}"
            )
        np.maximum(merged, vec.beliefs, out=merged)
    return SuperDecisionVector(beliefs=merged, owner=own.owner, time=own.time)


def candidate_channels(beliefs: Sequence[int]) -> List[int]:
    """Channels a belief row marks vacant, ascending; empty means do not transmit."""
    return [c for c, b in enumerate(beliefs) if b == _VACANT]
