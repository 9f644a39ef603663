"""OR-rule fusion of sensing observations into per-channel belief vectors.

Beliefs are tri-valued: UNKNOWN (no sensing information), VACANT, or
OCCUPIED.  The integer encoding 0 < 1 < 2 makes OR fusion an elementwise
max: a channel is occupied if any fused input says occupied, vacant if
any says vacant and none says occupied, and unknown otherwise.  Channels
left unknown are ignored when selecting a transmit channel.

A node first fuses its own (channel, verdict) pair with the pairs it
received from neighbours into a decision vector, then fuses its decision
vector with its neighbours' decision vectors into a super-decision
vector, which extends its information reach from one hop to two.  Both
functions take and return plain rows of ints, the node's own first; the
engine passes each node its segment of `NeighborGraph.fuse_index`.
"""

from __future__ import annotations

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


def fuse_observations(
    channels: Sequence[int], verdicts: Sequence[int], n_channels: int
) -> List[int]:
    """OR-fuse one node's (channel, verdict) pairs for one step.

    A channel is OCCUPIED if any pair on it says occupied, VACANT if all
    pairs on it say vacant, UNKNOWN with no pair.  Each verdict must be
    VACANT or OCCUPIED.
    """
    if len(channels) != len(verdicts):
        raise ValueError(f"{len(channels)} channels but {len(verdicts)} verdicts")
    beliefs = [_UNKNOWN] * n_channels
    for channel, verdict in zip(channels, verdicts):
        if verdict != _VACANT and verdict != _OCCUPIED:
            raise ValueError(f"verdict must be VACANT or OCCUPIED, got {verdict}")
        if not 0 <= channel < n_channels:
            raise ValueError(f"channel {channel} out of range")
        if verdict > beliefs[channel]:
            beliefs[channel] = int(verdict)
    return beliefs


def fuse_decisions(vectors: Sequence[Sequence[int]]) -> List[int]:
    """Elementwise OR of a node's own and its neighbours' decision rows.

    The engine computes every node's super vector at once, as one
    `np.maximum.reduceat` over `NeighborGraph.fuse_index`; this function is
    the reference the tests check those vectors against.
    """
    own = vectors[0]
    for vec in vectors[1:]:
        if len(vec) != len(own):
            raise ValueError(f"vector length {len(vec)} != {len(own)}")
    return np.max(np.asarray(vectors), axis=0).tolist()


def candidate_channels(beliefs: Sequence[int]) -> List[int]:
    """Channels a belief row marks vacant, ascending; empty means do not transmit."""
    return [c for c, b in enumerate(beliefs) if b == _VACANT]
