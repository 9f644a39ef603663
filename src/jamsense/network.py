"""Node/jammer geometry, received jammer power, and the neighbor graph.

All jammers transmit from a single shared site, so a node's received
jammer SNR is the same on every channel.  Received power follows the
log-distance law pt_db + 10*phi*log10(d/d0) with a negative exponent phi
for attenuation.  Two nodes are neighbors when their distance is at most
the transmission range (boundary inclusive).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Annotated, Tuple

import numpy as np

from .schema import ConfigError, Range, read_back

# Rows of the pairwise-distance block `build_neighbor_graph` holds at once.
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class Placement:
    """Static scenario geometry (km) plus the propagation constants."""

    nodes: Tuple[Tuple[float, float], ...]
    jammer: Tuple[float, float] = (0.0, 0.0)
    range_km: Annotated[float, Range(0, open_lo=True)] = 0.45
    d0_km: Annotated[float, Range(0, open_lo=True)] = 0.05
    path_loss_exponent: float = -2.3
    jammer_power_db: float = 15.0

    def __post_init__(self) -> None:
        read_back(self)
        if not self.nodes:
            raise ConfigError("nodes: a placement needs at least one node")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@functools.lru_cache(maxsize=16)  # immutable, and building one reads every node back
def default_placement(n_nodes: int = 10) -> Placement:
    """Deterministic two-ring layout around a central jammer site.

    Nodes split between an inner ring (radius 0.3 km) and an outer ring
    (radius 0.6 km), evenly spaced, with the outer ring rotated half a
    step so outer nodes sit between inner ones.  With the default
    0.45 km transmission range and 10 nodes this yields a connected
    graph where inner nodes link to their ring neighbors and to the two
    closest outer nodes.
    """
    inner = (n_nodes + 1) // 2
    outer = n_nodes - inner
    nodes = []
    for i in range(inner):
        angle = 2.0 * math.pi * i / inner
        nodes.append((0.3 * math.cos(angle), 0.3 * math.sin(angle)))
    for i in range(outer):
        angle = 2.0 * math.pi * (i + 0.5) / outer
        nodes.append((0.6 * math.cos(angle), 0.6 * math.sin(angle)))
    return Placement(nodes=tuple(nodes))


def received_power_db(
    pt_db: float, distance_km: float, d0_km: float, exponent: float
) -> float:
    """Received power pt_db + 10*exponent*log10(d/d0); d must be > 0."""
    if distance_km <= 0:
        raise ValueError(f"distance must be > 0, got {distance_km}")
    if d0_km <= 0:
        raise ValueError(f"reference distance must be > 0, got {d0_km}")
    return pt_db + 10.0 * exponent * math.log10(distance_km / d0_km)


def jammer_distance_km(placement: Placement, node: int) -> float:
    x, y = placement.nodes[node]
    jx, jy = placement.jammer
    return math.hypot(x - jx, y - jy)


def snr_at_node(placement: Placement, node: int, noise_var: float = 1.0) -> float:
    """Linear received jammer SNR at the node: 10^(rx_db/10) / noise_var."""
    if not 0 <= node < placement.n_nodes:
        raise ValueError(f"node {node} out of range")
    if noise_var <= 0:
        raise ValueError(f"noise_var must be > 0, got {noise_var}")
    rx_db = received_power_db(
        placement.jammer_power_db,
        jammer_distance_km(placement, node),
        placement.d0_km,
        placement.path_loss_exponent,
    )
    return 10.0 ** (rx_db / 10.0) / noise_var


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Symmetric, irreflexive adjacency as one read-only "self, then
    neighbours" index in compressed sparse row form.

    Segment i of `fuse_index` starts at `fuse_starts[i]` and lists node i,
    then its neighbours in index order; `fuse_owner[k]` is the node whose
    segment holds entry k.  Per-node reductions over a node and its
    neighbours are one `reduceat` or `bincount` over these arrays, and
    `edges()` reads them on every call.  `build_neighbor_graph` builds the
    graph.
    """

    fuse_index: np.ndarray
    fuse_starts: np.ndarray
    fuse_owner: np.ndarray

    def __post_init__(self) -> None:
        for value in (self.fuse_index, self.fuse_starts, self.fuse_owner):
            value.flags.writeable = False

    def __reduce__(self):
        # Unpickled arrays are writeable; rebuilding through the constructor
        # makes them read-only again.
        return (NeighborGraph, (self.fuse_index, self.fuse_starts, self.fuse_owner))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighborGraph):
            return NotImplemented
        # The owners follow from the segment starts.
        return np.array_equal(self.fuse_starts, other.fuse_starts) and np.array_equal(
            self.fuse_index, other.fuse_index
        )

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Each edge (i, j) once, with i < j, in ascending order."""
        later = self.fuse_owner < self.fuse_index
        return tuple(
            zip(self.fuse_owner[later].tolist(), self.fuse_index[later].tolist())
        )


def build_neighbor_graph(placement: Placement) -> NeighborGraph:
    """Edge (i, j) iff euclidean distance <= transmission range, i != j.

    Neighbours are listed in index order.  The test is exactly symmetric,
    since x_i - x_j is -(x_j - x_i) and `hypot` ignores signs, so the
    edges need no symmetry check.
    """
    n = placement.n_nodes
    x, y = np.asarray(placement.nodes, dtype=float).T
    degrees, cols = [], []
    for lo in range(0, n, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        with np.errstate(over="ignore"):  # an overflow is inf, out of range
            distance = np.hypot(x[block, None] - x, y[block, None] - y)
        adj = distance <= placement.range_km
        diagonal = np.arange(len(adj))
        adj[diagonal, diagonal + lo] = False
        rows, block_cols = np.nonzero(adj)
        degrees.append(np.bincount(rows, minlength=len(adj)))
        cols.append(block_cols)
    # Node i lists degrees[i] neighbours, taken in order from cols.
    degrees = np.concatenate(degrees)
    starts = np.zeros(n, np.intp)
    np.cumsum(degrees[:-1] + 1, out=starts[1:])
    owner = np.repeat(np.arange(n), degrees + 1)
    index = owner.copy()
    is_neighbor = np.ones(index.size, dtype=bool)
    is_neighbor[starts] = False
    index[is_neighbor] = np.concatenate(cols)
    return NeighborGraph(fuse_index=index, fuse_starts=starts, fuse_owner=owner)
