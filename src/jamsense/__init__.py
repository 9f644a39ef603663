"""Seeded simulator of collaborative spectrum sensing and jammer avoidance."""

__version__ = "0.1.0"

from .engine import (
    BatchResult,
    RunRecord,
    SimConfig,
    jdr_curve,
    run,
    run_batch,
    tsr_curve,
)
from .fusion import Belief
from .jammers import JammerChain, init_chains
from .network import NeighborGraph, Placement, build_neighbor_graph, default_placement
from .policies import PolicyKind, QParams
from .sensing import (
    DetectionParams,
    FadingKind,
    FalseAlarmTable,
    ProbabilityGrid,
    build_awgn_grid,
    build_rayleigh_grid,
    marcum_q,
    p_d_awgn,
    p_d_rayleigh_combined,
    p_d_rayleigh_single,
)

__all__ = [
    "BatchResult",
    "Belief",
    "DetectionParams",
    "FadingKind",
    "FalseAlarmTable",
    "JammerChain",
    "NeighborGraph",
    "Placement",
    "PolicyKind",
    "ProbabilityGrid",
    "QParams",
    "RunRecord",
    "SimConfig",
    "build_awgn_grid",
    "build_neighbor_graph",
    "build_rayleigh_grid",
    "default_placement",
    "init_chains",
    "jdr_curve",
    "marcum_q",
    "p_d_awgn",
    "p_d_rayleigh_combined",
    "p_d_rayleigh_single",
    "run",
    "run_batch",
    "tsr_curve",
]
