"""The mode matrix: small configs, one per engine mode the default-scenario
hash does not reach.

`tests/test_engine.py` pins each mode's record hash and replays it;
`tests/test_mutants.py` replays the same records from mutated engines.
"""

from __future__ import annotations

from jamsense.engine import SimConfig
from jamsense.network import Placement, default_placement
from jamsense.policies import PolicyKind
from jamsense.sensing import FadingKind

# Nine ring nodes plus one 0.6 km beyond the outer ring: node 9 has no
# neighbours, so its cohort, decision and super-decision involve it alone.
ISOLATED_PLACEMENT = Placement(
    nodes=default_placement(9).nodes + ((0.0, -1.2),)
)

# Rayleigh cohorts sum their members' log-miss values, so the pinned hashes
# of these modes also pin that order.
MODE_MATRIX = {
    "rayleigh-global": dict(n_wn=40, fading=FadingKind.RAYLEIGH, global_cohort=True),
    "rayleigh-local": dict(n_wn=40, fading=FadingKind.RAYLEIGH),
    "rayleigh-exact-independent": dict(
        n_wn=40, fading=FadingKind.RAYLEIGH, grid_lookup=False, shared_draw=False
    ),
    "independent-draws": dict(shared_draw=False),
    # Exact AWGN keeps n_wn detection columns, wider than the grid's 6.
    "awgn-exact": dict(n_wn=12, grid_lookup=False),
    "no-super-decision": dict(use_super_decision=False),
    "global-qlearning": dict(global_cohort=True, policy=PolicyKind.QLEARNING),
    "isolated-node": dict(placement=ISOLATED_PLACEMENT),
    "isolated-node-rayleigh": dict(
        placement=ISOLATED_PLACEMENT, fading=FadingKind.RAYLEIGH
    ),
    "one-channel": dict(n_fb=1),
    "uniform": dict(policy=PolicyKind.UNIFORM),
    "isolated-node-qlearning": dict(
        placement=ISOLATED_PLACEMENT, policy=PolicyKind.QLEARNING
    ),
}


def mode_config(mode: str) -> SimConfig:
    return SimConfig(horizon=60, seed=2025, replications=1, **MODE_MATRIX[mode])
