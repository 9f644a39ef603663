"""Differential test: random configurations against the spec replay.

Every run must pass `check_structural_invariants`, which rebuilds each
logged quantity from the record's own inputs through the spec functions:
the jammer truth, the sensing cohorts and verdicts, both fusion stages,
the policy's actions and the transmit choices, each substream replayed
from a fresh generator.  Sizes reach 70 channels, so super-decision rows
span one to nine 64-bit words.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from invariants import check_structural_invariants
from jamsense.engine import SimConfig, run
from jamsense.network import Placement
from jamsense.policies import PolicyKind
from jamsense.sensing import FadingKind


@st.composite
def placements(draw, n_wn):
    """Nodes 0.02-1 km from the jammer (about 24 to -7 dB SNR), with a
    random transmission range; sometimes the last node sits beyond every
    other node's range."""
    range_km = draw(st.floats(0.05, 0.8))
    isolated = n_wn > 1 and draw(st.booleans())
    nodes = []
    for _ in range(n_wn - isolated):
        r = draw(st.floats(0.02, 1.0))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        nodes.append((r * math.cos(angle), r * math.sin(angle)))
    if isolated:
        nodes.append((0.0, -(1.0 + range_km + 0.1)))
    return Placement(nodes=tuple(nodes), range_km=range_km)


@st.composite
def configs(draw):
    n_wn = draw(st.integers(1, 40))
    return SimConfig(
        n_wn=n_wn,
        n_fb=draw(st.integers(1, 70)),
        horizon=draw(st.integers(1, 30)),
        fading=draw(st.sampled_from(FadingKind)),
        policy=draw(st.sampled_from(PolicyKind)),
        epsilon_n=draw(st.floats(0.0, 1.0)),
        placement=draw(placements(n_wn)),
        use_super_decision=draw(st.booleans()),
        shared_draw=draw(st.booleans()),
        global_cohort=draw(st.booleans()),
        grid_lookup=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
        replications=1,
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs())
def test_runs_equal_the_spec_replay(config):
    assert check_structural_invariants(run(config)) > 0
