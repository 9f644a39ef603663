"""Structural per-step invariants recomputed from a full run record.

Used by the engine tests and the acceptance property suite: every check
reconstructs the quantity independently (from actions, the neighbor
graph, and raw observations) and compares against what the engine
recorded.
"""

from __future__ import annotations

import numpy as np

from jamsense import rng as rngmod
from jamsense.engine import JAMMED, SKIPPED, SUCCESSFUL, RunRecord
from jamsense.fusion import Belief, fuse_decisions, fuse_observations
from jamsense.network import NeighborGraph, build_neighbor_graph
from jamsense.policies import (
    PolicyInput,
    PolicyKind,
    choose_action_pseudo_random,
    choose_action_qlearning,
    choose_action_uniform,
    update_q,
)


def check_structural_invariants(record: RunRecord) -> int:
    """Raise AssertionError on any violation; return the number of checks."""
    config = record.config
    graph = build_neighbor_graph(config.resolved_placement())
    n, n_fb = config.n_wn, config.n_fb
    vacant, occupied = int(Belief.VACANT), int(Belief.OCCUPIED)
    checks = 0

    for t in range(len(record)):
        actions = record.actions[t]
        observations = record.observations[t]

        # One sensing action per node per step, always a valid channel.
        assert actions.shape == (n,)
        assert np.all((actions >= 0) & (actions < n_fb))
        assert np.all(
            (observations == Belief.VACANT) | (observations == Belief.OCCUPIED)
        )
        checks += 1

        # Cohort sizes: recomputed, bounded by 1 + degree (or node count
        # when the global-cohort flag is set).
        for i in range(n):
            if config.global_cohort:
                m = int(np.sum(actions == actions[i]))
                bound = n
            else:
                m = 1 + sum(
                    1 for j in graph.neighbors[i] if actions[j] == actions[i]
                )
                bound = 1 + graph.degree(i)
            assert record.cohorts[t, i] == m
            assert 1 <= m <= bound
            checks += 1

        # Decision vectors equal OR fusion of this step's observations.
        # Each node's inputs: itself, then its neighbours.
        members = [(i, *graph.neighbors[i]) for i in range(n)]
        channels, verdicts = actions.tolist(), observations.tolist()
        own = [
            fuse_observations([channels[j] for j in m], [verdicts[j] for j in m], n_fb)
            for m in members
        ]
        for i in range(n):
            assert np.array_equal(record.decisions[t, i], own[i])
            checks += 1

        # Super vectors equal OR fusion of this step's decision vectors.
        if record.supers is not None:
            for i in range(n):
                expected = fuse_decisions([own[j] for j in members[i]])
                assert np.array_equal(record.supers[t, i], expected)
                checks += 1

        # Transmission rules: at most one per node; only on channels the
        # governing vector marks vacant; skip exactly when no candidate;
        # outcome consistent with ground truth.  Each row is read once as a
        # Python list: comparing numpy scalars one channel at a time used to
        # cost most of this function.
        governing = record.supers if record.supers is not None else record.decisions
        truth = record.truth[t].tolist()
        for beliefs, channel, outcome in zip(
            governing[t].tolist(),
            record.transmits[t].tolist(),
            record.outcomes[t].tolist(),
        ):
            cands = [c for c in range(n_fb) if beliefs[c] == vacant]
            if channel < 0:
                assert outcome == SKIPPED
                assert not cands
            else:
                assert outcome in (SUCCESSFUL, JAMMED)
                assert beliefs[channel] == vacant
                assert channel in cands
                assert (outcome == JAMMED) == bool(truth[channel])
            checks += 1

        # Sticky rule of the pseudo-random policy: a jammer observation
        # forces the same channel next step.
        if config.policy is PolicyKind.PSEUDO_RANDOM and t + 1 < len(record):
            for i in range(n):
                if observations[i] == occupied:
                    assert record.actions[t + 1, i] == actions[i]
                    checks += 1
    return checks + _check_policy_replay(record, graph)


def _check_policy_replay(record: RunRecord, graph: NeighborGraph) -> int:
    """Replay the policy functions on a fresh policy stream; return the checks.

    Every action the record holds must be what the policy spec returns for
    the recorded step, with each node's input built from its neighbour list.
    Under q-learning each node's values are updated, from its own reward
    and then its neighbours', before any node picks.
    """
    config = record.config
    n, n_fb = config.n_wn, config.n_fb
    rng = rngmod.substream(record.run_seed, rngmod.POLICY)
    assert np.array_equal(rng.integers(0, n_fb, size=n), record.actions[0])
    q, table = config.qlearning, np.zeros((n, n_fb))
    choose = {
        PolicyKind.PSEUDO_RANDOM: lambda inp: choose_action_pseudo_random(
            inp, config.epsilon_n
        ),
        PolicyKind.UNIFORM: choose_action_uniform,
        PolicyKind.QLEARNING: lambda inp: choose_action_qlearning(inp, q, table),
    }[config.policy]
    occupied = int(Belief.OCCUPIED)
    checks = 1
    for t in range(len(record) - 1):
        actions = record.actions[t].tolist()
        observations = record.observations[t].tolist()
        next_actions = record.actions[t + 1].tolist()
        if config.policy is PolicyKind.QLEARNING:
            rewards = [1.0 if o == occupied else 0.0 for o in observations]
            for i in range(n):
                update_q(q, table, i, actions[i], rewards[i])
                for j in graph.neighbors[i]:
                    update_q(q, table, i, actions[j], rewards[j])
        for i in range(n):
            inp = PolicyInput(
                node=i,
                own_action=actions[i],
                observation=observations[i],
                neighbor_channels=tuple(actions[j] for j in graph.neighbors[i]),
                n_channels=n_fb,
                rng=rng,
            )
            assert choose(inp) == next_actions[i], (t, i)
            checks += 1
    return checks
