"""Structural per-step invariants recomputed from a full run record.

Used by the engine tests and the acceptance property suite: every check
reconstructs the quantity independently (from actions, the neighbour rows
of `oracles.neighbor_rows_loop`, and raw observations) and compares
against what the engine recorded, so the engine's own graph is checked
too.  The jammer truth, the sensing verdicts, the policy's actions
and the transmit channels are replayed step by step from fresh
substreams through the spec functions and the detection tables.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

from jamsense import rng as rngmod
from jamsense.engine import JAMMED, SKIPPED, SUCCESSFUL, RunRecord, SimConfig
from jamsense.fusion import (
    Belief,
    candidate_channels,
    fuse_decisions,
    fuse_observations,
)
from jamsense.jammers import init_chains, step as step_chain
from jamsense.network import snr_at_node
from jamsense.policies import (
    PolicyKind,
    choose_action_pseudo_random,
    choose_action_qlearning,
    choose_action_uniform,
    update_q,
)
from jamsense.sensing import (
    FadingKind,
    build_awgn_grid,
    build_rayleigh_grid,
    false_alarm_probability,
    p_d_awgn,
    p_d_rayleigh_single,
)
from oracles import edges_loop, neighbor_rows_loop


def check_structural_invariants(record: RunRecord) -> int:
    """Raise AssertionError on any violation; return the number of checks."""
    config = record.config
    neighbors = neighbor_rows_loop(config.resolved_placement())
    assert record.graph.edges() == edges_loop(neighbors)
    n, n_fb = config.n_wn, config.n_fb
    vacant, occupied = int(Belief.VACANT), int(Belief.OCCUPIED)
    checks = 1

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

        # Decision vectors equal OR fusion of this step's observations.
        # Each node's inputs: itself, then its neighbours.
        members = [(i, *neighbors[i]) for i in range(n)]
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
    return (
        checks
        + _check_truth_replay(record)
        + _check_sensing_replay(record, neighbors)
        + _check_policy_replay(record, neighbors)
        + _check_transmit_replay(record)
    )


def _check_truth_replay(record: RunRecord) -> int:
    """Replay every jammer chain from its own fresh substream; return the checks.

    The chains step together, once per step after the first, as in the
    model's time line.
    """
    config = record.config
    chains = init_chains(config.n_fb, config.jammer_bounds, record.run_seed)
    assert record.chain_params == tuple(
        (c.stay_idle, c.stay_active, c.active) for c in chains
    )
    for t in range(len(record)):
        if t > 0:
            for chain in chains:
                step_chain(chain)
        assert record.truth[t].tolist() == [c.active for c in chains], t
    return 1 + len(record)


def spec_detection(config: SimConfig) -> Tuple[np.ndarray, Callable[[int, int], float]]:
    """Each node's jammer SNR in dB, and p_d(i, m) from the spec functions.

    p_d is node i's detection probability at cohort size m under AWGN, and
    its single-node value, whatever m, under Rayleigh fading: the grid's
    nearest-SNR lookup with `grid_lookup`, the exact expression otherwise.
    """
    params = config.detection
    placement = config.resolved_placement()
    snr = [snr_at_node(placement, i, params.sigma2) for i in range(config.n_wn)]
    with np.errstate(divide="ignore"):
        snr_db = 10.0 * np.log10(snr)
    awgn = config.fading is FadingKind.AWGN
    if config.grid_lookup:
        snr_range = (
            config.grid_snr_min_db, config.grid_snr_max_db, config.grid_snr_step_db
        )
        grid = (
            build_awgn_grid(params, *snr_range, config.grid_m_max)
            if awgn
            else build_rayleigh_grid(params, *snr_range)
        )
        return snr_db, lambda i, m: grid.lookup(snr_db[i], m if awgn else 1)
    if awgn:
        return snr_db, lambda i, m: p_d_awgn(params, snr[i], m)
    return snr_db, lambda i, m: p_d_rayleigh_single(params, snr[i])


def _check_sensing_replay(record: RunRecord, neighbors: tuple) -> int:
    """Replay every cohort and verdict on a fresh sensing stream; return the checks.

    Each step draws `random(n_fb)` with a shared draw, where a node reads
    its channel's value, and `random(n)` otherwise, where node i reads value
    i.  A node's cohort is itself and its neighbours on its channel (with a
    global cohort, every node on its channel, in index order).  The node
    reports OCCUPIED exactly when its value is below its probability: p_d
    at its cohort size m if the channel is jammed, p_fa at m if not.  Under
    Rayleigh fading p_d is 1 - exp(sum of log(1 - p_j)) over the cohort
    members' single-node values, summed in cohort order.
    """
    config = record.config
    n, n_fb = config.n_wn, config.n_fb
    awgn = config.fading is FadingKind.AWGN
    snr_db, p_d = spec_detection(config)
    assert record.snr_db == tuple(snr_db.tolist())
    # Exact AWGN values cost a Marcum Q series each; compute each (i, m) once.
    p_d = functools.lru_cache(maxsize=None)(p_d)

    rng = rngmod.substream(record.run_seed, rngmod.SENSING)
    checks = 0
    for t in range(len(record)):
        draws = rng.random(n_fb if config.shared_draw else n).tolist()
        actions = record.actions[t].tolist()
        for i, channel in enumerate(actions):
            if config.global_cohort:
                cohort = [j for j in range(n) if actions[j] == channel]
            else:
                cohort = [i] + [j for j in neighbors[i] if actions[j] == channel]
            m = len(cohort)
            assert record.cohorts[t, i] == m, (t, i)
            if not record.truth[t, channel]:
                p = false_alarm_probability(config.false_alarm, config.fading, m)
            elif awgn:
                p = p_d(i, m)
            else:
                p = -math.expm1(sum(math.log1p(-p_d(j, 1)) for j in cohort))
            u = draws[channel] if config.shared_draw else draws[i]
            expected = Belief.OCCUPIED if u < p else Belief.VACANT
            assert record.observations[t, i] == expected, (t, i)
            checks += 1
    return checks


def _check_transmit_replay(record: RunRecord) -> int:
    """Replay every transmit choice on a fresh transmit stream; return the checks.

    In (step, node) order, a node with candidates draws one of them
    uniformly from its governing row; a node with none skips and draws
    nothing.
    """
    rng = rngmod.substream(record.run_seed, rngmod.TRANSMIT)
    governing = record.supers if record.supers is not None else record.decisions
    checks = 0
    for t in range(len(record)):
        for i, beliefs in enumerate(governing[t].tolist()):
            cands = candidate_channels(beliefs)
            expected = cands[rng.integers(len(cands))] if cands else -1
            assert record.transmits[t, i] == expected, (t, i)
            checks += 1
    return checks


def _check_policy_replay(record: RunRecord, neighbors: tuple) -> int:
    """Replay the policy functions on a fresh policy stream; return the checks.

    Every action the record holds must be what the policy spec returns for
    the recorded step, with each node's neighbour channels read from its
    neighbour list.
    Under q-learning each node's values are updated, from its own reward
    and then its neighbours', before any node picks.
    """
    config = record.config
    n, n_fb = config.n_wn, config.n_fb
    rng = rngmod.substream(record.run_seed, rngmod.POLICY)
    assert np.array_equal(rng.integers(0, n_fb, size=n), record.actions[0])
    q, table = config.qlearning, np.zeros((n, n_fb))
    occupied = int(Belief.OCCUPIED)
    checks = 1
    for t in range(len(record) - 1):
        actions = record.actions[t].tolist()
        observations = record.observations[t].tolist()
        next_actions = record.actions[t + 1].tolist()
        if config.policy is PolicyKind.QLEARNING:
            rewards = [1.0 if o == occupied else 0.0 for o in observations]
            for i in range(n):
                update_q(q, table[i], actions[i], rewards[i])
                for j in neighbors[i]:
                    update_q(q, table[i], actions[j], rewards[j])
        for i in range(n):
            if config.policy is PolicyKind.PSEUDO_RANDOM:
                choice = choose_action_pseudo_random(
                    actions[i],
                    observations[i],
                    [actions[j] for j in neighbors[i]],
                    n_fb,
                    rng,
                    config.epsilon_n,
                )
            elif config.policy is PolicyKind.UNIFORM:
                choice = choose_action_uniform(n_fb, rng)
            else:
                choice = choose_action_qlearning(table[i], q, rng)
            assert choice == next_actions[i], (t, i)
            checks += 1
    return checks
