"""The spec replay of a run record: every logged array rebuilt and compared whole.

Used by the engine tests, the differential test and the acceptance property
suite.  Each stage rebuilds one logged array from the record's own logged
inputs through the spec functions and the detection tables, replaying each
substream from a fresh generator, and compares it once with what the engine
logged.  A stage reads the logs, not another stage's replay, so a failure
names the stage at fault.  Neighbour rows come from
`oracles.neighbor_rows_loop`, so the engine's own graph is checked too.
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
    """Raise AssertionError unless every logged array equals its spec replay;
    return the number of entries compared."""
    config = record.config
    neighbors = neighbor_rows_loop(config.resolved_placement())
    edges = edges_loop(neighbors)
    assert record.graph.edges() == edges, "graph edges"
    chains = init_chains(config.n_fb, config.jammer_bounds, record.run_seed)
    chain_params = tuple((c.stay_idle, c.stay_active, c.active) for c in chains)
    assert record.chain_params == chain_params, "chain_params"
    snr_db, p_d = spec_detection(config)
    assert record.snr_db == tuple(snr_db.tolist()), "snr_db"
    assert (record.supers is None) == (not config.use_super_decision), "supers"

    entries = len(edges) + len(chain_params) + len(snr_db)
    # The chains step together, once per step after the first.
    truth = [[c.active for c in chains]]
    truth += [[step_chain(c) for c in chains] for _ in range(len(record) - 1)]
    entries += _compare("truth", record.truth, truth)
    cohorts, observations = _replay_sensing(record, neighbors, p_d)
    entries += _compare("cohorts", record.cohorts, cohorts)
    entries += _compare("observations", record.observations, observations)

    # Each node fuses itself, then its neighbours, in both fusion stages.
    members = [[i, *neighbors[i]] for i in range(config.n_wn)]
    actions, verdicts = record.actions.tolist(), record.observations.tolist()
    decisions = [
        [
            fuse_observations([a[j] for j in m], [v[j] for j in m], config.n_fb)
            for m in members
        ]
        for a, v in zip(actions, verdicts)
    ]
    entries += _compare("decisions", record.decisions, decisions)
    if record.supers is not None:
        supers = [[fuse_decisions(d[m]) for m in members] for d in record.decisions]
        entries += _compare("supers", record.supers, supers)

    entries += _compare("actions", record.actions, _replay_actions(record, neighbors))
    governing = record.decisions if record.supers is None else record.supers
    transmits = _replay_transmits(record, governing)
    entries += _compare("transmits", record.transmits, transmits)
    # Skipped without a transmit; otherwise jammed exactly when the chosen
    # channel's jammer is active.
    outcomes = [
        [SKIPPED if c < 0 else JAMMED if active[c] else SUCCESSFUL for c in row]
        for active, row in zip(record.truth.tolist(), record.transmits.tolist())
    ]
    return entries + _compare("outcomes", record.outcomes, outcomes)


def _compare(name: str, logged: np.ndarray, spec) -> int:
    """Assert that a logged array equals its spec replay; return its size.

    A mismatch names the array, its first differing index and both values.
    """
    spec = np.asarray(spec)
    assert logged.shape == spec.shape, f"{name}: {logged.shape}, spec {spec.shape}"
    differ = np.argwhere(logged != spec)
    at = tuple(differ[0].tolist()) if len(differ) else None
    assert at is None, f"{name}{list(at)}: logged {logged[at]}, spec {spec[at]}"
    return logged.size


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


def _replay_sensing(record: RunRecord, neighbors: tuple, p_d: Callable) -> tuple:
    """Every cohort size and verdict, on a fresh sensing stream.

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
    vacant, occupied = int(Belief.VACANT), int(Belief.OCCUPIED)
    # Exact AWGN values cost a Marcum Q series each; compute each (i, m) once.
    p_d = functools.lru_cache(maxsize=None)(p_d)
    rng = rngmod.substream(record.run_seed, rngmod.SENSING)
    cohorts, observations = [], []
    for actions, truth in zip(record.actions.tolist(), record.truth.tolist()):
        draws = rng.random(n_fb if config.shared_draw else n).tolist()
        sizes, verdicts = [], []
        for i, channel in enumerate(actions):
            if config.global_cohort:
                cohort = [j for j in range(n) if actions[j] == channel]
            else:
                cohort = [i] + [j for j in neighbors[i] if actions[j] == channel]
            m = len(cohort)
            if not truth[channel]:
                p = false_alarm_probability(config.false_alarm, config.fading, m)
            elif awgn:
                p = p_d(i, m)
            else:
                p = -math.expm1(sum(math.log1p(-p_d(j, 1)) for j in cohort))
            u = draws[channel] if config.shared_draw else draws[i]
            sizes.append(m)
            verdicts.append(occupied if u < p else vacant)
        cohorts.append(sizes)
        observations.append(verdicts)
    return cohorts, observations


def _replay_transmits(record: RunRecord, governing: np.ndarray) -> list:
    """Every transmit channel, on a fresh transmit stream.

    In (step, node) order, a node with candidates draws one of them
    uniformly from its governing row; a node with none skips (-1) and draws
    nothing.
    """
    rng = rngmod.substream(record.run_seed, rngmod.TRANSMIT)
    transmits = []
    for rows in governing.tolist():
        cands = [candidate_channels(beliefs) for beliefs in rows]
        transmits.append([c[rng.integers(len(c))] if c else -1 for c in cands])
    return transmits


def _replay_actions(record: RunRecord, neighbors: tuple) -> list:
    """Every action, on a fresh policy stream.

    The first step's actions are uniform draws; each later step's are what
    the policy spec returns for the recorded step before, with each node's
    neighbour channels read from its neighbour list.  Under q-learning each
    node's values are updated, from its own reward and then its
    neighbours', before any node picks.
    """
    config = record.config
    n, n_fb = config.n_wn, config.n_fb
    rng = rngmod.substream(record.run_seed, rngmod.POLICY)
    expected = [rng.integers(0, n_fb, size=n).tolist()]
    q, table = config.qlearning, np.zeros((n, n_fb))
    occupied = int(Belief.OCCUPIED)
    steps = zip(record.actions[:-1].tolist(), record.observations[:-1].tolist())
    for actions, observations in steps:
        if config.policy is PolicyKind.QLEARNING:
            rewards = [1.0 if o == occupied else 0.0 for o in observations]
            for i in range(n):
                for j in (i, *neighbors[i]):
                    update_q(q, table[i], actions[j], rewards[j])
        if config.policy is PolicyKind.PSEUDO_RANDOM:
            choices = [
                choose_action_pseudo_random(
                    actions[i],
                    observations[i],
                    [actions[j] for j in neighbors[i]],
                    n_fb,
                    rng,
                    config.epsilon_n,
                )
                for i in range(n)
            ]
        elif config.policy is PolicyKind.UNIFORM:
            choices = [choose_action_uniform(n_fb, rng) for _ in range(n)]
        else:
            choices = [choose_action_qlearning(table[i], q, rng) for i in range(n)]
        expected.append(choices)
    return expected
