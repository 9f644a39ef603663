"""Closed-form oracles: run counts against expectations computed from each
replication's own truth log, with bounds fixed before the tests first ran."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from jamsense.engine import (
    JAMMED,
    SUCCESSFUL,
    SimConfig,
    _World,
    detection_counts,
    run,
    transmission_counts,
)
from jamsense.network import Placement
from jamsense.policies import PolicyKind
from jamsense.sensing import (
    DEFAULT_AWGN_FALSE_ALARMS,
    DEFAULT_RAYLEIGH_FALSE_ALARMS,
    DetectionParams,
    FadingKind,
    FalseAlarmTable,
    false_alarm_probability,
    p_d_awgn,
    p_d_rayleigh_single,
)

from invariants import spec_detection

REPLICATIONS = 200
HORIZON = 120
SEED = 11
# Four standard errors of the mean of REPLICATIONS unit-variance z-scores.
BOUND = 4.0 / math.sqrt(REPLICATIONS)

# A lone node's table entry at 0 dB, and its false-alarm rate at m = 1.
P_D_0DB = {
    FadingKind.AWGN: p_d_awgn(DetectionParams(), 1.0, 1),
    FadingKind.RAYLEIGH: p_d_rayleigh_single(DetectionParams(), 1.0),
}
P_FA_M1 = {
    FadingKind.AWGN: DEFAULT_AWGN_FALSE_ALARMS[1],
    FadingKind.RAYLEIGH: DEFAULT_RAYLEIGH_FALSE_ALARMS[1],
}


@pytest.mark.parametrize("fading", list(FadingKind), ids=lambda kind: kind.value)
def test_one_uniform_node_matches_closed_form_counts(fading):
    # One node under the uniform policy senses a channel drawn independently
    # of the truth, so at step t the channel is occupied with probability o_t,
    # the step's occupied fraction.  Its cohort is itself (m = 1), and it
    # transmits exactly when it senses vacant, on the channel it sensed.  Given
    # the truth, every step is an independent Bernoulli trial of each count,
    # with success probability
    #   detected:   o_t * p_d
    #   successful: (1 - o_t) * (1 - p_fa)
    #   jammed:     o_t * (1 - p_d)
    config = SimConfig(
        n_wn=1,
        n_fb=10,
        policy=PolicyKind.UNIFORM,
        fading=fading,
        horizon=HORIZON,
        replications=REPLICATIONS,
        seed=SEED,
    )
    p_d, p_fa = P_D_0DB[fading], P_FA_M1[fading]
    z = {"detected": [], "successful": [], "jammed": []}
    for r in range(REPLICATIONS):
        record = run(config, replication=r)
        # The node sits below the grid's first point, so it reads the 0 dB row.
        assert record.snr_db[0] < -0.5
        o = record.truth.mean(axis=1)
        counts = {
            "detected": detection_counts(record)[0].sum(),
            "successful": transmission_counts(record)[0].sum(),
            "jammed": (record.outcomes == JAMMED).sum(),
        }
        probabilities = {
            "detected": o * p_d,
            "successful": (1.0 - o) * (1.0 - p_fa),
            "jammed": o * (1.0 - p_d),
        }
        for name, q in probabilities.items():
            sd = math.sqrt(float((q * (1.0 - q)).sum()))
            z[name].append((counts[name] - q.sum()) / sd)
    mean_z = {name: float(np.mean(scores)) for name, scores in z.items()}
    assert all(abs(m) < BOUND for m in mean_z.values()), (mean_z, BOUND)


# Twelve nodes, one per jammer SNR target (dB), which the default
# log-distance law (15 dB at 0.05 km, exponent -2.3) places on a line.
COHORT_SNR_DB = [0.1 + 0.5 * k for k in range(12)]
COHORT_N_FB = 6
COHORT_REPLICATIONS = 100
COHORT_HORIZON = 60
COHORT_BOUND = 4.0 / math.sqrt(COHORT_REPLICATIONS)


def test_global_cohorts_match_closed_form_detections():
    # Under the uniform policy every node sits on each channel with
    # probability f = 1/n_fb, independently of the others, of the truth and
    # of the past.  So the set S of nodes on a channel has probability
    # f^|S| (1 - f)^(n - |S|), and with global cohorts each of them senses at
    # diversity order |S|.  With one shared draw per channel, the channel is
    # detected exactly when that draw is below the largest member's p_d:
    #   q = sum over S != {} of P(S) * max_{i in S} p_d(i, |S|),
    # the same for every occupied channel-step.  Steps are independent given
    # the truth; within a step the channels' detections are negatively
    # correlated (a node on one channel is on no other), so the binomial
    # variance below is an upper bound and the z-scores' variance is <= 1.
    n = len(COHORT_SNR_DB)
    nodes = tuple((0.05 * 10.0 ** ((15.0 - s) / 23.0), 0.0) for s in COHORT_SNR_DB)
    config = SimConfig(
        n_wn=n,
        n_fb=COHORT_N_FB,
        policy=PolicyKind.UNIFORM,
        global_cohort=True,
        shared_draw=True,
        placement=Placement(nodes=nodes),
        horizon=COHORT_HORIZON,
        replications=COHORT_REPLICATIONS,
        seed=SEED,
    )
    snr_db, p_d = spec_detection(config)
    assert np.allclose(snr_db, COHORT_SNR_DB)
    f = 1.0 / COHORT_N_FB
    q = sum(
        f**m * (1.0 - f) ** (n - m) * max(p_d(i, m) for i in members)
        for m in range(1, n + 1)
        for members in itertools.combinations(range(n), m)
    )
    z = []
    for r in range(COHORT_REPLICATIONS):
        record = run(config, replication=r)
        detected, total = detection_counts(record)
        occupied = int(total.sum())
        z.append((detected.sum() - q * occupied) / math.sqrt(q * (1.0 - q) * occupied))
    mean_z = float(np.mean(z))
    assert abs(mean_z) < COHORT_BOUND, (mean_z, COHORT_BOUND)


PSEUDO_N_FB = 5


@pytest.mark.parametrize("fading", list(FadingKind), ids=lambda kind: kind.value)
def test_one_pseudo_random_node_matches_closed_form_detections(fading):
    # One node under pseudo-random, with no neighbours: after sensing channel
    # c it stays on c when it observed c occupied, which happens with
    # probability p_d if c is jammed and p_fa if not (the sticky branch).
    # Otherwise it explores, uniformly over the other n_fb - 1 channels; the
    # epsilon branch needs a neighbour and never fires.  Given the truth log,
    # the forward recursion from a uniform first channel gives P_t(c), the
    # chance that it senses c at step t, and the expected detections are
    #   sum over t, c of P_t(c) * truth_t[c] * p_d.
    # Steps are dependent, so the bound is on the t-statistic of the
    # per-replication differences (observed - expected), over their
    # empirical standard error.
    config = SimConfig(
        n_wn=1,
        n_fb=PSEUDO_N_FB,
        policy=PolicyKind.PSEUDO_RANDOM,
        fading=fading,
        horizon=HORIZON,
        replications=REPLICATIONS,
        seed=SEED,
    )
    p_d, p_fa = P_D_0DB[fading], P_FA_M1[fading]
    differences = []
    for r in range(REPLICATIONS):
        record = run(config, replication=r)
        assert record.snr_db[0] < -0.5
        p = np.full(PSEUDO_N_FB, 1.0 / PSEUDO_N_FB)
        expected = 0.0
        for jammed in record.truth:
            expected += p_d * p[jammed].sum()
            stay = np.where(jammed, p_d, p_fa)
            leave = p * (1.0 - stay)
            p = p * stay + (leave.sum() - leave) / (PSEUDO_N_FB - 1)
        differences.append(detection_counts(record)[0].sum() - expected)
    t = np.mean(differences) / (np.std(differences, ddof=1) / math.sqrt(REPLICATIONS))
    assert abs(t) < 4.0, t


NEUTRAL_REPLICATIONS = 30


@pytest.mark.parametrize("shared_draw", [False, True], ids=["per-node", "shared"])
def test_neutral_sticky_pseudo_random_pairs_uniform(shared_draw):
    # Lone nodes whose false-alarm rate equals their detection rate: the
    # sticky branch then holds a node with probability p_d whatever the
    # truth, so each node's channel is uniform and independent of the truth
    # at every step, as under the uniform policy.  The truth of a
    # replication does not depend on the policy, so the two policies are
    # compared as a paired difference of detections at equal truth, which
    # has mean 0 with per-node draws.  With shared draws, nodes on one
    # channel read one uniform and stay or leave together: they herd onto
    # fewer channels and detect fewer.  This is the sticky-branch part of
    # criterion 6's gap (README "Known limitations").
    nodes = tuple(
        (0.6 * math.cos(2.0 * math.pi * k / 5), 0.6 * math.sin(2.0 * math.pi * k / 5))
        for k in range(5)
    )
    config = SimConfig(
        n_wn=5,
        fading=FadingKind.RAYLEIGH,
        placement=Placement(nodes=nodes),
        shared_draw=shared_draw,
        horizon=500,
        replications=NEUTRAL_REPLICATIONS,
        seed=1,
    )
    world = _World(config, 0)
    # Neighbours are 0.705 km apart, beyond the 0.45 km range.
    assert world.graph.edges() == ()
    p_d = world.p_d[:, 0]
    assert np.all(p_d == p_d[0])
    config = dataclasses.replace(
        config, false_alarm=FalseAlarmTable(rayleigh={1: float(p_d[0])})
    )
    differences = []
    for r in range(NEUTRAL_REPLICATIONS):
        pseudo = run(config, replication=r)
        uniform = run(dataclasses.replace(config, policy=PolicyKind.UNIFORM), r)
        assert np.array_equal(pseudo.truth, uniform.truth)
        differences.append(
            int(detection_counts(pseudo)[0].sum() - detection_counts(uniform)[0].sum())
        )
    t = np.mean(differences) / (
        np.std(differences, ddof=1) / math.sqrt(NEUTRAL_REPLICATIONS)
    )
    if shared_draw:
        assert t < -4.0, t
    else:
        assert abs(t) < 4.0, t


PAIR_N_FB = 3
PAIR_REPLICATIONS = 60
PAIR_BOUND = 4.0 / math.sqrt(PAIR_REPLICATIONS)


def _pair_step_moments(jammed, p_d, p_fa, shared_draw):
    """Exact per-step (mean, variance) of the summed successful and of the
    summed jammed counts of two connected uniform nodes, given the step's
    truth row.

    `p_d[m]` and `p_fa[m]` are a node's chances of reading a jammed and a
    vacant channel OCCUPIED at cohort size m.  Both nodes fuse both pairs,
    so they share one decision row, whose VACANT channels are the
    candidates; each node picks among them uniformly, with its own draw.
    """
    n_fb = len(jammed)
    occupied = lambda a, m: p_d[m] if jammed[a] else p_fa[m]
    law = {}  # (successful, jammed) -> probability
    for a0, a1 in itertools.product(range(n_fb), repeat=2):
        if a0 != a1:
            # Each node senses alone (m = 1), with its own verdict.
            q0, q1 = occupied(a0, 1), occupied(a1, 1)
            rows = [
                ((q0 if o0 else 1.0 - q0) * (q1 if o1 else 1.0 - q1),
                 [a for a, o in ((a0, o0), (a1, o1)) if not o])
                for o0, o1 in itertools.product((False, True), repeat=2)
            ]
        else:
            # One cohort of two.  A shared draw gives both one verdict;
            # with per-node draws OCCUPIED wins the fusion, so the channel
            # stays VACANT only if both nodes read it so.
            q = occupied(a0, 2)
            vacant = 1.0 - q if shared_draw else (1.0 - q) ** 2
            rows = [(vacant, [a0]), (1.0 - vacant, [])]
        for weight, candidates in rows:
            weight /= n_fb * n_fb
            if not candidates:  # both nodes skip
                law[0, 0] = law.get((0, 0), 0.0) + weight
                continue
            pick = 1.0 / len(candidates)
            for c0, c1 in itertools.product(candidates, repeat=2):
                hits = int(jammed[c0]) + int(jammed[c1])
                key = (2 - hits, hits)
                law[key] = law.get(key, 0.0) + weight * pick * pick
    moments = []
    for k in range(2):
        mean = sum(w * key[k] for key, w in law.items())
        moments.append((mean, sum(w * key[k] ** 2 for key, w in law.items()) - mean**2))
    return moments


@pytest.mark.parametrize("shared_draw", [False, True], ids=["per-node", "shared"])
@pytest.mark.parametrize("fading", list(FadingKind), ids=lambda kind: kind.value)
def test_two_uniform_nodes_match_exact_transmission_counts(fading, shared_draw):
    # Two neighbours 0.4 km apart, each 0.36 km from the jammer (-4.7 dB),
    # so both read the table's 0 dB row.  Under the uniform policy the
    # action pair is uniform over the n_fb^2 pairs at every step,
    # independently of the past, so given the truth the steps are
    # independent and their exact moments add up over a run.  Observation
    # fusion (OCCUPIED wins), the shared decision row and the uniform
    # transmit choice all enter these moments.
    config = SimConfig(
        n_wn=2,
        n_fb=PAIR_N_FB,
        policy=PolicyKind.UNIFORM,
        fading=fading,
        shared_draw=shared_draw,
        placement=Placement(nodes=((-0.2, 0.3), (0.2, 0.3))),
        horizon=HORIZON,
        replications=PAIR_REPLICATIONS,
        seed=SEED,
    )
    grid = config.grid(fading)
    if fading is FadingKind.AWGN:
        p_d = {m: grid.lookup(0.0, m) for m in (1, 2)}
    else:
        # A Rayleigh cohort misses only if both members miss.
        p_d = {1: grid.lookup(0.0, 1)}
        p_d[2] = -math.expm1(2.0 * math.log1p(-p_d[1]))
    p_fa = {m: false_alarm_probability(config.false_alarm, fading, m) for m in (1, 2)}
    moments = {}  # per distinct truth row
    z = {"successful": [], "jammed": []}
    for r in range(PAIR_REPLICATIONS):
        record = run(config, replication=r)
        assert record.edges == ((0, 1),)
        assert max(record.snr_db) < -0.5
        # A 2-clique's super rows are its decision rows.
        plain = run(dataclasses.replace(config, use_super_decision=False), r)
        assert np.array_equal(plain.transmits, record.transmits)
        assert np.array_equal(plain.outcomes, record.outcomes)
        mean, var = np.zeros(2), np.zeros(2)
        for row in record.truth:
            key = tuple(row.tolist())
            if key not in moments:
                moments[key] = _pair_step_moments(key, p_d, p_fa, shared_draw)
            mean += [mu for mu, _ in moments[key]]
            var += [v for _, v in moments[key]]
        observed = [(record.outcomes == SUCCESSFUL).sum(), (record.outcomes == JAMMED).sum()]
        for scores, count, mu, v in zip(z.values(), observed, mean, var):
            scores.append((count - mu) / math.sqrt(v))
    mean_z = {name: float(np.mean(scores)) for name, scores in z.items()}
    assert all(abs(m) < PAIR_BOUND for m in mean_z.values()), (mean_z, PAIR_BOUND)
