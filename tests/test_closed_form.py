"""Closed-form oracles: run counts against expectations computed from each
replication's own truth log, with bounds fixed before the tests first ran."""

import itertools
import math

import numpy as np
import pytest

from jamsense.engine import (
    JAMMED,
    SimConfig,
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
