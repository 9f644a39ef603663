"""Closed-form oracles: run counts against expectations computed from each
replication's own truth log, with bounds fixed before the tests first ran."""

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
from jamsense.policies import PolicyKind
from jamsense.sensing import (
    DEFAULT_AWGN_FALSE_ALARMS,
    DEFAULT_RAYLEIGH_FALSE_ALARMS,
    DetectionParams,
    FadingKind,
    p_d_awgn,
    p_d_rayleigh_single,
)

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
