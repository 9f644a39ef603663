"""Acceptance suite: one test per shipping criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  The replication batches (100 runs, 2000 steps) are
computed once and shared across criteria; the whole suite targets a
single desktop core.

Criterion 6 is known not to hold for the default scenario family; see
README "Known limitations" for the measured numbers.  It is asserted at
its stated tolerance anyway and fails honestly rather than being
loosened.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from jamsense.cli import main
from jamsense.engine import SimConfig, run, run_batch
from jamsense.fusion import Belief
from jamsense.jammers import JammerChain, step as step_chain
from jamsense.policies import PolicyKind, choose_action_pseudo_random
from jamsense.sensing import DetectionParams, FadingKind, marcum_q, p_d_rayleigh_single

from invariants import check_structural_invariants
from oracles import marcum_q_quadrature, rayleigh_single_monte_carlo

SEED = 1
REPS = 100
HORIZON = 2000

_batches = {}
_timings = {}


def batch(**overrides):
    """Cached 100-replication batch of the reference scenario."""
    key = tuple(sorted(overrides.items()))
    if key not in _batches:
        config = SimConfig(seed=SEED, replications=REPS, horizon=HORIZON, **overrides)
        start = time.monotonic()
        _batches[key] = run_batch(config)
        _timings[key] = time.monotonic() - start
    return _batches[key]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")


def pooled_se(a, b, metric="jdr"):
    if metric == "jdr":
        return math.hypot(a.jdr_final_se(), b.jdr_final_se())
    return math.hypot(a.tsr_final_se(), b.tsr_final_se())


def test_criterion_01_marcum_series_vs_quadrature():
    # 2000 points, order 1..30, alpha/beta in [0, 8]; |diff| <= 1e-10;
    # runtime under 10 s.
    rng = np.random.default_rng(2001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(2000):
        order = int(rng.integers(1, 31))
        alpha = float(rng.uniform(0.0, 8.0))
        beta = float(rng.uniform(0.0, 8.0))
        diff = abs(
            marcum_q(order, alpha, beta) - marcum_q_quadrature(order, alpha, beta)
        )
        worst = max(worst, diff)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, ok, f"max |series - quadrature| = {worst:.3e} over 2000 points "
                  f"in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_rayleigh_closed_form_vs_monte_carlo():
    params = DetectionParams()
    failures = []
    details = []
    for snr_db in (0.0, 5.0, 10.0, 15.0):
        mean_snr = 10.0 ** (snr_db / 10.0)
        closed = p_d_rayleigh_single(params, mean_snr)
        mc, se = rayleigh_single_monte_carlo(
            params.sigma2, params.noncentrality, params.threshold,
            params.n_samples, mean_snr, draws=1_000_000, seed=4242,
        )
        pulls = abs(closed - mc) / se
        details.append(f"{snr_db:g}dB: {pulls:.2f}se")
        if pulls > 3.0:
            failures.append(snr_db)
    report(2, not failures, "closed form vs 1e6-draw Monte-Carlo: " + ", ".join(details))
    assert not failures


def test_criterion_03_markov_transition_fidelity():
    chain = JammerChain(stay_idle=0.9, stay_active=0.95, active=False)
    rng = np.random.default_rng(303)
    stay_idle = idle = stay_active = active = 0
    state = chain.active
    for _ in range(100_000):
        new = step_chain(chain, rng)
        if state:
            active += 1
            stay_active += new
        else:
            idle += 1
            stay_idle += not new
        state = new
    err00 = abs(stay_idle / idle - 0.9)
    err11 = abs(stay_active / active - 0.95)
    ok = err00 <= 0.01 and err11 <= 0.01
    report(3, ok, f"|p00_hat - 0.9| = {err00:.4f}, |p11_hat - 0.95| = {err11:.4f}")
    assert ok


def test_criterion_04_awgn_policy_ordering():
    start = time.monotonic()
    pseudo = batch()
    uniform = batch(policy=PolicyKind.UNIFORM)
    qlearn = batch(policy=PolicyKind.QLEARNING)
    elapsed = time.monotonic() - start
    gap_u = pseudo.jdr_final_mean - uniform.jdr_final_mean
    gap_q = pseudo.jdr_final_mean - qlearn.jdr_final_mean
    need_u = 2 * pooled_se(pseudo, uniform)
    need_q = 2 * pooled_se(pseudo, qlearn)
    ok = gap_u > need_u and gap_q > need_q
    report(4, ok,
           f"JDR pseudo={pseudo.jdr_final_mean:.4f} > uniform="
           f"{uniform.jdr_final_mean:.4f} (margin {gap_u:.4f} vs {need_u:.4f}) "
           f"and > qlearning={qlearn.jdr_final_mean:.4f} "
           f"(margin {gap_q:.4f} vs {need_q:.4f}); batches in {elapsed:.0f}s")
    assert gap_u > need_u
    assert gap_q > need_q
    assert elapsed < 300.0


def test_criterion_05_band_doubling_halves_detection():
    narrow = batch()
    wide = batch(n_fb=20)
    ratio = wide.jdr_final_mean / narrow.jdr_final_mean
    ok = 0.4 <= ratio <= 0.6
    report(5, ok, f"JDR(20ch)/JDR(10ch) = {wide.jdr_final_mean:.4f}/"
                  f"{narrow.jdr_final_mean:.4f} = {ratio:.4f}, need [0.4, 0.6]")
    assert 0.4 <= ratio <= 0.6


def test_criterion_06_rayleigh_policy_near_equality():
    pseudo = batch(fading=FadingKind.RAYLEIGH)
    uniform = batch(fading=FadingKind.RAYLEIGH, policy=PolicyKind.UNIFORM)
    gap = abs(pseudo.jdr_final_mean - uniform.jdr_final_mean)
    allowed = 3 * pooled_se(pseudo, uniform)
    ok = gap <= allowed
    report(6, ok, f"Rayleigh |JDR pseudo - uniform| = "
                  f"|{pseudo.jdr_final_mean:.4f} - {uniform.jdr_final_mean:.4f}|"
                  f" = {gap:.4f}, allowed {allowed:.4f} (known red; see README)")
    assert gap <= allowed


def test_criterion_07_super_decision_success_rate():
    super_on = batch()
    local = batch(use_super_decision=False)
    ok = (
        super_on.tsr_final_mean >= local.tsr_final_mean
        and super_on.tsr_final_mean <= 0.75
        and local.tsr_final_mean <= 0.75
    )
    report(7, ok, f"TSR super={super_on.tsr_final_mean:.4f} >= "
                  f"local={local.tsr_final_mean:.4f}, both <= 0.75")
    assert super_on.tsr_final_mean >= local.tsr_final_mean
    assert super_on.tsr_final_mean <= 0.75
    assert local.tsr_final_mean <= 0.75


def test_criterion_08_success_rate_band_insensitivity():
    narrow = batch()
    wide = batch(n_fb=20)
    gap = abs(wide.tsr_final_mean - narrow.tsr_final_mean)
    ok = gap <= 0.08
    report(8, ok, f"|TSR(20ch) - TSR(10ch)| = |{wide.tsr_final_mean:.4f} - "
                  f"{narrow.tsr_final_mean:.4f}| = {gap:.4f}, need <= 0.08")
    assert gap <= 0.08


def test_criterion_09_preset_byte_determinism(tmp_path):
    args = ["run", "--preset", "tsr-super", "--replications", "2",
            "--horizon", "120", "--seed", "9", "--trace"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
    assert any(n.startswith("metrics_") for n in names)
    assert any(n.startswith("trace_") for n in names)
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    report(9, identical,
           f"{len(names)} output files (traces included) byte-identical across reruns")
    assert identical


def test_criterion_10_property_suites():
    violations = 0
    checks = 0

    # Fusion lattice laws over 10^4 random vector triples.
    rng = np.random.default_rng(1010)
    from jamsense.fusion import fuse_decisions

    for _ in range(10_000):
        a, b, c = (rng.integers(0, 3, size=8) for _ in range(3))
        ab = fuse_decisions([a, b])
        ba = fuse_decisions([b, a])
        ab_c = fuse_decisions([ab, c])
        a_bc = fuse_decisions([a, fuse_decisions([b, c])])
        violations += not (
            np.array_equal(ab, ba)
            and np.array_equal(ab_c, a_bc)
            and np.array_equal(fuse_decisions([a, a]), a)
        )
        checks += 3

    # Branch distribution of the selection policy: epsilon splits the
    # vacant-observation case between exploitation and exploration.
    epsilon = 0.3
    draws = 100_000
    rng = np.random.default_rng(777)
    counts = np.zeros(10, dtype=int)
    for _ in range(draws):
        counts[
            choose_action_pseudo_random(0, Belief.VACANT, (1, 2), 10, rng, epsilon)
        ] += 1
    expected = np.array(
        [0.0] + [epsilon / 2] * 2 + [(1 - epsilon) / 7] * 7
    ) * draws
    chi2 = float(((counts[1:] - expected[1:]) ** 2 / expected[1:]).sum())
    bound = float(stats.chi2.ppf(0.999, 8))
    violations += counts[0] != 0
    violations += chi2 >= bound
    checks += 2

    # Sticky branch is deterministic.
    for k in range(1000):
        choice = choose_action_pseudo_random(
            k % 10, Belief.OCCUPIED, ((k + 1) % 10,), 10, rng, epsilon
        )
        violations += choice != k % 10
        checks += 1

    # Per-step structural invariants over fuzzed configurations.
    fuzz = [
        {},
        {"policy": PolicyKind.UNIFORM},
        {"policy": PolicyKind.QLEARNING},
        {"fading": FadingKind.RAYLEIGH},
        {"use_super_decision": False},
        {"shared_draw": False},
        {"global_cohort": True, "fading": FadingKind.RAYLEIGH},
        {"n_wn": 3, "n_fb": 13},
        {"n_fb": 4, "policy": PolicyKind.QLEARNING, "use_super_decision": False},
    ]
    for idx, overrides in enumerate(fuzz):
        config = SimConfig(seed=100 + idx, horizon=50, replications=1, **overrides)
        checks += check_structural_invariants(run(config))

    ok = violations == 0
    report(10, ok, f"{checks} property checks, {violations} violations "
                   f"(branch chi2={chi2:.1f} < {bound:.1f})")
    assert violations == 0
