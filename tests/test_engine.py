"""Simulation-loop tests: determinism, metrics, structural invariants."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from jamsense import engine
from jamsense import rng as rngmod
from jamsense.engine import (
    JAMMED,
    SKIPPED,
    SUCCESSFUL,
    SimConfig,
    _World,
    _run_world,
    detection_counts,
    jdr_curve,
    run,
    run_batch,
    transmission_counts,
    tsr_curve,
)
from jamsense.fusion import Belief
from jamsense.network import (
    Placement,
    build_neighbor_graph,
    default_placement,
)
from jamsense.policies import PolicyKind
from jamsense.schema import ConfigError
from jamsense.sensing import (
    DetectionParams,
    FadingKind,
    FalseAlarmTable,
    false_alarm_probability,
    p_d_rayleigh_combined,
)

from invariants import check_structural_invariants, spec_detection
from oracles import edges_loop, neighbor_rows_loop


def forced_world(config: SimConfig, active: bool) -> _World:
    """Replication 0's world, with its jammers pinned to one state for the
    whole run."""
    world = _World(config, 0)
    for chain in world.chains:
        chain.active = active
    return world


def test_jam_free_world_all_successful():
    config = SimConfig(
        n_wn=10,
        horizon=5,
        seed=3,
        jammer_bounds=(1.0, 1.0),
        false_alarm=FalseAlarmTable(awgn={1: 0.0}, rayleigh={1: 0.0}),
        replications=1,
    )
    record = _run_world(forced_world(config, active=False))
    assert not record.truth.any()
    assert np.all(record.observations == Belief.VACANT)
    assert np.all(record.outcomes == SUCCESSFUL)
    assert jdr_curve(record)[-1] == 0.0  # degenerate: no jamming
    assert tsr_curve(record)[-1] == 1.0


def test_fully_jammed_world_all_skipped():
    config = SimConfig(
        n_wn=10,
        horizon=5,
        seed=3,
        jammer_bounds=(1.0, 1.0),
        detection=DetectionParams(threshold=0.0),  # certain detection
        replications=1,
    )
    record = _run_world(forced_world(config, active=True))
    assert record.truth.all()
    assert np.all(record.observations == Belief.OCCUPIED)
    assert np.all(record.outcomes == SKIPPED)
    assert np.all(record.transmits == -1)
    # Every sensed channel-step is detected; unsensed ones cannot be.
    expected = sum(
        len(set(record.actions[t].tolist())) for t in range(len(record))
    ) / (len(record) * config.n_fb)
    assert jdr_curve(record)[-1] == pytest.approx(expected, abs=1e-12)
    assert tsr_curve(record)[-1] == 0.0  # degenerate: no attempts


def test_single_channel_always_jammed_detected():
    config = SimConfig(
        n_wn=1,
        n_fb=1,
        horizon=20,
        seed=5,
        jammer_bounds=(1.0, 1.0),
        detection=DetectionParams(threshold=0.0),
        replications=1,
    )
    record = _run_world(forced_world(config, active=True))
    assert jdr_curve(record)[-1] == 1.0


def test_huge_threshold_never_detects():
    config = SimConfig(
        n_wn=4,
        horizon=30,
        seed=5,
        detection=DetectionParams(threshold=1e6),
        replications=1,
    )
    record = run(config)
    assert jdr_curve(record)[-1] == 0.0


def test_determinism_same_seed_identical_records():
    config = SimConfig(horizon=80, seed=11, replications=1)
    a = run(config)
    b = run(config)
    for field in ("truth", "actions", "observations", "cohorts",
                  "decisions", "supers", "transmits", "outcomes"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = run(dataclasses.replace(config, seed=12))
    assert not np.array_equal(a.actions, c.actions)


def test_super_decision_isolated_from_sensing():
    base = SimConfig(horizon=120, seed=13, replications=1)
    on = run(base)
    off = run(dataclasses.replace(base, use_super_decision=False))
    assert np.array_equal(on.truth, off.truth)
    assert np.array_equal(on.actions, off.actions)
    assert np.array_equal(on.observations, off.observations)
    assert np.array_equal(on.decisions, off.decisions)
    assert on.supers is not None and off.supers is None


def test_replication_seeds_differ_and_derive_from_master():
    config = SimConfig(horizon=40, seed=21, replications=1)
    r0 = run(config, replication=0)
    r1 = run(config, replication=1)
    assert r0.run_seed == rngmod.derive_seed(21, rngmod.REPLICATION, 0)
    assert r1.run_seed == rngmod.derive_seed(21, rngmod.REPLICATION, 1)
    assert (r0.replication, r1.replication) == (0, 1)
    assert not np.array_equal(r0.actions, r1.actions)


@pytest.mark.parametrize("replication", [1.5, True, -1, 2**64])
def test_run_refuses_a_replication_outside_the_seed_range(replication):
    with pytest.raises(ConfigError, match="^replication: expected an integer"):
        run(SimConfig(horizon=5, replications=1), replication)


def test_detection_counts_match_brute_force():
    record = run(SimConfig(horizon=60, seed=19, replications=1))
    detected, total = detection_counts(record)
    for t in range(60):
        occupied = {c for c in range(10) if record.truth[t, c]}
        hit = {
            int(record.actions[t, i])
            for i in range(10)
            if record.observations[t, i] == Belief.OCCUPIED
        }
        assert total[t] == len(occupied)
        assert detected[t] == len(occupied & hit)


def test_transmission_counts_match_brute_force():
    record = run(SimConfig(horizon=60, seed=23, replications=1))
    successful, attempted = transmission_counts(record)
    for t in range(60):
        outcomes = record.outcomes[t]
        assert successful[t] == int((outcomes == SUCCESSFUL).sum())
        assert attempted[t] == int(
            ((outcomes == SUCCESSFUL) | (outcomes == JAMMED)).sum()
        )


def test_structural_invariants_default_config():
    record = run(SimConfig(horizon=60, seed=29, replications=1))
    assert check_structural_invariants(record) > 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"policy": PolicyKind.UNIFORM},
        {"policy": PolicyKind.QLEARNING},
        {"fading": FadingKind.RAYLEIGH},
        {"use_super_decision": False},
        {"shared_draw": False},
        {"global_cohort": True},
        {"n_wn": 1, "n_fb": 3},
        {"n_fb": 1},
        {"n_fb": 17, "fading": FadingKind.RAYLEIGH, "grid_lookup": False},
    ],
)
def test_structural_invariants_fuzzed(overrides):
    config = SimConfig(horizon=40, seed=31, replications=1, **overrides)
    assert check_structural_invariants(run(config)) > 0


@pytest.mark.parametrize("grid_lookup", [True, False])
@pytest.mark.parametrize("fading", list(FadingKind), ids=lambda kind: kind.value)
def test_zero_snr_node_runs_without_warnings(fading, grid_lookup):
    # A path-loss exponent of -1000 underflows both nodes' jammer SNR to 0.0:
    # -inf dB, which the grid clamps to its first row.
    placement = Placement(
        nodes=((1.0, 0.0), (1.1, 0.0)), path_loss_exponent=-1000.0
    )
    config = SimConfig(
        n_wn=2, horizon=30, seed=5, replications=1, placement=placement,
        fading=fading, grid_lookup=grid_lookup,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = run(config)
        assert check_structural_invariants(record) > 0
    assert record.snr_db == (-math.inf, -math.inf)


def test_exact_mode_matches_grid_at_grid_points():
    # Node SNRs snap below the grid floor, where grid lookup clamps to
    # 0 dB; with a placement exactly at a grid point both modes agree.
    from jamsense.network import Placement

    nodes = tuple((0.05 + 0.0001 * i, 0.0) for i in range(3))
    placement = Placement(nodes=nodes, range_km=0.01)
    config = SimConfig(
        n_wn=3, horizon=30, seed=37, placement=placement, replications=1
    )
    grid_rec = run(config)
    exact_rec = run(dataclasses.replace(config, grid_lookup=False))
    # Identical seeds and nearly identical probabilities: trajectories
    # should coincide (SNR ~17 dB clamps to 15 dB in grid mode, where
    # both evaluate to ~1), so observations match.
    assert np.array_equal(grid_rec.observations, exact_rec.observations)


@pytest.mark.parametrize("fading", list(FadingKind))
@pytest.mark.parametrize("grid_lookup", [True, False])
def test_world_tables_match_direct_evaluation(fading, grid_lookup):
    # 12 nodes on 2 channels with global cohorts: cohorts exceed both
    # grid_m_max = 6 and the largest listed false-alarm order.  At this
    # threshold the exact AWGN p_d differs for every m up to 12.
    config = SimConfig(
        n_wn=12, n_fb=2, horizon=20, seed=67, fading=fading,
        detection=DetectionParams(threshold=60.0),
        grid_lookup=grid_lookup, global_cohort=True, replications=1,
    )
    world = forced_world(config, active=True)
    n = config.n_wn
    _, direct = spec_detection(config)
    # The step reads p_d at column p_d_column[m] (AWGN) or sums the cohort's
    # log-miss values (Rayleigh), and p_fa[m].
    for i in range(n):
        for m in range(1, n + 1):
            cohort = [(i + k) % n for k in range(m)]
            if fading is FadingKind.AWGN:
                p = world.p_d[i, world.p_d_column[m]]
                assert p == direct(i, m)
            else:
                p = -math.expm1(sum(world.log_miss[j] for j in cohort))
                expected = p_d_rayleigh_combined([direct(j, 1) for j in cohort])
                assert p == pytest.approx(expected, rel=1e-12, abs=1e-15)
    for m in range(1, n + 1):
        assert world.p_fa[m] == false_alarm_probability(
            config.false_alarm, fading, m
        )
    largest_fa_order = max(getattr(config.false_alarm, fading.value))
    record = _run_world(world)
    assert record.cohorts.max() > max(config.grid_m_max, largest_fa_order)


class _FixedDraws:
    """A sensing stream whose every draw returns the given uniforms."""

    def __init__(self, values):
        self.values = np.array(values)

    def random(self, size):
        assert size == len(self.values)
        return self.values


@pytest.mark.parametrize("global_cohort, n_fb", [(False, 6), (True, 25)])
def test_rayleigh_combine_matches_scalar_reference_bit_for_bit(global_cohort, n_fb):
    # One step with every jammer active and one draw per node: a node reads
    # OCCUPIED exactly when its draw is below its cohort's p, so draws of p
    # and of the next float below p pin every p to the last bit.  The
    # reference is README's: libm expm1 of the cohort's log-miss values,
    # summed in cohort order.  The 40 nodes lie on a golden-angle spiral;
    # cohorts of 1 to 5 keep p below about 0.86, since near 1 a last-bit
    # change of the sum or of expm1 rounds away.
    golden = math.pi * (3.0 - math.sqrt(5.0))
    radii = [0.2 + 0.01 * i for i in range(40)]
    nodes = tuple(
        (r * math.cos(i * golden), r * math.sin(i * golden))
        for i, r in enumerate(radii)
    )
    config = SimConfig(
        n_wn=40, n_fb=n_fb, horizon=1, seed=11, fading=FadingKind.RAYLEIGH,
        placement=Placement(nodes=nodes, range_km=0.35), shared_draw=False,
        grid_lookup=False, global_cohort=global_cohort, replications=1,
    )
    n = config.n_wn
    acts = _run_world(forced_world(config, active=True)).actions[0].tolist()
    world = forced_world(config, active=True)
    log_miss = world.log_miss.tolist()
    index = world.graph.fuse_index.tolist()
    p = []
    for i in range(n):
        if global_cohort:
            cohort = [j for j in range(n) if acts[j] == acts[i]]
        else:
            lo, hi = world.segments[i]
            neighbors = sorted(index[lo + 1 : hi])
            cohort = [i] + [j for j in neighbors if acts[j] == acts[i]]
        assert len(cohort) <= 5
        p.append(-math.expm1(sum(log_miss[j] for j in cohort)))
    below = [math.nextafter(x, 0.0) for x in p]
    for draws, belief in ((p, Belief.VACANT), (below, Belief.OCCUPIED)):
        world = forced_world(config, active=True)
        world.sensing_rng = _FixedDraws(draws)
        record = _run_world(world)
        assert record.actions[0].tolist() == acts
        assert np.all(record.observations[0] == belief)


def test_run_batch_single_replication_equals_run():
    config = SimConfig(horizon=50, seed=41, replications=1)
    batch = run_batch(config)
    record = run(config, replication=0)
    assert np.allclose(batch.jdr_mean, jdr_curve(record))
    assert np.allclose(batch.tsr_mean, tsr_curve(record))
    assert np.all(batch.jdr_std == 0.0)


def test_run_batch_deterministic():
    config = SimConfig(horizon=50, seed=43, replications=3)
    a = run_batch(config)
    b = run_batch(config)
    assert np.array_equal(a.jdr_mean, b.jdr_mean)
    assert np.array_equal(a.tsr_mean, b.tsr_mean)
    assert np.array_equal(a.jdr_final, b.jdr_final)


def test_run_batch_mean_of_identical_runs_is_constant():
    # One node on one permanently-jammed-or-idle channel with certain
    # detection: every active replication has a constant JDR curve of 1,
    # and the batch mean restricted to those replications is exactly 1.
    config = SimConfig(
        n_wn=1,
        n_fb=1,
        horizon=30,
        seed=47,
        replications=6,
        jammer_bounds=(1.0, 1.0),
        detection=DetectionParams(threshold=0.0),
    )
    batch = run_batch(config)
    active = batch.jdr_final > 0  # replications whose initial flip was active
    assert active.any()
    assert np.all(batch.jdr_final[active] == 1.0)
    assert np.all((batch.jdr_final == 1.0) | (batch.jdr_final == 0.0))


def test_run_batch_workers_equivalence():
    config = SimConfig(horizon=30, seed=53, replications=4)
    seq = run_batch(config, workers=1)
    par = run_batch(config, workers=2)
    assert np.array_equal(seq.jdr_mean, par.jdr_mean)
    assert np.array_equal(seq.tsr_final, par.tsr_final)
    # Replication 0's graph comes back from the worker that ran it.
    assert par.graph == seq.graph
    assert par.graph.edges() == seq.graph.edges()
    assert not par.graph.fuse_index.flags.writeable


def test_runs_keep_the_graph_as_its_index_arrays():
    config = SimConfig(n_wn=400, horizon=2, replications=1)
    batch = run_batch(config)
    record = run(config)
    assert batch.graph == record.graph
    rows = neighbor_rows_loop(config.resolved_placement())
    assert record.edges == edges_loop(rows)


def test_run_batch_memory_at_2000_nodes():
    # Mean degree about 650: the graph's index arrays hold 1.3M entries, and
    # neither the neighbour tuples nor the edge list is built.
    config = SimConfig(n_wn=2000, horizon=2, replications=1)
    tracemalloc.start()
    try:
        run_batch(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20


def test_run_batch_workers_equivalence_custom_false_alarms():
    # The read-only table must survive the trip to a worker process.
    config = SimConfig(
        horizon=30,
        seed=54,
        replications=4,
        false_alarm=FalseAlarmTable(awgn={2: 0.01, 4: 0.001}),
    )
    seq = run_batch(config, workers=1)
    par = run_batch(config, workers=2)
    assert np.array_equal(seq.jdr_mean, par.jdr_mean)
    assert np.array_equal(seq.tsr_mean, par.tsr_mean)
    assert np.array_equal(seq.tsr_final, par.tsr_final)


@pytest.mark.parametrize(
    "replications, workers, cpus, pool_size",
    [
        (2, 64, 8, 2),  # capped at replications
        (5, 3, 8, 3),
        (5, 64, 4, 4),  # capped at CPUs
        (5, 4, 1, None),  # one process: the serial path, no pool
        (5, 4, None, None),  # unknown CPU count counts as one
        (1, 4, 8, None),
        (5, np.int64(2), 8, 2),  # a numpy integer counts as an integer
    ],
)
def test_run_batch_pool_size(monkeypatch, replications, workers, cpus, pool_size):
    import multiprocessing
    import os

    sizes = []

    class SerialPool:
        """Records its size and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = SimConfig(horizon=10, seed=55, replications=replications)
    batch = run_batch(config, workers=workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    serial = run_batch(config, workers=1)
    assert np.array_equal(batch.jdr_mean, serial.jdr_mean)
    assert np.array_equal(batch.tsr_final, serial.tsr_final)


@pytest.mark.parametrize("workers", [0, -4, 1.5, "2", True])
def test_run_batch_rejects_fewer_than_one_worker(monkeypatch, workers):
    # Refused as run refuses a replication, before any pool is made.
    import multiprocessing
    import os

    pools = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda *a, **k: pools.append(a))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    with pytest.raises(ConfigError, match="^workers: expected an integer"):
        run_batch(SimConfig(horizon=5, replications=2), workers=workers)
    assert pools == []


def test_step_view_and_len():
    record = run(SimConfig(horizon=25, seed=59, replications=1))
    assert len(record) == 25


def test_config_is_frozen():
    config = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_wn = 0


def test_false_alarm_table_is_read_only():
    config = SimConfig()
    with pytest.raises(TypeError):
        config.false_alarm.awgn[1] = 7.0


def test_equal_configs_hash_equal_and_key_a_dict():
    table = {3: 0.2, 1: 0.5}
    a = SimConfig(false_alarm=FalseAlarmTable(awgn=table, rayleigh=table))
    b = SimConfig(
        false_alarm=FalseAlarmTable(awgn=dict(reversed(table.items())), rayleigh=table)
    )
    assert a == b and hash(a) == hash(b)
    cache = {a: "world"}
    assert cache[b] == "world"
    assert SimConfig() not in cache
    assert hash(SimConfig()) == hash(SimConfig())


def test_check_tables_covers_tables_the_run_does_not_build():
    # Only the AWGN table is built, so the config is valid; the Rayleigh
    # table would be NaN at this threshold.
    config = SimConfig(detection=DetectionParams(threshold=1e6))
    config.check_tables(FadingKind.AWGN)
    with pytest.raises(ValueError, match="detection.threshold"):
        config.check_tables(*FadingKind)


def test_standalone_placement_reads_coordinates_back_as_floats():
    nodes = ((0, np.int64(1)), (np.float32(0.5), 2))
    placement = Placement(nodes, jammer=(np.int8(0), 0))
    assert placement.nodes == ((0.0, 1.0), (0.5, 2.0))
    pairs = placement.nodes + (placement.jammer,)
    assert all(type(v) is float for pair in pairs for v in pair)


def test_numpy_scalars_run_as_python_values():
    def config(eps, n, p):
        return SimConfig(
            fading=FadingKind.RAYLEIGH, horizon=60, seed=7, epsilon_n=eps, n_wn=n,
            false_alarm=FalseAlarmTable(rayleigh={1: p}),
        )

    numpy_config = config(np.float64(0.2), np.int64(4), np.float64(0.4))
    # Kept as read back from JSON, so the config echo can be written.
    assert type(numpy_config.n_wn) is int and type(numpy_config.epsilon_n) is float
    python_run = run(config(0.2, 4, 0.4))
    assert record_sha256(run(numpy_config)) == record_sha256(python_run)


def test_int_and_numpy_coordinates_are_stored_as_floats():
    def config(nodes, jammer):
        return SimConfig(
            n_wn=2, horizon=40, seed=8, placement=Placement(nodes, jammer=jammer)
        )

    numpy_config = config(
        ((0, 1), (np.float64(0.3), np.float32(0.5))), (np.int64(0), 0)
    )
    placement = numpy_config.placement
    assert all(type(v) is float for pair in placement.nodes for v in pair)
    assert all(type(v) is float for v in placement.jammer)
    float_run = run(config(((0.0, 1.0), (0.3, float(np.float32(0.5)))), (0.0, 0.0)))
    assert record_sha256(run(numpy_config)) == record_sha256(float_run)


def test_int16_log_bounds_are_inclusive():
    SimConfig(n_fb=32767)
    SimConfig(n_wn=32767)


def test_chain_count_follows_band_size():
    record = run(SimConfig(horizon=3, n_fb=14, seed=61, replications=1))
    assert len(record.chain_params) == 14


def record_sha256(record) -> str:
    digest = hashlib.sha256()
    for field in ("truth", "actions", "observations", "cohorts",
                  "decisions", "supers", "transmits", "outcomes"):
        value = getattr(record, field)
        if value is not None:  # supers with super-decision off
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def test_record_regression_hash():
    # Guards the full trajectory contract (RNG derivation, step order,
    # sampling layout) under the default scenario.
    record = run(SimConfig(horizon=300, seed=2024, replications=1))
    assert record_sha256(record) == PINNED_RECORD_SHA256


PINNED_RECORD_SHA256 = (
    "da3861139280a92d05562be7c4e4b9c29a0765ddd229875406097a1de977f1d8"
)


def test_many_neighbour_record_pinned_hash():
    # 240 nodes on the default rings, each fusing up to 96 neighbours: the
    # fuse index outgrows a chunk, so each chunk of the open-loop passes is
    # one step.
    config = SimConfig(n_wn=240, horizon=12, seed=2026, replications=1)
    fused = len(build_neighbor_graph(config.resolved_placement()).fuse_index)
    assert fused == 18_960 > engine._CHUNK_ENTRIES
    record = run(config)
    assert check_structural_invariants(record) > 0
    assert record_sha256(record) == PINNED_MANY_NEIGHBOUR_SHA256


PINNED_MANY_NEIGHBOUR_SHA256 = (
    "31f1393041144f9038e9d1db2445f9584885909afe1db3093de796b23524034c"
)

# Nine ring nodes plus one 0.6 km beyond the outer ring: node 9 has no
# neighbours, so its cohort, decision and super-decision involve it alone.
ISOLATED_PLACEMENT = Placement(
    nodes=default_placement(9).nodes + ((0.0, -1.2),)
)

# Modes the default-scenario hash does not reach.  Rayleigh cohorts sum
# their members' log-miss values, so these hashes also pin that order.
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


@pytest.mark.parametrize("mode", sorted(MODE_MATRIX))
def test_mode_matrix_invariants_and_pinned_hash(mode):
    record = run(mode_config(mode))
    if mode.startswith("isolated-node"):
        assert record.cohorts[:, 9].max() == 1
    assert check_structural_invariants(record) > 0
    assert record_sha256(record) == PINNED_MODE_SHA256[mode]


PINNED_MODE_SHA256 = {
    "awgn-exact": "65e3475e78743f2e6ac924f1417942bbc3e0f1ae767c895b4236626ae2e02210",
    "global-qlearning": "2a3a1e228579fca5cc6148d89e554d66f453027cc16da44739645138e854fd95",
    "independent-draws": "b78834ccdd27fc8260835e119117fd14d4da0b6ef9799eb36b662f56822579c0",
    "isolated-node": "4db5d8f09668889e79ef955971910f421b6c19df293b203fec5dfdd51041154b",
    "isolated-node-qlearning": "261d74fda15a8ad1ab766c41b6532409678be632ed1cc0f01125657233e94ae0",
    "isolated-node-rayleigh": "8daff374580caa2837fd16afe689947b0cc11478773c0aa7b078cc279704fafd",
    "no-super-decision": "bec9068468b82ed56dc0993910bc6036754b6c35f2c530b7ce8bb8d530216882",
    "one-channel": "e317c8c61d8d0c72ef55f8338611820d4f202c9984eb609b2d5a45abc0b30903",
    "rayleigh-exact-independent": "0dd64330498974eb5e51f9d70699ca3934b12debafcf16cc360394e4ba0690d9",
    "rayleigh-global": "96a50c9ca151ae56f823cb62a7818e93042c9a3ebc6921483d575aef7db677af",
    "rayleigh-local": "6fd29570d6dbad253a5ed8d9f7fe341033cddb2a79278acdddcbb3d55eaecb25",
    "uniform": "38947e1c56a3c4d8a3fb3e3665413112292f5447091b10d7e43a9b3a55a4e9e4",
}


# The open-loop passes run in chunks of steps.  Super-decision fusion ORs
# decision rows eight channels to a 64-bit word: 8 channels fill one word
# exactly, 9 spill one byte into a second, and 65 and 130 take 9 and 17.
CHUNK_MODES = {
    "super-on": dict(),
    "super-off": dict(use_super_decision=False),
    "qlearning-rayleigh": dict(policy=PolicyKind.QLEARNING, fading=FadingKind.RAYLEIGH),
    "isolated-node": dict(placement=ISOLATED_PLACEMENT),
    "one-channel": dict(n_fb=1),
    "8-channels": dict(n_fb=8),
    "9-channels": dict(n_fb=9),
    "13-channels": dict(n_fb=13),
    "65-channels": dict(n_fb=65),
    "130-channels": dict(n_fb=130),
}


def assert_records_equal(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("mode", sorted(CHUNK_MODES))
def test_records_do_not_depend_on_the_chunk_size(monkeypatch, mode):
    config = SimConfig(horizon=300, seed=2026, replications=1, **CHUNK_MODES[mode])
    default = run(config)
    # The default chunk size splits the run into several chunks.
    fused = len(build_neighbor_graph(config.resolved_placement()).fuse_index)
    assert config.horizon * fused > 2 * engine._CHUNK_ENTRIES
    for entries in (1, 2**40):
        monkeypatch.setattr(engine, "_CHUNK_ENTRIES", entries)
        assert_records_equal(run(config), default)
    if config.n_fb > 8:
        assert check_structural_invariants(default) > 0
