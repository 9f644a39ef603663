"""Time-slotted simulation loop and the two evaluation metrics.

Each time step has three sub-slots.  First every node senses the channel
given by its current action; the sensing outcome is sampled from the
detection/false-alarm probabilities, with the diversity order m set by
how many cohort members (the node plus neighbors on the same channel)
sense that channel.  Second, nodes exchange (action, observation) tuples
and OR-fuse them into decision vectors, pick their next action, then
exchange decision vectors and fuse those into super-decision vectors.
Third, every node transmits on a channel it believes vacant (chosen
uniformly among candidates) or skips the step when it has none.

Metrics: the jammer detection ratio (JDR) counts, over occupied
channel-steps, the fraction on which at least one node raw-observed the
jammer; the transmission success rate (TSR) counts successful over
attempted transmissions, with skipped node-steps excluded.

A run is fully determined by its seed; batches of replications may
execute in parallel since every replication owns its entire world state.
Only sensing and channel selection feed the next step, so a run is
evaluated in three parts: the jammer truth for the whole run, chain by
chain; a closed loop over steps that senses and picks the next actions;
then open-loop passes over chunks of steps that fuse, pick the transmit
channels and score the transmissions.  Every substream is drawn in the
same order as in a step-by-step evaluation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Annotated, List, Optional, Tuple

import numpy as np

from . import rng as rngmod
from .fusion import Belief, candidate_channels, fuse_observations
from .jammers import init_chains, step as step_chain
from .network import (
    NeighborGraph,
    Placement,
    build_neighbor_graph,
    default_placement,
    jammer_distance_km,
    snr_at_node,
)
from .policies import (
    PolicyKind,
    QParams,
    choose_action_pseudo_random,
    choose_action_qlearning,
    choose_action_uniform,
    update_q,
)
from .schema import ConfigError, Range, _cast, read_back
from .sensing import (
    DetectionParams,
    FadingKind,
    FalseAlarmTable,
    ProbabilityGrid,
    build_awgn_grid,
    build_rayleigh_grid,
    check_snr,
    false_alarm_probability,
    p_d_awgn,
    p_d_rayleigh_single,
    snr_axis,
    snr_axis_points,
)

# Transmission outcomes.
SKIPPED = 0
SUCCESSFUL = 1
JAMMED = 2

# Channel indices and cohort sizes are logged as int16.
_INT16_MAX = np.iinfo(np.int16).max
# derive_seed reads a seed or replication as 64 bits; outside them two seeds
# would give one run.
_Seed = Annotated[int, Range(0, (1 << 64) - 1)]
# Bounds the memory and set-up time of the AWGN detection table (the
# reference table has 16 x 6 entries).
_GRID_MAX_ENTRIES = 10_000
# Fused entries (steps x fuse-index length) per chunk of the open-loop
# passes; bounds their temporaries and changes no result.
_CHUNK_ENTRIES = 4096


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation scenario.

    Checked once, when built (also by `dataclasses.replace`), and immutable
    afterwards, so every SimConfig that exists is a valid one.
    """

    n_wn: Annotated[int, Range(1, _INT16_MAX)] = 10
    n_fb: Annotated[int, Range(1, _INT16_MAX)] = 10
    horizon: Annotated[int, Range(1)] = 2000
    fading: FadingKind = FadingKind.AWGN
    policy: PolicyKind = PolicyKind.PSEUDO_RANDOM
    epsilon_n: Annotated[float, Range(0, 1)] = 0.1
    qlearning: QParams = field(default_factory=QParams)
    detection: DetectionParams = field(default_factory=DetectionParams)
    false_alarm: FalseAlarmTable = field(default_factory=FalseAlarmTable)
    placement: Optional[Placement] = None  # None -> default two-ring layout
    jammer_bounds: Tuple[float, float] = (0.85, 0.98)
    use_super_decision: bool = True
    seed: _Seed = 0
    replications: Annotated[int, Range(1)] = 100
    grid_lookup: bool = True    # detection probabilities via snapped lookup table
    shared_draw: bool = True    # one sensing draw per channel-step (see README)
    global_cohort: bool = False  # count all co-sensing nodes, not just neighbors
    grid_snr_min_db: float = 0.0
    grid_snr_max_db: float = 15.0
    grid_snr_step_db: Annotated[float, Range(0, open_lo=True)] = 1.0
    grid_m_max: Annotated[int, Range(1)] = 6

    def __post_init__(self) -> None:
        read_back(self)
        lo, hi = self.jammer_bounds
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(f"jammer_bounds: {self.jammer_bounds} invalid")
        if self.grid_snr_max_db < self.grid_snr_min_db:
            raise ConfigError("grid_snr_max_db: grid SNR range is empty")
        snr_points = snr_axis_points(
            self.grid_snr_min_db, self.grid_snr_max_db, self.grid_snr_step_db
        )
        if not snr_points * self.grid_m_max <= _GRID_MAX_ENTRIES:
            raise ConfigError(
                f"grid_m_max: detection grid of {snr_points:.6g} SNR points x "
                f"grid_m_max={self.grid_m_max} exceeds {_GRID_MAX_ENTRIES} entries"
            )
        if self.placement is not None and self.placement.n_nodes != self.n_wn:
            raise ConfigError(
                f"placement.nodes: {self.placement.n_nodes} nodes but n_wn={self.n_wn}"
            )
        # Every SNR the detection model may be evaluated at must be in range.
        d = self.detection
        placement = self.resolved_placement()
        for i in range(self.n_wn):
            if jammer_distance_km(placement, i) == 0.0:
                raise ConfigError(
                    f"placement.nodes[{i}]: sits on the jammer site {placement.jammer}"
                )
            try:
                snr = snr_at_node(placement, i, d.sigma2)
            except OverflowError:
                snr = math.inf
            check_snr(d, self.fading, snr, f"placement.nodes[{i}]: jammer SNR")
        self.check_tables(self.fading)

    def check_tables(self, *kinds: FadingKind) -> None:
        """Raise ConfigError unless each kind's detection table covers the grid."""
        top_db = snr_axis(
            self.grid_snr_min_db, self.grid_snr_max_db, self.grid_snr_step_db
        )[-1]
        try:
            top = 10.0 ** (top_db / 10.0)
        except OverflowError:
            top = math.inf
        for kind in kinds:
            check_snr(self.detection, kind, top, "grid_snr_max_db: the grid's last point")

    def grid(self, kind: FadingKind) -> ProbabilityGrid:
        """The detection table of `kind` over this config's SNR axis."""
        axis = (self.grid_snr_min_db, self.grid_snr_max_db, self.grid_snr_step_db)
        if kind is FadingKind.AWGN:
            return build_awgn_grid(self.detection, *axis, self.grid_m_max)
        return build_rayleigh_grid(self.detection, *axis)

    def resolved_placement(self) -> Placement:
        return self.placement if self.placement is not None else default_placement(self.n_wn)


@dataclass
class RunRecord:
    """Everything one run produced, enough to recompute any metric."""

    config: SimConfig
    replication: int
    run_seed: int
    chain_params: Tuple[Tuple[float, float, bool], ...]  # (stay_idle, stay_active, initial)
    snr_db: Tuple[float, ...]  # per node, before any grid clamping
    graph: NeighborGraph
    truth: np.ndarray
    actions: np.ndarray
    observations: np.ndarray
    cohorts: np.ndarray
    decisions: np.ndarray
    supers: Optional[np.ndarray]
    transmits: np.ndarray
    outcomes: np.ndarray

    def __len__(self) -> int:
        return self.truth.shape[0]

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self.graph.edges()


class _World:
    """Resolved per-run state: geometry, probability tables, substreams."""

    def __init__(self, config: SimConfig, replication: int):
        run_seed = rngmod.derive_seed(config.seed, rngmod.REPLICATION, replication)
        self.config = config
        self.replication = replication
        self.run_seed = run_seed
        placement = config.resolved_placement()
        self.graph = build_neighbor_graph(placement)
        self.chains = init_chains(config.n_fb, config.jammer_bounds, run_seed)
        self.sensing_rng = rngmod.substream(run_seed, rngmod.SENSING)
        # The policy and transmit streams draw one scalar at a time, which
        # WordDraws serves from raw words with Generator's exact values.
        self.policy_rng = rngmod.WordDraws(rngmod.substream(run_seed, rngmod.POLICY))
        self.transmit_rng = rngmod.WordDraws(
            rngmod.substream(run_seed, rngmod.TRANSMIT)
        )

        n = config.n_wn
        params = config.detection
        snr = np.array([snr_at_node(placement, i, params.sigma2) for i in range(n)])
        # An SNR that underflows to 0 is -inf dB, a grid's first row.
        with np.errstate(divide="ignore"):
            self.snr_db = 10.0 * np.log10(snr)

        # Detection probability per (node, m) for m = 1 .. len(row); larger
        # cohorts read the last column.  Columns stop where the evaluator
        # stops telling m apart: a grid clamps m at its last column, and
        # Rayleigh values are single-node ones that cohorts combine.
        if config.grid_lookup:
            grid = config.grid(config.fading)
            columns = min(n, len(grid.diversity))
            snr_db = self.snr_db.tolist()  # Python floats clamp and bisect faster
            p_d = lambda i, m: grid.lookup(snr_db[i], m)
        elif config.fading is FadingKind.AWGN:
            columns = n
            p_d = lambda i, m: p_d_awgn(params, snr[i], m)
        else:
            columns = 1
            p_d = lambda i, m: p_d_rayleigh_single(params, snr[i])
        self.p_d = np.array(
            [[p_d(i, m) for m in range(1, columns + 1)] for i in range(n)]
        )
        # log(1 - p) per node; Rayleigh cohort combining sums these.
        with np.errstate(divide="ignore"):
            self.log_miss = np.log1p(-self.p_d[:, 0])

        # By cohort size m = 0 .. n (0 never occurs; it reads m = 1): the
        # false-alarm probability, and the p_d column, clamped at the last.
        self.p_fa = np.array([
            false_alarm_probability(config.false_alarm, config.fading, max(m, 1))
            for m in range(n + 1)
        ])
        self.p_d_column = np.clip(np.arange(n + 1), 1, columns) - 1
        # (lo, hi) per node i: fuse_index[lo:hi] is node i, then its neighbours.
        bounds = self.graph.fuse_starts.tolist() + [len(self.graph.fuse_index)]
        self.segments = list(zip(bounds, bounds[1:]))


def _super_rows(
    decisions: np.ndarray, fuse_index: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Each node's elementwise max of decision rows over its fuse-index segment.

    `decisions` holds (steps, nodes, channels).  The beliefs 0, 1 and 2 are
    bit flags, so ORing a segment gives 0 (nothing known), 1 (only VACANT),
    2 (only OCCUPIED) or 3 (both), and clamping 3 to 2 gives the max over
    0 < 1 < 2.  The rows are ORed as bytes, eight channels to a 64-bit word:
    one `bitwise_or.reduceat` over rows zero-padded to whole words.
    """
    steps, n, n_fb = decisions.shape
    padded = np.zeros((steps, n, -(-n_fb // 8) * 8), dtype=np.int8)
    padded[..., :n_fb] = decisions
    # np.take along the node axis: the fancy index words[:, fuse_index]
    # takes a much slower path for these 3-D uint64 words.
    words = np.take(padded.view(np.uint64), fuse_index, axis=1)
    fused = np.bitwise_or.reduceat(words, starts, axis=1).view(np.int8)
    return np.minimum(fused[..., :n_fb], int(Belief.OCCUPIED))


def _step_rows(log: np.ndarray, fuse_index: np.ndarray) -> List[memoryview]:
    """One flat memoryview per step of a (steps, nodes) log gathered by
    `fuse_index`; slices of it are the per-node segments, without copies."""
    width = len(fuse_index)
    flat = memoryview(np.take(log, fuse_index, axis=1).reshape(-1))
    return [flat[k : k + width] for k in range(0, len(flat), width)]


def _sense_and_act(world: _World, truth_log: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The closed loop over steps: sensing, then the policy.

    A step's verdicts, the neighbours' channels and the policy stream are
    all the next step's actions depend on.  Returns the action, observation
    and cohort logs.
    """
    config = world.config
    n, n_fb, horizon = config.n_wn, config.n_fb, config.horizon
    action_log = np.empty((horizon, n), dtype=np.int16)
    obs_log = np.empty((horizon, n), dtype=np.int8)
    cohort_log = np.empty((horizon, n), dtype=np.int16)

    policy_rng = world.policy_rng
    # Initial actions: one uniform channel per node, the values of
    # Generator.integers(0, n_fb, size=n).
    actions = [policy_rng.integers(n_fb) for _ in range(n)]
    policy, q, epsilon_n = config.policy, config.qlearning, config.epsilon_n
    # Action values per (node, channel) as plain float rows, used by
    # q-learning only.
    q_table = (
        [[0.0] * n_fb for _ in range(n)] if policy is PolicyKind.QLEARNING else None
    )
    graph = world.graph
    fuse_index, owner = graph.fuse_index, graph.fuse_owner
    segments, p_fa, p_d_column = world.segments, world.p_fa, world.p_d_column
    # p_d[i, c] is p_d_flat[p_d_base[i] + c]: one 1-D gather per step.
    p_d_flat = world.p_d.ravel()
    p_d_base = np.arange(n) * world.p_d.shape[1]
    awgn = config.fading is FadingKind.AWGN
    occupied, vacant = int(Belief.OCCUPIED), int(Belief.VACANT)

    for t in range(horizon):
        # Sensing sub-slot.  In shared-draw mode one uniform per channel
        # decides every co-sensing node's verdict (comonotone coupling:
        # cohort mates with equal probabilities get one shared verdict);
        # otherwise each node draws independently.
        draws = world.sensing_rng.random(n_fb if config.shared_draw else n)
        acts = np.array(actions)
        fused = acts[fuse_index]
        # Cohort: the nodes whose simultaneous sensing of a node's channel
        # sets its diversity order m.  Locally that is the node and its
        # co-sensing neighbours (segment order: the node first, so every node
        # has its bin); globally, every co-sensing node in index order, one
        # bin per channel.  Sizes and log-miss sums are sums over each bin.
        if config.global_cohort:
            cohorts = np.bincount(acts)[acts]
        else:
            same = (fused == acts[owner]).nonzero()[0]  # gathers faster than a mask
            bins = owner[same]
            cohorts = np.bincount(bins)
        jammed = truth_log[t][acts]
        p = p_fa[cohorts]
        if awgn:
            p = np.where(jammed, p_d_flat[p_d_base + p_d_column[cohorts]], p)
        else:
            # Rayleigh: the cohort misses only if every member does.  The
            # log-miss sums add in cohort order; the combining stays scalar
            # libm expm1, which numpy's vector expm1 need not match bit for bit.
            if config.global_cohort:
                log_miss = np.bincount(acts, world.log_miss)[acts].tolist()
            else:
                log_miss = np.bincount(bins, world.log_miss[fuse_index[same]]).tolist()
            hit = jammed.nonzero()[0]
            p[hit] = [-math.expm1(log_miss[i]) for i in hit.tolist()]
        u = draws[acts] if config.shared_draw else draws
        verdicts = (u < p) + vacant  # OCCUPIED (VACANT + 1) where u < p
        action_log[t] = acts
        obs_log[t] = verdicts
        cohort_log[t] = cohorts

        # Next actions from this step's observations and neighbor channels.
        if policy is PolicyKind.PSEUDO_RANDOM:
            fused_acts = fused.tolist()
            actions = [
                choose_action_pseudo_random(
                    action, observation, fused_acts[lo + 1 : hi],
                    n_fb, policy_rng, epsilon_n,
                )
                for action, observation, (lo, hi) in zip(
                    actions, verdicts.tolist(), segments
                )
            ]
        elif policy is PolicyKind.UNIFORM:
            actions = [choose_action_uniform(n_fb, policy_rng) for _ in range(n)]
        else:
            # Each node's row learns from its segment (the node, then its
            # neighbours) before any node picks.
            fused_acts = fused.tolist()
            fused_obs = verdicts[fuse_index].tolist()
            for row, (lo, hi) in zip(q_table, segments):
                for k in range(lo, hi):
                    reward = 1.0 if fused_obs[k] == occupied else 0.0
                    update_q(q, row, fused_acts[k], reward)
            actions = [choose_action_qlearning(row, q, policy_rng) for row in q_table]
    return action_log, obs_log, cohort_log


def _fuse_and_transmit(
    world: _World, action_log: np.ndarray, obs_log: np.ndarray
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """The open-loop passes, over chunks of steps: both fusion stages, then
    the transmit choices, whose draws stay in (step, node) order.

    Returns the decision, super-decision (None when off) and transmit logs.
    """
    config = world.config
    n, n_fb, horizon = config.n_wn, config.n_fb, config.horizon
    decision_log = np.empty((horizon, n, n_fb), dtype=np.int8)
    super_log = (
        np.empty((horizon, n, n_fb), dtype=np.int8)
        if config.use_super_decision
        else None
    )
    transmit_log = np.empty((horizon, n), dtype=np.int16)
    transmit_rng = world.transmit_rng
    # np.take copies a read-only index on every call; the graph's is
    # read-only, so the run gathers through one writeable copy of it.
    fuse_index, starts = world.graph.fuse_index.copy(), world.graph.fuse_starts
    span = max(1, _CHUNK_ENTRIES // len(fuse_index))
    # A flat view of the transmit log, in (step, node) order.
    transmits = transmit_log.reshape(-1)
    for t0 in range(0, horizon, span):
        t1 = min(t0 + span, horizon)
        # Collaboration sub-slot: each node fuses the (channel, verdict)
        # pairs of its fuse-index segment, its own first, read as zero-copy
        # memoryview slices of the gathered chunk.  Beliefs are 0..2, so the
        # rows pack into bytes, which numpy reads several times faster than
        # it converts nested lists.
        acts = _step_rows(action_log[t0:t1], fuse_index)
        obs = _step_rows(obs_log[t0:t1], fuse_index)
        decision_log[t0:t1] = np.frombuffer(
            b"".join([
                bytes(fuse_observations(a[lo:hi], o[lo:hi], n_fb))
                for a, o in zip(acts, obs)
                for lo, hi in world.segments
            ]),
            dtype=np.int8,
        ).reshape(t1 - t0, n, n_fb)
        # The gathered chunk is freed before super-decision fusion, whose
        # gather is the largest temporary.
        del acts, obs
        if super_log is None:
            governing = decision_log[t0:t1]
        else:
            # Second-stage fusion: exchange decision vectors; each node's
            # super vector is the elementwise max over its segment of the
            # fuse index.
            super_log[t0:t1] = _super_rows(decision_log[t0:t1], fuse_index, starts)
            governing = super_log[t0:t1]
        # Transmission sub-slot, in (step, node) order; a node with no
        # candidate skips the step and makes no transmit draw.
        rows = governing.reshape(-1, n_fb).tolist()
        transmits[t0 * n : t1 * n] = [
            cands[transmit_rng.integers(len(cands))] if cands else -1
            for cands in map(candidate_channels, rows)
        ]
    return decision_log, super_log, transmit_log


def _run_world(world: _World) -> RunRecord:
    config = world.config
    horizon = config.horizon
    chain_params = tuple(
        (c.stay_idle, c.stay_active, c.active) for c in world.chains
    )
    # Jammer truth for the whole run.  Nothing the nodes do feeds back into
    # a chain, and each chain draws from its own substream, so the chains
    # run one after another; the initial states are the step-0 truth.
    truth_log = np.empty((horizon, config.n_fb), dtype=bool)
    for k, chain in enumerate(world.chains):
        truth_log[:, k] = [chain.active] + [
            step_chain(chain) for _ in range(horizon - 1)
        ]
    action_log, obs_log, cohort_log = _sense_and_act(world, truth_log)
    decision_log, super_log, transmit_log = _fuse_and_transmit(
        world, action_log, obs_log
    )
    # Skipped without a transmit; otherwise jammed exactly when the chosen
    # channel's jammer is active.
    hit = truth_log[np.arange(horizon)[:, None], transmit_log]
    outcome_log = np.where(hit, np.int8(JAMMED), np.int8(SUCCESSFUL))
    outcome_log[transmit_log < 0] = SKIPPED

    return RunRecord(
        config=config,
        replication=world.replication,
        run_seed=world.run_seed,
        chain_params=chain_params,
        snr_db=tuple(float(s) for s in world.snr_db),
        graph=world.graph,
        truth=truth_log,
        actions=action_log,
        observations=obs_log,
        cohorts=cohort_log,
        decisions=decision_log,
        supers=super_log,
        transmits=transmit_log,
        outcomes=outcome_log,
    )


def run(config: SimConfig, replication: int = 0) -> RunRecord:
    """Execute one seeded run; `replication`, read as the seed is, selects
    the derived seed."""
    return _run_world(_World(config, _cast(_Seed, replication, "replication")))


# ---------------------------------------------------------------------------
# Metrics


def detection_counts(record: RunRecord) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step (detected, total) occupied-channel counts.

    A channel-step counts as detected when at least one node sensed that
    channel and raw-observed it occupied; fused beliefs do not count.
    """
    occupied = record.truth
    sensed_occupied = np.zeros_like(occupied)
    hit = record.observations == Belief.OCCUPIED
    t_idx = np.nonzero(hit)[0]
    sensed_occupied[t_idx, record.actions[hit]] = True
    detected = (occupied & sensed_occupied).sum(axis=1)
    total = occupied.sum(axis=1)
    return detected, total


def transmission_counts(record: RunRecord) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step (successful, attempted) transmission counts; skips excluded."""
    successful = (record.outcomes == SUCCESSFUL).sum(axis=1)
    attempted = successful + (record.outcomes == JAMMED).sum(axis=1)
    return successful, attempted


def _prefix_ratio(numer: np.ndarray, denom: np.ndarray) -> np.ndarray:
    num = np.cumsum(numer, dtype=float)
    den = np.cumsum(denom, dtype=float)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def jdr_curve(record: RunRecord) -> np.ndarray:
    """Cumulative JDR after each step (zero where no jamming occurred yet)."""
    detected, total = detection_counts(record)
    return _prefix_ratio(detected, total)


def tsr_curve(record: RunRecord) -> np.ndarray:
    """Cumulative TSR after each step (zero where nothing attempted yet)."""
    successful, attempted = transmission_counts(record)
    return _prefix_ratio(successful, attempted)


# ---------------------------------------------------------------------------
# Replication batches


@dataclass
class BatchResult:
    """Mean/std metric curves over independent replications."""

    config: SimConfig
    jdr_mean: np.ndarray
    jdr_std: np.ndarray
    tsr_mean: np.ndarray
    tsr_std: np.ndarray
    jdr_final: np.ndarray  # per-replication final values
    tsr_final: np.ndarray
    jamming_occurred: bool  # False flags a degenerate JDR denominator
    transmissions_attempted: bool
    # Replication 0's resolved world, as in its RunRecord.
    snr_db: Tuple[float, ...]
    graph: NeighborGraph
    chain_params: Tuple[Tuple[float, float, bool], ...]

    @property
    def jdr_final_mean(self) -> float:
        return float(self.jdr_final.mean())

    @property
    def tsr_final_mean(self) -> float:
        return float(self.tsr_final.mean())

    def jdr_final_se(self) -> float:
        return _standard_error(self.jdr_final)

    def tsr_final_se(self) -> float:
        return _standard_error(self.tsr_final)


def _standard_error(finals: np.ndarray) -> float:
    """Standard error of the mean of per-replication finals; 0 for one."""
    n = len(finals)
    return float(finals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _replicate(args: Tuple[SimConfig, int]) -> Tuple:
    """Curves and flags of one replication, plus replication 0's world."""
    config, r = args
    record = run(config, replication=r)
    world = (record.snr_db, record.graph, record.chain_params) if r == 0 else None
    return (
        jdr_curve(record),
        tsr_curve(record),
        bool(record.truth.any()),
        bool((record.outcomes != SKIPPED).any()),
        world,
    )


def run_batch(config: SimConfig, workers: int = 1) -> BatchResult:
    """Run `config.replications` independent runs and average the curves.

    Replication r uses the derived seed H(seed, replication_tag, r), so
    results are independent of `workers`; curves are aggregated in
    replication order.  At most `workers` processes run, and no more than
    there are replications or CPUs; with one, the batch runs in-process.
    """
    workers = _cast(Annotated[int, Range(1)], workers, "workers")
    reps = config.replications
    tasks = [(config, r) for r in range(reps)]
    processes = min(workers, reps, os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            results = pool.map(_replicate, tasks)
    else:
        results = [_replicate(task) for task in tasks]

    jdr, tsr, jamming, attempts, worlds = zip(*results)
    jdr, tsr = np.stack(jdr), np.stack(tsr)
    snr_db, graph, chain_params = worlds[0]
    ddof = 1 if reps > 1 else 0
    return BatchResult(
        config=config,
        jdr_mean=jdr.mean(axis=0),
        jdr_std=jdr.std(axis=0, ddof=ddof),
        tsr_mean=tsr.mean(axis=0),
        tsr_std=tsr.std(axis=0, ddof=ddof),
        jdr_final=jdr[:, -1].copy(),
        tsr_final=tsr[:, -1].copy(),
        jamming_occurred=all(jamming),
        transmissions_attempted=all(attempts),
        snr_db=snr_db,
        graph=graph,
        chain_params=chain_params,
    )
