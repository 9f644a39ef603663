"""Belief-fusion tests: OR-rule semantics, lattice laws, two-hop reach."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamsense.fusion import (
    Belief,
    candidate_channels,
    fuse_decisions,
    fuse_observations,
)
from oracles import fuse_observations_loop

N_CH = 6
V, O = int(Belief.VACANT), int(Belief.OCCUPIED)
# The engine's int16 channel and int8 verdict logs, and numpy's default int64.
SEGMENT_DTYPES = (np.int16, np.int8, np.int64)


def segment(values, dtype, pad):
    """`values` as a memoryview slice from inside a larger array of `dtype`."""
    array = np.array([V] * pad + list(values) + [V] * pad, dtype=dtype)
    return memoryview(array)[pad : pad + len(values)]


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def outcome(fn, *args):
    """("ok", result) or ("error", the ValueError text)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# How a differential case passes its channels or verdicts: lists, Belief
# members (verdicts 0..2 only), numpy scalars, or memoryview slices.
CONTAINERS = ("list", "belief", "numpy") + SEGMENT_DTYPES


def contain(values, kind):
    if kind == "list":
        return list(values)
    if kind == "belief":
        return [Belief(v) if v in (0, 1, 2) else v for v in values]
    if kind == "numpy":
        return list(np.array(values))
    return segment(values, kind, 2)


@st.composite
def fusion_cases(draw):
    """(channels, verdicts, n_channels), at most one bad channel and one bad
    verdict (0, 3, -1, 1.5) injected, often in the same pair, and sometimes
    unequal lengths."""
    n_channels = draw(st.integers(1, 8))
    size = draw(st.integers(0, 12))
    channels = draw(st.lists(st.integers(0, n_channels - 1), min_size=size, max_size=size))
    verdicts = draw(st.lists(st.sampled_from([V, O]), min_size=size, max_size=size))
    if size:
        where = st.none() | st.integers(0, size - 1)
        bad_channel_at = draw(where)
        bad_verdict_at = draw(st.just(bad_channel_at) | where)
        if bad_channel_at is not None:
            channels[bad_channel_at] = draw(st.sampled_from([-1, n_channels, n_channels + 3]))
        if bad_verdict_at is not None:
            verdicts[bad_verdict_at] = draw(st.sampled_from([0, 3, -1, 1.5]))
    extra = draw(st.sampled_from([0, 0, 0, 1, -1]))
    if extra > 0:
        verdicts.append(V)
    elif extra < 0 and verdicts:
        verdicts.pop()
    return channels, verdicts, n_channels


class TestFuseObservations:
    def test_own_only(self):
        assert fuse_observations([2], [V], N_CH) == [0, 0, 1, 0, 0, 0]

    def test_neighbor_occupied_overrides_own_vacant(self):
        assert fuse_observations([2, 2], [V, O], N_CH)[2] == Belief.OCCUPIED

    def test_or_over_duplicates(self):
        beliefs = fuse_observations([1, 4, 4], [O, V, O], N_CH)
        assert beliefs == [0, 2, 0, 0, 2, 0]

    def test_out_of_range_channel_rejected(self):
        with pytest.raises(ValueError):
            fuse_observations([N_CH], [V], N_CH)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            fuse_observations([1], [Belief.UNKNOWN], N_CH)

    @pytest.mark.parametrize(
        "channels, verdicts", [([1, 2], [V]), ([1], [V, O]), ([], [V])]
    )
    def test_length_mismatch_rejected(self, channels, verdicts):
        with pytest.raises(ValueError, match="channels but"):
            fuse_observations(channels, verdicts, N_CH)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(0, N_CH - 1), st.sampled_from([V, O])),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
    )
    def test_order_free_and_equal_to_decision_fusion(self, pairs, random):
        channels, verdicts = zip(*pairs)
        beliefs = fuse_observations(channels, verdicts, N_CH)
        shuffled = random.sample(pairs, len(pairs))
        assert fuse_observations(*zip(*shuffled), N_CH) == beliefs
        singles = [fuse_observations([c], [v], N_CH) for c, v in pairs]
        assert fuse_decisions(singles) == beliefs

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(0, N_CH - 1), st.sampled_from([V, O])),
            max_size=12,
        ),
        st.sampled_from(SEGMENT_DTYPES),
        st.sampled_from(SEGMENT_DTYPES),
        st.integers(0, 3),
    )
    def test_memoryview_segments_equal_lists(self, pairs, a_dtype, o_dtype, pad):
        channels = [c for c, _ in pairs]
        verdicts = [v for _, v in pairs]
        beliefs = fuse_observations(
            segment(channels, a_dtype, pad), segment(verdicts, o_dtype, pad), N_CH
        )
        assert beliefs == fuse_observations(channels, verdicts, N_CH)
        assert all(type(b) is int for b in beliefs)

    @pytest.mark.parametrize("a_dtype", SEGMENT_DTYPES)
    @pytest.mark.parametrize("o_dtype", SEGMENT_DTYPES)
    @pytest.mark.parametrize(
        "channels, verdicts",
        [
            ([1, 2], [V, int(Belief.UNKNOWN)]),  # bad verdict
            ([3], [O + 1]),  # bad verdict
            ([1, N_CH], [V, O]),  # channel out of range
            ([-1], [V]),  # channel out of range
            ([1, 2], [V]),  # length mismatch
            ([], [O]),  # length mismatch
        ],
    )
    def test_memoryview_segments_raise_as_lists(
        self, a_dtype, o_dtype, channels, verdicts
    ):
        expected = raised(fuse_observations, channels, verdicts, N_CH)
        assert raised(
            fuse_observations,
            segment(channels, a_dtype, 2),
            segment(verdicts, o_dtype, 2),
            N_CH,
        ) == expected

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        fusion_cases(),
        st.sampled_from([c for c in CONTAINERS if c != "belief"]),
        st.sampled_from(CONTAINERS),
    )
    def test_matches_reference_loop(self, case, channel_kind, verdict_kind):
        channels, verdicts, n_channels = case
        if 1.5 in verdicts and verdict_kind in SEGMENT_DTYPES:
            verdict_kind = "numpy"
        args = (contain(channels, channel_kind), contain(verdicts, verdict_kind), n_channels)
        result = outcome(fuse_observations, *args)
        assert result == outcome(fuse_observations_loop, *args)
        if result[0] == "ok":
            assert all(type(b) is int for b in result[1])


class TestFuseDecisions:
    def test_identity_without_neighbors(self):
        own = [0, 1, 2, 0, 1, 0]
        assert fuse_decisions([own]) == own

    def test_occupied_dominates_vacant(self):
        own, other = [0, 0, 0, 1, 0, 0], [0, 0, 0, 2, 0, 0]
        assert fuse_decisions([own, other])[3] == Belief.OCCUPIED

    def test_vacant_dominates_unknown(self):
        own, other = [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]
        assert fuse_decisions([own, other])[5] == Belief.VACANT

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_decisions([[0, 1], [0, 1, 2]])


class TestCandidateChannels:
    def test_all_occupied_means_no_transmission(self):
        assert candidate_channels([2] * N_CH) == []

    def test_all_unknown_ignored(self):
        assert candidate_channels([0] * N_CH) == []

    def test_vacant_channels_ascending(self):
        assert candidate_channels([1, 2, 1, 0, 0, 0]) == [0, 2]


class TestLatticeLaws:
    def _random_vectors(self, rng, count):
        return [rng.integers(0, 3, size=N_CH) for _ in range(count)]

    def test_commutative_associative_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a, b, c = self._random_vectors(rng, 3)
            ab = fuse_decisions([a, b])
            ba = fuse_decisions([b, a])
            assert np.array_equal(ab, ba)
            ab_c = fuse_decisions([ab, c])
            bc = fuse_decisions([b, c])
            a_bc = fuse_decisions([a, bc])
            assert np.array_equal(ab_c, a_bc)
            assert np.array_equal(fuse_decisions([a, a]), a)

    def test_super_vector_upgrade_rules(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            own = rng.integers(0, 3, size=N_CH)
            others = self._random_vectors(rng, int(rng.integers(0, 4)))
            merged = fuse_decisions([own, *others])
            stack = np.stack([own, *others])
            for c in range(N_CH):
                inputs = stack[:, c]
                if (inputs == Belief.OCCUPIED).any():
                    assert merged[c] == Belief.OCCUPIED
                if merged[c] == Belief.UNKNOWN:
                    assert (inputs == Belief.UNKNOWN).all()


def test_two_hop_reach_on_random_topologies():
    # Channels known in the super-decision vector are exactly those
    # sensed by the node, its neighbors, or its neighbors' neighbors.
    rng = np.random.default_rng(41)
    for _ in range(60):
        n_nodes = int(rng.integers(2, 9))
        n_ch = int(rng.integers(2, 8))
        adjacency = [set() for _ in range(n_nodes)]
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.35:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
        actions = rng.integers(0, n_ch, size=n_nodes)
        verdicts = rng.choice([Belief.VACANT, Belief.OCCUPIED], size=n_nodes)
        members = [[i, *sorted(adjacency[i])] for i in range(n_nodes)]
        decisions = [
            fuse_observations(
                [int(actions[j]) for j in m], [verdicts[j] for j in m], n_ch
            )
            for m in members
        ]
        for i in range(n_nodes):
            merged = fuse_decisions([decisions[j] for j in members[i]])
            two_hop = {i} | adjacency[i]
            for j in adjacency[i]:
                two_hop |= adjacency[j]
            expected = {int(actions[j]) for j in two_hop}
            known = {
                c for c in range(n_ch) if merged[c] != Belief.UNKNOWN
            }
            assert known == expected
