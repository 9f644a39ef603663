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

N_CH = 6
V, O = int(Belief.VACANT), int(Belief.OCCUPIED)


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
