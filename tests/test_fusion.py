"""Belief-fusion tests: OR-rule semantics, lattice laws, two-hop reach."""

import numpy as np
import pytest

from jamsense.fusion import (
    Belief,
    DecisionVector,
    Observation,
    SuperDecisionVector,
    candidate_channels,
    fuse_decisions,
    fuse_observations,
)

N_CH = 6


def obs(node, channel, verdict, time=0):
    return Observation(node=node, channel=channel, verdict=verdict, time=time)


def vector(beliefs, owner=0, time=0):
    return DecisionVector(
        beliefs=np.asarray(beliefs, dtype=np.int8), owner=owner, time=time
    )


class TestFuseObservations:
    def test_own_only(self):
        d = fuse_observations(obs(0, 2, Belief.VACANT), [], N_CH)
        assert d.beliefs.tolist() == [0, 0, 1, 0, 0, 0]
        assert d.owner == 0

    def test_neighbor_occupied_overrides_own_vacant(self):
        d = fuse_observations(
            obs(0, 2, Belief.VACANT), [obs(1, 2, Belief.OCCUPIED)], N_CH
        )
        assert d.beliefs[2] == Belief.OCCUPIED

    def test_or_over_duplicates(self):
        d = fuse_observations(
            obs(0, 1, Belief.OCCUPIED),
            [obs(1, 4, Belief.VACANT), obs(2, 4, Belief.OCCUPIED)],
            N_CH,
        )
        assert d.beliefs.tolist() == [0, 2, 0, 0, 2, 0]

    def test_cross_step_mixing_rejected(self):
        with pytest.raises(ValueError):
            fuse_observations(
                obs(0, 1, Belief.VACANT), [obs(1, 2, Belief.VACANT, time=1)], N_CH
            )

    def test_out_of_range_channel_rejected(self):
        with pytest.raises(ValueError):
            fuse_observations(obs(0, N_CH, Belief.VACANT), [], N_CH)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            Observation(node=0, channel=1, verdict=Belief.UNKNOWN, time=0)


class TestFuseDecisions:
    def test_identity_without_neighbors(self):
        own = vector([0, 1, 2, 0, 1, 0])
        merged = fuse_decisions(own, [])
        assert isinstance(merged, SuperDecisionVector)
        assert merged.beliefs.tolist() == own.beliefs.tolist()

    def test_occupied_dominates_vacant(self):
        own = vector([0, 0, 0, 1, 0, 0])
        other = vector([0, 0, 0, 2, 0, 0], owner=1)
        assert fuse_decisions(own, [other]).beliefs[3] == Belief.OCCUPIED

    def test_vacant_dominates_unknown(self):
        own = vector([0, 0, 0, 0, 0, 0])
        other = vector([0, 0, 0, 0, 0, 1], owner=1)
        assert fuse_decisions(own, [other]).beliefs[5] == Belief.VACANT

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_decisions(vector([0, 1]), [vector([0, 1, 2], owner=1)])

    def test_cross_step_rejected(self):
        with pytest.raises(ValueError):
            fuse_decisions(vector([0, 1]), [vector([0, 1], owner=1, time=3)])


class TestCandidateChannels:
    def test_all_occupied_means_no_transmission(self):
        assert candidate_channels([2] * N_CH) == []

    def test_all_unknown_ignored(self):
        assert candidate_channels([0] * N_CH) == []

    def test_vacant_channels_ascending(self):
        assert candidate_channels([1, 2, 1, 0, 0, 0]) == [0, 2]


class TestLatticeLaws:
    def _random_vectors(self, rng, count):
        return [
            vector(rng.integers(0, 3, size=N_CH), owner=k) for k in range(count)
        ]

    def test_commutative_associative_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a, b, c = self._random_vectors(rng, 3)
            ab = fuse_decisions(a, [b]).beliefs
            ba = fuse_decisions(b, [a]).beliefs
            assert np.array_equal(ab, ba)
            ab_c = fuse_decisions(vector(ab), [c]).beliefs
            bc = fuse_decisions(b, [c]).beliefs
            a_bc = fuse_decisions(a, [vector(bc)]).beliefs
            assert np.array_equal(ab_c, a_bc)
            assert np.array_equal(fuse_decisions(a, [a]).beliefs, a.beliefs)

    def test_super_vector_upgrade_rules(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            own = vector(rng.integers(0, 3, size=N_CH))
            others = self._random_vectors(rng, int(rng.integers(0, 4)))
            merged = fuse_decisions(own, others).beliefs
            stack = np.stack([own.beliefs] + [o.beliefs for o in others])
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
        all_obs = [
            obs(i, int(actions[i]), verdicts[i]) for i in range(n_nodes)
        ]
        decisions = [
            fuse_observations(all_obs[i], [all_obs[j] for j in sorted(adjacency[i])], n_ch)
            for i in range(n_nodes)
        ]
        for i in range(n_nodes):
            merged = fuse_decisions(
                decisions[i], [decisions[j] for j in sorted(adjacency[i])]
            )
            two_hop = {i} | adjacency[i]
            for j in adjacency[i]:
                two_hop |= adjacency[j]
            expected = {int(actions[j]) for j in two_hop}
            known = {
                c for c in range(n_ch) if merged.beliefs[c] != Belief.UNKNOWN
            }
            assert known == expected
