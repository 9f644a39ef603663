"""Policy tests: branch semantics, empirical distributions, Q updates."""

import numpy as np
import pytest
from scipy import stats

from jamsense.fusion import Belief
from jamsense.policies import (
    QParams,
    choose_action_pseudo_random,
    choose_action_qlearning,
    choose_action_uniform,
    update_q,
)


class TestPseudoRandom:
    def test_occupied_repeats_own_action(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            choice = choose_action_pseudo_random(4, Belief.OCCUPIED, [], 10, rng, 0.1)
            assert choice == 4

    def test_forced_exploitation_single_neighbor(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            choice = choose_action_pseudo_random(0, Belief.VACANT, [7], 10, rng, 1.0)
            assert choice == 7

    def test_exploration_uniform_over_complement(self):
        # epsilon 0, own action 0, neighbors on 1 and 2: uniform over 3..9.
        rng = np.random.default_rng(3)
        counts = np.zeros(10, dtype=int)
        draws = 100_000
        for _ in range(draws):
            counts[
                choose_action_pseudo_random(0, Belief.VACANT, [1, 2], 10, rng, 0.0)
            ] += 1
        assert counts[:3].sum() == 0
        chi2 = ((counts[3:] - draws / 7) ** 2 / (draws / 7)).sum()
        assert chi2 < stats.chi2.ppf(0.99, 6)

    def test_exploitation_uniform_over_neighbors(self):
        rng = np.random.default_rng(4)
        neighbor_channels = [3, 5, 8]
        counts = {3: 0, 5: 0, 8: 0}
        draws = 30_000
        for _ in range(draws):
            counts[
                choose_action_pseudo_random(
                    0, Belief.VACANT, neighbor_channels, 10, rng, 1.0
                )
            ] += 1
        chi2 = sum((c - draws / 3) ** 2 / (draws / 3) for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.99, 2)

    def test_no_neighbors_falls_through_to_exploration(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            choice = choose_action_pseudo_random(2, Belief.VACANT, [], 10, rng, 1.0)
            assert choice != 2
            seen.add(choice)
        assert len(seen) == 9

    def test_empty_exploration_pool_falls_back(self):
        # Self and neighbors cover the whole band: anything but own.
        rng = np.random.default_rng(6)
        for _ in range(50):
            choice = choose_action_pseudo_random(0, Belief.VACANT, [1], 2, rng, 0.0)
            assert choice == 1

    def test_single_channel_band(self):
        rng = np.random.default_rng(0)
        assert choose_action_pseudo_random(0, Belief.VACANT, [], 1, rng, 0.0) == 0

    def test_in_range_fuzzed(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            own = int(rng.integers(n))
            k = int(rng.integers(0, 4))
            neighbor_channels = [int(rng.integers(n)) for _ in range(k)]
            choice = choose_action_pseudo_random(
                own,
                rng.choice([Belief.VACANT, Belief.OCCUPIED]),
                neighbor_channels,
                n,
                rng,
                float(rng.random()),
            )
            assert 0 <= choice < n

    def test_replay_identical(self):
        def trace(seed):
            rng = np.random.default_rng(seed)
            out = []
            for k in range(300):
                out.append(
                    choose_action_pseudo_random(
                        k % 10, Belief.VACANT, [(k * 3) % 10], 10, rng, 0.3
                    )
                )
            return out

        assert trace(99) == trace(99)
        assert trace(99) != trace(100)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            choose_action_pseudo_random(
                0, Belief.VACANT, [], 10, np.random.default_rng(0), 1.5
            )


class TestUniform:
    def test_single_channel(self):
        assert choose_action_uniform(1, np.random.default_rng(0)) == 0

    def test_uniform_distribution(self):
        rng = np.random.default_rng(8)
        counts = np.zeros(10, dtype=int)
        draws = 100_000
        for _ in range(draws):
            counts[choose_action_uniform(10, rng)] += 1
        chi2 = ((counts - draws / 10) ** 2 / (draws / 10)).sum()
        assert chi2 < stats.chi2.ppf(0.99, 9)


class TestQLearning:
    def test_greedy_all_zero_table_picks_lowest_index(self):
        q, table = QParams(epsilon=0.0), np.zeros((2, 10))
        rng = np.random.default_rng(9)
        assert choose_action_qlearning(table[0], q, rng) == 0

    def test_argmax_ties_break_low(self):
        q, table = QParams(epsilon=0.0), np.zeros((1, 5))
        table[0] = [0.0, 2.0, 2.0, 1.0, 0.0]
        rng = np.random.default_rng(0)
        assert choose_action_qlearning(table[0], q, rng) == 1

    def test_argmax_invariant_under_positive_scaling(self):
        q, table = QParams(epsilon=0.0), np.zeros((1, 6))
        rng = np.random.default_rng(10)
        table[0] = rng.uniform(0, 1, 6)
        before = choose_action_qlearning(table[0], q, rng)
        table[0] *= 37.0
        assert choose_action_qlearning(table[0], q, rng) == before

    def test_single_channel_fixed_point(self):
        # Constant reward 1 on the only channel: Q -> r / (1 - discount).
        q, table = QParams(learning_rate=0.5, discount=0.9), np.zeros((1, 1))
        for _ in range(2000):
            update_q(q, table[0], 0, 1.0)
        assert table[0, 0] == pytest.approx(1.0 / (1.0 - 0.9), rel=1e-9)

    def test_update_rule_arithmetic(self):
        q, table = QParams(learning_rate=0.25, discount=0.5), np.zeros((1, 3))
        table[0] = [1.0, 4.0, 2.0]
        update_q(q, table[0], 2, 1.0)
        # target = r + discount * max(row) = 1 + 0.5*4 = 3; Q += 0.25*(3-2)
        assert table[0, 2] == pytest.approx(2.25)

    def test_epsilon_one_explores_uniformly(self):
        q, table = QParams(epsilon=1.0), np.zeros((1, 8))
        table[0, 3] = 100.0
        rng = np.random.default_rng(11)
        seen = {
            choose_action_qlearning(table[0], q, rng) for _ in range(400)
        }
        assert seen == set(range(8))

    def test_update_changes_only_the_given_row_in_place(self):
        # The engine passes q_table[i]; learning depends on the update
        # landing in that row.
        q = QParams(learning_rate=0.25, discount=0.5)
        table = np.random.default_rng(12).uniform(0, 1, (4, 6))
        before = table.copy()
        update_q(q, table[2], 3, 1.0)
        expected = before[2, 3] + 0.25 * (1.0 + 0.5 * before[2].max() - before[2, 3])
        assert table[2, 3] == expected
        changed = table != before
        assert changed.sum() == 1 and changed[2, 3]

    def test_explore_draws_over_row_length(self):
        # Epsilon 1: one double, then a channel drawn over len(row).
        q = QParams(epsilon=1.0)
        for width in (1, 3, 7):
            row = np.zeros((2, width))[1]
            for seed in range(20):
                expected_rng = np.random.default_rng(seed)
                expected_rng.random()
                expected = int(expected_rng.integers(width))
                choice = choose_action_qlearning(row, q, np.random.default_rng(seed))
                assert choice == expected

    def test_list_and_ndarray_rows_agree_bit_for_bit(self):
        # The engine keeps plain float rows; an ndarray row must behave the same.
        q = QParams(learning_rate=0.3, discount=0.7, epsilon=0.2)
        greedy = QParams(learning_rate=0.3, discount=0.7, epsilon=0.0)
        as_list, as_array = [0.0] * 6, np.zeros((2, 6))[1]
        list_rng, array_rng = np.random.default_rng(13), np.random.default_rng(13)
        script = np.random.default_rng(14)
        for _ in range(500):
            action, reward = int(script.integers(6)), float(script.integers(2))
            update_q(q, as_list, action, reward)
            update_q(q, as_array, action, reward)
            assert np.array(as_list).tobytes() == as_array.tobytes()
            choice = choose_action_qlearning(as_list, q, list_rng)
            assert choice == choose_action_qlearning(as_array, q, array_rng)
            assert choose_action_qlearning(as_list, greedy, list_rng) == int(
                np.argmax(as_array)
            )
            assert choose_action_qlearning(as_array, greedy, array_rng) == int(
                np.argmax(as_array)
            )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            QParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            QParams(discount=1.0)
        with pytest.raises(ValueError):
            QParams(epsilon=-0.1)
