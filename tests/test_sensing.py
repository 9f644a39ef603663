"""Detection-math tests: Marcum Q, closed forms, tables, grids."""

import copy
import csv
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from jamsense.schema import ConfigError
from jamsense.sensing import (
    DetectionParams,
    FadingKind,
    FalseAlarmTable,
    ProbabilityGrid,
    build_awgn_grid,
    build_rayleigh_grid,
    false_alarm_probability,
    marcum_q,
    p_d_awgn,
    p_d_rayleigh_combined,
    p_d_rayleigh_single,
)

from oracles import (
    grid_lookup_argmin,
    marcum_q_quadrature,
    rayleigh_single_literal,
    rayleigh_single_monte_carlo,
)

PARAMS = DetectionParams()

# Frozen from the quadrature oracle (marcum_q_quadrature), 2026-08.
MARCUM_5_2_SQRT121 = 0.575933757933750
PD_AWGN_10DB_M1 = 0.983958663877039
# Frozen from the literal two-sum closed form (rayleigh_single_literal).
PD_RAY_GBAR10 = 0.821132030317377


def raised_or(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestMarcumQ:
    def test_beta_zero_is_one(self):
        assert marcum_q(5, 2.0, 0.0) == 1.0

    def test_alpha_zero_closed_form(self):
        # Q_1(0, b) = exp(-b^2 / 2)
        assert marcum_q(1, 0.0, 3.0) == pytest.approx(math.exp(-4.5), abs=1e-14)

    def test_frozen_quadrature_value(self):
        assert marcum_q(5, 2.0, math.sqrt(12.1)) == pytest.approx(
            MARCUM_5_2_SQRT121, abs=1e-10
        )

    def test_against_quadrature_oracle_small_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            order = int(rng.integers(1, 31))
            alpha = float(rng.uniform(0, 8))
            beta = float(rng.uniform(0, 8))
            assert marcum_q(order, alpha, beta) == pytest.approx(
                marcum_q_quadrature(order, alpha, beta), abs=1e-10
            )

    def test_against_scipy_noncentral_chi_square(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            order = float(rng.integers(1, 65))
            alpha = float(rng.uniform(0, 12))
            beta = float(rng.uniform(0, 12))
            ref = stats.ncx2.sf(beta**2, 2 * order, alpha**2) if alpha > 0 else \
                special.gammaincc(order, beta**2 / 2)
            assert marcum_q(order, alpha, beta) == pytest.approx(ref, abs=5e-13)

    def test_half_integer_orders(self):
        for order in (0.5, 1.5, 7.5):
            ref = stats.ncx2.sf(9.0, 2 * order, 4.0)
            assert marcum_q(order, 2.0, 3.0) == pytest.approx(ref, abs=1e-12)

    def test_monotonicity_grid(self):
        # Non-increasing in beta, non-decreasing in alpha and in order,
        # checked pointwise on > 1000 grid points.
        orders = [1, 2, 5, 10, 30]
        alphas = np.linspace(0, 8, 9)
        betas = np.linspace(0, 8, 9)
        values = {
            (o, a, b): marcum_q(o, float(a), float(b))
            for o in orders
            for a in alphas
            for b in betas
        }
        assert len(values) > 1000 * 0.4  # 405 triples, 3 directions > 1000 checks
        checks = 0
        for o in orders:
            for a in alphas:
                for b0, b1 in zip(betas, betas[1:]):
                    assert values[(o, a, b1)] <= values[(o, a, b0)] + 1e-12
                    checks += 1
        for o in orders:
            for b in betas:
                for a0, a1 in zip(alphas, alphas[1:]):
                    assert values[(o, a1, b)] >= values[(o, a0, b)] - 1e-12
                    checks += 1
        for a in alphas:
            for b in betas:
                for o0, o1 in zip(orders, orders[1:]):
                    assert values[(o1, a, b)] >= values[(o0, a, b)] - 1e-12
                    checks += 1
        assert checks >= 1000

    def test_stays_in_unit_interval_at_float_limits(self):
        # beta**2/2 underflows to 0; at alpha = 38 the Poisson weights are subnormal.
        assert marcum_q(5, 1.0, 1e-170) == 1.0
        assert 0.0 <= marcum_q(5, 38.0, 45.0) <= 1.0

    @pytest.mark.parametrize(
        "alpha, beta, expected",
        [
            # Poisson-series sums at 60 digits (mpmath); e^{-alpha^2/2} underflows.
            (40.0, 60.0, 1.7081004652578547632e-88),
            (38.0, 45.0, 2.7642495397426432277e-12),
            # Same series at 50 digits; beta**2/2 = 760.5 makes the first
            # upper-gamma step x^5 e^{-x}/5! subnormal.
            (math.sqrt(1415.98), 39.0, 0.10509979803001510219),
        ],
    )
    def test_large_alpha_oracle(self, alpha, beta, expected):
        value = marcum_q(5, alpha, beta)
        assert value == pytest.approx(expected, rel=1e-6)
        assert abs(value - expected) <= 1e-12

    def test_beyond_reliable_noncentrality_raises(self):
        with pytest.raises(ValueError, match="alpha"):
            marcum_q(5, 1e6, 1e6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q(0.4, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            marcum_q(1.0, math.inf, 1.0)


class TestPdAwgn:
    def test_zero_threshold_always_detects(self):
        params = DetectionParams(threshold=0.0)
        assert p_d_awgn(params, 1.0, 1) == 1.0

    def test_frozen_10db_value(self):
        assert p_d_awgn(PARAMS, 10.0, 1) == pytest.approx(PD_AWGN_10DB_M1, abs=1e-10)

    def test_equals_marcum_composition(self):
        snr, m = 3.7, 4
        expected = marcum_q(
            m * PARAMS.n_samples / 2,
            math.sqrt(PARAMS.noncentrality * snr / PARAMS.sigma2),
            math.sqrt(PARAMS.threshold / PARAMS.sigma2),
        )
        assert p_d_awgn(PARAMS, snr, m) == expected

    def test_monotone_in_diversity(self):
        for snr_db in range(0, 16):
            snr = 10 ** (snr_db / 10)
            assert p_d_awgn(PARAMS, snr, 2) >= p_d_awgn(PARAMS, snr, 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            p_d_awgn(PARAMS, 1.0, 0)
        with pytest.raises(ValueError):
            p_d_awgn(PARAMS, -1.0, 1)


class TestPdRayleigh:
    def test_zero_threshold_is_one(self):
        params = DetectionParams(threshold=0.0)
        for gbar in (0.5, 1.0, 31.6):
            assert p_d_rayleigh_single(params, gbar) == 1.0

    def test_frozen_value_and_literal_form(self):
        assert p_d_rayleigh_single(PARAMS, 10.0) == pytest.approx(
            PD_RAY_GBAR10, abs=1e-12
        )
        for gbar in (0.3, 1.0, 3.16, 10.0, 31.6):
            literal = rayleigh_single_literal(
                PARAMS.sigma2, PARAMS.noncentrality, PARAMS.threshold,
                PARAMS.n_samples, gbar,
            )
            assert p_d_rayleigh_single(PARAMS, gbar) == pytest.approx(
                literal, abs=1e-12
            )

    def test_monte_carlo_oracle_quick(self):
        mc, se = rayleigh_single_monte_carlo(
            PARAMS.sigma2, PARAMS.noncentrality, PARAMS.threshold,
            PARAMS.n_samples, 10.0, draws=200_000, seed=3,
        )
        assert abs(p_d_rayleigh_single(PARAMS, 10.0) - mc) <= 3 * se

    def test_zero_mean_snr_is_central_tail(self):
        expected = special.gammaincc(
            PARAMS.n_samples / 2, PARAMS.threshold / (2 * PARAMS.sigma2)
        )
        assert p_d_rayleigh_single(PARAMS, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_strictly_decreasing_in_threshold(self):
        values = [
            p_d_rayleigh_single(DetectionParams(threshold=lam), 10.0)
            for lam in (1.0, 5.0, 12.1, 30.0, 80.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_negative_mean_snr_rejected(self):
        with pytest.raises(ValueError):
            p_d_rayleigh_single(PARAMS, -0.1)

    def test_rounding_above_one_is_clamped(self):
        # With 64 samples the closed form rounds to 1 + 2e-16 from 29 dB on.
        params = DetectionParams(n_samples=64)
        assert p_d_rayleigh_single(params, 10 ** 2.9) == 1.0
        assert build_rayleigh_grid(params, 0.0, 40.0).values.max() == 1.0


class TestPdRayleighCombined:
    def test_identity_for_single(self):
        assert p_d_rayleigh_combined([0.7]) == pytest.approx(0.7)

    def test_two_halves(self):
        assert p_d_rayleigh_combined([0.5, 0.5]) == pytest.approx(0.75)

    def test_absorbing_one(self):
        for x in (0.0, 0.3, 1.0):
            assert p_d_rayleigh_combined([1.0, x]) == 1.0

    def test_dominates_max_input(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            singles = rng.uniform(0, 1, size=rng.integers(1, 6)).tolist()
            combined = p_d_rayleigh_combined(singles)
            assert combined >= max(singles) - 1e-15
            expected = 1.0
            for p in singles:
                expected *= 1.0 - p
            assert combined == pytest.approx(1.0 - expected, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            p_d_rayleigh_combined([])
        with pytest.raises(ValueError, match="outside"):
            p_d_rayleigh_combined([1.5])


class TestFalseAlarms:
    def test_reference_values(self):
        table = FalseAlarmTable()
        assert false_alarm_probability(table, FadingKind.AWGN, 1) == 0.0015
        assert false_alarm_probability(table, FadingKind.RAYLEIGH, 3) == 0.03
        assert false_alarm_probability(table, FadingKind.RAYLEIGH, 9) == 0.001

    def test_awgn_clamps_above_two(self):
        table = FalseAlarmTable()
        for m in (2, 3, 6, 50):
            assert false_alarm_probability(table, FadingKind.AWGN, m) == 1e-7

    def test_gap_uses_nearest_below(self):
        table = FalseAlarmTable(awgn={1: 0.5, 4: 0.1}, rayleigh={2: 0.9})
        assert false_alarm_probability(table, FadingKind.AWGN, 3) == 0.5
        assert false_alarm_probability(table, FadingKind.AWGN, 4) == 0.1
        # below the smallest listed order, the smallest entry applies
        assert false_alarm_probability(table, FadingKind.RAYLEIGH, 1) == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            FalseAlarmTable(awgn={}, rayleigh={1: 0.5})
        with pytest.raises(ValueError):
            FalseAlarmTable(awgn={1: 1.5}, rayleigh={1: 0.5})
        with pytest.raises(ValueError):
            false_alarm_probability(FalseAlarmTable(), FadingKind.AWGN, 0)

    def test_copies_the_caller_dicts(self):
        awgn = {1: 0.5}
        table = FalseAlarmTable(awgn=awgn, rayleigh={1: 0.9})
        awgn[1] = 0.75
        awgn[2] = 0.25
        assert dict(table.awgn) == {1: 0.5}

    def test_pickle_and_deepcopy_round_trip(self):
        table = FalseAlarmTable(awgn={2: 0.01, 4: 0.001})
        for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert copied == table
            with pytest.raises(TypeError):
                copied.awgn[2] = 0.5

    def test_numpy_integer_orders_are_stored_as_ints(self):
        table = FalseAlarmTable(awgn={np.int64(2): 0.5, np.int32(1): 0.25})
        assert list(table.awgn.items()) == [(1, 0.25), (2, 0.5)]
        assert all(type(m) is int for m in table.awgn)
        assert table == FalseAlarmTable(awgn={1: 0.25, 2: 0.5})


class TestProbabilityGrid:
    def test_default_awgn_shape(self):
        grid = build_awgn_grid(PARAMS)
        assert grid.values.shape == (16, 6)
        assert grid.snr_db == tuple(float(s) for s in range(16))
        assert grid.diversity == (1, 2, 3, 4, 5, 6)

    def test_default_awgn_values_equal_p_d_awgn_bit_for_bit(self):
        expected = np.array([
            [p_d_awgn(DetectionParams(), 10 ** (s / 10), m) for m in range(1, 7)]
            for s in range(16)
        ])
        grid = build_awgn_grid(DetectionParams())
        assert grid.values.tobytes() == expected.tobytes(), (
            "sensing._AWGN_DEFAULT_VALUES no longer matches p_d_awgn; if the "
            "change is intended, regenerate it from the repr of each row of "
            "`expected` here and re-pin GRID_AWGN_SHA256 in tests/test_cli.py"
        )

    @pytest.mark.parametrize(
        "params, args",
        [
            (PARAMS, {"m_max": 5}),
            (PARAMS, {"snr_db_stop": 14.0}),
            (DetectionParams(threshold=12.0), {}),
            (PARAMS, {"snr_db_start": -0.0}),
        ],
        ids=["m_max=5", "stop=14", "threshold=12", "start=-0.0"],
    )
    def test_other_awgn_arguments_are_computed_on_their_own_axes(self, params, args):
        start = args.get("snr_db_start", 0.0)
        stop = args.get("snr_db_stop", 15.0)
        m_max = args.get("m_max", 6)
        grid = build_awgn_grid(params, **args)
        axis = [start + i * 1.0 for i in range(int(stop - start) + 1)]
        assert np.array(grid.snr_db).tobytes() == np.array(axis).tobytes()
        assert grid.diversity == tuple(range(1, m_max + 1))
        expected = [
            [p_d_awgn(params, 10.0 ** (s / 10.0), m) for m in grid.diversity]
            for s in axis
        ]
        assert grid.values.tobytes() == np.array(expected).tobytes()

    def test_zero_threshold_all_ones(self):
        grid = build_awgn_grid(DetectionParams(threshold=0.0))
        assert np.all(grid.values == 1.0)

    def test_rows_monotone_and_m6_dominates(self):
        grid = build_awgn_grid(PARAMS)
        assert np.all(np.diff(grid.values, axis=0) >= -1e-12)
        assert np.all(grid.values[:, 5] >= grid.values[:, 0])
        assert grid.values[15, 5] == grid.values.max()

    def test_lookup_exact_at_grid_points(self):
        grid = build_awgn_grid(PARAMS)
        for snr_db in (0, 7, 15):
            for m in (1, 3, 6):
                direct = p_d_awgn(PARAMS, 10 ** (snr_db / 10), m)
                assert grid.lookup(float(snr_db), m) == direct

    def test_lookup_snaps_and_clamps(self):
        grid = build_awgn_grid(PARAMS)
        assert grid.lookup(7.4, 2) == grid.lookup(7.0, 2)
        assert grid.lookup(7.6, 2) == grid.lookup(8.0, 2)
        assert grid.lookup(-11.0, 2) == grid.lookup(0.0, 2)
        assert grid.lookup(99.0, 2) == grid.lookup(15.0, 2)
        assert grid.lookup(3.0, 50) == grid.lookup(3.0, 6)

    def test_lookup_clamps_extreme_queries(self):
        # Every distance to a far query rounds to the same value, so a plain
        # nearest-point search would read the first row for all of them.
        grid = build_awgn_grid(PARAMS)
        top, bottom = grid.lookup(15.0, 2), grid.lookup(0.0, 2)
        assert top > bottom
        for query in (15.6, 1e9, 1e308, math.inf):
            assert grid.lookup(query, 2) == top
        for query in (-0.6, -1e9, -1e308, -math.inf):
            assert grid.lookup(query, 2) == bottom
        with pytest.raises(ValueError, match="NaN"):
            grid.lookup(math.nan, 2)
        with pytest.raises(ValueError, match="diversity order"):
            grid.lookup(math.nan, 0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        st.one_of(st.integers(1, 40), st.sampled_from([9_999, 10_000])),
        st.sampled_from([0.5, 0.25, 1.0, 0.1]),
        st.integers(-50, 50),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_lookup_matches_argmin(self, points, step, start, m_low, orders, seed):
        rng = np.random.default_rng(seed)
        axis = start / 2 + step * np.arange(points)
        # Sorted down the columns, then along the rows: monotone both ways.
        values = np.sort(np.sort(rng.random((points, orders)), axis=0), axis=1)
        diversity = tuple(range(m_low, m_low + orders))
        grid = ProbabilityGrid(snr_db=tuple(axis), diversity=diversity, values=values)
        k = rng.integers(points, size=8)
        queries = np.concatenate([
            axis[k],
            axis[k] + step / 2,  # midpoints, exact for the power-of-two steps
            rng.uniform(axis[0] - 10, axis[-1] + 10, 8),
            [-1e9, 1e9, -1e308, 1e308, -np.inf, np.inf, np.nan],
        ]).tolist()
        for query in queries:
            # Below 1 is an error; below or above the listed orders clamps.
            for m in (-1, 0, 1, m_low, m_low + orders - 1, m_low + orders + 2):
                expected = raised_or(grid_lookup_argmin, axis, diversity, values, query, m)
                got = raised_or(grid.lookup, query, m)
                assert got == expected
                assert type(got) in (float, str)
        if step != 0.1:
            # Equal distances go to the lower grid point.
            for row in k.tolist():
                if row + 1 < points:
                    assert grid.lookup(axis[row] + step / 2, m_low) == values[row, 0]

    def test_csv_round_trip_bit_exact(self, tmp_path):
        grid = build_awgn_grid(PARAMS)
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        # Header "m", then the SNR axis; one row per diversity order.  Entries
        # are written with %.17g, so they read back bit for bit.
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header[0] == "m"
        assert tuple(map(float, header[1:])) == grid.snr_db
        assert tuple(int(row[0]) for row in rows) == grid.diversity
        values = np.array([[float(v) for v in row[1:]] for row in rows]).T
        assert np.array_equal(values, grid.values)

    def test_rayleigh_grid_single_column(self):
        grid = build_rayleigh_grid(PARAMS)
        assert grid.values.shape == (16, 1)
        assert grid.diversity == (1,)
        direct = p_d_rayleigh_single(PARAMS, 10 ** 0.5)
        assert grid.lookup(5.0, 1) == direct
        assert np.all(np.diff(grid.values[:, 0]) >= -1e-12)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityGrid(snr_db=(0.0, 1.0), diversity=(1,), values=[[0.5]])
        with pytest.raises(ValueError):
            ProbabilityGrid(
                snr_db=(0.0, 1.0), diversity=(1,), values=[[0.5], [1.5]]
            )
        with pytest.raises(ValueError):
            ProbabilityGrid(  # decreasing in SNR
                snr_db=(0.0, 1.0), diversity=(1,), values=[[0.9], [0.2]]
            )
        with pytest.raises(ValueError):
            ProbabilityGrid(  # non-contiguous diversity axis
                snr_db=(0.0,), diversity=(1, 3), values=[[0.1, 0.2]]
            )
        with pytest.raises(ValueError, match="non-empty"):
            ProbabilityGrid(snr_db=(), diversity=(), values=np.empty((0, 0)))
        with pytest.raises(ValueError, match="in diversity"):
            ProbabilityGrid(snr_db=(0.0,), diversity=(1, 2), values=[[0.5, 0.4]])
        # NaN passes no comparison, so it is refused as non-finite.
        with pytest.raises(ValueError, match="entries"):
            ProbabilityGrid(snr_db=(0.0,), diversity=(1,), values=[[math.nan]])
        for axis in ((0.0, math.nan), (math.nan,), (0.0, math.inf)):
            with pytest.raises(ValueError, match="snr_db axis"):
                ProbabilityGrid(
                    snr_db=axis, diversity=(1,), values=[[0.1], [0.2]][: len(axis)]
                )


class TestDetectionParams:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            DetectionParams(sigma2=0.0)
        with pytest.raises(ValueError):
            DetectionParams(noncentrality=-1.0)
        with pytest.raises(ValueError):
            DetectionParams(threshold=-0.1)
        for threshold in (math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold"):
                DetectionParams(threshold=threshold)
        with pytest.raises(ValueError):
            DetectionParams(n_samples=7)
        with pytest.raises(ValueError):
            DetectionParams(n_samples=2)
        # A float count would reach range() in the Rayleigh closed form.
        with pytest.raises(ValueError, match="n_samples"):
            DetectionParams(n_samples=10.0)

    def test_float_sample_count_is_a_wrong_kind(self):
        with pytest.raises(ConfigError, match=r"^n_samples: expected an integer, got 10\.0$"):
            DetectionParams(n_samples=10.0)
        assert type(DetectionParams(n_samples=np.int64(12)).n_samples) is int


def test_probability_outputs_in_unit_interval_fuzzed():
    # Parameter box of the reference scenario: SNR 0..15 dB, m 1..10,
    # both fading kinds.
    rng = np.random.default_rng(77)
    for _ in range(400):
        snr = 10 ** (rng.uniform(0, 15) / 10)
        m = int(rng.integers(1, 11))
        p1 = p_d_awgn(PARAMS, snr, m)
        p2 = p_d_rayleigh_single(PARAMS, snr)
        assert 0.0 <= p1 <= 1.0
        assert 0.0 <= p2 <= 1.0
        combined = p_d_rayleigh_combined([p2] * m)
        assert 0.0 <= combined <= 1.0
