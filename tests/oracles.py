"""Independent numerical oracles used to pin expected test values.

These deliberately avoid the code paths they check: the Marcum Q oracle
integrates the noncentral chi-square density (Bessel form) with adaptive
quadrature, the Rayleigh oracle averages conditional detection over
Monte-Carlo SNR draws through scipy's distribution, and the literal
closed-form evaluator follows the two-finite-sum arrangement directly.

The reference bodies at the end are the plain per-entry forms of
`fuse_observations`, `ProbabilityGrid.lookup`, `NeighborGraph.edges` and
`build_neighbor_graph`'s neighbour rows, which the faster library bodies
must match value for value and error for error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats


def marcum_q_quadrature(order: float, alpha: float, beta: float) -> float:
    """Upper tail of noncentral chi-square(2*order, alpha**2) at beta**2.

    Computed as 1 - integral of the density over [0, beta**2]; the
    density uses the exponentially scaled Bessel function for stability.
    """
    if beta == 0.0:
        return 1.0
    lam = alpha * alpha
    nu = order - 1.0

    if lam == 0.0:
        log_norm = -order * math.log(2.0) - math.lgamma(order)

        def density(x: float) -> float:
            if x <= 0.0:
                return 0.0
            return math.exp(log_norm + nu * math.log(x) - 0.5 * x)

    else:

        def density(x: float) -> float:
            if x <= 0.0:
                return 0.0
            z = math.sqrt(lam * x)
            scaled = special.ive(nu, z)
            if scaled <= 0.0:
                return 0.0
            # 0.5 * e^{-(x+lam)/2} * (x/lam)^(nu/2) * I_nu(sqrt(lam x))
            log_f = (
                math.log(0.5)
                + 0.5 * nu * (math.log(x) - math.log(lam))
                + math.log(scaled)
                - 0.5 * (math.sqrt(x) - math.sqrt(lam)) ** 2
            )
            return math.exp(log_f)

    cdf, _ = integrate.quad(
        density, 0.0, beta * beta, epsabs=1e-13, epsrel=1e-12, limit=400
    )
    return 1.0 - cdf


def rayleigh_single_literal(
    sigma2: float, noncentrality: float, threshold: float, n_samples: int,
    mean_snr: float,
) -> float:
    """Two-finite-sum arrangement of the Rayleigh-averaged closed form."""
    u = n_samples // 2
    x = threshold / (2.0 * sigma2)
    g = noncentrality * mean_snr
    first = math.exp(-x) * sum(x**i / math.factorial(i) for i in range(u - 1))
    ratio = (2.0 * sigma2 + g) / g
    y = threshold * g / (2.0 * sigma2 * (2.0 * sigma2 + g))
    bracket = math.exp(-threshold / (2.0 * sigma2 + g)) - math.exp(-x) * sum(
        y**i / math.factorial(i) for i in range(u - 1)
    )
    return first + ratio ** (u - 1) * bracket


def rayleigh_single_monte_carlo(
    sigma2: float, noncentrality: float, threshold: float, n_samples: int,
    mean_snr: float, draws: int = 1_000_000, seed: int = 0,
):
    """Monte-Carlo estimate (mean, standard error) of the Rayleigh average.

    Draws instantaneous SNR ~ Exponential(mean) and averages the
    conditional AWGN detection tail through scipy's noncentral
    chi-square survival function.
    """
    rng = np.random.default_rng(seed)
    snr = rng.exponential(mean_snr, size=draws)
    conditional = stats.ncx2.sf(
        threshold / sigma2, n_samples, noncentrality * snr / sigma2
    )
    mean = float(conditional.mean())
    se = float(conditional.std(ddof=1) / math.sqrt(draws))
    return mean, se


def fuse_observations_loop(channels, verdicts, n_channels: int) -> list:
    """OR fusion as one max per pair: verdict checked, then channel."""
    if len(channels) != len(verdicts):
        raise ValueError(f"{len(channels)} channels but {len(verdicts)} verdicts")
    beliefs = [0] * n_channels
    for channel, verdict in zip(channels, verdicts):
        if verdict != 1 and verdict != 2:
            raise ValueError(f"verdict must be VACANT or OCCUPIED, got {verdict}")
        if not 0 <= channel < n_channels:
            raise ValueError(f"channel {channel} out of range")
        if verdict > beliefs[channel]:
            beliefs[channel] = int(verdict)
    return beliefs


def grid_lookup_argmin(snr_db, diversity, values, query_db: float, m: int) -> float:
    """Nearest axis point by `np.argmin` (first of equal distances) to the
    query clipped into the axis, so that far queries do not tie; both axes
    clamped."""
    if m < 1:
        raise ValueError(f"diversity order must be >= 1, got {m}")
    if math.isnan(query_db):
        raise ValueError("SNR query is NaN")
    axis = np.asarray(snr_db, dtype=float)
    query = np.clip(query_db, axis[0], axis[-1])
    row = int(np.argmin(np.abs(axis - query)))
    col = min(max(m, diversity[0]), diversity[-1]) - diversity[0]
    return float(np.asarray(values, dtype=float)[row, col])


def edges_loop(neighbors) -> tuple:
    """Each (i, j) with i < j once, in node order, then listed order."""
    out = []
    for i, nbrs in enumerate(neighbors):
        out.extend((i, j) for j in nbrs if i < j)
    return tuple(out)


def neighbor_rows_loop(placement) -> tuple:
    """Per-node neighbour tuples in index order, one row of the distance
    test at a time, with the row's own entry cleared."""
    x, y = np.asarray(placement.nodes, dtype=float).T
    rows = []
    for i in range(x.size):
        row = np.hypot(x[i] - x, y[i] - y) <= placement.range_km
        row[i] = False
        rows.append(tuple(np.flatnonzero(row).tolist()))
    return tuple(rows)
