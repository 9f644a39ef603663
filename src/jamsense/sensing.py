"""Energy-detection probabilities for AWGN and Rayleigh fading channels.

Detection of a jammer on a channel is modeled at the probability level:
under AWGN the detection probability is a generalized Marcum Q tail,

    p_d = Q_{m*N/2}( sqrt(a*snr/sigma2), sqrt(threshold/sigma2) ),

where m is the diversity order (number of nodes simultaneously sensing
the channel) and N the per-node sample count.  Under Rayleigh fading the
single-node probability is the closed-form average of the AWGN tail over
an exponentially distributed instantaneous SNR, and cooperating nodes
combine as 1 - prod(1 - p_i).

False alarms (declaring a vacant channel occupied) come from a small
per-diversity-order lookup table rather than from the threshold math.

All evaluators here are pure and stateless; grids are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import bisect
import csv
import math
import sys
import types
from dataclasses import dataclass, field
from enum import Enum
from typing import Annotated, Dict, Sequence

import numpy as np

from .schema import ConfigError, Range, read_back

_SERIES_TAIL = 1e-14      # neglected Poisson mass in the Marcum Q series
_SERIES_MAX_TERMS = 20000
# Above this alpha**2/2 the series' first Poisson weight e^{-u} underflows.
_SERIES_MAX_U = 708.0
# Largest alpha**2 at which scipy's noncentral chi-square tail is trusted: up
# to 1e10 it stays within the skewness error of its normal limit, while at
# 1e12 it gives 0.43 at the mean, where the tail is close to 0.5.
MARCUM_MAX_NONCENTRALITY = 1e10
_PROB_SLACK = 1e-9        # float-noise allowance on [0, 1] assertions
# Above this threshold/sigma2 the Rayleigh closed form's e^{-x} factor
# underflows while its series overflows (x = threshold/(2*sigma2) > 700).
RAYLEIGH_MAX_THRESHOLD_RATIO = 1400.0


class FadingKind(Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"


@dataclass(frozen=True)
class DetectionParams:
    """Energy-detector constants shared by the AWGN and Rayleigh models.

    sigma2: variance of the sampled signal (linear).
    noncentrality: scale applied to the SNR inside the detector statistic.
    threshold: decision threshold of the detector.
    n_samples: samples per sensing event; must be even and >= 4 so the
        Rayleigh closed form's finite sums (over i = 0 .. N/2-2) are
        well defined.
    """

    sigma2: Annotated[float, Range(0, open_lo=True)] = 1.0
    noncentrality: Annotated[float, Range(0, open_lo=True)] = 2.0
    threshold: Annotated[float, Range(0)] = 12.1
    n_samples: Annotated[int, Range(4)] = 10

    def __post_init__(self) -> None:
        read_back(self)
        if self.n_samples % 2 != 0:
            raise ConfigError(f"n_samples: must be even, got {self.n_samples}")


# Default false-alarm probabilities by diversity order for the reference
# scenario; orders above the largest listed entry clamp to it.
DEFAULT_AWGN_FALSE_ALARMS: Dict[int, float] = {1: 0.0015, 2: 1e-7}
DEFAULT_RAYLEIGH_FALSE_ALARMS: Dict[int, float] = {
    1: 0.83,
    2: 0.32,
    3: 0.03,
    4: 0.003,
    5: 0.001,
}


@dataclass(frozen=True)
class FalseAlarmTable:
    """Per-fading-kind false-alarm probabilities keyed by diversity order.

    Both tables are copied into read-only mappings when built;
    `false_alarm_probability` reads them.
    """

    awgn: Dict[int, Annotated[float, Range(0, 1)]] = field(
        default_factory=lambda: dict(DEFAULT_AWGN_FALSE_ALARMS)
    )
    rayleigh: Dict[int, Annotated[float, Range(0, 1)]] = field(
        default_factory=lambda: dict(DEFAULT_RAYLEIGH_FALSE_ALARMS)
    )

    def __post_init__(self) -> None:
        read_back(self)  # each table is now a read-back copy no caller holds
        for kind in ("awgn", "rayleigh"):
            table = types.MappingProxyType(getattr(self, kind))
            object.__setattr__(self, kind, table)
            if not table:
                raise ConfigError(f"{kind}: false-alarm table is empty")
            if min(table) < 1:
                raise ConfigError(f"{kind}.{min(table)}: diversity order must be >= 1")

    def __hash__(self) -> int:
        # A mappingproxy is unhashable; read back, each table is sorted by order.
        return hash((tuple(self.awgn.items()), tuple(self.rayleigh.items())))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from plain dicts.
        return (FalseAlarmTable, (dict(self.awgn), dict(self.rayleigh)))


def false_alarm_probability(table: FalseAlarmTable, kind: FadingKind, m: int) -> float:
    """False-alarm probability for diversity order m >= 1.

    The entry of the largest listed order at or below m, else of the
    smallest listed order: orders above the last entry use it, and orders
    below the first use the first.
    """
    if m < 1:
        raise ValueError(f"diversity order must be >= 1, got {m}")
    entries = table.awgn if kind is FadingKind.AWGN else table.rayleigh
    return entries[max((k for k in entries if k <= m), default=min(entries))]


def marcum_q(order: float, alpha: float, beta: float) -> float:
    """Generalized Marcum Q-function Q_order(alpha, beta).

    Equals the upper tail P(X > beta**2) of a noncentral chi-square
    variable X with 2*order degrees of freedom and noncentrality
    alpha**2.  Evaluated as the canonical series of Poisson-weighted
    regularized upper incomplete gamma terms,

        Q = sum_k  e^{-u} u^k / k!  *  Q(order + k, beta**2 / 2),

    with u = alpha**2 / 2, truncated once the remaining Poisson mass
    drops below 1e-14.  Absolute error is within ~1e-12 for
    order in [0.5, 64] and alpha, beta in [0, 12].  Where
    x = beta**2 / 2 makes the first upper-gamma step subnormal
    (x > ~730) the recurrence still keeps full precision, but tails
    below ~1e-13 are then only bounded by the 1e-14 truncation
    allowance.  Once e^{-u} underflows (u > 708) the value is scipy's
    noncentral chi-square tail instead, for alpha**2 up to
    `MARCUM_MAX_NONCENTRALITY`.
    """
    if order < 0.5:
        raise ValueError(f"order must be >= 0.5, got {order}")
    if alpha < 0 or beta < 0:
        raise ValueError(f"alpha and beta must be >= 0, got {alpha}, {beta}")
    if not (math.isfinite(order) and math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("order, alpha, beta must be finite")
    x = 0.5 * beta * beta
    u = 0.5 * alpha * alpha
    if x == 0.0:
        return 1.0
    if u > _SERIES_MAX_U:
        return _marcum_q_ncx2(order, alpha, beta)

    from scipy import special  # imported here: scipy loads slowly

    # Upper-gamma start Q(order, x), then the recurrence
    # Q(s+1, x) = Q(s, x) + x^s e^{-x} / Gamma(s+1).  While the step is
    # subnormal (x > ~730) it is re-formed from its logarithm, since
    # multiplying a subnormal keeps only its few significant digits.
    q = float(special.gammaincc(order, x))
    log_step = order * math.log(x) - x - math.lgamma(order + 1.0)
    step = math.exp(log_step)
    carry_log = step < sys.float_info.min

    weight = math.exp(-u)  # Poisson weight at k = 0
    weight_sum = weight
    total = weight * q
    k = 0
    while (1.0 - weight_sum) > _SERIES_TAIL and k < _SERIES_MAX_TERMS:
        k += 1
        q += step
        if carry_log:
            log_step += math.log(x / (order + k))
            step = math.exp(log_step)
            carry_log = step < sys.float_info.min
        else:
            step *= x / (order + k)
        weight *= u / k
        weight_sum += weight
        total += weight * q
    # Remaining weights multiply gamma terms that are <= 1 and -> 1;
    # counting them as 1 bounds the truncation error by the tail mass.
    total += 1.0 - weight_sum
    return min(max(total, 0.0), 1.0)


def _marcum_q_ncx2(order: float, alpha: float, beta: float) -> float:
    lam = alpha * alpha
    if not lam <= MARCUM_MAX_NONCENTRALITY:
        raise ValueError(
            f"alpha**2 = {lam:.6g} exceeds {MARCUM_MAX_NONCENTRALITY:g}, where "
            "the noncentral chi-square tail is no longer reliable"
        )
    from scipy.stats import ncx2  # imported here: scipy.stats loads slowly

    q = float(ncx2.sf(beta * beta, 2.0 * order, lam))
    if math.isnan(q):
        raise ValueError(f"Q_{order}({alpha}, {beta}) evaluated to NaN")
    return min(max(q, 0.0), 1.0)


def p_d_awgn(params: DetectionParams, snr: float, m: int = 1) -> float:
    """Detection probability on an AWGN channel at linear SNR `snr`.

    Diversity order m raises the tail order to m*N/2; the SNR is the
    sensing node's own received jammer SNR.
    """
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"diversity order must be an integer >= 1, got {m}")
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    order = m * params.n_samples / 2.0
    alpha = math.sqrt(params.noncentrality * snr / params.sigma2)
    beta = math.sqrt(params.threshold / params.sigma2)
    return marcum_q(order, alpha, beta)


def check_snr(params: DetectionParams, kind: FadingKind, snr: float, where: str) -> None:
    """Raise a ConfigError unless the `kind` detection model is defined at
    linear `snr`; `where` is the refusal's path and what `snr` is.

    `p_d_awgn` forms alpha**2 = noncentrality*snr/sigma2, which `marcum_q`
    takes up to `MARCUM_MAX_NONCENTRALITY`.  `p_d_rayleigh_single` needs
    threshold/sigma2 at most `RAYLEIGH_MAX_THRESHOLD_RATIO`, whatever the
    SNR, and a finite x*noncentrality*snr with x = threshold/(2*sigma2).
    """
    g = params.noncentrality * snr
    if kind is FadingKind.AWGN:
        ok = g / params.sigma2 <= MARCUM_MAX_NONCENTRALITY
    else:
        ratio = params.threshold / params.sigma2
        if ratio > RAYLEIGH_MAX_THRESHOLD_RATIO:  # the config leaf at fault, not `where`
            raise ConfigError(
                f"detection.threshold: threshold/sigma2 = {ratio:.6g} exceeds "
                f"{RAYLEIGH_MAX_THRESHOLD_RATIO}, where the Rayleigh table is NaN"
            )
        ok = math.isfinite(params.threshold / (2.0 * params.sigma2) * g)
    if not ok:
        raise ConfigError(
            f"{where} at {10.0 * math.log10(snr):.6g} dB is outside the range the "
            f"{kind.value} detection model can evaluate"
        )


def p_d_rayleigh_single(params: DetectionParams, mean_snr: float) -> float:
    """Average single-node detection probability under Rayleigh fading.

    `mean_snr` is the mean of the exponentially distributed instantaneous
    linear SNR.  With u = N/2, x = threshold/(2*sigma2) and
    y = threshold*a*g / (2*sigma2*(2*sigma2 + a*g)) for g = mean_snr,
    the closed form

        p = e^{-x} sum_{i=0}^{u-2} x^i/i!
            + ((2*sigma2 + a*g)/(a*g))^{u-1}
              * ( e^{-threshold/(2*sigma2 + a*g)}
                  - e^{-x} sum_{i=0}^{u-2} y^i/i! )

    is evaluated through the cancellation-free rearrangement
    p = e^{-x} [ sum_{i=0}^{u-2} x^i/i! + x^{u-1} sum_{j>=0} y^j/(u-1+j)! ],
    which is algebraically identical and stable for all mean_snr >= 0.
    At mean_snr = 0 the value reduces to the central chi-square tail
    P(chi2_N > threshold/sigma2), the no-signal limit.
    """
    if mean_snr < 0:
        raise ValueError(f"mean_snr must be >= 0, got {mean_snr}")
    u = params.n_samples // 2
    x = params.threshold / (2.0 * params.sigma2)
    g = params.noncentrality * mean_snr
    y = 0.0 if x == 0.0 else x * g / (2.0 * params.sigma2 + g)

    # First finite sum: e^{-x} * sum_{i=0}^{u-2} x^i / i!, ended where a term
    # underflows to 0.0, as every later one does (so large N costs no time).
    term = 1.0
    head = 1.0
    for i in range(1, u - 1):
        term *= x / i
        if term == 0.0:
            break
        head += term
    # Tail series: x^{u-1} * sum_{j>=0} y^j / (u-1+j)!
    term = math.exp((u - 1) * math.log(x) - math.lgamma(u)) if x > 0 else 0.0
    tail = 0.0
    j = 0
    while True:
        tail += term
        j += 1
        term *= y / (u - 1 + j)
        if term <= tail * 1e-18 or j > _SERIES_MAX_TERMS:
            break
    p = math.exp(-x) * (head + tail) if x > 0 else 1.0

    if not -_PROB_SLACK <= p <= 1.0 + _PROB_SLACK:
        raise ValueError(f"probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def p_d_rayleigh_combined(singles: Sequence[float]) -> float:
    """Cooperative Rayleigh detection probability, 1 - prod(1 - p_i)."""
    if len(singles) == 0:
        raise ValueError("need at least one single-node probability")
    miss = 1.0
    for p in singles:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        miss *= 1.0 - p
    return 1.0 - miss


@dataclass(frozen=True)
class ProbabilityGrid:
    """Detection-probability lookup table over (SNR dB, diversity order).

    Rows follow `snr_db` (ascending, fixed step), columns follow
    `diversity` (contiguous ascending integers).  Entries are
    probabilities, non-decreasing along both axes.  Lookups snap the
    query SNR to the nearest grid value (ties toward the lower value)
    and clamp both axes at their edges.
    """

    snr_db: tuple
    diversity: tuple
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "diversity", tuple(int(m) for m in self.diversity))
        if values.shape != (len(self.snr_db), len(self.diversity)):
            raise ValueError(
                f"grid shape {values.shape} does not match axes "
                f"({len(self.snr_db)}, {len(self.diversity)})"
            )
        if len(self.snr_db) == 0 or len(self.diversity) == 0:
            raise ValueError("grid axes must be non-empty")
        axis = self.snr_db
        if not all(map(math.isfinite, axis)) or any(b <= a for a, b in zip(axis, axis[1:])):
            raise ValueError("snr_db axis must be finite and strictly ascending")
        if any(
            b != a + 1 for a, b in zip(self.diversity, self.diversity[1:])
        ) or self.diversity[0] < 1:
            raise ValueError("diversity axis must be contiguous integers >= 1")
        if not np.all((values >= 0.0) & (values <= 1.0)):  # NaN included
            raise ValueError("grid entries must lie in [0, 1]")
        # Allow a few ulp of slack: entries are computed independently.
        if np.any(np.diff(values, axis=0) < -1e-12):
            raise ValueError("grid entries must be non-decreasing in SNR")
        if np.any(np.diff(values, axis=1) < -1e-12):
            raise ValueError("grid entries must be non-decreasing in diversity")
        values.setflags(write=False)
        # Built once for every lookup: the entries as rows of Python floats.
        object.__setattr__(self, "_rows", tuple(map(tuple, values.tolist())))

    def lookup(self, snr_db: float, m: int) -> float:
        """Nearest-SNR, clamped lookup; exact at grid points.

        Raises ValueError for m < 1 and for a NaN SNR.
        """
        if m < 1:
            raise ValueError(f"diversity order must be >= 1, got {m}")
        if math.isnan(snr_db):
            raise ValueError("SNR query is NaN")
        axis = self.snr_db
        query = min(max(snr_db, axis[0]), axis[-1])
        # axis[row - 1] < query <= axis[row]; equal distances go low.
        row = bisect.bisect_left(axis, query)
        if row and query - axis[row - 1] <= axis[row] - query:
            row -= 1
        col = min(max(m, self.diversity[0]), self.diversity[-1]) - self.diversity[0]
        return self._rows[row][col]

    def to_csv(self, path) -> None:
        """Header row of SNR dB values, one row per diversity order."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m"] + [f"{s:.17g}" for s in self.snr_db])
            for col, m in enumerate(self.diversity):
                writer.writerow(
                    [m] + [f"{v:.17g}" for v in self.values[:, col]]
                )


def snr_axis_points(start: float, stop: float, step: float) -> float:
    """Number of points of the grids' SNR axis from `start` toward `stop`.

    The span is rounded to whole steps (ties to even), so the last point,
    start + (points - 1)*step, may pass `stop` by up to half a step.  The
    count is a float: an unchecked range can make it huge or infinite.
    """
    return float(np.rint((stop - start) / step)) + 1.0


def snr_axis(start: float, stop: float, step: float) -> tuple:
    """The grids' SNR axis in dB: `snr_axis_points` values, `step` apart."""
    n = int(snr_axis_points(start, stop, step))
    return tuple(start + i * step for i in range(n))


def _fill_grid(snr_db: tuple, diversity: tuple, p_d) -> ProbabilityGrid:
    """The grid of `p_d(linear snr, m)` at each SNR dB and diversity order."""
    values = np.empty((len(snr_db), len(diversity)))
    for i, s in enumerate(snr_db):
        snr = 10.0 ** (s / 10.0)
        for j, m in enumerate(diversity):
            values[i, j] = p_d(snr, m)
    return ProbabilityGrid(snr_db=snr_db, diversity=diversity, values=values)


# build_awgn_grid's values at its default arguments, one row per SNR dB
# 0..15 and one column per m = 1..6, recorded from p_d_awgn with numpy 2.4.6
# and scipy 1.17.1.  tests/test_sensing.py checks them bit for bit.
_AWGN_DEFAULT_ARGS = (DetectionParams(), 0.0, 15.0, 1.0, 6)
_AWGN_DEFAULT_VALUES = (
    (0.4349515283870339, 0.9468436638803583, 0.9991985958372303,
     0.9999971552990934, 0.9999999968037133, 0.9999999999986049),
    (0.4734300189941531, 0.9533964632035867, 0.9993212540788967,
     0.9999976395433559, 0.999999997382768, 0.999999999998868),
    (0.5200196403312278, 0.9605701154219436, 0.999449694722712,
     0.9999981343306185, 0.9999999979653638, 0.99999999999913),
    (0.5753187016625798, 0.9681269454639886, 0.9995778384899404,
     0.9999986132225466, 0.999999998518517, 0.9999999999993757),
    (0.6390776448833849, 0.9757023297163416, 0.9996980893227723,
     0.9999990461316786, 0.9999999990067884, 0.9999999999995887),
    (0.7095834032547607, 0.9828251740085341, 0.9998025038346539,
     0.9999994051970709, 0.9999999994000279, 0.9999999999997573),
    (0.7830612240308568, 0.9889895996922214, 0.999884664210864,
     0.9999996723941077, 0.9999999996822507, 0.999999999999875),
    (0.8535343076642484, 0.9937807727908586, 0.9999417155456586,
     0.9999998458145343, 0.9999999998574857, 0.9999999999999458),
    (0.9137975861506009, 0.997019759012585, 0.9999755140718095,
     0.99999994055255, 0.9999999999481929, 0.9999999999999811),
    (0.9578632038716584, 0.9988469892007689, 0.9999918784023962,
     0.9999999822065834, 0.9999999999855629, 0.999999999999995),
    (0.983958663877039, 0.9996624292260693, 0.9999980100863444,
     0.9999999961400712, 0.9999999999971267, 0.9999999999999991),
    (0.995629942916465, 0.999931264731095, 0.9999996694565024,
     0.9999999994441932, 0.9999999999996267, 0.9999999999999999),
    (0.999237311124233, 0.9999912782962896, 0.9999999666755849,
     0.9999999999525293, 0.9999999999999718, 1.0),
    (0.9999261365473742, 0.9999994018095247, 0.999999998231951,
     0.9999999999979179, 0.9999999999999989, 1.0),
    (0.9999967026824246, 0.9999999815463185, 0.999999999958914,
     0.999999999999961, 1.0, 1.0),
    (0.9999999465514526, 0.9999999997978919, 0.9999999999996696,
     0.9999999999999998, 1.0, 1.0),
)


def build_awgn_grid(
    params: DetectionParams,
    snr_db_start: float = 0.0,
    snr_db_stop: float = 15.0,
    snr_db_step: float = 1.0,
    m_max: int = 6,
) -> ProbabilityGrid:
    """AWGN detection-probability table over the SNR range and m = 1..m_max.

    When the arguments equal the defaults (params == `DetectionParams()`),
    the values are `_AWGN_DEFAULT_VALUES`, the recorded output of the loop
    below, so that table loads no scipy.  Any other table is computed.
    """
    snr_db = snr_axis(snr_db_start, snr_db_stop, snr_db_step)
    diversity = tuple(range(1, m_max + 1))
    if (params, snr_db_start, snr_db_stop, snr_db_step, m_max) == _AWGN_DEFAULT_ARGS:
        return ProbabilityGrid(snr_db, diversity, _AWGN_DEFAULT_VALUES)
    return _fill_grid(snr_db, diversity, lambda snr, m: p_d_awgn(params, snr, m))


def build_rayleigh_grid(
    params: DetectionParams,
    snr_db_start: float = 0.0,
    snr_db_stop: float = 15.0,
    snr_db_step: float = 1.0,
) -> ProbabilityGrid:
    """Single-node Rayleigh detection probabilities over the SNR range.

    Cooperative orders are combined at run time from these m = 1 values,
    so the table has a single diversity column.
    """
    snr_db = snr_axis(snr_db_start, snr_db_stop, snr_db_step)
    return _fill_grid(snr_db, (1,), lambda snr, m: p_d_rayleigh_single(params, snr))
