"""Heavy-tail index estimation: Hill and log-log rank-size regression.

Both estimators work on the k largest order statistics of a strictly
positive sample.  The rank-size regression applies the small-sample shift of
1/2 in ranks, with standard error ``sqrt(2/k) * zeta``; the Hill standard
error is ``zeta / sqrt(k)``.  Confidence bands use the normal 1.96 multiplier
at every truncation level.
Each estimator takes one truncation level k, giving one fit, or a sequence
of them, giving a tuple of fits in the sequence's order; either way it
sorts only a sample that is not already ascending, takes the logs of the
largest values the levels read in one pass, and reads ``ln(rank - 1/2)``
from a module table grown on first use.  A curve does one partial sort and
one log pass: it partitions its sample, sorts only the largest values its
grid reads and fits the whole grid in one estimator call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

__all__ = ["TailFit", "TailCurve", "hill_estimate", "rank_size_estimate", "k_grid", "tail_curve"]

Z_95 = 1.96
# the truncation grid of :func:`k_grid`: lo_frac, hi_frac, steps
DEFAULT_GRID = (0.025, 0.15, 20)
RANK_SHIFT = 0.5  # ln(rank - 1/2): the rank-size small-sample bias correction
_LOG_RANKS = np.empty(0)  # ln(rank - 1/2) for ranks 1, 2, ...: see _log_ranks


@dataclass(frozen=True)
class TailFit:
    """One tail-index estimate at truncation level k.

    ``log_scale`` is the rank-size intercept (the log of the scale constant
    of the power law); it is reported without a confidence interval and is
    None for Hill fits.
    """

    zeta: float
    se: float
    k: int
    method: str
    log_scale: float | None = None

    def __post_init__(self):
        if not self.zeta > 0:
            raise NumericalError(f"tail index must be positive, got {self.zeta}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")

    @property
    def ci95(self) -> tuple[float, float]:
        """Normal 95% band ``zeta -+ 1.96 * se``."""
        return (self.zeta - Z_95 * self.se, self.zeta + Z_95 * self.se)

    @property
    def theta(self) -> float:
        """Inverse tail index 1/zeta."""
        return 1.0 / self.zeta


@dataclass(frozen=True)
class TailCurve:
    """Tail-index estimates over a strictly increasing truncation grid."""

    points: tuple[TailFit, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        ks = [p.k for p in self.points]
        for a, b in zip(ks, ks[1:]):
            if b <= a:
                raise ValueError("k values must be strictly increasing")
        if ks and ks[-1] > self.n - 1:
            raise ValueError(f"largest k {ks[-1]} exceeds n-1 = {self.n - 1}")


def _sorted_positive(sample, top: int | None = None) -> np.ndarray:
    """The sample sorted ascending (kept if it is), checked to hold only positive finite values;
    of an unsorted sample, only its ``top`` largest values, partitioned off and sorted."""
    vals = np.asarray(sample, dtype=float)
    if vals.ndim != 1:
        raise ValueError(f"a tail sample must be one-dimensional, got shape {vals.shape}")
    if len(vals) == 0:
        raise ValueError("empty sample")
    n, low = len(vals), vals[0]
    # a NaN compares false, so a sample holding one counts as unsorted (and sorts last)
    if np.count_nonzero(vals[1:] >= vals[:-1]) < n - 1:
        low = np.fmin.reduce(vals)  # NaN only if all are, as the sorted sample's first value
        vals = np.sort(vals if top is None or top >= n else np.partition(vals, n - top)[n - top :])
    # the two ends decide: NaN sorts last
    if low <= 0:
        raise ValueError("tail estimation needs strictly positive values")
    if not vals[-1] < np.inf:
        raise ValueError("tail estimation needs finite values, got NaN or inf")
    return vals


def _fits(sample, k, extra: int, fit):
    """``fit(sizes, logs, k)`` for one k, or a tuple of them for a sequence of ks, in its order.

    ``sizes`` are the largest values the ks read, largest first, and ``logs`` their logs, both
    taken once; each k is checked against [2, n - extra] just before its fit.
    """
    vals = _sorted_positive(sample)
    hi = len(vals) - extra
    single = np.ndim(k) == 0
    ks = (k,) if single else tuple(k)
    sizes = vals[::-1][: max((j for j in ks if 2 <= j <= hi), default=0) + extra]
    logs = np.log(sizes)
    fits = []
    for j in ks:
        if not 2 <= j <= hi:
            raise ValueError(f"k must be in [2, {hi}], got {j}")
        fits.append(fit(sizes, logs, j))
    return fits[0] if single else tuple(fits)


def hill_estimate(sample, k: int | Sequence[int]) -> TailFit | tuple[TailFit, ...]:
    """Hill estimator from the log-spacings of the top k order statistics.

    With descending order statistics ``X_(1) >= ... >= X_(n)``:
    ``zeta = k / sum_{i<=k} (ln X_(i) - ln X_(k+1))``.  ``k`` is one
    truncation level, giving one :class:`TailFit`, or a sequence of them,
    giving a tuple of fits in its order.
    """
    return _fits(sample, k, 1, _hill_fit)


def _hill_fit(sizes: np.ndarray, logs: np.ndarray, k: int) -> TailFit:
    spacing_sum = float(logs[:k].sum() - k * logs[k])
    if spacing_sum <= 0:
        raise NumericalError("zero log-spacing sum: top order statistics are all equal")
    zeta = k / spacing_sum
    return TailFit(zeta=zeta, se=zeta / math.sqrt(k), k=k, method="hill")


def rank_size_estimate(sample, k: int | Sequence[int]) -> TailFit | tuple[TailFit, ...]:
    """Log-log rank-size regression over the k largest values.

    Regresses ``ln(rank - 1/2)`` on ``ln(size)`` (rank 1 = largest); the
    tail index is minus the slope and the standard error is
    ``sqrt(2/k) * zeta``.  ``k`` is one truncation level, giving one
    :class:`TailFit`, or a sequence of them, giving a tuple of fits in its
    order.
    """
    return _fits(sample, k, 0, _rank_size_fit)


def _rank_size_fit(sizes: np.ndarray, logs: np.ndarray, k: int) -> TailFit:
    if sizes[0] == sizes[k - 1]:  # descending, so all k are equal
        raise NumericalError("fewer than 2 distinct sizes among the top k values")
    x = logs[:k]
    ydep = _log_ranks(k)
    x_mean, y_mean = x.sum() / k, ydep.sum() / k  # the bits of .mean()
    xc = x - x_mean
    zeta = -float(xc @ (ydep - y_mean)) / float(xc @ xc)  # minus the slope
    intercept = float(y_mean + zeta * x_mean)
    return TailFit(zeta=zeta, se=math.sqrt(2.0 / k) * zeta, k=k, method="rank_size", log_scale=intercept)


def _log_ranks(k: int) -> np.ndarray:
    """``ln(rank - 1/2)`` for ranks 1..k, from the table, grown to at least twice its length when short."""
    global _LOG_RANKS
    if len(_LOG_RANKS) < k:
        _LOG_RANKS = np.log(np.arange(1, max(k, 2 * len(_LOG_RANKS)) + 1) - RANK_SHIFT)
    return _LOG_RANKS[:k]


def k_grid(
    n: int, lo_frac: float = DEFAULT_GRID[0], hi_frac: float = DEFAULT_GRID[1], steps: int = DEFAULT_GRID[2]
) -> tuple[int, ...]:
    """Truncation levels ``ceil(frac*n)`` over an even fraction grid.

    Values are clipped to [2, n-1] and deduplicated, so the result is
    strictly increasing.
    """
    if n < 40:
        raise DataError(f"need n >= 40 for a truncation grid, got {n}")
    if not (0 < lo_frac <= hi_frac <= 1):
        raise ValueError("need 0 < lo_frac <= hi_frac <= 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # beyond 2n steps the fractions lie under half a rank apart, so every k is already on the grid
    fracs = np.linspace(lo_frac, hi_frac, min(steps, 2 * n))
    ks = np.clip(np.ceil(fracs * n).astype(int), 2, n - 1)
    return tuple(int(k) for k in np.unique(ks))


def tail_curve(sample, method: str, grid) -> TailCurve:
    """Sort the sample's k_max + 1 largest values once and fit the whole grid to them in one
    estimator call, k_max being the grid's largest k in [2, n-1].

    A grid with a k outside [2, n-1] is fitted to the whole sample, so the estimator rejects
    that k against n.
    """
    vals, ks = np.asarray(sample, dtype=float), [int(k) for k in grid]
    n = vals.size  # not len(): _sorted_positive names the shape of a sample that is not 1-D
    top = _sorted_positive(vals, 1 + max((k for k in ks if 2 <= k < n), default=0))
    estimator = {"hill": hill_estimate, "rank_size": rank_size_estimate}.get(method)
    if estimator is None:
        raise ValueError(f"method must be 'hill' or 'rank_size', got {method!r}")
    return TailCurve(points=estimator(top if all(2 <= k < n for k in ks) else vals, ks), n=n)
