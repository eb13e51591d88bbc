"""Dated series, aligned regression samples, and the basic transforms.

A :class:`Series` is the carrier for every dated sequence in the package:
cumulative counts, price levels, daily returns (fractions) and annual policy
rates (percent).  Transforms are pure functions returning new objects; the
underlying numpy arrays are marked read-only so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date as Date

import numpy as np

from .errors import DataError

__all__ = [
    "Series",
    "PairedSample",
    "difference",
    "simple_returns",
    "excess_returns",
    "align_predictive",
    "positive_part",
    "positive_window",
]

# annual percent rates become per-trading-day fractions over this many days
TRADING_DAYS = 252


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Series:
    """An ordered, dated sequence of real observations.

    Invariants: dates strictly increasing, values finite, length >= 1.
    """

    dates: tuple[Date, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", _readonly(self.values))
        if len(self.dates) != len(self.values):
            raise ValueError(
                f"dates and values differ in length ({len(self.dates)} vs {len(self.values)})"
            )
        if len(self.values) < 1:
            raise ValueError("series must hold at least one observation")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValueError(f"dates must be strictly increasing ({prev} then {cur})")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PairedSample:
    """Aligned (regressand, lagged regressor) observations.

    ``y[i]`` is the return on ``dates[i]``; ``x[i]`` is the most recent
    regressor observation dated strictly before ``dates[i]`` (its date is
    kept in ``x_dates`` so the strict-lag invariant stays checkable).
    """

    y: np.ndarray
    x: np.ndarray
    dates: tuple[Date, ...]
    x_dates: tuple[Date, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "x", _readonly(self.x))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "x_dates", tuple(self.x_dates))
        n = len(self.y)
        if not (len(self.x) == len(self.dates) == n):
            raise ValueError("y, x, dates must share one length")
        if n < 4:
            raise ValueError(f"paired sample needs at least 4 observations, got {n}")
        if self.x_dates:
            if len(self.x_dates) != n:
                raise ValueError("x_dates must match the sample length")
            for xd, d in zip(self.x_dates, self.dates):
                if xd >= d:
                    raise ValueError(f"regressor date {xd} not strictly before {d}")

    @property
    def T(self) -> int:
        return len(self.y)


def difference(s: Series, order: int) -> Series:
    """Difference a series ``order`` times, keeping the dates of retained points."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if len(s) <= order:
        raise DataError(f"series too short to difference {order} time(s): length {len(s)}")
    return Series(s.dates[order:], np.diff(s.values, n=order))


def simple_returns(prices: Series) -> Series:
    """Simple returns R_t = P_t / P_{t-1} - 1, aligned to date t."""
    if len(prices) < 2:
        raise DataError("need at least two prices to form returns")
    if np.any(prices.values <= 0):
        bad = int(np.argmax(prices.values <= 0))
        raise DataError(f"non-positive price {prices.values[bad]} on {prices.dates[bad]}")
    vals = prices.values[1:] / prices.values[:-1] - 1.0
    return Series(prices.dates[1:], vals)


def excess_returns(returns: Series, annual_rate_pct: Series) -> Series:
    """Subtract the per-day risk-free rate from raw returns.

    The annual percent rate is forward-filled onto each return date and
    converted with ``rate/100/TRADING_DAYS``.
    """
    rates = _forward_fill(annual_rate_pct, returns.dates)
    return Series(returns.dates, returns.values - (rates / 100.0) / TRADING_DAYS)


def _forward_fill(s: Series, onto: tuple[Date, ...]) -> np.ndarray:
    """Latest observation of ``s`` on or before each target date."""
    out = np.empty(len(onto))
    j = -1
    for i, d in enumerate(onto):
        while j + 1 < len(s) and s.dates[j + 1] <= d:
            j += 1
        if j < 0:
            raise DataError(f"no rate observation on or before {d}")
        out[i] = s.values[j]
    return out


def align_predictive(returns: Series, regressor: Series) -> PairedSample:
    """Pair each return with the most recent regressor value strictly before it.

    Return dates with no strictly earlier regressor observation are dropped;
    fewer than 4 surviving pairs is an error.
    """
    y, x, dates, x_dates = [], [], [], []
    j = -1
    for i, d in enumerate(returns.dates):
        while j + 1 < len(regressor) and regressor.dates[j + 1] < d:
            j += 1
        if j < 0:
            continue
        y.append(returns.values[i])
        x.append(regressor.values[j])
        dates.append(d)
        x_dates.append(regressor.dates[j])
    if len(y) < 4:
        raise DataError(
            f"only {len(y)} return dates have a strictly earlier regressor observation"
        )
    return PairedSample(np.array(y), np.array(x), tuple(dates), tuple(x_dates))


def positive_part(s: Series) -> np.ndarray:
    """Strictly positive values of a series as a read-only array."""
    vals = s.values[s.values > 0]
    if len(vals) == 0:
        raise DataError("series has no strictly positive values")
    return _readonly(vals)


def positive_window(s: Series) -> Series:
    """Truncate a count series to start at its first strictly positive value."""
    pos = np.nonzero(s.values > 0)[0]
    if len(pos) == 0:
        raise DataError("series never becomes positive")
    start = int(pos[0])
    return Series(s.dates[start:], s.values[start:])
