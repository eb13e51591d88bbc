"""Dated series, factor panels, aligned regression samples and the transforms.

A :class:`Series` is the carrier for every dated sequence in the package:
cumulative counts, price levels, daily returns (fractions) and annual policy
rates (percent); a :class:`FactorPanel` holds dated factor columns.  The
date-order check (once per axis) and the date joins used across the package live here.
Transforms are pure functions returning new objects; the underlying numpy
arrays are marked read-only so values can be shared freely.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date as Date
from itertools import compress, count
from operator import le

import numpy as np

from .errors import DataError

__all__ = [
    "Series",
    "PairedSample",
    "FactorPanel",
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


def first_unordered(dates) -> int | None:
    """Index of the first date not strictly after its predecessor, or None."""
    return next(compress(count(1), map(le, dates[1:], dates)), None)


def shared_dates(dates, other) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of every exact match ``dates[i] == other[j]``, in date order."""
    if len(dates) == len(other) and dates == other:
        i = np.arange(len(dates), dtype=np.intp)
        return i, i
    where = {d: j for j, d in enumerate(other)}
    i = [k for k, d in enumerate(dates) if d in where]
    return np.array(i, dtype=np.intp), np.array([where[dates[k]] for k in i], dtype=np.intp)


@dataclass(frozen=True)
class Series:
    """An ordered, dated sequence of real observations.

    Invariants: dates strictly increasing, values finite, length >= 1.
    """

    dates: tuple[Date, ...]
    values: np.ndarray

    def __post_init__(self, ordered: bool = False):
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
        bad = None if ordered else first_unordered(self.dates)
        if bad is not None:
            prev, cur = self.dates[bad - 1], self.dates[bad]
            raise ValueError(f"dates must be strictly increasing ({prev} then {cur})")

    def __len__(self) -> int:
        return len(self.values)


def _ordered_series(dates, values) -> Series:
    """``Series(dates, values)`` on dates already known to be strictly increasing,
    such as a slice of a checked axis: every check but the date order's."""
    s = object.__new__(Series)
    s.__dict__.update(dates=dates, values=values)  # as the frozen dataclass's __init__ sets them
    s.__post_init__(ordered=True)
    return s


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
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.x))):
            raise ValueError("paired sample values must be finite")
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


@dataclass(frozen=True)
class FactorPanel:
    """Dated factor columns, already in per-period fractions; every value finite."""

    dates: tuple[Date, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        cols = {}
        for name, vals in self.columns.items():
            cols[name] = _readonly(vals)
            if len(cols[name]) != len(self.dates):
                raise ValueError(f"column {name!r} length mismatch")
            if not np.all(np.isfinite(cols[name])):
                raise ValueError(f"column {name!r} values must be finite")
        object.__setattr__(self, "columns", cols)
        if first_unordered(self.dates) is not None:
            raise ValueError("panel dates must be strictly increasing")


def difference(s: Series, order: int) -> Series:
    """Difference a series ``order`` times, keeping the dates of retained points."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if len(s) <= order:
        raise DataError(f"series too short to difference {order} time(s): length {len(s)}")
    with np.errstate(over="ignore"):
        vals = np.diff(s.values, n=order)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise DataError(f"difference of order {order} overflows on {s.dates[order + bad]}")
    return _ordered_series(s.dates[order:], vals)


def simple_returns(prices: Series) -> Series:
    """Simple returns R_t = P_t / P_{t-1} - 1, aligned to date t."""
    if len(prices) < 2:
        raise DataError("need at least two prices to form returns")
    if np.any(prices.values <= 0):
        bad = int(np.argmax(prices.values <= 0))
        raise DataError(f"non-positive price {prices.values[bad]} on {prices.dates[bad]}")
    with np.errstate(over="ignore"):
        vals = prices.values[1:] / prices.values[:-1] - 1.0
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmin(np.isfinite(vals)))
        raise DataError(f"return overflows on {prices.dates[bad + 1]}")
    return _ordered_series(prices.dates[1:], vals)


def excess_returns(returns: Series, annual_rate_pct: Series) -> Series:
    """Subtract the per-day risk-free rate from raw returns.

    The annual percent rate is forward-filled onto each return date and
    converted with ``rate/100/TRADING_DAYS``.
    """
    rates = _forward_fill(annual_rate_pct, returns.dates)
    return _ordered_series(returns.dates, returns.values - (rates / 100.0) / TRADING_DAYS)


def _forward_fill(s: Series, onto: tuple[Date, ...]) -> np.ndarray:
    """Latest observation of ``s`` on or before each (increasing) target date."""
    idx = [bisect_right(s.dates, d) - 1 for d in onto]
    if idx[0] < 0:
        raise DataError(f"no rate observation on or before {onto[0]}")
    return s.values[idx]


def align_predictive(returns: Series, regressor: Series) -> PairedSample:
    """Pair each return with the most recent regressor value strictly before it.

    Return dates with no strictly earlier regressor observation are dropped;
    fewer than 4 surviving pairs is an error.
    """
    start = bisect_right(returns.dates, regressor.dates[0])
    kept = len(returns) - start
    if kept < 4:
        raise DataError(f"only {kept} return dates have a strictly earlier regressor observation")
    dates = returns.dates[start:]
    lag = [bisect_left(regressor.dates, d) - 1 for d in dates]
    return PairedSample(
        returns.values[start:], regressor.values[lag], dates, tuple(regressor.dates[j] for j in lag)
    )


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
    return _ordered_series(s.dates[start:], s.values[start:])
