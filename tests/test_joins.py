"""Date joins against brute-force definitions on random irregular calendars.

Forward-fill (``excess_returns``), strict-lag alignment (``align_predictive``)
and the exact-date join behind the factor regressions (``_align_panel``) are
each compared with an O(n*m) scan that spells out the definition: values
bit for bit, dates as tuples, and the same ``DataError`` text when too few
pairs are left.
"""

from datetime import date, timedelta

import numpy as np
import pytest

from robustts import FactorPanel
from robustts.errors import DataError
from robustts.regression import _align_panel
from robustts.series import TRADING_DAYS, Series, align_predictive, excess_returns

BASE = date(2020, 3, 2)
NAMES = ("Mkt.RF", "SMB")


def calendar(rng, n: int, offset: int) -> tuple[date, ...]:
    """``n`` strictly increasing dates, gaps of 1 to 4 days, starting after ``BASE + offset``."""
    days = offset + np.cumsum(rng.integers(1, 5, size=n))
    return tuple(BASE + timedelta(days=int(d)) for d in days)


def calendar_pairs():
    """(left, right) calendars: random overlaps plus the edge cases named in each label."""
    rng = np.random.default_rng(8)
    pairs = [
        (f"random {i}", calendar(rng, int(rng.integers(1, 40)), int(rng.integers(-20, 20))),
         calendar(rng, int(rng.integers(1, 40)), int(rng.integers(-20, 20))))
        for i in range(300)
    ]
    same = calendar(rng, 30, 0)
    one = calendar(rng, 1, 10)
    pairs += [
        ("identical", same, same),
        ("one date left", one, same),
        ("one date right", same, one),
        ("one date both", one, one),
        ("right entirely after", same, calendar(rng, 12, 400)),
        ("right entirely before", same, calendar(rng, 12, -400)),
        ("right starts one day before", same, (same[0] - timedelta(days=1),) + same[1:]),
    ]
    return pairs


def series(rng, dates, scale=1.0) -> Series:
    return Series(dates, scale * rng.standard_normal(len(dates)))


def panel_of(s: Series) -> FactorPanel:
    return FactorPanel(s.dates, {"Mkt.RF": s.values, "SMB": s.values[::-1], "RF": s.values / 7})


def outcome(fn, *args):
    try:
        return fn(*args)
    except DataError as exc:
        return str(exc)


def brute_excess(returns: Series, rates: Series):
    values = []
    for d, r in zip(returns.dates, returns.values):
        on_or_before = [k for k, rd in enumerate(rates.dates) if rd <= d]
        if not on_or_before:
            return f"no rate observation on or before {d}"
        values.append(r - (rates.values[on_or_before[-1]] / 100.0) / TRADING_DAYS)
    return np.array(values)


def brute_predictive(returns: Series, regressor: Series):
    y, x, dates, x_dates = [], [], [], []
    for d, r in zip(returns.dates, returns.values):
        before = [k for k, xd in enumerate(regressor.dates) if xd < d]
        if before:
            y.append(r)
            x.append(regressor.values[before[-1]])
            dates.append(d)
            x_dates.append(regressor.dates[before[-1]])
    if len(y) < 4:
        return f"only {len(y)} return dates have a strictly earlier regressor observation"
    return np.array(y), np.array(x), tuple(dates), tuple(x_dates)


def brute_exact(excess: Series, panel: FactorPanel):
    pairs = [
        (i, j)
        for i, d in enumerate(excess.dates)
        for j, e in enumerate(panel.dates)
        if d == e
    ]
    if len(pairs) < len(NAMES) + 2:
        return f"only {len(pairs)} dates shared between returns and factor panel"
    y = np.array([excess.values[i] for i, _ in pairs])
    X = np.array([[1.0] + [panel.columns[n][j] for n in NAMES] for _, j in pairs])
    return X, y, len(pairs)


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(20200302)
    return [
        (label, series(rng, left), series(rng, right, 5.0))
        for label, left, right in calendar_pairs()
    ]


def test_calendars_cover_both_outcomes(cases):
    """The calendars reach both the error and the success branch of each join."""
    for brute in (brute_excess, brute_predictive):
        fails = [isinstance(brute(left, right), str) for _, left, right in cases]
        assert 0 < sum(fails) < len(fails), brute.__name__
    fails = [isinstance(brute_exact(left, panel_of(right)), str) for _, left, right in cases]
    assert 0 < sum(fails) < len(fails)


def test_forward_fill_matches_definition(cases):
    for label, returns, rates in cases:
        expected = brute_excess(returns, rates)
        got = outcome(excess_returns, returns, rates)
        if isinstance(expected, str):
            assert got == expected, label
        else:
            assert got.dates == returns.dates, label
            assert np.array_equal(got.values, expected), label


def test_strict_lag_matches_definition(cases):
    for label, returns, regressor in cases:
        expected = brute_predictive(returns, regressor)
        got = outcome(align_predictive, returns, regressor)
        if isinstance(expected, str):
            assert got == expected, label
            continue
        y, x, dates, x_dates = expected
        assert np.array_equal(got.y, y) and np.array_equal(got.x, x), label
        assert got.dates == dates and got.x_dates == x_dates, label


def test_exact_join_matches_definition(cases):
    for label, excess, other in cases:
        expected = brute_exact(excess, panel_of(other))
        got = outcome(_align_panel, excess, panel_of(other), NAMES)
        if isinstance(expected, str):
            assert got == expected, label
            continue
        X, y, T = got
        assert T == expected[2], label
        assert np.array_equal(X, expected[0]) and np.array_equal(y, expected[1]), label
