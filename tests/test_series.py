from datetime import date

import numpy as np
import pytest

from robustts.errors import DataError
from robustts.series import (
    FactorPanel,
    PairedSample,
    Series,
    align_predictive,
    difference,
    excess_returns,
    first_unordered,
    positive_part,
    positive_window,
    simple_returns,
)

from conftest import make_series


class TestSeriesInvariants:
    def test_dates_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Series((date(2020, 1, 2), date(2020, 1, 2)), [1.0, 2.0])

    def test_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            make_series([1.0, np.nan])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Series((date(2020, 1, 1),), [1.0, 2.0])

    def test_values_read_only(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestFirstUnordered:
    D = [date(2020, 1, d) for d in range(1, 8)]

    @pytest.mark.parametrize(
        "dates, want",
        [
            ([], None),
            (D[:1], None),
            (D, None),
            ([D[0], D[1], D[1], D[2]], 2),
            ([D[0], D[2], D[1], D[1]], 2),
            (D[::-1], 1),
            (D[:5] + [D[4]], 5),
        ],
    )
    @pytest.mark.parametrize("container", [tuple, list])
    def test_index_of_first_step_not_strictly_up(self, dates, want, container):
        assert first_unordered(container(dates)) == want


class TestDifference:
    def test_first_difference(self):
        out = difference(make_series([1, 3, 6, 10]), 1)
        assert np.array_equal(out.values, [2, 3, 4])
        assert out.dates[0] == date(2020, 1, 23)

    def test_second_difference_of_quadratic_ramp(self):
        out = difference(make_series([1, 3, 6, 10]), 2)
        assert np.array_equal(out.values, [1, 1])

    def test_cumsum_inverts(self, rng):
        s = make_series(rng.standard_normal(50))
        d = difference(s, 1)
        recovered = np.concatenate([[s.values[0]], s.values[0] + np.cumsum(d.values)])
        assert np.allclose(recovered, s.values)

    def test_too_short(self):
        with pytest.raises(DataError, match="too short"):
            difference(make_series([1.0, 2.0]), 2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            difference(make_series([1, 2, 3, 4]), 3)


class TestSimpleReturns:
    def test_arithmetic(self):
        out = simple_returns(make_series([100, 110, 99]))
        assert np.allclose(out.values, [0.10, -0.10])

    def test_constant_prices(self):
        out = simple_returns(make_series([50.0] * 5))
        assert np.allclose(out.values, 0.0)

    def test_doubling(self):
        out = simple_returns(make_series([1, 2, 4, 8]))
        assert np.allclose(out.values, [1, 1, 1])

    def test_non_positive_price(self):
        with pytest.raises(DataError, match="non-positive price"):
            simple_returns(make_series([100, 0, 99]))


class TestExcessReturns:
    def test_daily_conversion(self):
        returns = make_series([0.01], start=date(2020, 2, 1))
        rates = make_series([2.52], start=date(2020, 1, 1))
        out = excess_returns(returns, rates)
        assert out.values[0] == pytest.approx(0.0099, abs=1e-12)

    def test_zero_rates_identity(self, rng):
        returns = make_series(rng.standard_normal(10) * 0.01, start=date(2020, 2, 1))
        rates = make_series([0.0], start=date(2020, 1, 1))
        out = excess_returns(returns, rates)
        assert np.array_equal(out.values, returns.values)

    def test_forward_fill_until_next_publication(self):
        returns = make_series([0.0, 0.0, 0.0, 0.0], start=date(2020, 1, 10))
        rates = Series((date(2020, 1, 1), date(2020, 1, 12)), [252.0, 504.0])
        out = excess_returns(returns, rates)
        # 10th and 11th use 252 -> 0.01/day; from the 12th the new rate applies
        assert np.allclose(out.values, [-0.01, -0.01, -0.02, -0.02])

    def test_no_rate_before_first_return(self):
        returns = make_series([0.01] * 4, start=date(2020, 1, 1))
        rates = make_series([1.0], start=date(2020, 6, 1))
        with pytest.raises(DataError, match="no rate observation"):
            excess_returns(returns, rates)

    def test_linear_in_returns(self, rng):
        r1 = make_series(rng.standard_normal(8) * 0.01, start=date(2020, 2, 1))
        r2 = make_series(rng.standard_normal(8) * 0.01, start=date(2020, 2, 1))
        rates = make_series([3.0], start=date(2020, 1, 1))
        lhs = excess_returns(Series(r1.dates, r1.values + r2.values), rates).values
        rhs = excess_returns(r1, rates).values + excess_returns(r2, rates).values
        # adding two series double-subtracts the rate; linearity up to that constant
        assert np.allclose(lhs, rhs + (3.0 / 100 / 252))


class TestAlignPredictive:
    def test_strict_lag_uses_previous_day(self):
        returns = make_series([0.1, 0.2, 0.3, 0.4], start=date(2020, 3, 2))
        regressor = make_series([1, 2, 3, 4, 5, 6, 7], start=date(2020, 3, 1))
        pair = align_predictive(returns, regressor)
        assert np.array_equal(pair.x, [1, 2, 3, 4])
        assert all(xd < d for xd, d in zip(pair.x_dates, pair.dates))

    def test_weekend_gap_pairs_sunday_not_friday(self):
        # Mon 2020-03-09 pairs with Sun 2020-03-08 even though Friday also exists
        returns = make_series([0.1, 0.1, 0.1, 0.1], start=date(2020, 3, 9))
        regressor = make_series(np.arange(10.0), start=date(2020, 3, 1))
        pair = align_predictive(returns, regressor)
        assert pair.x_dates[0] == date(2020, 3, 8)
        assert pair.x[0] == 7.0

    def test_regressor_starting_after_returns(self):
        returns = make_series([0.1] * 5, start=date(2020, 1, 1))
        regressor = make_series([1.0, 2.0, 3.0, 4.0], start=date(2021, 1, 1))
        with pytest.raises(DataError, match="strictly earlier"):
            align_predictive(returns, regressor)

    def test_unmatched_head_dropped(self):
        returns = make_series([0.1] * 6, start=date(2020, 1, 1))
        regressor = make_series(np.arange(8.0), start=date(2020, 1, 2))
        pair = align_predictive(returns, regressor)
        # first two return dates (Jan 1, Jan 2) have no strictly earlier regressor
        assert pair.T == 4
        assert pair.dates[0] == date(2020, 1, 3)

    def test_paired_sample_invariants(self):
        with pytest.raises(ValueError, match="at least 4"):
            PairedSample([1.0, 2.0], [1.0, 2.0], (date(2020, 1, 1), date(2020, 1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["y", "x"])
    def test_paired_sample_values_finite(self, field, bad):
        values = {"y": [0.1, -0.2, 0.3, 0.0, 0.1], "x": [1.0, 2.0, 3.0, 4.0, 5.0]}
        values[field][2] = bad
        dates = make_series(np.zeros(5)).dates
        with pytest.raises(ValueError, match="paired sample values must be finite"):
            PairedSample(values["y"], values["x"], dates)


class TestFactorPanel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_columns_finite(self, bad):
        dates = make_series(np.zeros(5)).dates
        smb = [0.01, 0.0, bad, -0.01, 0.02]
        with pytest.raises(ValueError, match="column 'SMB' values must be finite"):
            FactorPanel(dates, {"Mkt.RF": np.full(5, 0.01), "SMB": smb})

    def test_length_and_order(self):
        dates = make_series(np.zeros(5)).dates
        with pytest.raises(ValueError, match="length mismatch"):
            FactorPanel(dates, {"SMB": np.zeros(4)})
        with pytest.raises(ValueError, match="strictly increasing"):
            FactorPanel(dates[::-1], {"SMB": np.zeros(5)})


class TestPositivePart:
    def test_filters_to_positive(self):
        out = positive_part(make_series([-1, 0, 2, 5]))
        assert sorted(out) == [2, 5]

    def test_all_negative_errors(self):
        with pytest.raises(DataError, match="positive"):
            positive_part(make_series([-1.0, -2.0, 0.0]))

    def test_all_positive_identity(self):
        out = positive_part(make_series([3.0, 1.0, 2.0]))
        assert sorted(out) == [1.0, 2.0, 3.0]


class TestPositiveWindow:
    def test_truncates_leading_zeros(self):
        s = make_series([0, 0, 0, 1, 4, 9])
        out = positive_window(s)
        assert np.array_equal(out.values, [1, 4, 9])
        assert out.dates[0] == date(2020, 1, 25)

    def test_never_positive(self):
        with pytest.raises(DataError):
            positive_window(make_series([0.0, 0.0]))


class TestOrderCheckedOnce:
    """An axis is checked for order once: slices of it, and the dates of a
    file that were checked as it was read, are not checked again."""

    @staticmethod
    def count_checks(monkeypatch):
        import robustts.series as series

        calls, real = [], series.first_unordered
        monkeypatch.setattr(series, "first_unordered", lambda dates: calls.append(len(dates)) or real(dates))
        return calls

    def test_transforms_do_not_recheck(self, monkeypatch):
        s = make_series(np.r_[0.0, 0.0, np.arange(1.0, 40.0) ** 3])
        calls = self.count_checks(monkeypatch)
        y = difference(difference(positive_window(s), 1), 1)
        positive_part(y)
        rates = Series(s.dates, np.full(len(s), 2.0))
        excess_returns(simple_returns(positive_window(s)), rates)
        assert calls == [len(s)]

    def test_counts_file_checks_its_header_once(self, monkeypatch, data_dir):
        import robustts.ingest as ingest

        checked = []
        real = ingest.first_unordered
        monkeypatch.setattr(ingest, "first_unordered", lambda dates: checked.append(len(dates)) or real(dates))
        calls = self.count_checks(monkeypatch)
        counts = ingest.ingest_counts(data_dir / "counts_infections.csv")
        assert len(counts) > 1 and len(checked) == 1 and calls == []

    def test_unchecked_series_keeps_every_other_check(self):
        from robustts.series import _ordered_series

        dates = make_series([1.0, 2.0]).dates
        with pytest.raises(ValueError, match="^dates and values differ in length \\(2 vs 1\\)$"):
            _ordered_series(dates, [1.0])
        with pytest.raises(ValueError, match="^series must hold at least one observation$"):
            _ordered_series((), [])
        with pytest.raises(ValueError, match="^series values must be finite$"):
            _ordered_series(dates, [1.0, np.inf])
        s = _ordered_series(list(dates), [1.0, 2.0])
        assert s.dates == dates and isinstance(s.dates, tuple)
        assert s.values.tolist() == [1.0, 2.0] and not s.values.flags.writeable
