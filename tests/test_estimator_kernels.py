"""The batched block fits of the grouped t and the sort-free tail fits, held to
per-call references.  numpy alone: no scipy."""

import numpy as np
import pytest

import robustts.tailindex as tailindex
from robustts.errors import DataError, NumericalError
from robustts.regression import _group_estimates, grouped_ols, im_tstat, predictive_report
from robustts.series import PairedSample
from robustts.tailindex import _sorted_positive, k_grid, tail_curve

from conftest import make_series
from reference_regression import group_estimates as reference_group_estimates
from reference_tailindex import hill_zeta, rank_size_fit

QS = [(4,), (4, 8, 12, 16), (16, 4)]


def regression_data(T, k, seed=0):
    """An intercept, k - 1 heavy-tailed regressors and t(3) errors."""
    rng = np.random.default_rng([T, k, seed])
    X = np.column_stack([np.ones(T)] + [rng.standard_t(4, T) for _ in range(k - 1)])
    return X, X @ rng.standard_normal(k) + rng.standard_t(3, T)


def first_short_q(T, k, qs):
    """The DataError the first q that leaves too few observations raises, or None."""
    for q in qs:
        if 2 * q > T:
            return f"q={q} too large for T={T} (need q <= T/2)"
        if T // q <= k:
            return f"q={q} leaves blocks of {T // q} observations for {k} parameters"
    return None


class TestGroupEstimates:
    @pytest.mark.parametrize("qs", QS, ids=str)
    @pytest.mark.parametrize("k", [2, 7])
    @pytest.mark.parametrize("T", [17, 40, 250, 5000])
    def test_matches_per_block_lstsq(self, T, k, qs):
        X, y = regression_data(T, k)
        message = first_short_q(T, k, qs)
        if message is not None:
            with pytest.raises(DataError, match=f"^{message}$".replace("(", r"\(").replace(")", r"\)")):
                _group_estimates(X, y, qs)
            return
        got = _group_estimates(X, y, qs)
        want = np.vstack([reference_group_estimates(X, y, q) for q in qs])
        assert got.shape == (sum(qs), k)
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-11 * scale)

    @pytest.mark.parametrize("qs", QS, ids=str)
    def test_grouped_ols_is_im_tstat_of_the_blocks(self, qs):
        X, y = regression_data(250, 3)
        for q in qs:
            want = reference_group_estimates(X, y, q)
            for column, g in enumerate(grouped_ols(X, y, q)):
                ref = im_tstat(want[:, column])
                assert g.q == q and g.df == q - 1
                assert np.allclose(g.group_estimates, ref.group_estimates, rtol=1e-11, atol=0)
                assert g.t_stat == pytest.approx(ref.t_stat, rel=1e-9)
                assert g.p_value == pytest.approx(ref.p_value, rel=1e-8)

    @pytest.mark.parametrize("j", [-400, -100, 0, 100, 400])
    @pytest.mark.parametrize("T, k, qs", [(250, 2, (4, 8, 12, 16)), (5000, 7, (4,)), (65, 2, (16, 4))])
    def test_power_of_two_equivariance_is_exact(self, T, k, qs, j):
        X, y = regression_data(T, k)
        base = _group_estimates(X, y, qs)
        c = 2.0**j
        assert np.array_equal(_group_estimates(X, c * y, qs), c * base)
        assert np.array_equal(_group_estimates(c * X, c * y, qs), base)
        assert np.array_equal(_group_estimates(c * X, y, qs), base / c)

    @pytest.mark.parametrize("constant, qs, message", [
        (slice(10, 20), (4,), "group 2 of q=4"),
        (slice(10, 20), (4, 8), "group 2 of q=4"),
        (slice(10, 20), (8, 4), "group 3 of q=8"),
        # q=4's second block varies in its first half, so q=8's fourth block fails first
        (slice(15, 20), (4, 8), "group 4 of q=8"),
        (slice(0, 5), (4, 8), "group 1 of q=8"),
    ])
    def test_rank_deficient_block_is_named_by_its_q_and_j(self, constant, qs, message):
        X, y = regression_data(40, 2)
        X[constant, 1] = 3.0  # collinear with the intercept there
        with pytest.raises(NumericalError, match=f"^{message} is rank-deficient$"):
            _group_estimates(X, y, qs)

    def test_short_blocks_are_data_errors_before_rank(self):
        # q=8 would be rank-deficient, but q=16 leaves blocks of 2 rows for 2 parameters
        X, y = regression_data(40, 2)
        X[10:20, 1] = 3.0
        with pytest.raises(DataError, match="^q=16 leaves blocks of 2 observations for 2 parameters$"):
            _group_estimates(X, y, (8, 16))

    def test_predictive_report_with_blocks_as_long_as_k_is_data_error(self):
        rng = np.random.default_rng(32)
        y, x = rng.standard_normal(32), rng.standard_normal(32)
        pair = PairedSample(y, x, make_series(y).dates, ())
        with pytest.raises(DataError, match="^q=16 leaves blocks of 2 observations for 2 parameters$"):
            predictive_report(pair, qs=(16,))
        assert predictive_report(pair, qs=(8,)).grouped[8].q == 8
        assert predictive_report(pair, qs=()).grouped == {}


def tied_sample(n):
    """Unsorted, with ties from rounding and a constant block at the top."""
    rng = np.random.default_rng(n)
    x = np.round(rng.random(n) ** (-1.0 / 1.5), 2)
    top = max(2, n // 200)
    x[np.argsort(x)[-top:]] = x.max()
    return x, tuple(k for k in k_grid(n) if k > top)


class TestTailCurveBits:
    @pytest.mark.parametrize("n", [40, 41, 57, 1000, 12_345, 100_000])
    def test_rank_size_curve_keeps_the_reference_bits(self, n, monkeypatch):
        x, grid = tied_sample(n)
        want = [rank_size_fit(x, k) for k in grid]
        # from an empty table, grown on the way up, and from a table already grown
        monkeypatch.setattr(tailindex, "_LOG_RANKS", np.empty(0))
        for _ in range(2):
            got = [(p.zeta, p.log_scale) for p in tail_curve(x, "rank_size", grid).points]
            assert got == want
        # from a table grown at once to the largest k
        monkeypatch.setattr(tailindex, "_LOG_RANKS", np.empty(0))
        tailindex.rank_size_estimate(x, grid[-1])
        got = [(p.zeta, p.log_scale) for p in tail_curve(x, "rank_size", grid).points]
        assert got == want

    @pytest.mark.parametrize("n", [40, 41, 57, 1000, 12_345, 100_000])
    def test_hill_curve_keeps_the_reference_bits(self, n):
        x, grid = tied_sample(n)
        assert [p.zeta for p in tail_curve(x, "hill", grid).points] == [hill_zeta(x, k) for k in grid]

    @pytest.mark.parametrize("n", [40, 41, 57, 1000, 12_345, 100_000])
    def test_partial_sort_gives_the_full_sort_curve(self, n):
        # the grid reads at most the largest 15% plus one, so only those are sorted
        x, grid = tied_sample(n)
        full = np.sort(x)
        for method, est in (("hill", tailindex.hill_estimate), ("rank_size", tailindex.rank_size_estimate)):
            assert tail_curve(x, method, grid).points == tuple(est(full[-k - 1 :], k) for k in grid)

    @pytest.mark.parametrize("n", [40, 41, 57, 1000, 12_345, 100_000])
    @pytest.mark.parametrize("bad", [[0.0], [np.nan], [np.inf], [np.nan, 0.0], [np.inf, -1.0], [np.nan, np.inf]], ids=str)
    def test_partial_sort_raises_the_full_sort_error(self, n, bad):
        # a zero or negative value is named before a NaN or inf, wherever they sit
        x, grid = tied_sample(n)
        x[np.random.default_rng(n).choice(n, len(bad), replace=False)] = bad
        with pytest.raises(ValueError) as full:
            _sorted_positive(x)
        for method in ("hill", "rank_size"):
            with pytest.raises(ValueError, match=f"^{full.value}$"):
                tail_curve(x, method, grid)

    def test_constant_top_is_named(self):
        x, _ = tied_sample(1000)
        with pytest.raises(NumericalError, match="fewer than 2 distinct sizes"):
            tail_curve(x, "rank_size", (2,))
        with pytest.raises(NumericalError, match="fewer than 2 distinct sizes"):
            rank_size_fit(x, 2)


class TestSortedPositive:
    def test_sorted_input_comes_back_uncopied(self):
        x = np.array([0.5, 1.0, 1.0, 2.0, 7.0])
        assert _sorted_positive(x) is x

    def test_unsorted_input_is_sorted_into_a_copy(self):
        x = np.array([3.0, 1.0, 2.0, 2.0])
        out = _sorted_positive(x)
        assert out.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert x.tolist() == [3.0, 1.0, 2.0, 2.0]

    def test_strided_input(self):
        x = np.arange(1.0, 21.0)
        assert _sorted_positive(x[::3]).tolist() == x[::3].tolist()
        assert _sorted_positive(x[::-2]).tolist() == sorted(x[::-2].tolist())
        assert _sorted_positive([3, 1, 2]).tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("values", [
        [np.nan], [1.0, np.nan], [np.nan, 1.0], [1.0, 2.0, np.nan, 3.0], [1.0, 2.0, np.inf],
        [np.inf, 1.0], [np.inf],
    ], ids=str)
    def test_nan_or_inf_anywhere_is_rejected(self, values):
        with pytest.raises(ValueError, match="^tail estimation needs finite values, got NaN or inf$"):
            _sorted_positive(np.array(values))

    @pytest.mark.parametrize("values", [[0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 2.0], [2.0, 3.0, -1.0],
                                        [-1.0, np.nan]], ids=str)
    def test_zero_or_negative_is_rejected(self, values):
        with pytest.raises(ValueError, match="^tail estimation needs strictly positive values$"):
            _sorted_positive(np.array(values))

    def test_length_one_and_empty(self):
        assert _sorted_positive([4.0]).tolist() == [4.0]
        with pytest.raises(ValueError, match="^empty sample$"):
            _sorted_positive([])
