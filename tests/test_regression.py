import math
import re

import numpy as np
import pytest

import robustts.regression as regression
from robustts.errors import DataError, NumericalError
from robustts.regression import (
    FACTOR_MODELS,
    FactorPanel,
    _log_beta_half,
    _two_sided_p,
    andrews_bandwidth,
    classical_tstats,
    factor_report,
    group_partition,
    grouped_ols,
    hac_inference,
    im_tstat,
    long_run_variance,
    ols,
    predictive_report,
    qs_kernel,
    significance_stars,
)
from robustts.series import PairedSample, Series

from conftest import make_series
from reference_regression import long_run_variance as reference_lrv


def design(x):
    return np.column_stack([np.ones(len(x)), x])


def ar1_path(rng, T, phi, sigma=1.0):
    e = rng.standard_normal(T) * sigma
    u = np.zeros(T)
    for t in range(1, T):
        u[t] = phi * u[t - 1] + e[t]
    return u


class TestOls:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = ols(design(x), 2.0 + 3.0 * x)
        assert fit.coefficients == pytest.approx([2.0, 3.0])
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)

    def test_rank_deficiency(self):
        X = np.column_stack([np.ones(10), np.full(10, 2.0)])
        with pytest.raises(NumericalError, match="rank"):
            ols(X, np.arange(10.0))

    def test_matches_normal_equation_oracle(self, rng):
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        y = rng.standard_normal(50)
        fit = ols(X, y)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        assert fit.coefficients == pytest.approx(oracle, rel=1e-8)

    def test_dimensions_read_from_the_design(self, rng):
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 2))])
        fit = ols(X, rng.standard_normal(50))
        assert (fit.T, fit.k_params) == X.shape == (50, 3)

    def test_needs_degrees_of_freedom(self, rng):
        X = rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            ols(X, np.arange(3.0))

    def test_nan_response_is_a_data_error(self, rng):
        y = rng.standard_normal(50)
        y[7] = np.nan
        with pytest.raises(DataError, match="^regression data hold NaN or infinite values$"):
            ols(design(rng.standard_normal(50)), y)

    @pytest.mark.parametrize("shapes", [((50,), (50,)), ((50, 2), (49,)), ((50, 2), (50, 2))])
    def test_malformed_shapes_are_a_data_error(self, rng, shapes):
        X, y = (rng.standard_normal(shape) for shape in shapes)
        got = f"got {shapes[0]} and {shapes[1]}"
        message = "^" + re.escape(f"regression data need a T x k X and a length-T y, {got}") + "$"
        for fit in (ols, lambda X, y: grouped_ols(X, y, 4)):
            with pytest.raises(DataError, match=message):
                fit(X, y)

    def test_infinite_regressor_is_a_data_error(self, rng):
        x = rng.standard_normal(50)
        x[7] = np.inf
        with pytest.raises(DataError, match="^regression data hold NaN or infinite values$"):
            ols(design(x), rng.standard_normal(50))


class TestQsKernel:
    def test_unity_at_zero(self):
        assert qs_kernel(0.0) == 1.0

    def test_even_function(self, rng):
        xs = rng.uniform(-5, 5, 40)
        assert qs_kernel(xs) == pytest.approx(qs_kernel(-xs))

    def test_closed_form_at_one(self):
        z = 6.0 * math.pi / 5.0
        expected = 25.0 / (12.0 * math.pi**2) * (math.sin(z) / z - math.cos(z))
        assert qs_kernel(1.0) == pytest.approx(expected, abs=1e-12)
        assert qs_kernel(1.0) == pytest.approx(0.1379, abs=1e-4)


class TestAndrewsBandwidth:
    def test_iid_scores_give_small_bandwidth(self):
        rng = np.random.default_rng(60)
        bw_iid = andrews_bandwidth(rng.standard_normal(2000))
        bw_persistent = andrews_bandwidth(ar1_path(rng, 2000, 0.5))
        # rho-hat ~ 0 keeps the plug-in near its limit; persistence widens it
        assert bw_iid < 3.0 < bw_persistent

    def test_plug_in_oracle(self):
        rng = np.random.default_rng(61)
        u = ar1_path(rng, 1000, 0.5)
        alpha2 = 4 * 0.5**2 / (1 - 0.5) ** 4
        oracle = 1.3221 * (alpha2 * 1000) ** 0.2
        assert abs(andrews_bandwidth(u) / oracle - 1.0) < 0.15

    def test_monotone_in_sample_size(self):
        rng = np.random.default_rng(62)
        u = ar1_path(rng, 4000, 0.5)
        assert andrews_bandwidth(u) < andrews_bandwidth(np.concatenate([u, u]))

    def test_explosive_rho_clamped(self):
        u = 1.5 ** np.arange(30)  # rho-hat > 1
        bw = andrews_bandwidth(u)
        assert np.isfinite(bw) and bw > 0

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            andrews_bandwidth(np.ones(5))

    @pytest.mark.parametrize("exponent", [332, 664])
    def test_power_of_two_scale_is_exact(self, rng, exponent):
        # scores near 1e100 and 1e200, whose fourth powers overflow unscaled
        V = ar1_path(rng, 100, 0.5)[:, None] * np.array([1.0, 3.0]) + rng.standard_normal((100, 2))
        assert andrews_bandwidth(V * 2.0**exponent) == andrews_bandwidth(V)

    def test_non_finite_scores(self, rng):
        V = rng.standard_normal((50, 2))
        V[7, 1] = np.inf
        with pytest.raises(NumericalError, match="finite regression scores"):
            andrews_bandwidth(V)


class TestClassicalTstats:
    def test_overflowing_residuals(self, rng):
        X = design(rng.standard_normal(50))
        fit = ols(X, rng.standard_normal(50) * 1e200)
        with pytest.raises(NumericalError, match="classical residual variance overflows"):
            classical_tstats(fit)


class TestHacInference:
    def test_white_equivalence_at_zero_bandwidth(self, rng, monkeypatch):
        X = design(rng.standard_normal(200))
        y = rng.standard_normal(200) * (1 + np.abs(X[:, 1]))
        fit = ols(X, y)
        monkeypatch.setattr(regression, "andrews_bandwidth", lambda scores: 0.0)
        hac = hac_inference(fit)
        assert hac.bandwidth == 0.0
        xtx_inv = np.linalg.inv(X.T @ X)
        meat = X.T @ (X * (fit.residuals**2)[:, None])
        white_se = np.sqrt(np.diag(xtx_inv @ meat @ xtx_inv))
        assert hac.se == pytest.approx(white_se, rel=1e-8)

    def test_iid_matches_classical(self):
        rng = np.random.default_rng(63)
        X = design(rng.standard_normal(5000))
        y = 1.0 + 0.5 * X[:, 1] + rng.standard_normal(5000)
        fit = ols(X, y)
        hac = hac_inference(fit)
        dof = fit.T - fit.k_params
        classical_se = np.sqrt(fit.ssr / dof * np.diag(np.linalg.inv(X.T @ X)))
        assert np.all(np.abs(hac.se / classical_se - 1.0) < 0.10)

    def test_ar1_long_run_variance_oracle(self):
        rng = np.random.default_rng(64)
        u = ar1_path(rng, 5000, 0.5)
        lrv = long_run_variance(u, andrews_bandwidth(u))
        assert abs(float(lrv[0, 0]) / 4.0 - 1.0) < 0.10

    def test_lrv_psd_on_random_inputs(self, rng):
        for _ in range(10):
            V = rng.standard_normal((60, 3))
            omega = long_run_variance(V, float(rng.uniform(0.5, 6.0)))
            assert np.linalg.eigvalsh(omega)[0] >= -1e-10

    def test_lrv_overflow(self, rng):
        with pytest.raises(NumericalError, match="long-run variance is not finite"):
            long_run_variance(rng.standard_normal((50, 2)) * 1e200, 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_lrv_non_finite_scores(self, rng, bad):
        V = rng.standard_normal((50, 2))
        V[7, 1] = bad
        with pytest.raises(NumericalError, match="^QS long-run variance needs finite regression scores$"):
            long_run_variance(V, 3.0)

    @pytest.mark.parametrize("scale", [2.0**-400, 1.0, 2.0**400])
    def test_lrv_psd_check_is_scale_free(self, scale):
        # at bandwidth 10T the smallest eigenvalue is a near-cancellation:
        # -2.3e-10 of the largest for the seed-0 scores, -9e-12 for seed 3
        T = 5000
        failing, passing = (np.random.default_rng(s).standard_t(2, (T, 7)) for s in (0, 3))
        with pytest.raises(NumericalError, match="lost positive semidefiniteness"):
            long_run_variance(failing * scale, 10.0 * T)
        long_run_variance(passing * scale, 10.0 * T)

    def test_one_kernel_evaluation_per_call(self, rng, monkeypatch):
        calls = []

        def counting(x):
            calls.append(np.shape(x))
            return qs_kernel(x)

        monkeypatch.setattr(regression, "qs_kernel", counting)
        for T in (2, 10, 57, 1000):
            calls.clear()
            long_run_variance(rng.standard_normal((T, 2)), 3.0)
            assert calls == [(T - 1,)]
        calls.clear()
        long_run_variance(rng.standard_normal((50, 2)), 0.0)
        assert calls == []

    def test_stars_convention(self):
        assert significance_stars(0.005) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.07) == "*"
        assert significance_stars(0.2) == ""


def _magnitude(V, bandwidth):
    """``|V|' |W| |V| / T``: the size of the terms the long-run variance sums."""
    T = V.shape[0]
    w = np.abs(qs_kernel(np.arange(1, T) / bandwidth)) if bandwidth > 0 else np.zeros(T - 1)
    h = np.concatenate((w[::-1], [1.0], w))
    A = np.abs(V)
    WA = np.column_stack([np.convolve(h, A[:, a], mode="valid") for a in range(A.shape[1])])
    return A.T @ WA / T


class TestLongRunVarianceReference:
    """The FFT evaluation against the per-lag loop of ``reference_regression``.

    Each score kind meets each scale 1, 2^400 and 2^-400 once over the three
    widths k; a power-of-two scale is exact in both evaluations.  The
    tolerance is 1e-12 of ``sqrt(M_aa M_bb)``, ``M = |V|'|W||V|/T``: at
    bandwidths of T and more, ``Omega`` is a near-cancellation of terms of
    size ``M``, and there the loop itself strays from an extended-precision
    evaluation by more than 1e-12 of ``sqrt(Omega_aa Omega_bb)``.
    """

    SCALES = (1.0, 2.0**400, 2.0**-400)

    @pytest.mark.parametrize("T", [10, 11, 57, 250, 1000, 5000])
    def test_matches_per_lag_loop(self, T):
        rng = np.random.default_rng(T)
        het = np.exp(2.0 * np.sin(np.arange(T) / 7.0))[:, None]
        for j, k in enumerate((1, 2, 7)):
            kinds = {"gaussian": rng.standard_normal((T, k)), "t2": rng.standard_t(2, (T, k)),
                     "heteroskedastic": rng.standard_normal((T, k)) * het}
            for i, (label, V) in enumerate(kinds.items()):
                V = V * self.SCALES[(i + j) % 3]
                for bandwidth in (0.0, 1e-3, 0.7, 3.0, float(T), 10.0 * T):
                    case = f"T={T} k={k} {label} scale={self.SCALES[(i + j) % 3]} bandwidth={bandwidth}"
                    try:
                        want = reference_lrv(V, bandwidth)
                    except NumericalError as exc:
                        with pytest.raises(NumericalError, match=re.escape(str(exc))):
                            long_run_variance(V, bandwidth)
                        continue
                    got = long_run_variance(V, bandwidth)
                    size = np.sqrt(np.diag(_magnitude(V, bandwidth)))
                    assert np.all(np.abs(got - want) <= 1e-12 * np.outer(size, size)), case


class TestTwoSidedP:
    """The numpy-only p-values stay within 1e-12 relative of ``scipy.stats``.

    Where the reference is below the smallest normal double, the result only
    has to be below it too.  For df = 1 and 2 the reference is the closed
    form, since ``t.sf`` itself is 2.8e-11 off at df = 1, t = 1e-6.
    """

    X = np.concatenate(
        [[0.0, 5e-324, 1e-300, 1e-12, 1e-6], np.geomspace(1e-3, 40.0, 4001),
         [1e2, 1e4, 1e8, 1e160, 1e300, np.inf]]
    )

    @staticmethod
    def assert_close(got, want):
        normal = want >= np.finfo(float).tiny
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-12 * want[normal])
        assert np.all(got[~normal] < np.finfo(float).tiny)

    def test_normal(self):
        norm = pytest.importorskip("scipy.stats").norm
        self.assert_close(_two_sided_p(self.X), 2.0 * norm.sf(self.X))

    @pytest.mark.parametrize("df", list(range(1, 17)) + [39, 40, 41, 60, 134, 243, 4993, 4999])
    def test_student_t(self, df):
        with np.errstate(divide="ignore", over="ignore"):
            if df == 1:
                want = 2.0 / np.pi * np.arctan(1.0 / self.X)
            elif df == 2:
                s = np.sqrt(2.0 + self.X**2)
                want = np.where(np.isinf(s), 0.0, 2.0 / (s * (s + self.X)))
            else:
                want = 2.0 * pytest.importorskip("scipy.stats").t.sf(self.X, df)
        got = _two_sided_p(self.X, df)
        self.assert_close(got, want)
        assert np.all(np.diff(got) <= 0.0)

    def test_log_beta_recurrence(self):
        """``B(a + 1, 1/2) = B(a, 1/2) a / (a + 1/2)``, across the series switch at a = 20."""
        for a in np.concatenate([np.arange(0.5, 60.0, 0.5), np.geomspace(60.0, 1e7, 200)]):
            step = _log_beta_half(a + 1.0) - _log_beta_half(a)
            assert abs(step + math.log1p(0.5 / a)) <= 3e-14, a

    @pytest.mark.parametrize("df", [None, 1, 3, 243, 4999])
    def test_ends_range_and_shapes(self, df):
        assert float(_two_sided_p(0.0, df)) == 1.0
        assert float(_two_sided_p(np.inf, df)) == 0.0
        assert np.isnan(_two_sided_p(np.nan, df))
        got = _two_sided_p(self.X, df)
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert _two_sided_p(1.7, df).shape == ()
        vector = np.array([0.3, 1.7, 2.2, 11.0, 0.0, 40.0, 3.1])
        got = _two_sided_p(vector, df)
        assert got.shape == (7,)
        assert got.tolist() == [float(_two_sided_p(v, df)) for v in vector]


class TestGroupPartition:
    def test_even_split(self):
        ranges = group_partition(8, 4)
        assert [hi - lo for lo, hi in ranges] == [2, 2, 2, 2]

    def test_floor_arithmetic(self):
        ranges = group_partition(10, 4)
        assert [hi - lo for lo, hi in ranges] == [2, 3, 2, 3]

    def test_partition_property(self):
        for T in (10, 17, 100, 333, 1000):
            for q in (2, 4, 8, 12, 16):
                if 2 * q > T:
                    continue
                ranges = group_partition(T, q)
                covered = [t for lo, hi in ranges for t in range(lo, hi)]
                assert covered == list(range(T))
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_q_bounds(self):
        with pytest.raises(ValueError):
            group_partition(10, 1)
        with pytest.raises(ValueError):
            group_partition(10, 6)


class TestImTstat:
    def test_zero_mean(self):
        assert im_tstat([1.0, -1.0, 1.0, -1.0]).t_stat == 0.0

    def test_hand_computed_example(self):
        g = im_tstat([0.5, 1.0, 1.5, 2.0])
        assert g.t_stat == pytest.approx(3.873, abs=1e-3)
        assert (g.q, g.df) == (4, 3)
        # rejects at 5%: |t| beyond the 97.5% Student-t quantile with 3 df
        crit = float(pytest.importorskip("scipy.stats").t.ppf(0.975, 3))
        assert crit == pytest.approx(3.182, abs=1e-3)
        assert abs(g.t_stat) > crit
        assert g.p_value < 0.05 < g.max_valid_level

    def test_scale_invariance(self, rng):
        est = rng.standard_normal(8)
        assert im_tstat(5.0 * est).t_stat == pytest.approx(im_tstat(est).t_stat)

    def test_degenerate_variance(self):
        with pytest.raises(NumericalError, match="variance"):
            im_tstat([2.0, 2.0, 2.0])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            im_tstat([1.0])

    @pytest.mark.parametrize("estimates", [np.ones((3, 2)), 5.0, [[1.0], [2.0], [4.0]]], ids=("3x2", "0-D", "3x1"))
    def test_estimates_not_one_dimensional_name_their_shape(self, estimates):
        shape = re.escape(str(np.shape(estimates)))
        with pytest.raises(DataError, match=f"^group estimates must be one-dimensional, got shape {shape}$"):
            im_tstat(estimates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_estimate(self, bad):
        with pytest.raises(DataError, match="^group estimates hold NaN or infinite values$"):
            im_tstat([1.0, bad, 2.0])


class TestGroupedRegression:
    def make_pair(self, rng, T=160, beta=0.0):
        x = rng.standard_normal(T)
        y = 0.1 + beta * x + rng.standard_normal(T)
        dates = make_series(y).dates
        x_dates = make_series(np.zeros(T), start=dates[0].replace(day=1)).dates
        return PairedSample(y, x, dates, ())

    def test_q_one_rejected(self, rng):
        pair = self.make_pair(rng)
        with pytest.raises(ValueError):
            grouped_ols(design(pair.x), pair.y, 1)

    def test_estimates_cluster_near_truth_and_t_grows(self):
        rng = np.random.default_rng(65)
        T = 1600
        x = rng.standard_normal(T)
        y1 = 1.0 * x + rng.standard_normal(T)
        y2 = 2.0 * x + rng.standard_normal(T)
        X = design(x)
        g1 = grouped_ols(X, y1, 4)[1]
        g2 = grouped_ols(X, y2, 4)[1]
        assert max(abs(e - 1.0) for e in g1.group_estimates) < 0.2
        assert abs(g2.t_stat) > abs(g1.t_stat)

    def test_rank_deficient_group_is_named(self, rng):
        x = rng.standard_normal(40)
        x[10:20] = 3.0  # second group constant: collinear with intercept
        with pytest.raises(NumericalError, match="group 2"):
            grouped_ols(design(x), rng.standard_normal(40), 4)

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_data_is_a_data_error(self, rng, where):
        X, y = design(rng.standard_normal(80)), rng.standard_normal(80)
        if where == "X":
            X[30, 1] = -np.inf
        else:
            y[30] = np.nan
        with pytest.raises(DataError, match="^regression data hold NaN or infinite values$"):
            grouped_ols(X, y, 4)

    def test_y_rescaling_leaves_t(self, rng):
        pair = self.make_pair(rng, beta=0.4)
        a = grouped_ols(design(pair.x), pair.y, 4)[1].t_stat
        b = grouped_ols(design(pair.x), 3.0 * pair.y, 4)[1].t_stat
        assert b == pytest.approx(a, rel=1e-10)


class TestEquivariance:
    def test_constant_shift_moves_only_intercept(self):
        rng = np.random.default_rng(66)
        T = 300
        x = ar1_path(rng, T, 0.6) + 2.0
        y = 0.5 + 0.2 * x + rng.standard_normal(T)
        f1, f2 = ols(design(x), y), ols(design(x + 100.0), y)
        assert f2.coefficients[1] == pytest.approx(f1.coefficients[1], rel=1e-9)
        assert f2.coefficients[0] != pytest.approx(f1.coefficients[0])
        assert classical_tstats(f2)[0][1] == pytest.approx(classical_tstats(f1)[0][1], rel=1e-6)
        assert hac_inference(f2).t_stats[1] == pytest.approx(
            hac_inference(f1).t_stats[1], rel=1e-6
        )
        a = grouped_ols(design(x), y, 8)[1].t_stat
        b = grouped_ols(design(x + 100.0), y, 8)[1].t_stat
        assert b == pytest.approx(a, rel=1e-6)


class TestPowerOfTwoScale:
    """Scaling the response by 2^k scales every estimate by exactly 2^k and
    leaves every t-statistic and p-value bit for bit as it was."""

    KS = [-400, -100, 100, 400]

    @staticmethod
    def assert_grouped(scaled, base, k):
        assert scaled.keys() == base.keys()
        for q, g in base.items():
            assert scaled[q].group_estimates == tuple(math.ldexp(e, k) for e in g.group_estimates)
            assert (scaled[q].t_stat, scaled[q].p_value) == (g.t_stat, g.p_value)

    @pytest.mark.parametrize("k", KS)
    def test_predictive_report(self, k):
        rng = np.random.default_rng(67)
        x = ar1_path(rng, 240, 0.6)
        y = 0.1 + 0.3 * x + rng.standard_normal(240)
        dates = make_series(y).dates
        base = predictive_report(PairedSample(y, x, dates, ()))
        scaled = predictive_report(PairedSample(np.ldexp(y, k), x, dates, ()))
        assert (scaled.alpha, scaled.beta) == (math.ldexp(base.alpha, k), math.ldexp(base.beta, k))
        assert scaled.hac.t_stats.tobytes() == base.hac.t_stats.tobytes()
        assert scaled.hac.p_values.tobytes() == base.hac.p_values.tobytes()
        self.assert_grouped(scaled.grouped, base.grouped, k)

    @pytest.mark.parametrize("k", KS)
    def test_factor_report(self, k):
        rng = np.random.default_rng(68)
        dates, panel = make_panel(rng)
        y = 0.8 * panel.columns["Mkt.RF"] + rng.standard_normal(len(dates)) * 0.01
        base = factor_report(Series(dates, y), panel, "6F", qs=(4, 8))
        scaled = factor_report(Series(dates, np.ldexp(y, k)), panel, "6F", qs=(4, 8))
        for s, b in zip(scaled.coefficients, base.coefficients):
            assert s.estimate == math.ldexp(b.estimate, k), s.name
            for field in ("classical_t", "classical_p", "hac_t", "hac_p"):
                assert getattr(s, field) == getattr(b, field), (s.name, field)
            self.assert_grouped(s.grouped, b.grouped, k)


class TestPredictiveReport:
    def test_row_contents(self, rng):
        T = 120
        x = rng.standard_normal(T)
        y = 0.001 + 0.0 * x + rng.standard_normal(T) * 0.01
        pair = PairedSample(y, x, make_series(y).dates, ())
        row = predictive_report(pair, qs=(4, 8))
        assert row.T == T
        assert set(row.grouped) == {4, 8}
        assert row.hac_stars == significance_stars(row.hac_p)
        for q in (4, 8):
            assert (row.grouped[q].q, row.grouped[q].df) == (q, q - 1)


def make_panel(rng, T=240):
    dates = make_series(np.zeros(T)).dates
    cols = {
        name: rng.standard_normal(T) * 0.01
        for name in ("Mkt.RF", "SMB", "HML", "MOM", "RMW", "CMA")
    }
    cols["RF"] = np.full(T, 0.00002)
    return dates, FactorPanel(dates=dates, columns=cols)


class TestFactorReport:
    def test_capm_identity(self, rng):
        dates, panel = make_panel(rng)
        excess = Series(dates, panel.columns["Mkt.RF"])
        report = factor_report(excess, panel, "CAPM", qs=(4,))
        beta = report.coefficient("Mkt.RF")
        alpha = report.coefficient("Alpha")
        assert beta.estimate == pytest.approx(1.0, abs=1e-10)
        assert alpha.estimate == pytest.approx(0.0, abs=1e-12)

    def test_factor_sets(self):
        assert FACTOR_MODELS["CAPM"] == ("Mkt.RF",)
        assert set(FACTOR_MODELS["4F"]) == set(FACTOR_MODELS["3F"]) | {"MOM"}
        assert set(FACTOR_MODELS["6F"]) == set(FACTOR_MODELS["5F"]) | {"MOM"}
        assert set(FACTOR_MODELS["5F"]) == {"Mkt.RF", "SMB", "HML", "RMW", "CMA"}

    def test_nested_models_reduce_ssr(self, rng):
        dates, panel = make_panel(rng)
        y = rng.standard_normal(len(dates)) * 0.01
        excess = Series(dates, y)

        def ssr(model):
            from robustts.regression import _align_panel, ols as _ols

            X, yy, _ = _align_panel(excess, panel, FACTOR_MODELS[model])
            return _ols(X, yy).ssr

        assert ssr("3F") >= ssr("4F") - 1e-18

    def test_missing_factor_column(self, rng):
        dates, _ = make_panel(rng)
        panel = FactorPanel(dates=dates, columns={"Mkt.RF": np.zeros(len(dates)) + 0.01,
                                                  "RF": np.zeros(len(dates))})
        excess = Series(dates, np.arange(len(dates)) * 1e-4)
        with pytest.raises(DataError, match="SMB"):
            factor_report(excess, panel, "3F", qs=(4,))

    def test_grouped_present_per_coefficient(self, rng):
        dates, panel = make_panel(rng)
        excess = Series(dates, rng.standard_normal(len(dates)) * 0.01)
        report = factor_report(excess, panel, "3F", qs=(4, 8))
        for coef in report.coefficients:
            assert set(coef.grouped) == {4, 8}
            assert coef.hac_stars == significance_stars(coef.hac_p)
        assert [c.name for c in report.coefficients] == ["Mkt.RF", "SMB", "HML", "Alpha"]
