import re

import numpy as np
import pytest

from robustts.errors import NumericalError
from robustts.unitroot import UnitRootStats, _battery_batch, default_k_max, unit_root_battery

from reference_unitroot import (
    _adf_fit,
    adf_gls,
    gls_demean,
    lr_test,
    mp_test,
    mz_msb_mzt,
    select_lag_maic,
)


def random_walk(rng, T):
    return np.cumsum(rng.standard_normal(T))


def ar1(rng, T, phi, burn=50):
    e = rng.standard_normal(T + burn)
    x = np.zeros(T + burn)
    for t in range(1, T + burn):
        x[t] = phi * x[t - 1] + e[t]
    return x[burn:]


class TestGlsDemean:
    def test_c_zero_subtracts_first_observation(self, rng):
        y = rng.standard_normal(30)
        out = gls_demean(y, c_bar=-1e-300)  # rho = 1 to machine precision
        assert np.allclose(out, y - y[0])

    def test_c_exactly_zero_equivalent(self, rng):
        # quasi-difference at rho=1 keeps only the first row of the constant
        y = rng.standard_normal(30)
        T = len(y)
        rho = 1.0
        ya = np.concatenate([[y[0]], y[1:] - rho * y[:-1]])
        za = np.concatenate([[1.0], np.zeros(T - 1)])
        intercept = (za @ ya) / (za @ za)
        assert intercept == pytest.approx(y[0])

    def test_constant_series_maps_to_zero(self):
        out = gls_demean(np.full(25, 3.5), c_bar=-7.0)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_intercept_matches_gls_normal_equation_oracle(self, rng):
        y = ar1(rng, 120, 0.6) + 5.0
        c_bar = -7.0
        T = len(y)
        rho = 1.0 + c_bar / T
        # oracle: solve the one-parameter least-squares problem in closed form
        num = y[0] * 1.0 + np.sum((y[1:] - rho * y[:-1]) * (1.0 - rho))
        den = 1.0 + (T - 1) * (1.0 - rho) ** 2
        oracle = y - num / den
        assert np.allclose(gls_demean(y, c_bar), oracle, rtol=1e-10, atol=1e-10)

    def test_too_short(self):
        with pytest.raises(ValueError):
            gls_demean(np.array([1.0, 2.0]))


class TestSelectLagMaic:
    def test_k_max_zero_forces_zero(self, rng):
        sel = select_lag_maic(random_walk(rng, 100), 0)
        assert sel.k == 0
        assert len(sel.maic_values) == 1

    def test_k_is_argmin(self, rng):
        sel = select_lag_maic(random_walk(rng, 200), 8)
        assert sel.k == int(np.argmin(sel.maic_values))

    def test_white_noise_differences_select_zero_mostly(self):
        rng = np.random.default_rng(7)
        T = 500
        k_max = default_k_max(T)
        hits = 0
        for _ in range(200):
            y = random_walk(rng, T)
            hits += select_lag_maic(y - y.mean(), k_max).k == 0
        # Monte-Carlo oracle: mode at 0, observed frequency about 0.7
        assert hits / 200 > 0.5

    def test_ar_differences_select_positive_lag(self):
        rng = np.random.default_rng(8)
        T = 500
        k_max = default_k_max(T)
        hits = 0
        for _ in range(200):
            y = np.cumsum(ar1(rng, T, 0.5))
            hits += select_lag_maic(y - y.mean(), k_max).k >= 1
        assert hits / 200 > 0.9

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            select_lag_maic(np.arange(10.0), 8)


class TestAdfGls:
    def test_stationary_series_strongly_negative(self):
        rng = np.random.default_rng(9)
        stats = [adf_gls(gls_demean(rng.standard_normal(500)), 0) for _ in range(20)]
        assert all(s < -5 for s in stats)

    def test_null_five_percent_quantile(self):
        # 10,000-replication Monte-Carlo of the null distribution
        rng = np.random.default_rng(10)
        stats = np.empty(10_000)
        for i in range(10_000):
            stats[i] = adf_gls(gls_demean(random_walk(rng, 500)), 0)
        q5 = np.percentile(stats, 5)
        assert -1.95 - 0.15 <= q5 <= -1.95 + 0.15

    def test_scale_invariance(self, rng):
        y = gls_demean(random_walk(rng, 120))
        assert adf_gls(3.7 * y, 2) == pytest.approx(adf_gls(y, 2), rel=1e-10)


class TestMzFamily:
    def test_identity_holds_exactly(self, rng):
        for _ in range(50):
            v = rng.standard_normal(60)
            s2 = float(rng.uniform(0.1, 5.0))
            mza, msb, mzt = mz_msb_mzt(v, s2)
            assert mzt == pytest.approx(mza * msb, rel=1e-12)

    def test_homogeneity(self, rng):
        v = random_walk(rng, 80)
        s2 = 1.3
        a = 2.5
        base = mz_msb_mzt(v, s2)
        scaled = mz_msb_mzt(a * v, a**2 * s2)
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_kappa_zero_errors(self):
        with pytest.raises(NumericalError):
            mz_msb_mzt(np.array([0.0, 0.0, 1.0]), 1.0)

    def test_s2_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            mz_msb_mzt(rng.standard_normal(30), 0.0)


class TestMpTest:
    def test_plug_in_equals_one(self):
        # y_T = 0 and sum(y_{t-1}^2) = s2*T^2/cbar^2 give MPt = 1
        T, c_bar = 49, -7.0
        v = np.zeros(T)
        v[0] = T / abs(c_bar)
        assert mp_test(v, 1.0, c_bar) == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        v = random_walk(rng, 90)
        assert mp_test(4.0 * v, 16.0 * 1.7, -7.0) == pytest.approx(mp_test(v, 1.7, -7.0), rel=1e-10)

    def test_null_quantile_near_tabulated(self):
        # Monte-Carlo null at T=200; NP-style 5% point sits near 3.2
        rng = np.random.default_rng(11)
        stats = np.empty(4000)
        for i in range(4000):
            v = gls_demean(random_walk(rng, 200))
            _, sigma2, lag_sum = _adf_fit(v, 0)
            stats[i] = mp_test(v, sigma2 / (1 - lag_sum) ** 2, -7.0)
        q5 = np.percentile(stats, 5)
        assert 2.4 <= q5 <= 4.2


class TestLrTest:
    def test_stationary_ar1_large(self):
        rng = np.random.default_rng(12)
        hits = sum(lr_test(ar1(rng, 300, 0.5)) > 5 for _ in range(50))
        assert hits >= 48

    def test_constant_shift_invariance(self, rng):
        y = random_walk(rng, 100)
        assert lr_test(y + 123.4) == pytest.approx(lr_test(y), rel=1e-8, abs=1e-8)

    def test_nonnegative(self, rng):
        for _ in range(20):
            assert lr_test(random_walk(rng, 60)) >= 0.0


class TestBattery:
    def test_affine_invariance(self, rng):
        y = random_walk(rng, 150)
        base = unit_root_battery(y)
        moved = unit_root_battery(7.3 * y - 41.0)
        for name, value in base.as_dict().items():
            assert moved.as_dict()[name] == pytest.approx(value, rel=1e-7, abs=1e-9), name
        assert moved.lag == base.lag

    def test_pipeline_consistency(self, rng):
        w = rng.standard_normal(120)
        levels = np.cumsum(np.cumsum(w))
        d2 = np.diff(levels, n=2)
        assert np.allclose(d2, w[2:], rtol=1e-9, atol=1e-9)
        a = unit_root_battery(d2)
        b = unit_root_battery(w[2:])
        for name, value in a.as_dict().items():
            assert b.as_dict()[name] == pytest.approx(value, rel=1e-6), name

    def test_s2_ar_positive(self, rng):
        for _ in range(10):
            stats = unit_root_battery(random_walk(rng, 80))
            assert stats.s2_ar > 0

    def test_identity_enforced_by_type(self):
        with pytest.raises(NumericalError):
            UnitRootStats(lr=1, mz_alpha=-2, msb=0.5, mz_t=5.0, mp_t=1, adf=-1, lag=0, s2_ar=1)

    def test_minimum_length(self, rng):
        with pytest.raises(ValueError, match="at least 25"):
            unit_root_battery(rng.standard_normal(20))

    def test_shared_lag_reported(self, rng):
        y = np.cumsum(ar1(rng, 300, 0.6))
        stats = unit_root_battery(y)
        sel = select_lag_maic(y - y.mean(), default_k_max(len(y)))
        assert stats.lag == sel.k


DGPS = ("iid", "t2", "cauchy", "varshift", "ma1")


def innovations(rng, dgp, T):
    """Innovations of the size-study DGPs (MA(1) with theta = -0.8)."""
    if dgp == "iid":
        return rng.standard_normal(T)
    if dgp == "t2":
        return rng.standard_t(2, T)
    if dgp == "cauchy":
        return rng.standard_cauchy(T)
    if dgp == "varshift":
        e = rng.standard_normal(T)
        e[T // 2 :] *= np.sqrt(5.0)
        return e
    u = rng.standard_normal(T + 1)
    return u[1:] - 0.8 * u[:-1]


def dgp_stack(T, per_dgp=40):
    rng = np.random.default_rng(T)
    return np.array([np.cumsum(innovations(rng, d, T)) for d in DGPS for _ in range(per_dgp)])


def reference_battery(v):
    """Lag and statistics composed from the scalar formula references."""
    k = select_lag_maic(v - v.mean(), default_k_max(len(v))).k
    v_gls = gls_demean(v)
    adf, sigma2, lag_sum = _adf_fit(v_gls, k)
    s2 = sigma2 / (1.0 - lag_sum) ** 2
    mz_alpha, msb, mz_t = mz_msb_mzt(v_gls, s2)
    stats = {"LR": lr_test(v), "MZa": mz_alpha, "MSB": msb, "MZt": mz_t,
             "MPt": mp_test(v_gls, s2), "ADF": adf, "s2_ar": s2}
    return k, stats


# The kernel sums in another order than the references, so rows agree to
# rounding, not bit for bit: 1e-12 relative to max(|value|, 1).  The floor
# matters for LR, (T-1) times a log-ratio whose rounding is absolute near 0.
TOL = {"rel": 1e-12, "abs": 1e-12}


class TestBatteryKernel:
    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_matches_scalar_references(self, T):
        Y = dgp_stack(T)
        out = _battery_batch(Y)
        assert len(np.unique(out["lag"])) > 1  # one stacked ADF fit over mixed lags
        for i, v in enumerate(Y):
            lag, ref = reference_battery(v)
            assert out["lag"][i] == lag, (T, i)
            for name, value in ref.items():
                assert out[name][i] == pytest.approx(value, **TOL), (T, i, name)

    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_stack_matches_rows_alone(self, T):
        Y = dgp_stack(T, per_dgp=8)
        out = _battery_batch(Y)
        for i, v in enumerate(Y):
            alone = _battery_batch(v[None, :])
            for name, col in out.items():
                assert col[i] == pytest.approx(alone[name][0], **TOL), (T, i, name)

    @pytest.mark.parametrize("bad", [
        np.full(150, 3.5),  # singular lag search
        np.arange(150) % 2.0,  # 0, 1, 0, 1, ...: the lag-0 MAIC regression fits exactly
    ])
    def test_degenerate_row_raises_scalar_message(self, rng, bad):
        with pytest.raises(NumericalError) as scalar:
            reference_battery(bad)
        message = re.escape(str(scalar.value))
        Y = np.vstack([random_walk(rng, 150), bad, random_walk(rng, 150)])
        with pytest.raises(NumericalError, match=f"^{message}$"):
            _battery_batch(Y)
        with pytest.raises(NumericalError, match=f"^{message}$"):
            unit_root_battery(bad)
