import re

import numpy as np
import pytest

import robustts.unitroot as unitroot
from robustts.errors import DataError, NumericalError
from robustts.bootstrap import unit_root_report, unit_root_reports
from robustts.unitroot import UnitRootStats, _battery_batch, _Workspace, default_k_max

from reference_unitroot import (
    _adf_fit,
    adf_gls,
    adf_gram_two_designs,
    gls_demean,
    lag_design_gram,
    lr_test,
    maic_per_lag,
    mp_test,
    mz_msb_mzt,
    row_bytes,
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
        base = unit_root_report(y, B=0).stats
        moved = unit_root_report(7.3 * y - 41.0, B=0).stats
        for name, value in base.as_dict().items():
            assert moved.as_dict()[name] == pytest.approx(value, rel=1e-7, abs=1e-9), name
        assert moved.lag == base.lag

    def test_pipeline_consistency(self, rng):
        w = rng.standard_normal(120)
        levels = np.cumsum(np.cumsum(w))
        d2 = np.diff(levels, n=2)
        assert np.allclose(d2, w[2:], rtol=1e-9, atol=1e-9)
        a = unit_root_report(d2, B=0).stats
        b = unit_root_report(w[2:], B=0).stats
        for name, value in a.as_dict().items():
            assert b.as_dict()[name] == pytest.approx(value, rel=1e-6), name

    def test_s2_ar_positive(self, rng):
        for _ in range(10):
            stats = unit_root_report(random_walk(rng, 80), B=0).stats
            assert stats.s2_ar > 0

    def test_identity_enforced_by_type(self, rng):
        with pytest.raises(TypeError, match="mz_t"):
            UnitRootStats(lr=1, mz_alpha=-2, msb=0.5, mz_t=5.0, mp_t=1, adf=-1, lag=0, s2_ar=1)
        y = random_walk(rng, 120)
        stats = unit_root_report(y, B=0).stats
        assert stats.mz_t == stats.mz_alpha * stats.msb
        assert stats.mz_t == _battery_batch(y[None, :], _Workspace())["MZt"][0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_a_data_error(self, rng, bad):
        y = random_walk(rng, 100)
        y[40] = bad
        with pytest.raises(DataError, match="^series holds NaN or infinite values$"):
            unit_root_report(y, B=0)
        with pytest.raises(DataError, match="^series holds NaN or infinite values$"):
            unit_root_reports([random_walk(rng, 100), y], B=99)
        # finite values too large for the battery's sums still overflow
        with pytest.raises(NumericalError, match="^unit-root battery overflows"):
            unit_root_report(random_walk(rng, 1000) * 1e160, B=0)

    def test_two_dimensional_values_are_a_data_error(self, rng):
        Y = np.cumsum(rng.standard_normal((2, 100)), axis=1)
        with pytest.raises(DataError, match=r"^a series must be one-dimensional, got shape \(2, 100\)$"):
            unit_root_report(Y, B=0)

    def test_minimum_length(self, rng):
        with pytest.raises(ValueError, match="at least 25"):
            unit_root_report(rng.standard_normal(20), B=0)

    def test_shared_lag_reported(self, rng):
        y = np.cumsum(ar1(rng, 300, 0.6))
        stats = unit_root_report(y, B=0).stats
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


# three neighbouring lengths, whose Gram bodies (observations k_max..T-2)
# span 255, 256 and 257 observations: a power of two and either side
NEIGHBOURS = [271, 272, 273]


class TestBatteryKernel:
    @pytest.mark.parametrize("T", [25, 150, *NEIGHBOURS, 1000])
    def test_matches_scalar_references(self, T):
        Y = dgp_stack(T)
        out = _battery_batch(Y, _Workspace())
        assert len(np.unique(out["lag"])) > 1  # one stacked ADF fit over mixed lags
        for i, v in enumerate(Y):
            lag, ref = reference_battery(v)
            assert out["lag"][i] == lag, (T, i)
            for name, value in ref.items():
                assert out[name][i] == pytest.approx(value, **TOL), (T, i, name)

    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_stack_matches_rows_alone(self, T):
        Y = dgp_stack(T, per_dgp=8)
        out = _battery_batch(Y, _Workspace())
        for i, v in enumerate(Y):
            alone = _battery_batch(v[None, :], _Workspace())
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
            _battery_batch(Y, _Workspace())
        with pytest.raises(NumericalError, match=f"^{message}$"):
            unit_root_report(bad, B=0)

    @pytest.mark.parametrize("row", [
        # a walk scaled by 2^520 overflows the MAIC Gram
        np.cumsum(np.random.default_rng(1).standard_normal(150)) * 2.0**520,
        # white noise with a large first value, scaled by 2^506, overflows
        # only the GLS-demeaned ADF Gram
        np.r_[20.0, np.random.default_rng(3).standard_normal(150)[1:]] * 2.0**506,
    ], ids=["maic-gram", "adf-gram"])
    def test_overflowing_row_raises(self, rng, row):
        Y = np.vstack([random_walk(rng, 150), row, random_walk(rng, 150)])
        message = "^unit-root battery overflows: the series values are too large$"
        with pytest.raises(NumericalError, match=message):
            _battery_batch(Y, _Workspace())


def lag_sums_arguments(monkeypatch, Y):
    """The levels and lag source that the kernel passes to ``_lag_sums`` on ``Y``
    (its workspace, the last argument, left out)."""
    seen, real = [], unitroot._lag_sums
    monkeypatch.setattr(unitroot, "_lag_sums", lambda *args: seen.append(args) or real(*args))
    _battery_batch(Y, _Workspace())
    monkeypatch.undo()
    return seen[0][:3]


def flat_start(T):
    """Counts that stay flat (zero differences) over their first half, then grow."""
    rng = np.random.default_rng(T)
    return np.cumsum(np.r_[np.zeros(T // 2), rng.poisson(3.0, T - T // 2) + 1.0])


class TestLagGram:
    @pytest.mark.parametrize("T", [25, 26, 40, 150, *NEIGHBOURS[::2], 999, 1000])
    def test_matches_explicit_design(self, monkeypatch, T):
        walks = dgp_stack(T, per_dgp=8)
        # flat counts, whose head lag products are all zero, and a walk at
        # scale 1e150, whose Gram nears 1e305 without overflowing
        Y = np.vstack([walks, flat_start(T), walks[0] * 1e150])
        U, V, P = lag_sums_arguments(monkeypatch, Y)
        k = default_k_max(T)
        assert P.shape == (len(Y), k + T - 1)
        sums, want = unitroot._lag_sums(U, V, P, _Workspace()), lag_design_gram(U, V, k)
        # the two sum in another order: 1e-14 relative to each row's max |G|
        scale = np.abs(want).max(axis=(1, 2))
        # of the design's (U, lags, response, V): MAIC's block (lags, U,
        # response) and the ADF fit's (V, lags, response)
        orders = np.r_[1 : k + 1, 0, k + 1], np.r_[k + 2, 1 : k + 2]
        for index, order in zip(unitroot._gram_index(k)[1:], orders):
            got = sums[:, index].reshape(len(Y), k + 2, k + 2)
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got - want[:, order[:, None], order]).max(axis=(1, 2)) <= 1e-14 * scale), T

    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_stack_matches_rows_alone_bit_for_bit(self, monkeypatch, T):
        Y = np.vstack([dgp_stack(T, per_dgp=4), flat_start(T)])
        U, V, P = lag_sums_arguments(monkeypatch, Y)
        stacked = unitroot._lag_sums(U, V, P, _Workspace())
        for i in range(len(Y)):
            alone = unitroot._lag_sums(U[i : i + 1], V[i : i + 1], P[i : i + 1], _Workspace())
            assert alone.tobytes() == stacked[i : i + 1].tobytes(), (T, i)

    def test_overflow_still_raises(self, rng):
        # at 1e160 the level sums pass the largest double
        Y = np.vstack([random_walk(rng, 1000), random_walk(rng, 1000) * 1e160])
        message = "^unit-root battery overflows: the series values are too large$"
        with pytest.raises(NumericalError, match=message):
            _battery_batch(Y, _Workspace())


def adf_gram_arguments(monkeypatch, Y):
    """The lag design's row of sums and the design's head that the kernel
    passes to ``_adf_gram`` on ``Y``, copied before the call reuses their
    workspace buffers."""
    seen, real = [], unitroot._adf_gram
    spy = lambda sums, head, *rest: seen.append((sums.copy(), head.copy())) or real(sums, head, *rest)
    monkeypatch.setattr(unitroot, "_adf_gram", spy)
    _battery_batch(Y, _Workspace())
    monkeypatch.undo()
    return seen[0]


class TestAdfGram:
    @pytest.mark.parametrize("T", [25, 150, *NEIGHBOURS, 1000])
    def test_matches_two_designs_at_every_lag(self, monkeypatch, T):
        Y = dgp_stack(T, per_dgp=8)
        k_max = default_k_max(T)
        sums, head = adf_gram_arguments(monkeypatch, Y)
        assert sums.shape[1] == (k_max + 2) ** 2 + 2 and head.shape[1:] == (k_max + 2, k_max)
        V = np.array([gls_demean(y) for y in Y])
        # every lag for all rows, from l = 0 (the whole head) to l = k_max
        # (an empty head), then a mix of lags across rows
        lags = [np.full(len(Y), l) for l in range(k_max + 1)]
        lags.append(np.random.default_rng(T).integers(0, k_max + 1, len(Y)))
        for lag in lags:
            got, want = unitroot._adf_gram(sums, head, lag, _Workspace()), adf_gram_two_designs(V, lag, k_max)
            assert np.array_equal(got == 0.0, want == 0.0), (T, lag[0])
            # the two sum in another order, and a cross-product can cancel far
            # below its terms, so 1e-12 relative to sqrt(G_ii * G_jj)
            scale = np.sqrt(np.einsum("cii->ci", want))
            bound = 1e-12 * scale[:, :, None] * scale[:, None, :]
            assert np.all(np.abs(got - want) <= bound), (T, lag[0])


def bits(out):
    """A kernel result's arrays as raw bytes, for bit-for-bit comparison."""
    return {name: np.ascontiguousarray(col).tobytes() for name, col in out.items()}


def concat(outs):
    return {name: np.concatenate([o[name] for o in outs]) for name in outs[0]}


class TestBatchInvariance:
    @pytest.mark.parametrize("T", [30, 60, 150, *NEIGHBOURS, 999, 1000])
    def test_random_chunks_match_rows_alone(self, T):
        Y = dgp_stack(T, per_dgp=8)
        alone = concat([_battery_batch(Y[i : i + 1], _Workspace()) for i in range(len(Y))])
        rng = np.random.default_rng(T)
        for _ in range(3):
            cuts = np.sort(rng.choice(np.arange(1, len(Y)), size=rng.integers(1, 8), replace=False))
            chunks = concat([_battery_batch(part, _Workspace()) for part in np.split(Y, cuts)])
            assert bits(chunks) == bits(alone), (T, cuts)


class TestBatteryRows:
    # a T=150 row holds (8 * 150 + 5 * 16**2) * 8 = 19,840 bytes: chunks of
    # 1 (budgets below one row), 2, 5 and all 37 rows
    @pytest.mark.parametrize("chunk_bytes", [1, 18_000, 40_000, 100_000, 2_000_000, unitroot.CHUNK_BYTES])
    def test_stack_ranges_cover_every_series_once(self, monkeypatch, rng, chunk_bytes):
        T, n = 150, 37
        Y = np.cumsum(rng.standard_normal((n, T)), axis=1)
        ranges = []

        def stack(lo, hi):
            ranges.append((lo, hi))
            return Y[lo:hi]

        monkeypatch.setattr(unitroot, "CHUNK_BYTES", chunk_bytes)
        out = unitroot._battery_rows(n, T, stack)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
        assert all(hi - lo == 1 or (hi - lo) * row_bytes(T) <= chunk_bytes for lo, hi in ranges)
        assert all(hi > lo for lo, hi in ranges)
        if chunk_bytes < 2 * row_bytes(T):
            assert len(ranges) == n
        assert bits(out) == bits(_battery_batch(Y, _Workspace()))


    @pytest.mark.parametrize("T", [25, 40, 150, 1000])
    def test_each_buffer_is_allocated_once_per_call(self, monkeypatch, rng, T):
        # the first chunk sizes the workspace and the others, the partial last
        # one included, write into it: no buffer is allocated twice
        allocated = []

        class Counting(unitroot._Workspace):
            def __call__(self, name, *shape):
                before = self.get(name)
                view = super().__call__(name, *shape)
                if self[name] is not before:
                    allocated.append(name)
                return view

        monkeypatch.setattr(unitroot, "_Workspace", Counting)
        monkeypatch.setattr(unitroot, "CHUNK_BYTES", 5 * row_bytes(T))
        Y = np.cumsum(rng.standard_normal((23, T)), axis=1)
        out = unitroot._battery_rows(len(Y), T, lambda lo, hi: Y[lo:hi])
        assert sorted(allocated) == sorted(set(allocated)) == ["A", "P", "U", "V", "g", "s", "sums"]
        assert bits(out) == bits(_battery_batch(Y, _Workspace()))


def maic_arguments(monkeypatch, Y):
    """The arguments the kernel passes to ``_maic`` on ``Y``, the bordered
    Gram copied before the kernel reuses its workspace buffer."""
    seen, real = [], unitroot._maic
    monkeypatch.setattr(unitroot, "_maic", lambda B, *rest: seen.append((B.copy(), *rest)) or real(B, *rest))
    _battery_batch(Y, _Workspace())
    monkeypatch.undo()
    return seen[0]


def maic_loop(B, T, k_max):
    """``maic_per_lag`` on ``_maic``'s bordered Gram (lags, level, response),
    read level first."""
    m, order = k_max + 1, np.r_[k_max, :k_max]
    return maic_per_lag(B[:, order[:, None], order], B[:, order, m], B[:, m, m], T, k_max)


def cholesky_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def solve_fails(*args, **kwargs):
    raise AssertionError("np.linalg.solve called")


class TestMaicFactor:
    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_matches_per_lag_loop(self, monkeypatch, T):
        args = maic_arguments(monkeypatch, dgp_stack(T))
        factor, loop = unitroot._maic(*args), maic_loop(*args)
        assert np.array_equal(np.argmin(factor, axis=1), np.argmin(loop, axis=1))
        # MAIC crosses zero, so relative to max(|value|, 1) as TOL
        assert np.all(np.abs(factor - loop) <= 1e-12 * np.maximum(np.abs(loop), 1.0))

    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_factor_fits_every_lag_without_a_solve(self, monkeypatch, T):
        # the fallback loop solves, so this fails should the factor be
        # skipped or its SSRs come out non-positive
        args = maic_arguments(monkeypatch, dgp_stack(T))
        loop = maic_loop(*args)
        monkeypatch.setattr(np.linalg, "solve", solve_fails)
        factor = unitroot._maic(*args)
        assert np.all(np.abs(factor - loop) <= 1e-12 * np.maximum(np.abs(loop), 1.0))

    @pytest.mark.parametrize("T", [25, 150, 1000])
    def test_failed_factor_gives_the_loop_bit_for_bit(self, monkeypatch, T):
        Y = dgp_stack(T, per_dgp=8)
        monkeypatch.setattr(unitroot, "_maic", maic_loop)
        loop = _battery_batch(Y, _Workspace())
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_fails)
        assert bits(_battery_batch(Y, _Workspace())) == bits(loop)

    @pytest.mark.parametrize("bad", [np.full(150, 3.5), np.arange(150) % 2.0])
    def test_failed_factor_keeps_the_scalar_message(self, monkeypatch, rng, bad):
        with pytest.raises(NumericalError) as scalar:
            reference_battery(bad)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky_fails)
        Y = np.vstack([random_walk(rng, 150), bad])
        with pytest.raises(NumericalError, match=f"^{re.escape(str(scalar.value))}$"):
            _battery_batch(Y, _Workspace())

    @pytest.mark.parametrize("maic", [unitroot._maic, maic_loop], ids=["factor", "loop"])
    def test_non_positive_ssr_names_its_lag(self, maic):
        # the regressors' Gram is I, bordered by their products with the
        # response, 0.1 and 1.0, and its sum of squares 1.5: the second
        # row's lag-1 SSR is 1.5 - 1 - 1 < 0
        B = np.stack([np.eye(4), np.eye(4)])
        B[:, :3, 3] = B[:, 3, :3] = [[0.1], [1.0]]
        B[:, 3, 3] = 1.5
        with pytest.raises(NumericalError, match="^degenerate ADF regression at lag 1$"):
            maic(B, 100, 2)
