import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import robustts.bootstrap as bt
import robustts.unitroot as unitroot
from robustts.bootstrap import (
    BootstrapResult,
    SieveModel,
    fit_sieve,
    rademacher,
    unit_root_report,
    unit_root_reports,
)
from robustts.errors import DataError, NumericalError
from robustts.ingest import ingest_counts
from robustts.series import difference, positive_window
from robustts.unitroot import _values

from reference_bootstrap import resample_chunk as reference_chunk
from reference_unitroot import row_bytes


class TestFitSieve:
    def test_order_zero_residuals_are_demeaned_differences(self, rng):
        dy = rng.standard_normal(50) + 0.7
        model = fit_sieve(dy, 0)
        assert model.p == 0 and model.phi == ()
        assert np.allclose(model.residuals, dy - dy.mean())

    def test_exact_ar1_recovered(self):
        phi = 0.8
        dy = phi ** np.arange(60)
        model = fit_sieve(dy, 1)
        assert model.phi[0] == pytest.approx(phi, abs=1e-8)

    def test_residual_count_and_centering(self, rng):
        dy = rng.standard_normal(100)
        model = fit_sieve(dy, 3)
        assert model.p == len(model.phi) == 3
        assert len(model.residuals) == len(dy) - 3
        assert abs(model.residuals.mean()) < 1e-12

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(21)
        phi = 0.6
        T = 2000
        estimates = []
        for _ in range(20):
            e = rng.standard_normal(T)
            d = np.zeros(T)
            for t in range(1, T):
                d[t] = phi * d[t - 1] + e[t]
            estimates.append(fit_sieve(d, 1).phi[0])
        assert all(abs(est - phi) < 0.05 for est in estimates)

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_sieve(np.arange(4.0), 2)

    def test_centering_enforced_by_type(self):
        with pytest.raises(ValueError, match="centered"):
            SieveModel(phi=(), residuals=np.array([1.0, 1.0]))


class TestRademacher:
    def test_deterministic_in_seed(self):
        a = rademacher(123, 64)
        b = rademacher(123, 64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, rademacher(124, 64))

    def test_values_are_signs(self):
        w = rademacher(5, 1000)
        assert set(np.unique(w)) == {-1.0, 1.0}

    def test_law_of_large_numbers(self):
        w = rademacher(99, 1_000_000)
        assert abs(w.mean()) < 0.01

    def test_tuple_seed(self):
        assert np.array_equal(rademacher((1, 2), 16), rademacher((1, 2), 16))
        assert not np.array_equal(rademacher((1, 2), 16), rademacher((1, 3), 16))

    @pytest.mark.parametrize("n", [1, 2, 149, 150, 999])
    @pytest.mark.parametrize("seed", [0, 7, (42, 3, 998), (2**32, 5), (1, 2**32 + 1, 2**63), 2**64 + 3])
    def test_raw_bits_are_generator_integers(self, seed, n):
        # the definition from raw PCG64 words must stay what Generator.integers draws
        parts = seed if isinstance(seed, tuple) else (seed,)
        rng = np.random.default_rng(np.random.SeedSequence(parts))
        expected = rng.integers(0, 2, size=n) * 2.0 - 1.0
        got = rademacher(seed, n)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


class TestResampleNull:
    def test_unit_multipliers_give_cumsum_of_residuals(self, rng, monkeypatch):
        dy = rng.standard_normal(40)
        model = fit_sieve(dy, 0)
        monkeypatch.setattr(bt, "_draw_signs", lambda keys, n: np.ones((len(keys), n)))
        y_star = bt._resample_chunk(model, bt._seed_keys((), [0]))[0]
        assert np.allclose(y_star, np.cumsum(dy - dy.mean()))

    def test_zero_phi_keeps_innovations(self, rng, monkeypatch):
        dy = rng.standard_normal(40)
        resid = dy[1:] - dy[1:].mean()
        model = SieveModel(phi=(0.0,), residuals=resid)
        w = rademacher(3, len(model.residuals))
        monkeypatch.setattr(bt, "_draw_signs", lambda keys, n: np.tile(w, (len(keys), 1)))
        y_star = bt._resample_chunk(model, bt._seed_keys((), [0]))[0]
        assert np.allclose(np.diff(y_star, prepend=0.0), w * model.residuals)

    def test_unit_root_imposed(self, rng):
        dy = rng.standard_normal(200)
        model = fit_sieve(dy, 2)
        y_star = bt._resample_chunk(model, bt._seed_keys((), [11]))[0]
        # the differences must satisfy the AR recursion exactly
        d = np.diff(y_star, prepend=0.0)
        eps = rademacher((11,), len(model.residuals)) * model.residuals
        recon = np.zeros_like(d)
        for t in range(len(d)):
            recon[t] = eps[t]
            for j, phi in enumerate(model.phi, start=1):
                if t - j >= 0:
                    recon[t] += phi * d[t - j]
        assert np.allclose(d, recon)

    def test_filter_variance(self):
        # long-run variance of the recoloured differences matches s2/(1-phi)^2
        rng = np.random.default_rng(31)
        phi = 0.5
        T = 1000
        e = rng.standard_normal(T)
        d = np.zeros(T)
        for t in range(1, T):
            d[t] = phi * d[t - 1] + e[t]
        model = fit_sieve(d, 1)
        m = len(model.residuals)
        ends = np.array([bt._resample_chunk(model, bt._seed_keys((31,), [r]))[0][-1] for r in range(2000)])
        empirical = np.var(ends / np.sqrt(m))
        target = np.mean(model.residuals**2) / (1.0 - model.phi[0]) ** 2
        assert abs(empirical / target - 1.0) < 0.10


def sieve_with_roots(roots, n, seed):
    """Sieve whose AR polynomial has the given inverse roots, with t(3) residuals."""
    phi = -np.real(np.poly(roots))[1:]
    resid = np.random.default_rng(seed).standard_t(3, n)
    return SieveModel(phi=tuple(float(c) for c in phi), residuals=resid - resid.mean())


def largest_root_modulus(phi):
    """Largest modulus of the inverse roots of ``1 - sum_j phi_j z^j``."""
    return float(max(abs(np.roots(np.r_[1.0, -np.asarray(phi)]))))


def cascadia_d1_sieve(data_dir):
    """The order-11 sieve of the Cascadia d1 fixture series (sum of phi about -5.5)."""
    counts = ingest_counts(data_dir / "counts_infections.csv")
    y = difference(positive_window(counts["Cascadia"]), 1)
    return fit_sieve(np.diff(_values(y)), unit_root_report(y, B=0).stats.lag)


def ols_phi(d, p):
    """The AR coefficients of a least-squares AR(p) fit with intercept, by ``lstsq``."""
    n = len(d)
    X = np.column_stack([np.ones(n - p)] + [d[p - j : n - j] for j in range(1, p + 1)])
    return np.linalg.lstsq(X, d[p:], rcond=None)[0][1:]


def yule_walker_phi(d, p):
    """The Yule-Walker AR(p) coefficients from the biased autocovariances of ``d``."""
    u = d - d.mean()
    acov = np.correlate(u, u, "full")[len(u) - 1 : len(u) + p] / len(u)
    R = np.array([[acov[abs(i - j)] for j in range(p)] for i in range(p)])
    return np.linalg.solve(R, acov[1:])


class TestCausalSieve:
    # a Cauchy walk whose largest difference is its last: the OLS AR(1) sieve
    # at its MAIC lag has coefficient 6.93, and replicates grown from it overflow
    EXPLOSIVE = np.cumsum(np.random.default_rng([2, 821, 150, 1]).standard_cauchy(151))

    def test_explosive_fit_falls_back_to_yule_walker(self):
        d = np.diff(self.EXPLOSIVE)
        assert ols_phi(d, 1)[0] == pytest.approx(6.93, abs=5e-3)
        model = fit_sieve(d, 1)
        assert model.phi[0] == pytest.approx(yule_walker_phi(d, 1)[0], rel=1e-10)
        assert largest_root_modulus(model.phi) < 0.01

    def test_explosive_series_gets_a_report(self):
        rep = unit_root_report(self.EXPLOSIVE, B=199, seed=0)
        assert rep.stats.lag == 1
        assert rep.p_values["ADF"] == pytest.approx(0.62)

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_fallback_is_causal_at_any_order(self, p):
        dy = np.random.default_rng(3).standard_t(1, 150)
        dy[-1] = 1e4 * np.sign(dy[-2])
        assert largest_root_modulus(ols_phi(dy, p)) > 1.0
        model = fit_sieve(dy, p)
        assert np.allclose(model.phi, yule_walker_phi(dy, p), rtol=1e-10, atol=1e-12)
        assert largest_root_modulus(model.phi) < 1.0

    @pytest.mark.parametrize("target", ["infections", "deaths"])
    def test_fixture_sieves_keep_their_least_squares_fit(self, data_dir, target):
        # every fixture sieve is causal, so the fallback leaves the goldens alone
        counts = ingest_counts(data_dir / f"counts_{target}.csv")
        for name in counts:
            for order in (1, 2):
                y = difference(positive_window(counts[name]), order)
                d = np.diff(_values(y))
                lag = unit_root_report(y, B=0).stats.lag
                if lag:
                    assert largest_root_modulus(ols_phi(d, lag)) < 1.0, (name, order)
                assert np.allclose(fit_sieve(d, lag).phi, ols_phi(d, lag), rtol=1e-10, atol=1e-12)


class TestResampleChunk:
    @pytest.mark.parametrize("p", [0, 3, 13, 21])
    def test_rows_equal_one_seed_chunks(self, rng, p):
        model = fit_sieve(rng.standard_t(3, 160), p)
        rs = range(1, 41)
        chunk = bt._resample_chunk(model, bt._seed_keys((7, 2), rs))
        assert chunk.shape == (len(rs), len(model.residuals))
        for row, r in zip(chunk, rs):
            assert np.array_equal(row, bt._resample_chunk(model, bt._seed_keys((7, 2), [r]))[0])

    @staticmethod
    def assert_matches_filter(model, prefix, rs):
        pytest.importorskip("scipy.signal")
        got = bt._resample_chunk(model, bt._seed_keys(prefix, rs))
        want = reference_chunk(model, [prefix + (r,) for r in rs])
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", [25, 149, 999])
    @pytest.mark.parametrize("p", [1, 3, 13, 21])
    def test_matches_recursive_filter(self, p, n):
        dy = np.random.default_rng([p, n]).standard_t(3, n + p)
        self.assert_matches_filter(fit_sieve(dy, p), (5, p, n), range(12))

    @pytest.mark.parametrize("n", [25, 149, 999])
    def test_matches_recursive_filter_near_unit_root(self, n):
        roots = [0.99, 0.99 * np.exp(0.3j), 0.99 * np.exp(-0.3j), -0.6]
        model = sieve_with_roots(roots, n, seed=n)
        assert largest_root_modulus(model.phi) == pytest.approx(0.99)
        self.assert_matches_filter(model, (6, n), range(12))

    def test_matches_recursive_filter_on_fixture_sieve(self, data_dir):
        model = cascadia_d1_sieve(data_dir)
        assert model.p == 11 and sum(model.phi) == pytest.approx(-5.5, abs=0.1)
        assert largest_root_modulus(model.phi) == pytest.approx(0.847, abs=2e-3)
        self.assert_matches_filter(model, (7,), range(40))

    def test_kernel_built_once_per_report(self, monkeypatch):
        builds, chunks = [], []
        kernel, chunk = bt._recolour_kernel, bt._resample_chunk

        def counting_kernel(phi, n):
            builds.append((phi, n))
            return kernel(phi, n)

        def counting_chunk(model, keys):
            chunks.append(len(keys))
            return chunk(model, keys)

        monkeypatch.setattr(bt, "_recolour_kernel", counting_kernel)
        monkeypatch.setattr(bt, "_resample_chunk", counting_chunk)
        d = np.zeros(1000)
        e = np.random.default_rng(4).standard_normal(1000)
        for t in range(1, 1000):
            d[t] = 0.6 * d[t - 1] + e[t]
        rep = unit_root_report(np.cumsum(d), B=999, seed=0)
        assert rep.stats.lag > 0
        size = unitroot.CHUNK_BYTES // row_bytes(builds[0][1])  # replicates of 999 - lag observations
        assert chunks == [size] * (999 // size) + [999 % size] * (999 % size > 0)
        assert len(builds) == 1


class TestPvalueRule:
    def test_boundary(self):
        reps = np.arange(1.0, 100.0)  # 99 replicates
        assert bt._pvalue(0.0, reps, "left", 99) == pytest.approx(1 / 100)
        assert bt._pvalue(1000.0, reps, "right", 99) == pytest.approx(1 / 100)

    def test_median(self):
        reps = np.arange(1.0, 100.0)
        p = bt._pvalue(50.0, reps, "left", 99)
        assert abs(p - 0.5) <= 1 / 100 + 1e-12

    def test_ties_count_as_extreme(self):
        reps = np.array([1.0, 2.0, 2.0, 3.0])
        assert bt._pvalue(2.0, reps, "left", 4) == pytest.approx((1 + 3) / 5)


class TestBootstrapPvalues:
    def test_deterministic(self, rng):
        y = np.cumsum(rng.standard_normal(80))
        a = unit_root_report(y, B=99, seed=5)
        b = unit_root_report(y, B=99, seed=5)
        assert a.p_values == b.p_values

    def test_seed_changes_results(self, rng):
        y = np.cumsum(rng.standard_normal(80))
        a = unit_root_report(y, B=99, seed=5)
        b = unit_root_report(y, B=99, seed=6)
        assert a.p_values != b.p_values

    def test_pvalues_in_range(self, rng):
        y = np.cumsum(rng.standard_normal(70))
        res = unit_root_report(y, B=99, seed=1)
        for name, p in res.p_values.items():
            assert 1 / 100 <= p <= 1.0, name

    def test_all_six_statistics_present(self, rng):
        y = np.cumsum(rng.standard_normal(70))
        res = unit_root_report(y, B=99, seed=2)
        assert set(res.p_values) == {"LR", "MZa", "MSB", "MZt", "MPt", "ADF"}

    def test_b_minimum(self, rng):
        y = np.cumsum(rng.standard_normal(60))
        for B in (-1, *range(1, 99)):
            with pytest.raises(ValueError, match=">= 99"):
                unit_root_report(y, B=B, seed=0)

    def test_string_seed_is_rejected(self, rng):
        # a string iterates to its digits: "12" must not read as (1, 2)
        y = np.cumsum(rng.standard_normal(60))
        with pytest.raises(TypeError, match="seed must be"):
            unit_root_report(y, B=99, seed="12")

    def test_float_seed_part_is_rejected(self, rng):
        # not truncated to (1, 2): numpy's SeedSequence((1.7, 2)) raises TypeError too
        y = np.cumsum(rng.standard_normal(60))
        with pytest.raises(TypeError, match="seed must be"):
            unit_root_report(y, B=99, seed=(1.7, 2))

    def test_float_seed_is_rejected(self, rng):
        y = np.cumsum(rng.standard_normal(60))
        with pytest.raises(TypeError, match="seed must be"):
            unit_root_report(y, B=99, seed=1.5)

    def test_b_zero_is_the_battery_alone(self, rng, monkeypatch):
        def never(*args):
            raise AssertionError("B=0 must fit no sieve and draw nothing")

        monkeypatch.setattr(bt, "fit_sieve", never)
        monkeypatch.setattr(bt, "_seed_keys", never)
        monkeypatch.setattr(bt, "_draw_signs", never)
        # 25 observations: enough for the battery, too few for a bootstrap
        y = np.cumsum(rng.standard_normal(25))
        rep = unit_root_report(y, B=0, seed=None)
        assert rep.stats == unitroot._stats(unitroot._battery_batch(y[None, :], unitroot._Workspace()))[0]
        assert rep.p_values == {} and rep.result.B == 0
        monkeypatch.undo()
        with pytest.raises(DataError, match="bootstrap series"):
            unit_root_report(y, B=99, seed=0)

    def test_report_bundles_stats(self, rng):
        y = np.cumsum(rng.standard_normal(90))
        rep = unit_root_report(y, B=99, seed=3)
        assert rep.stats.lag >= 0
        assert rep.p_values == rep.result.p_values

    def test_result_range_enforced_by_type(self):
        with pytest.raises(ValueError):
            BootstrapResult(p_values={"ADF": 0.0}, B=99, seed=(0,))


def replicate_stats(monkeypatch, y, B, seed):
    """The p-values of a report and every battery row it computed: the
    observed series, then every replicate it ranked."""
    outs, real = [], unitroot._battery_batch
    monkeypatch.setattr(unitroot, "_battery_batch", lambda *args: outs.append(real(*args)) or outs[-1])
    rep = unit_root_report(y, B=B, seed=seed)
    monkeypatch.setattr(unitroot, "_battery_batch", real)
    return rep.p_values, {name: np.concatenate([o[name] for o in outs]).tobytes() for name in outs[0]}


class TestChunking:
    @pytest.mark.parametrize("T", [60, 150, 400, 1000])
    def test_chunk_size_changes_no_bit(self, monkeypatch, T):
        y = np.cumsum(np.random.default_rng(T).standard_t(3, T))
        base = replicate_stats(monkeypatch, y, 199, (4, T))
        for size in (250_000, 8_000_000):
            monkeypatch.setattr(unitroot, "CHUNK_BYTES", size)
            assert replicate_stats(monkeypatch, y, 199, (4, T)) == base, size

    @pytest.mark.parametrize("dgp", ["t3", "ma"])
    @pytest.mark.parametrize("T", [150, 1000])
    def test_peak_memory_within_chunk_bytes(self, monkeypatch, T, dgp):
        # every allocation of the chunk loop over 999 replicates, the
        # resampler's and the kernel's, traced from an empty start: a fresh
        # workspace for this thread and the report's hashed keys; the t(3)
        # walk selects lag 0 (cumulation alone), the MA(1) walk lag 7 at
        # T=150 and 11 at T=1000 (the FFT recolouring)
        rng = np.random.default_rng(T)
        if dgp == "t3":
            y = np.cumsum(rng.standard_t(3, T))
        else:
            u = rng.standard_normal(T + 1)
            y = np.cumsum(u[1:] - 0.8 * u[:-1])
        model = fit_sieve(np.diff(y), unit_root_report(y, B=0).stats.lag)
        assert model.p == (0 if dgp == "t3" else {150: 7, 1000: 11}[T])
        n = len(model.residuals)
        monkeypatch.setattr(unitroot, "_THREAD", threading.local())
        tracemalloc.start()
        try:
            keys = bt._seed_keys((0,), range(1, 1000))
            unitroot._battery_rows(999, n, lambda lo, hi: bt._resample_chunk(model, keys[lo:hi]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= unitroot.CHUNK_BYTES, peak


class TestThreads:
    @staticmethod
    def ma_runs():
        """A T=150 and a T=1000 MA(1) walk, whose reports take the FFT resampler (lag > 0), with their seeds."""
        rng = np.random.default_rng(33)
        ma = [np.cumsum(u[1:] - 0.8 * u[:-1]) for u in (rng.standard_normal(T + 1) for T in (150, 1000))]
        return [(ma[0], (5, 0)), (ma[1], (5, 1))]

    def test_two_threads_get_the_serial_bits(self):
        # each thread's chunk loop works in its own workspace, so reports
        # running at once on two threads, through the FFT resampler (lag > 0)
        # and at two lengths, keep the bits they get one after the other
        runs = self.ma_runs()
        serial = [unit_root_report(y, B=999, seed=seed) for y, seed in runs]
        assert all(rep.stats.lag > 0 for rep in serial)
        start = threading.Barrier(len(runs))

        def run(y, seed):
            start.wait()
            return [unit_root_report(y, B=999, seed=seed) for _ in range(2)]

        with ThreadPoolExecutor(len(runs)) as pool:
            threaded = list(pool.map(run, *zip(*runs)))
        for want, got in zip(serial, threaded):
            for rep in got:
                assert rep.stats == want.stats and rep.p_values == want.p_values

    def test_threads_alternating_lengths_get_the_serial_bits(self):
        # two threads each alternate a T=150 and a T=1000 report, in opposite
        # orders, so each thread's workspace serves both lengths and grows
        # between its reports
        runs = self.ma_runs()
        serial = [unit_root_report(y, B=999, seed=seed) for y, seed in runs]
        orders = [runs + runs, runs[::-1] + runs[::-1]]
        start = threading.Barrier(len(orders))

        def run(order):
            start.wait()
            return [unit_root_report(y, B=999, seed=seed) for y, seed in order]

        with ThreadPoolExecutor(len(orders)) as pool:
            threaded = list(pool.map(run, orders))
        for got, want in zip(threaded, [serial * 2, serial[::-1] * 2]):
            for rep, ref in zip(got, want):
                assert rep.stats == ref.stats and rep.p_values == ref.p_values


def walks(lengths, seed=8):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.standard_normal(T)) for T in lengths]


class TestReports:
    # 53 series of length 1000 span three kernel chunks of 26
    LENGTHS = [150, 60, 150, 1000, 60] + [1000] * 52

    def test_b_zero_equals_one_series_at_a_time(self):
        ys = walks(self.LENGTHS)
        reports = unit_root_reports(ys, B=0, seed=None)
        assert reports == [unit_root_report(y, B=0, seed=None) for y in ys]

    def test_bootstrap_equals_one_series_at_a_time(self):
        ys = walks([150, 60, 150, 60])
        reports = unit_root_reports(ys, B=99, seed=(3,))
        assert reports == [unit_root_report(y, B=99, seed=(3, i)) for i, y in enumerate(ys)]
        assert unit_root_reports(ys, B=99, seed=3) == reports

    @pytest.mark.parametrize("B", [0, 99])
    def test_error_is_the_first_failing_series(self, B):
        # one at a time, series 1 (a lag-0 exact fit) fails first; stacked by
        # length, series 3 (constant) shares the first kernel call
        ys = walks([150, 80, 150, 150])
        ys[1] = np.arange(80) % 2.0
        ys[3] = np.full(150, 2.5)
        with pytest.raises(NumericalError, match="^degenerate ADF regression at lag 0$"):
            unit_root_report(ys[1], B=B, seed=(0, 1))
        with pytest.raises(NumericalError, match="^degenerate ADF regression at lag 0$"):
            unit_root_reports(ys, B=B, seed=0)

    def test_first_failing_series_raises_its_battery_or_bootstrap_error(self):
        # the walk's battery runs, but its bootstrap is one observation short;
        # the constant series fails in its battery
        walk = np.cumsum(np.random.default_rng(5).standard_normal(25))
        flat = np.full(40, 3.5)
        with pytest.raises(DataError, match="^bootstrap series would have 24 observations; need at least 25$"):
            unit_root_reports([walk, flat], B=99, seed=0)
        with pytest.raises(NumericalError, match="^singular ADF regression$"):
            unit_root_reports([flat, walk], B=99, seed=0)

    def test_short_series_is_a_data_error(self):
        ys = walks([150, 24, 150])
        with pytest.raises(DataError, match="^battery needs at least 25 observations, got 24$"):
            unit_root_reports(ys, B=0, seed=None)

    def test_b_minimum(self):
        with pytest.raises(ValueError, match=">= 99"):
            unit_root_reports(walks([60]), B=98, seed=0)
