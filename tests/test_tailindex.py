import math
import re
import time

import numpy as np
import pytest

import robustts.tailindex as tailindex
from robustts.errors import NumericalError
from robustts.tailindex import TailCurve, hill_estimate, k_grid, rank_size_estimate, tail_curve

from conftest import plain_rank_size_zeta


def pareto(rng, n, zeta):
    """Inverse-CDF draws with P(X > x) = x^-zeta on x >= 1."""
    return rng.random(n) ** (-1.0 / zeta)


class TestHillEstimate:
    def test_analytic_log_spacings(self):
        fit = hill_estimate([math.e**3, math.e**2, math.e, 1.0], 3)
        assert fit.zeta == pytest.approx(0.5)
        assert fit.se == pytest.approx(0.5 / math.sqrt(3))
        assert fit.ci95 == (fit.zeta - 1.96 * fit.se, fit.zeta + 1.96 * fit.se)

    def test_scale_invariance(self, rng):
        x = pareto(rng, 500, 1.5)
        assert hill_estimate(17.3 * x, 60).zeta == pytest.approx(hill_estimate(x, 60).zeta)

    def test_pareto_recovery(self):
        rng = np.random.default_rng(50)
        means = [hill_estimate(pareto(rng, 10_000, 2.0), 500).zeta for _ in range(50)]
        assert 1.9 <= np.mean(means) <= 2.1

    def test_se_matches_sampling_variation(self):
        # empirical sd of the estimator across Pareto replications vs zeta/sqrt(k)
        rng = np.random.default_rng(51)
        zs = np.array([hill_estimate(pareto(rng, 2000, 2.0), 200).zeta for _ in range(1000)])
        target = 2.0 / math.sqrt(200)
        assert abs(zs.std(ddof=1) / target - 1.0) < 0.15

    def test_k_bounds(self, rng):
        x = pareto(rng, 50, 1.0)
        with pytest.raises(ValueError):
            hill_estimate(x, 1)
        with pytest.raises(ValueError):
            hill_estimate(x, 50)

    def test_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            hill_estimate([1.0, -2.0, 3.0], 2)

    def test_all_equal_top_values(self):
        with pytest.raises(NumericalError, match="log-spacing"):
            hill_estimate([5.0] * 10, 4)

    def test_theta_is_inverse(self, rng):
        fit = hill_estimate(pareto(rng, 300, 1.2), 40)
        assert fit.theta * fit.zeta == pytest.approx(1.0)


class TestRankSizeEstimate:
    def test_four_point_oracle(self):
        # closed-form OLS of ln(rank - 1/2) on ln(size) over {8, 4, 2, 1}
        fit = rank_size_estimate([8.0, 4.0, 2.0, 1.0], 4)
        assert fit.zeta == pytest.approx(0.9159, abs=5e-4)
        assert fit.se == pytest.approx(math.sqrt(2.0 / 4) * fit.zeta)
        assert fit.ci95 == (fit.zeta - 1.96 * fit.se, fit.zeta + 1.96 * fit.se)

    def test_exact_power_law_in_shifted_ranks(self):
        # sizes (rank - 1/2)^(-1/zeta) put ln(rank - 1/2) on an exact line in ln(size)
        zeta = 1.7
        sizes = (np.arange(1, 40) - 0.5) ** (-1.0 / zeta)
        fit = rank_size_estimate(sizes, 39)
        assert fit.zeta == pytest.approx(zeta, abs=1e-10)

    def test_scale_moves_only_intercept(self, rng):
        x = pareto(rng, 200, 1.0)
        base = rank_size_estimate(x, 50)
        scaled = rank_size_estimate(10.0 * x, 50)
        assert scaled.zeta == pytest.approx(base.zeta, rel=1e-12)
        assert scaled.log_scale != pytest.approx(base.log_scale)

    def test_k_equal_n_allowed(self, rng):
        x = pareto(rng, 50, 1.0)
        assert rank_size_estimate(x, 50).k == 50

    def test_shift_half_reduces_small_sample_bias(self):
        rng = np.random.default_rng(52)
        bias_half, bias_zero = [], []
        for _ in range(500):
            x = pareto(rng, 50, 1.0)
            bias_half.append(rank_size_estimate(x, 50).zeta - 1.0)
            bias_zero.append(plain_rank_size_zeta(x, 50) - 1.0)
        assert abs(np.mean(bias_half)) < abs(np.mean(bias_zero))

    def test_se_matches_sampling_variation(self):
        rng = np.random.default_rng(53)
        zs = np.array([rank_size_estimate(pareto(rng, 1000, 1.0), 200).zeta for _ in range(1000)])
        target = math.sqrt(2.0 / 200)
        assert abs(zs.std(ddof=1) / target - 1.0) < 0.20

    def test_distinct_sizes_required(self):
        with pytest.raises(NumericalError, match="distinct"):
            rank_size_estimate([3.0, 3.0, 3.0, 3.0], 4)


class TestKGrid:
    def test_default_grid_200(self):
        ks = k_grid(200)
        assert ks[0] == 5 and ks[-1] == 30
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_small_n_clips_to_two(self):
        ks = k_grid(40)
        assert ks[0] == 2 and ks[-1] == 6

    def test_deduplicated(self):
        ks = k_grid(45, steps=40)
        assert len(set(ks)) == len(ks)

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            k_grid(39)

    @pytest.mark.parametrize("hi", [1.5, float("inf")])
    def test_fraction_above_one(self, hi):
        with pytest.raises(ValueError, match="hi_frac <= 1"):
            k_grid(200, hi_frac=hi)

    def test_full_fraction_clips_to_n_minus_one(self):
        assert k_grid(200, 0.5, 1.0, 3)[-1] == 199

    def test_steps_beyond_2n_add_nothing(self):
        # linspace gets at most 2n points, so a huge count allocates nothing large
        start = time.perf_counter()
        for n, lo, hi in [(40, 0.05, 1.0), (1000, 0.025, 0.15), (100_003, 0.3, 0.31)]:
            assert k_grid(n, lo, hi, 10**12) == k_grid(n, lo, hi, 2 * n)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("grid, ns", [
        ((0.025, 0.15, 20), range(40, 5001)),
        ((0.01, 0.5, 7), range(40, 5001)),
        ((0.3, 0.3, 5), range(40, 5001)),
        ((0.1, 1.0, 1), range(40, 5001)),
        ((0.05, 0.95, 2), range(40, 5001)),
        ((1 / 3, 2 / 3, 33), range(40, 5001)),
        ((0.001, 1.0, 150), range(40, 5001)),  # steps > 2n below n = 75
        ((0.001, 1.0, 10**9), range(40, 5001, 37)),  # steps > 2n at every n
    ])
    def test_matches_the_numpy_formula(self, grid, ns):
        def numpy_grid(n, lo, hi, steps):
            fracs = np.linspace(lo, hi, min(steps, 2 * n))
            return tuple(int(k) for k in np.unique(np.clip(np.ceil(fracs * n).astype(int), 2, n - 1)))

        for n in ns:
            assert k_grid(n, *grid) == numpy_grid(n, *grid), n


class TestTailCurve:
    def test_composition(self, rng):
        x = pareto(rng, 400, 1.4)
        grid = k_grid(400)
        curve = tail_curve(x, "hill", grid)
        assert curve.n == 400
        assert tuple(p.k for p in curve.points) == grid
        assert curve.points[3] == hill_estimate(x, grid[3])

    def test_permutation_invariance(self, rng):
        x = pareto(rng, 300, 1.0)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        for method in ("hill", "rank_size"):
            a = tail_curve(x, method, (10, 20, 30))
            b = tail_curve(shuffled, method, (10, 20, 30))
            assert a.points == b.points

    @pytest.mark.parametrize("n", [40, 41, 57, 1000, 12_345, 100_000])
    def test_points_are_the_pointwise_estimates(self, n):
        # unsorted, ties from rounding, and a constant block at the top
        rng = np.random.default_rng(n)
        x = np.round(pareto(rng, n, 1.5), 2)
        top = max(2, n // 200)
        x[np.argsort(x)[-top:]] = x.max()
        grid = tuple(k for k in k_grid(n) if k > top)
        for method, est in (("hill", hill_estimate), ("rank_size", rank_size_estimate)):
            assert tail_curve(x, method, grid).points == tuple(est(x, k) for k in grid)

    def test_each_curve_makes_one_estimator_call(self, rng, monkeypatch):
        # the call gets the k_max + 1 largest values, in ascending order, and the whole grid
        calls = []

        def spy(est):
            def wrapped(sample, ks):
                calls.append((np.array(sample), ks))
                return est(sample, ks)
            return wrapped

        monkeypatch.setattr(tailindex, "hill_estimate", spy(hill_estimate))
        monkeypatch.setattr(tailindex, "rank_size_estimate", spy(rank_size_estimate))
        x, grid = pareto(rng, 500, 1.2), k_grid(500)
        for method in ("hill", "rank_size"):
            tail_curve(x, method, grid)
        assert len(calls) == 2
        for sample, ks in calls:
            assert np.array_equal(sample, np.sort(x)[-(grid[-1] + 1) :])
            assert tuple(ks) == grid

    @pytest.mark.parametrize(
        "method, k, message",
        [
            ("hill", 1, r"k must be in \[2, 99\], got 1"),
            ("hill", 100, r"k must be in \[2, 99\], got 100"),
            ("rank_size", 1, r"k must be in \[2, 100\], got 1"),
            ("rank_size", 100, "largest k 100 exceeds n-1 = 99"),
            ("rank_size", 101, r"k must be in \[2, 100\], got 101"),
        ],
    )
    def test_grid_outside_range_reports_against_n(self, rng, method, k, message):
        # a k outside [2, n-1] reaches the estimator with the whole sample
        with pytest.raises(ValueError, match=message):
            tail_curve(pareto(rng, 100, 1.0), method, (k,))

    def test_unknown_method(self, rng):
        with pytest.raises(ValueError, match="method"):
            tail_curve(pareto(rng, 100, 1.0), "mle", (10,))

    def test_curve_invariants(self, rng):
        x = pareto(rng, 100, 1.0)
        fits = (hill_estimate(x, 20), hill_estimate(x, 10))
        with pytest.raises(ValueError, match="strictly increasing"):
            TailCurve(points=fits, n=100)


class TestManyK:
    @staticmethod
    def tied(n):
        # unsorted, ties from rounding, and the largest 5 values equal
        rng = np.random.default_rng(n)
        x = np.round(pareto(rng, n, 1.5), 2)
        x[np.argsort(x)[-5:]] = x.max()
        return x

    @pytest.mark.parametrize("n", [40, 1000, 12_345])
    @pytest.mark.parametrize("est", [hill_estimate, rank_size_estimate], ids=("hill", "rank_size"))
    def test_sequence_form_is_the_int_form(self, n, est):
        x = self.tied(n)
        ks = (n // 3, 6, 2 * n // 3, 6, 9)  # any order, repeats kept
        assert est(x, ks) == tuple(est(x, k) for k in ks)
        assert est(x, list(ks)) == est(x, np.array(ks)) == est(x, ks)
        assert est(x, ()) == ()

    @pytest.mark.parametrize("est, extra", [(hill_estimate, 1), (rank_size_estimate, 0)], ids=("hill", "rank_size"))
    def test_errors_come_in_grid_order(self, est, extra):
        # a constant top at an earlier k is named before a later k out of range, and that k against n
        n = 200
        x = self.tied(n)
        with pytest.raises(NumericalError):
            est(x, (20, 3, n + 5))
        with pytest.raises(ValueError, match=rf"^k must be in \[2, {n - extra}\], got {n + 5}$"):
            est(x, (20, n + 5, 3))
        with pytest.raises(ValueError, match=r"^k must be in \[2, \d+\], got 1$"):
            est(x, (1, 3))


ESTIMATES = {
    "hill_estimate": lambda x: hill_estimate(x, 10),
    "rank_size_estimate": lambda x: rank_size_estimate(x, 10),
    "tail_curve hill": lambda x: tail_curve(x, "hill", (10, 20)),
    "tail_curve rank_size": lambda x: tail_curve(x, "rank_size", (10, 20)),
}


class TestBadValues:
    # a library sample holding NaN or inf is bad input, not a numerical failure
    @pytest.mark.parametrize("call", ESTIMATES.values(), ids=ESTIMATES.keys())
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [0, 50, 99])
    def test_non_finite_is_a_value_error(self, call, bad, where):
        x = np.linspace(1.0, 50.0, 100)
        x[where] = bad
        with pytest.raises(ValueError, match="^tail estimation needs finite values, got NaN or inf$"):
            call(x)

    @pytest.mark.parametrize("call", ESTIMATES.values(), ids=ESTIMATES.keys())
    @pytest.mark.parametrize("bad", [0.0, -2.0, -math.inf])
    def test_non_positive_keeps_its_message(self, call, bad):
        x = np.linspace(1.0, 50.0, 100)
        x[[3, 60]] = (bad, math.nan)
        with pytest.raises(ValueError, match="^tail estimation needs strictly positive values$"):
            call(x)

    @pytest.mark.parametrize("call", ESTIMATES.values(), ids=ESTIMATES.keys())
    @pytest.mark.parametrize("sample", [np.arange(1.0, 21.0).reshape(4, 5), np.float64(5.0)], ids=("2-D", "0-D"))
    def test_sample_not_one_dimensional_names_its_shape(self, call, sample):
        message = f"^a tail sample must be one-dimensional, got shape {re.escape(str(sample.shape))}$"
        with pytest.raises(ValueError, match=message):
            call(sample)
