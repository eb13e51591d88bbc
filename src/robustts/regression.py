"""OLS with three parallel inference schemes: classical, HAC, grouped t.

The HAC route uses the quadratic spectral kernel with the AR(1) plug-in
automatic bandwidth and standard-normal p-values.  The grouped route splits
the sample into q consecutive blocks, re-estimates the full regression in
each block and applies the Student-t statistic of the block estimates
(size control is guaranteed for test levels up to 8.3%).  All blocks of a q
are fitted by one batched QR, and the t-statistics of every q and every
coefficient come from one pass over the stacked block estimates.  P-values use
numpy and ``math`` alone: the normal one is ``math.erfc``, the Student-t one
the regularised incomplete beta function by a continued fraction
(DiDonato & Morris 1992).  Both stay within 1e-12 relative of
``scipy.stats``' ``norm.sf`` and ``t.sf``.

Bandwidth scores are built from demeaned regressors, which zeroes the
intercept's score (the usual convention) and makes every slope t-statistic
exactly invariant to location shifts of the regressors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError
from .series import FactorPanel, PairedSample, Series, _readonly, shared_dates

__all__ = [
    "OlsFit",
    "HacResult",
    "GroupInference",
    "FACTOR_MODELS",
    "CoefficientInference",
    "InferenceReport",
    "PredictiveInference",
    "ols",
    "classical_tstats",
    "qs_kernel",
    "andrews_bandwidth",
    "long_run_variance",
    "hac_inference",
    "significance_stars",
    "group_partition",
    "im_tstat",
    "grouped_ols",
    "predictive_report",
    "factor_report",
]

GROUP_MAX_VALID_LEVEL = 0.083
# group counts q of the grouped t; factor_report uses only the first
DEFAULT_QS = (4, 8, 12, 16)
QS_BANDWIDTH_CONSTANT = 1.3221
RHO_CLAMP = 0.97
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit; the intercept column comes first."""

    coefficients: np.ndarray
    residuals: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        for name in ("coefficients", "residuals", "X"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        # huge fits overflow these squared norms to inf, which passes the
        # check; the classical variance or the long-run variance then
        # reports the overflow
        with np.errstate(over="ignore"):
            gradient = self.X.T @ self.residuals
            scale = max(1.0, float(np.linalg.norm(self.X.T @ (self.X @ self.coefficients))))
            if float(np.linalg.norm(gradient)) > 1e-8 * scale:
                raise NumericalError("normal equations violated beyond tolerance")

    @property
    def T(self) -> int:
        return self.X.shape[0]

    @property
    def k_params(self) -> int:
        return self.X.shape[1]

    @property
    def ssr(self) -> float:
        with np.errstate(over="ignore"):
            return float(self.residuals @ self.residuals)

    @cached_property
    def _xtx_inv(self) -> np.ndarray:  # shared by the classical and the HAC errors
        return np.linalg.inv(self.X.T @ self.X)


@dataclass(frozen=True)
class HacResult:
    """HAC sandwich inference: bandwidth, long-run variance, normal p-values."""

    bandwidth: float
    lrv: np.ndarray
    se: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray

    def __post_init__(self):
        for name in ("lrv", "se", "t_stats", "p_values"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@dataclass(frozen=True)
class GroupInference:
    """Student-t inference from q consecutive-block estimates of one parameter."""

    group_estimates: tuple[float, ...]
    t_stat: float
    p_value: float
    max_valid_level = GROUP_MAX_VALID_LEVEL  # a class constant, not a field

    @property
    def q(self) -> int:
        return len(self.group_estimates)

    @property
    def df(self) -> int:
        return self.q - 1


# model name -> factor columns, in the canonical table row order
FACTOR_MODELS: dict[str, tuple[str, ...]] = {
    "CAPM": ("Mkt.RF",),
    "3F": ("Mkt.RF", "SMB", "HML"),
    "4F": ("Mkt.RF", "SMB", "HML", "MOM"),
    "5F": ("Mkt.RF", "SMB", "HML", "RMW", "CMA"),
    "6F": ("Mkt.RF", "SMB", "HML", "MOM", "RMW", "CMA"),
}


def _regression_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float arrays, a T x k matrix and a length-T vector
    that hold no NaN or infinite value."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DataError(f"regression data need a T x k X and a length-T y, got {X.shape} and {y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("regression data hold NaN or infinite values")
    return X, y


def ols(X, y) -> OlsFit:
    """Least-squares fit of y on a full-column-rank regressor matrix."""
    X, y = _regression_data(X, y)
    T, k = X.shape
    if T <= k:
        raise ValueError(f"need more observations than parameters ({T} <= {k})")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise NumericalError(f"rank-deficient regressor matrix (rank {rank} < {k})")
    return OlsFit(coefficients=coef, residuals=y - X @ coef, X=X)


def _log_beta_half(a: float) -> float:
    """``log B(a, 1/2)`` within 7e-15: the ``lgamma`` difference below a = 20,
    above it (where that difference is 6e-13 off at a = 2,499.5) the
    asymptotic series of ``log Gamma(a + 1/2) - log Gamma(a)`` to ``a^-7``."""
    if a < 20.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    r2 = 1.0 / (a * a)
    series = 0.125 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * (17 / 14336)))
    return _LOG_SQRT_PI - 0.5 * math.log(a) + series / a


def _beta_cf(a: float, b: float, z: float) -> float:
    """``I_x(a, b) a B(a, b) / (x^a (1 - x)^(b - 1))`` as a continued fraction in
    ``z = x / (1 - x)`` (DiDonato & Morris 1992; Cephes ``incbd``), by modified
    Lentz.  For b < 1 every partial numerator is positive, so nothing cancels
    where Numerical Recipes' ``betacf`` in x loses up to 5e-13 (df near 5,000)."""
    g = c = 1.0
    d = n = 0.0
    k = a  # a + 2n
    while True:
        s = z * (a + n) * (1.0 - b + n) / (k * (k + 1.0))
        d = 1.0 / (1.0 + s * d)
        c = 1.0 + s / c
        g *= c * d
        s = z * (n + 1.0) * (a + b + n) / ((k + 1.0) * (k + 2.0))
        d = 1.0 / (1.0 + s * d)
        c = 1.0 + s / c
        s = c * d
        g *= s
        if abs(s - 1.0) < 1e-15:
            return 1.0 / g
        n += 1.0
        k += 2.0


def _student_p(t: float, df: float) -> float:
    """Two-sided Student-t p-value ``I_x(df/2, 1/2)``, ``x = df / (df + t^2)``.

    ``log x`` and ``log(1 - x)`` come from ``u = t^2 / df``, not from a rounded
    x, whose relative error the result would take times df / 2.  The fraction
    runs on x below ``(a + 1) / (a + 5/2)``, a = df / 2 (the Numerical Recipes
    switch), else on ``1 - x`` for the complement.
    """
    u = t * t / df
    if u == 0.0:
        return 1.0
    if math.isnan(u):
        return math.nan
    a = 0.5 * df
    # past t = 1.3e154 t^2 overflows; log x is then log df - 2 log t within df / t^2
    lx = -math.log1p(u) if u < math.inf else math.log(df) - 2.0 * math.log(t)
    ly = -math.log1p(1.0 / u)
    lb = _log_beta_half(a)
    if (a + 1.0) * u > 1.5:
        return math.exp(a * lx - 0.5 * ly - lb) / a * _beta_cf(a, 0.5, 1.0 / u)
    return 1.0 - 2.0 * math.exp((a - 1.0) * lx + 0.5 * ly - lb) * _beta_cf(0.5, a, u)


def _two_sided_p(t_abs, df=None):
    """``2 * P(Z > t_abs)``: standard normal if ``df`` is None, else Student t.

    Within 1e-12 relative of ``scipy.stats``' ``norm.sf`` and ``t.sf`` where
    those are normal doubles.  A scalar loop: for the few t-statistics of a
    regression, numpy ufuncs per step would cost more than the arithmetic.
    """
    t = np.asarray(t_abs, dtype=float)
    if df is None:
        p = [math.erfc(x * _SQRT_HALF) for x in t.ravel().tolist()]
    else:
        p = [_student_p(x, df) for x in t.ravel().tolist()]
    return np.array(p).reshape(t.shape)


def classical_tstats(fit: OlsFit) -> tuple[np.ndarray, np.ndarray]:
    """Homoskedastic OLS t-statistics and Student-t p-values."""
    dof = fit.T - fit.k_params
    sigma2 = fit.ssr / dof
    if not math.isfinite(sigma2):
        raise NumericalError("classical residual variance overflows: the residuals are too large")
    se = np.sqrt(sigma2 * np.diag(fit._xtx_inv))
    if np.any(se == 0):
        raise NumericalError("zero classical standard error")
    t_stats = fit.coefficients / se
    p_values = _two_sided_p(np.abs(t_stats), dof)
    return t_stats, p_values


def qs_kernel(x):
    """Quadratic spectral kernel weight; w(0) = 1 by the limit."""
    x = np.asarray(x, dtype=float)
    z = 1.2 * math.pi * x
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 25.0 / (12.0 * math.pi**2 * x**2) * (np.sin(z) / z - np.cos(z))
    w = np.where(x == 0.0, 1.0, w)
    return float(w) if w.ndim == 0 else w


def andrews_bandwidth(scores) -> float:
    """AR(1) plug-in automatic bandwidth for the QS kernel.

    Each score series contributes with unit weight through
    ``alpha(2) = sum(4 rho^2 s^4 / (1-rho)^8) / sum(s^4 / (1-rho)^4)``;
    the bandwidth is ``1.3221 * (alpha(2) * T)^(1/5)``.  A fit with
    ``|rho| >= 1`` is replaced by ``+-0.97``; any ``|rho| < 1`` is used as is.
    """
    V = np.asarray(scores, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    T = V.shape[0]
    if T < 10:
        raise DataError(f"need at least 10 observations, got {T}")
    top = np.abs(V).max()
    if not top < np.inf:
        raise NumericalError("HAC bandwidth needs finite regression scores")
    # alpha(2) is a ratio of fourth powers, so one power-of-two scale leaves
    # it bit for bit unchanged; with the largest |score| in [1/2, 1) no sum
    # or power below can overflow
    U = np.ldexp(V.T, -np.frexp(top)[1], order="C")
    # one row per score series; a series zero before its last value carries no weight
    lag = U[:, :-1]
    d = (lag * lag).sum(axis=1)
    live = d != 0.0
    U, d = U[live], d[live]
    lead, lag = U[:, 1:], U[:, :-1]
    rho = (lead * lag).sum(axis=1) / d
    rho = np.where(np.abs(rho) < 1.0, rho, np.copysign(RHO_CLAMP, rho))
    innov = lead - rho[:, None] * lag
    c2 = (1.0 - rho) ** 2
    s = (innov * innov).sum(axis=1) / ((T - 1) * c2)  # sigma^2 / (1 - rho)^2
    den = float(s @ s)
    if den == 0.0:
        return 0.0
    r = rho * s / c2
    alpha2 = 4.0 * float(r @ r) / den
    return QS_BANDWIDTH_CONSTANT * (alpha2 * T) ** 0.2


def long_run_variance(scores, bandwidth: float) -> np.ndarray:
    """QS-weighted long-run variance of (mean-zero) score series.

    ``Omega = Gamma(0) + sum_l w(l/bandwidth) (Gamma(l) + Gamma(l)')`` with
    ``Gamma(l) = T^-1 sum_t V_t V_{t-l}'``; bandwidth 0 keeps only the
    contemporaneous term.  It is evaluated as ``V' W V / T``, with ``W`` the
    Toeplitz matrix of ``w(|t-s|/bandwidth)``, by one FFT convolution.
    """
    V = np.asarray(scores, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if not np.all(np.isfinite(V)):
        raise NumericalError("QS long-run variance needs finite regression scores")
    T = V.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        WV = V
        if bandwidth > 0:
            # W V is the circular convolution of [1, w, 0, w reversed] with V padded to 2T
            w = qs_kernel(np.arange(1, T) / bandwidth)
            spectrum = np.fft.rfft(np.concatenate(([1.0], w, [0.0], w[::-1])))
            WV = np.fft.irfft(spectrum[:, None] * np.fft.rfft(V, 2 * T, axis=0), 2 * T, axis=0)[:T]
        omega = V.T @ WV / T
        omega = (omega + omega.T) / 2.0
    if not np.all(np.isfinite(omega)):
        raise NumericalError("QS long-run variance is not finite: the scores are too large")
    eigs = np.linalg.eigvalsh(omega)
    if eigs[0] < -1e-10 * float(eigs[-1]):
        raise NumericalError("QS long-run variance lost positive semidefiniteness")
    return omega


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


def hac_inference(fit: OlsFit) -> HacResult:
    """HAC sandwich t-statistics with two-sided standard-normal p-values.

    The long-run variance uses the raw scores ``x_t * e_t`` at the automatic
    Andrews bandwidth, which is computed from scores of demeaned regressors,
    so constant columns carry zero weight and slope inference ignores
    regressor location.
    """
    scores = fit.X * fit.residuals[:, None]
    bandwidth = andrews_bandwidth((fit.X - fit.X.mean(axis=0)) * fit.residuals[:, None])
    omega = long_run_variance(scores, bandwidth)
    cov = fit._xtx_inv @ (fit.T * omega) @ fit._xtx_inv
    variances = np.clip(np.diag(cov), 0.0, None)
    se = np.sqrt(variances)
    if np.any(se == 0):
        raise NumericalError("zero HAC standard error")
    t_stats = fit.coefficients / se
    p_values = _two_sided_p(np.abs(t_stats))
    return HacResult(bandwidth=float(bandwidth), lrv=omega, se=se, t_stats=t_stats, p_values=p_values)


def group_partition(T: int, q: int) -> tuple[tuple[int, int], ...]:
    """q consecutive half-open index ranges covering 0..T-1.

    Group j holds ``floor((j-1)T/q) < t <= floor(jT/q)`` (1-indexed), so the
    blocks partition the sample and sizes never differ by more than one.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if 2 * q > T:
        raise DataError(f"q={q} too large for T={T} (need q <= T/2)")
    bounds = [(j * T) // q for j in range(q + 1)]
    return tuple((bounds[j], bounds[j + 1]) for j in range(q))


def im_tstat(group_estimates) -> GroupInference:
    """Student-t statistic of q group estimates: ``sqrt(q) * mean / sd``."""
    est = np.asarray(group_estimates, dtype=float)
    if est.ndim != 1:
        raise DataError(f"group estimates must be one-dimensional, got shape {est.shape}")
    if len(est) < 2:
        raise ValueError(f"need at least 2 group estimates, got {len(est)}")
    if not np.all(np.isfinite(est)):
        raise DataError("group estimates hold NaN or infinite values")
    return _group_inference(est[:, None], (len(est),))[0][0]


def _group_inference(estimates: np.ndarray, qs) -> list[tuple[GroupInference, ...]]:
    """The grouped t of every column of the block estimates stacked q by q, one tuple per q."""
    q = np.array(qs)[:, None]
    starts = np.cumsum(qs) - q[:, 0]
    mean = np.add.reduceat(estimates, starts) / q
    dev = estimates - np.repeat(mean, qs, axis=0)
    sd = np.sqrt(np.add.reduceat(dev * dev, starts) / (q - 1))
    if np.any(sd == 0):
        raise NumericalError("zero variance across group estimates")
    t_stats = (np.sqrt(q) * mean / sd).tolist()
    return [
        tuple(
            GroupInference(group_estimates=tuple(e), t_stat=t, p_value=_student_p(abs(t), n - 1))
            for e, t in zip(estimates[lo : lo + n].T.tolist(), row)
        )
        for n, lo, row in zip(qs, starts.tolist(), t_stats)
    ]


def grouped_ols(X, y, q: int) -> tuple[GroupInference, ...]:
    """Re-estimate the full regression per block; one GroupInference per column."""
    return _group_inference(_group_estimates(X, y, (q,)), (q,))[0]


def _group_estimates(X, y, qs) -> np.ndarray:
    """The coefficients fitted on each block of each q in ``qs``, one row per block, q by q.

    A q's blocks differ in length by at most one: one batched QR of their
    ``[X y]`` stack, a short block ending in a zero row, gives each block's
    ``R = [[R11, r], [0, .]]`` and its estimates ``R11^-1 r``.  Rank follows
    ``lstsq``'s rule on the singular values of R11 (every block is longer than k).
    """
    X, y = _regression_data(X, y)
    T, k = X.shape
    partitions = []
    for q in qs:
        partitions.append(group_partition(T, q))
        if T // q <= k:
            raise DataError(f"q={q} leaves blocks of {T // q} observations for {k} parameters")
    R = []
    for blocks in partitions:
        # each block stored column by column, the layout LAPACK reads
        stack = np.zeros((len(blocks), k + 1, -(-T // len(blocks))))
        for S, (lo, hi) in zip(stack, blocks):
            S[:k, : hi - lo] = X[lo:hi].T
            S[k, : hi - lo] = y[lo:hi]
        R.append(np.linalg.qr(stack.transpose(0, 2, 1), mode="r"))
    R = np.concatenate(R)
    s = np.linalg.svd(R[:, :k, :k], compute_uv=False)
    lengths = np.array([hi - lo for blocks in partitions for lo, hi in blocks])
    bad = ~(s[:, -1] > np.finfo(float).eps * lengths * s[:, 0])
    if bad.any():
        j = int(np.argmax(bad))
        for q in qs:
            if j < q:
                raise NumericalError(f"group {j + 1} of q={q} is rank-deficient")
            j -= q
    return np.linalg.solve(R[:, :k, :k], R[:, :k, k:])[..., 0]


@dataclass(frozen=True)
class PredictiveInference:
    """One predictive-regression row: grouped slope t per q, plus HAC."""

    T: int
    alpha: float
    beta: float
    grouped: dict[int, GroupInference]
    hac: HacResult

    @property
    def hac_t(self) -> float:
        return float(self.hac.t_stats[1])

    @property
    def hac_p(self) -> float:
        return float(self.hac.p_values[1])

    @property
    def hac_stars(self) -> str:
        return significance_stars(self.hac_p)


def predictive_report(pair: PairedSample, qs=DEFAULT_QS) -> PredictiveInference:
    """Slope inference for ``y_t = alpha + beta * x_{t-1} + e_t``."""
    X = np.column_stack([np.ones(pair.T), pair.x])
    fit = ols(X, pair.y)
    hac = hac_inference(fit)
    qs = tuple(int(q) for q in qs)
    grouped = {}
    if qs:  # the slope's inference alone: the intercept's goes unread
        slope = _group_estimates(X, pair.y, qs)[:, 1:]
        grouped = {q: g for q, (g,) in zip(qs, _group_inference(slope, qs))}
    return PredictiveInference(
        T=pair.T,
        alpha=float(fit.coefficients[0]),
        beta=float(fit.coefficients[1]),
        grouped=grouped,
        hac=hac,
    )


@dataclass(frozen=True)
class CoefficientInference:
    """Point estimate with the parallel t-statistic sets for one coefficient."""

    name: str
    estimate: float
    classical_t: float
    classical_p: float
    hac_t: float
    hac_p: float
    grouped: dict[int, GroupInference] = field(default_factory=dict)

    @property
    def hac_stars(self) -> str:
        return significance_stars(self.hac_p)


@dataclass(frozen=True)
class InferenceReport:
    """Factor-model estimates with classical, HAC and grouped t-statistics."""

    model: str
    T: int
    coefficients: tuple[CoefficientInference, ...]

    def coefficient(self, name: str) -> CoefficientInference:
        for c in self.coefficients:
            if c.name == name:
                return c
        raise KeyError(name)


def _align_panel(excess: Series, panel: FactorPanel, names) -> tuple[np.ndarray, np.ndarray, int]:
    i, j = shared_dates(excess.dates, panel.dates)
    if len(i) < len(names) + 2:
        raise DataError(f"only {len(i)} dates shared between returns and factor panel")
    X = np.column_stack([np.ones(len(i))] + [panel.columns[n][j] for n in names])
    return X, excess.values[i], len(i)


def factor_report(excess: Series, panel: FactorPanel, model: str, qs=DEFAULT_QS[:1]) -> InferenceReport:
    """Estimate one factor model on excess returns with all three schemes.

    Rows come out in canonical factor order with the intercept reported last
    as ``Alpha``.  Requested factors missing from the panel are an error.
    """
    factors = FACTOR_MODELS[model]
    missing = [n for n in factors if n not in panel.columns]
    if missing:
        raise DataError(f"factor panel lacks column(s) {', '.join(missing)} for model {model}")
    X, y, T = _align_panel(excess, panel, factors)
    fit = ols(X, y)
    classical_t, classical_p = classical_tstats(fit)
    hac = hac_inference(fit)
    qs = tuple(int(q) for q in qs)
    grouped_by_q = dict(zip(qs, _group_inference(_group_estimates(X, y, qs), qs))) if qs else {}

    names = list(factors) + ["Alpha"]
    order = list(range(1, len(factors) + 1)) + [0]
    coefficients = []
    for name, idx in zip(names, order):
        coefficients.append(
            CoefficientInference(
                name=name,
                estimate=float(fit.coefficients[idx]),
                classical_t=float(classical_t[idx]),
                classical_p=float(classical_p[idx]),
                hac_t=float(hac.t_stats[idx]),
                hac_p=float(hac.p_values[idx]),
                grouped={q: g[idx] for q, g in grouped_by_q.items()},
            )
        )
    return InferenceReport(model=model, T=T, coefficients=tuple(coefficients))
