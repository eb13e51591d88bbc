"""GLS-demeaned unit-root test battery with MAIC lag selection.

Implements six statistics on a single demeaned series: a profile
quasi-likelihood ratio (right tailed), the modified Phillips-Perron trio
(MZa, MSB, MZt), the modified point-optimal statistic (MPt), and the
GLS-demeaned augmented Dickey-Fuller t-ratio.  Lag length is chosen once per
series by the modified AIC computed from standard ADF regressions on
OLS-demeaned data; the statistics themselves use GLS-demeaned data with that
shared lag.

:func:`_battery_batch` evaluates the battery on a stack of series with
batched Gram matrices and stacked solves; :func:`unit_root_battery` is its
one-row case, and the bootstrap feeds it the replicates in chunks.  The
scalar functions below stay as the formula references it is tested against.

No critical values are shipped: decisions are meant to come from the
bootstrap p-values in :mod:`robustts.bootstrap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericalError
from .series import Series

__all__ = [
    "UnitRootStats",
    "LagSelection",
    "default_k_max",
    "gls_demean",
    "select_lag_maic",
    "adf_gls",
    "mz_msb_mzt",
    "mp_test",
    "lr_test",
    "unit_root_battery",
]

# fixed tuning: GLS constant of Elliott, Rothenberg & Stock (1996) and the
# local-alternative grid c = 0, 0.5, ..., 50 of the LR profile
DEFAULT_C_BAR = -7.0
LR_C_GRID = np.arange(0.0, 50.5, 0.5)
MIN_BATTERY_LENGTH = 25
# about the bytes of one chunk's MAIC design matrix, which bounds the
# kernel's working memory; the split into chunks depends only on T
CHUNK_BYTES = 2_000_000


@dataclass(frozen=True)
class UnitRootStats:
    """The six statistics for one series, with the shared selected lag."""

    lr: float
    mz_alpha: float
    msb: float
    mz_t: float
    mp_t: float
    adf: float
    lag: int
    s2_ar: float

    def __post_init__(self):
        values = (self.lr, self.mz_alpha, self.msb, self.mz_t, self.mp_t, self.adf, self.s2_ar)
        if not all(math.isfinite(v) for v in values):
            raise NumericalError("non-finite unit-root statistic")
        if not self.msb > 0:
            raise NumericalError(f"MSB must be positive, got {self.msb}")
        if abs(self.mz_t - self.mz_alpha * self.msb) > 1e-10 * max(1.0, abs(self.mz_t)):
            raise NumericalError("MZt != MZa * MSB beyond tolerance")

    def as_dict(self) -> dict[str, float]:
        return {
            "LR": self.lr,
            "MZa": self.mz_alpha,
            "MSB": self.msb,
            "MZt": self.mz_t,
            "MPt": self.mp_t,
            "ADF": self.adf,
        }


@dataclass(frozen=True)
class LagSelection:
    """Chosen ADF lag and the criterion values over 0..k_max."""

    k: int
    maic_values: tuple[float, ...]


def default_k_max(T: int) -> int:
    """Standard maximum-lag rule ``floor(12 * (T/100)^(1/4))``."""
    return int(math.floor(12.0 * (T / 100.0) ** 0.25))


def _values(y) -> np.ndarray:
    if isinstance(y, Series):
        return np.asarray(y.values, dtype=float)
    return np.asarray(y, dtype=float)


def gls_demean(y, c_bar: float = DEFAULT_C_BAR) -> np.ndarray:
    """Remove a constant fitted by least squares on quasi-differenced data.

    With ``rho = 1 + c_bar/T`` the quasi-differences are
    ``(y_1, y_2 - rho*y_1, ..., y_T - rho*y_{T-1})`` and likewise for the
    constant regressor; the fitted intercept is subtracted from the original
    series.  ``c_bar = 0`` collapses to subtracting the first observation.
    """
    v = _values(y)
    T = len(v)
    if T < 3:
        raise ValueError(f"need at least 3 observations, got {T}")
    rho = 1.0 + c_bar / T
    ya = np.empty(T)
    ya[0] = v[0]
    ya[1:] = v[1:] - rho * v[:-1]
    za = np.full(T, 1.0 - rho)
    za[0] = 1.0
    intercept = float(za @ ya) / float(za @ za)
    return v - intercept


def _adf_design(v: np.ndarray, k: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Response and regressors of the ADF regression with ``k`` lags.

    Observations run over t = start+1 .. T-1 (0-indexed differences), so a
    common ``start`` gives the shared sample needed for lag comparison.
    """
    dv = np.diff(v)
    resp = dv[start:]
    cols = [v[start : len(v) - 1]]
    for j in range(1, k + 1):
        cols.append(dv[start - j : len(dv) - j])
    return resp, np.column_stack(cols)


def _solve_normal(G: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(G, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular ADF regression") from exc


def select_lag_maic(y_detrended_ols, k_max: int) -> LagSelection:
    """Pick the ADF lag 0..k_max minimising the modified AIC.

    All candidates are fit over the common sample t > k_max+1.  The criterion
    is ``ln(s2_k) + 2*(tau_k + k)/(T - k_max)`` with
    ``tau_k = b0^2 * sum(y_{t-1}^2) / s2_k``; ties go to the smallest lag.
    """
    v = _values(y_detrended_ols)
    T = len(v)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if T <= k_max + 2:
        raise ValueError(f"series of length {T} too short for k_max={k_max}")
    resp, X = _adf_design(v, k_max, start=k_max)
    N = len(resp)
    G = X.T @ X
    g = X.T @ resp
    rr = float(resp @ resp)
    maic = np.empty(k_max + 1)
    for k in range(k_max + 1):
        m = k + 1
        b = _solve_normal(G[:m, :m], g[:m])
        ssr = rr - float(b @ g[:m])
        if not ssr > 0:
            raise NumericalError(f"degenerate ADF regression at lag {k}")
        s2 = ssr / N
        tau = b[0] ** 2 * G[0, 0] / s2
        maic[k] = math.log(s2) + 2.0 * (tau + k) / (T - k_max)
    k_best = int(np.argmin(maic))
    return LagSelection(k=k_best, maic_values=tuple(float(x) for x in maic))


def _adf_fit(v: np.ndarray, k: int) -> tuple[float, float, float]:
    """ADF regression on a detrended vector over its full usable sample.

    Returns the t-ratio on the level coefficient, the dof-corrected residual
    variance, and the sum of the lag coefficients.
    """
    T = len(v)
    if T - 1 - k <= k + 1:
        raise ValueError(f"series of length {T} too short for an ADF regression with {k} lags")
    resp, X = _adf_design(v, k, start=k)
    N = len(resp)
    G = X.T @ X
    g = X.T @ resp
    b = _solve_normal(G, g)
    ssr = float(resp @ resp) - float(b @ g)
    dof = N - (k + 1)
    if not ssr > 0:
        raise NumericalError("degenerate ADF regression (zero residual variance)")
    sigma2 = ssr / dof
    e0 = np.zeros(k + 1)
    e0[0] = 1.0
    g00 = float(_solve_normal(G, e0)[0])
    if not g00 > 0:
        raise NumericalError("singular ADF regression")
    t_ratio = float(b[0]) / math.sqrt(sigma2 * g00)
    return t_ratio, sigma2, float(np.sum(b[1:]))


def adf_gls(y_gls, k: int) -> float:
    """t-ratio on the level coefficient of the ADF regression (no deterministics)."""
    stat, _, _ = _adf_fit(_values(y_gls), k)
    return stat


def mz_msb_mzt(y_gls, s2_ar: float) -> tuple[float, float, float]:
    """Modified Phillips-Perron statistics from a GLS-demeaned vector.

    With ``kappa = T^-2 * sum of squared lagged values``:
    ``MZa = (y_T^2/T - s2_ar) / (2*kappa)``, ``MSB = sqrt(kappa/s2_ar)`` and
    ``MZt = MZa * MSB``.
    """
    v = _values(y_gls)
    if not s2_ar > 0:
        raise ValueError(f"s2_ar must be positive, got {s2_ar}")
    T = len(v)
    kappa = float(v[:-1] @ v[:-1]) / T**2
    if kappa == 0.0:
        raise NumericalError("sum of squared lagged values is zero")
    mz_alpha = float((v[-1] ** 2 / T - s2_ar) / (2.0 * kappa))
    msb = math.sqrt(kappa / s2_ar)
    return mz_alpha, msb, mz_alpha * msb


def mp_test(y_gls, s2_ar: float, c_bar: float = DEFAULT_C_BAR) -> float:
    """Modified point-optimal statistic (demeaned case)."""
    v = _values(y_gls)
    if not s2_ar > 0:
        raise ValueError(f"s2_ar must be positive, got {s2_ar}")
    T = len(v)
    kappa = float(v[:-1] @ v[:-1]) / T**2
    return float((c_bar**2 * kappa - c_bar * v[-1] ** 2 / T) / s2_ar)


def lr_test(y) -> float:
    """Right-tailed profile quasi-likelihood ratio against local alternatives.

    Profiles the Gaussian likelihood of a demeaned AR(1) fit over
    ``rho = 1 - c/T`` for c on ``LR_C_GRID`` (0..50 step 0.5) and
    compares the maximum with the unit root c = 0.  Always >= 0; large values
    speak against the unit root.
    """
    v = _values(y)
    T = len(v)
    if T < 20:
        raise ValueError(f"need at least 20 observations, got {T}")
    u = v - v.mean()
    rho = 1.0 - LR_C_GRID / T
    resid = u[1:][None, :] - rho[:, None] * u[:-1][None, :]
    sig2 = np.mean(resid**2, axis=1)
    sig2_null = float(np.mean((u[1:] - u[:-1]) ** 2))
    if not (sig2_null > 0 and np.all(sig2 > 0)):
        raise NumericalError("degenerate AR(1) profile (constant series)")
    # the null itself joins the profile so LR >= 0 on any grid
    best = min(float(sig2.min()), sig2_null)
    return float((T - 1) * (math.log(sig2_null) - math.log(best)))


def _chunk_rows(T: int) -> int:
    """Series of length ``T`` per :func:`_battery_batch` call within ``CHUNK_BYTES``."""
    return max(1, CHUNK_BYTES // (T * (default_k_max(T) + 2) * 8))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products, pairwise summed."""
    return np.sum(a * b, axis=1)


def _lag_design(U: np.ndarray, k: int) -> np.ndarray:
    """The lag-``k`` ADF regression of :func:`_adf_design` at every
    observation of every row of ``U``, as a C x (k+2) x (T-1) stack: the
    level, the differences lagged 1..k, then the response (the difference).

    Lagged differences from before a series starts are zeros.  Variables are
    rows, so the batched products run on contiguous memory.
    """
    C, T = U.shape
    D = np.diff(U, axis=1)
    padded = np.concatenate((np.zeros((C, k)), D), axis=1)
    lagged = sliding_window_view(padded, T - 1, axis=1)  # lags k, k-1, ..., 0
    Z = np.empty((C, k + 2, T - 1))
    Z[:, 0] = U[:, :-1]
    Z[:, 1 : k + 1] = lagged[:, :k][:, ::-1]
    Z[:, k + 1] = D
    return Z


def _gram(Z: np.ndarray) -> np.ndarray:
    """``Z Z'`` for every row: the regressors' Gram matrix bordered by their
    cross-products with the response and its sum of squares."""
    return Z @ Z.transpose(0, 2, 1)


def _battery_batch(Y: np.ndarray) -> dict[str, np.ndarray]:
    """The battery on every row of a C x T matrix of series.

    Returns one length-C array per statistic (keyed as
    :meth:`UnitRootStats.as_dict`) plus ``lag`` and ``s2_ar``.  The formulas
    are those of :func:`select_lag_maic`, :func:`gls_demean`, :func:`_adf_fit`,
    :func:`mz_msb_mzt`, :func:`mp_test` and :func:`lr_test`, evaluated with
    batched Gram matrices and stacked solves, so a row agrees with them to
    rounding.  Their ``NumericalError`` checks and those of
    :class:`UnitRootStats` are kept, bar the MZt identity, which holds by
    construction here: one failing on any row raises the same message.
    """
    C, T = Y.shape
    if T < MIN_BATTERY_LENGTH:
        raise DataError(f"battery needs at least {MIN_BATTERY_LENGTH} observations, got {T}")
    k_max = default_k_max(T)
    U = Y - Y.mean(axis=1, keepdims=True)

    # MAIC on the OLS-demeaned data over the common sample t > k_max+1: the
    # lag-k fit solves the leading (k+1) x (k+1) block of one Gram matrix
    m = k_max + 1
    N = T - 1 - k_max
    A = _gram(_lag_design(U, k_max)[:, :, k_max:])
    G, g, rr = A[:, :m, :m], A[:, :m, m], A[:, m, m]
    maic = np.empty((C, m))
    for k in range(m):
        b = _solve_normal(G[:, : k + 1, : k + 1], g[:, : k + 1, None])[:, :, 0]
        ssr = rr - _rowdot(b, g[:, : k + 1])
        if not np.all(ssr > 0):
            raise NumericalError(f"degenerate ADF regression at lag {k}")
        s2 = ssr / N
        tau = b[:, 0] ** 2 * G[:, 0, 0] / s2
        maic[:, k] = np.log(s2) + 2.0 * (tau + k) / (T - k_max)
    lag = np.argmin(maic, axis=1)

    # GLS demeaning, then one stacked ADF fit with every row at its own lag:
    # a row's observations before its sample are zeroed, and the rows and
    # columns of its Gram matrix for lags beyond its own are those of the
    # identity, so they solve to zeros and the cost does not depend on the
    # lags chosen
    rho = 1.0 + DEFAULT_C_BAR / T
    ya = np.empty_like(Y)
    ya[:, 0] = Y[:, 0]
    ya[:, 1:] = Y[:, 1:] - rho * Y[:, :-1]
    za = np.full(T, 1.0 - rho)
    za[0] = 1.0
    V = Y - (ya @ za / float(za @ za))[:, None]
    Z = _lag_design(V, k_max)
    before = np.arange(k_max) < lag[:, None]
    Z[:, :, :k_max] *= ~before[:, None, :]
    A = _gram(Z)
    G, g, rr = A[:, :m, :m], A[:, :m, m:], A[:, m, m]
    beyond = np.arange(m) > lag[:, None]
    G[beyond[:, :, None] | beyond[:, None, :]] = 0.0
    diag = np.arange(m)
    G[:, diag, diag] += beyond
    g[beyond] = 0.0
    e0 = np.zeros_like(g)
    e0[:, 0] = 1.0
    sol = _solve_normal(G, np.concatenate((g, e0), axis=2))
    b, g00 = sol[:, :, 0], sol[:, 0, 1]
    ssr = rr - _rowdot(b, g[:, :, 0])
    if not np.all(ssr > 0):
        raise NumericalError("degenerate ADF regression (zero residual variance)")
    sigma2 = ssr / (T - 1 - lag - (lag + 1))  # observations less coefficients
    if not np.all(g00 > 0):
        raise NumericalError("singular ADF regression")
    adf = b[:, 0] / np.sqrt(sigma2 * g00)
    lag_sum = np.sum(b[:, 1:], axis=1)

    denom = (1.0 - lag_sum) ** 2
    if not np.all(denom > 0):
        raise NumericalError("autoregressive spectral density denominator vanished")
    s2_ar = sigma2 / denom
    kappa = _rowdot(V[:, :-1], V[:, :-1]) / T**2
    if np.any(kappa == 0.0):
        raise NumericalError("sum of squared lagged values is zero")
    mz_alpha = (V[:, -1] ** 2 / T - s2_ar) / (2.0 * kappa)
    msb = np.sqrt(kappa / s2_ar)
    mz_t = mz_alpha * msb
    c = DEFAULT_C_BAR
    mp_t = (c**2 * kappa - c * V[:, -1] ** 2 / T) / s2_ar

    # LR profile in closed form: with h = c/T the AR(1) residual is D + h*L,
    # so no large sums are subtracted from each other
    D, L = np.diff(U, axis=1), U[:, :-1]
    s_dd, s_dl, s_ll = _rowdot(D, D), _rowdot(D, L), _rowdot(L, L)
    h = LR_C_GRID / T
    sig2 = (s_dd[:, None] + 2.0 * h * s_dl[:, None] + h**2 * s_ll[:, None]) / (T - 1)
    sig2_null = s_dd / (T - 1)
    if not (np.all(sig2_null > 0) and np.all(sig2 > 0)):
        raise NumericalError("degenerate AR(1) profile (constant series)")
    best = np.minimum(sig2.min(axis=1), sig2_null)
    lr = (T - 1) * (np.log(sig2_null) - np.log(best))

    out = {"LR": lr, "MZa": mz_alpha, "MSB": msb, "MZt": mz_t, "MPt": mp_t, "ADF": adf}
    if not all(np.all(np.isfinite(v)) for v in (*out.values(), s2_ar)):
        raise NumericalError("non-finite unit-root statistic")
    if not np.all(msb > 0):
        raise NumericalError(f"MSB must be positive, got {float(msb[~(msb > 0)][0])}")
    out.update(lag=lag, s2_ar=s2_ar)
    return out


def unit_root_battery(y) -> UnitRootStats:
    """Run the full battery on one series.

    OLS-demeaned data drive the MAIC lag choice up to ``default_k_max(T)``;
    GLS-demeaned data (constant case, ``DEFAULT_C_BAR``) feed the ADF, MZ,
    MSB and MPt statistics, all at the shared selected lag; the LR profile
    uses the series directly (it demeans internally).  This is the one-row
    case of :func:`_battery_batch`.
    """
    row = {name: col[0] for name, col in _battery_batch(_values(y)[None, :]).items()}
    return UnitRootStats(
        lr=float(row["LR"]),
        mz_alpha=float(row["MZa"]),
        msb=float(row["MSB"]),
        mz_t=float(row["MZt"]),
        mp_t=float(row["MPt"]),
        adf=float(row["ADF"]),
        lag=int(row["lag"]),
        s2_ar=float(row["s2_ar"]),
    )
