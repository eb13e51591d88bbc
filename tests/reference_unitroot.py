"""Scalar formula references for the unit-root battery.

One function per step of the battery on a single series: MAIC lag choice
(:func:`select_lag_maic`), GLS demeaning (:func:`gls_demean`), the ADF fit
(:func:`_adf_fit`, :func:`adf_gls`), the MZ trio (:func:`mz_msb_mzt`), MPt
(:func:`mp_test`) and the LR profile (:func:`lr_test`).  The library runs
only the batched kernel :func:`robustts.unitroot._battery_batch`; the tests
hold each of its rows to these formulas and check their properties here.
Three batched steps of the kernel have their own references: the Gram of
the explicit lag design (:func:`lag_design_gram`), the per-lag MAIC loop
(:func:`maic_per_lag`) and the ADF Gram built from a second design of the
GLS-demeaned rows (:func:`adf_gram_two_designs`).  :func:`row_bytes` is the
chunk rule's count of the bytes a series holds in the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustts.errors import NumericalError
from robustts.unitroot import DEFAULT_C_BAR, LR_C_GRID, _gram, _solve_normal, _values, default_k_max


@dataclass(frozen=True)
class LagSelection:
    """Chosen ADF lag and the criterion values over 0..k_max."""

    k: int
    maic_values: tuple[float, ...]


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


def lag_design_gram(U: np.ndarray, V: np.ndarray, k: int) -> np.ndarray:
    """The Gram matrix of every row's explicit lag-``k`` ADF design over
    observations ``k..T-2``: the columns of :func:`_adf_design` on the
    OLS-demeaned row of ``U`` (its level and lags 1..k), then its response,
    then the GLS-demeaned level of ``V``.

    :func:`robustts.unitroot._lag_sums` sums the same cross-products without
    the design, and the kernel gathers two blocks of this matrix from them.
    """
    T = U.shape[1]
    out = []
    for u, v in zip(U, V):
        resp, X = _adf_design(u, k, start=k)
        Z = np.column_stack([X, resp, v[k : T - 1]])
        out.append(Z.T @ Z)
    return np.array(out)


def maic_per_lag(G: np.ndarray, g: np.ndarray, rr: np.ndarray, T: int, k_max: int) -> np.ndarray:
    """MAIC of lags 0..k_max on a stack of Gram blocks, one solve per lag:
    ``G`` of the regressors (level, lags 1..k_max), ``g`` of their products
    with the response and ``rr`` of its sum of squares.

    :func:`robustts.unitroot._maic` takes the same matrix bordered by ``g``
    and ``rr``, lags first, and fits every lag from one Cholesky factor
    instead; this loop is its fallback, so the two must agree bit for bit
    when the factor fails.
    """
    N = T - 1 - k_max
    maic = np.empty_like(g)
    for k in range(k_max + 1):
        b = _solve_normal(G[:, : k + 1, : k + 1], g[:, : k + 1, None])[:, :, 0]
        ssr = rr - np.sum(b * g[:, : k + 1], axis=1)
        if not np.all(ssr > 0):
            raise NumericalError(f"degenerate ADF regression at lag {k}")
        s2 = ssr / N
        tau = b[:, 0] ** 2 * G[:, 0, 0] / s2
        maic[:, k] = np.log(s2) + 2.0 * (tau + k) / (T - k_max)
    return maic


def adf_gram_two_designs(V: np.ndarray, lag: np.ndarray, k_max: int) -> np.ndarray:
    """The bordered Gram matrix of every row's ADF regression on the
    GLS-demeaned rows ``V`` at its own ``lag``, from a design of ``V`` itself.

    The result is that of :func:`robustts.unitroot._adf_gram`, which gathers
    the same matrix from the lag sums of the kernel's lag design instead.  Here
    a design (level, lags 1..k_max, response) of ``V`` alone is built over
    every observation, a row's observations before its sample are zeroed, and
    so are its lag variables beyond its own lag, before one full-sample Gram
    product.
    """
    C, T = V.shape
    m = k_max + 1
    D = np.diff(V, axis=1)
    Z = np.zeros((C, k_max + 2, T - 1))
    Z[:, 0] = V[:, :-1]
    for j in range(1, m):
        Z[:, j, j:] = D[:, :-j]
    Z[:, m] = D
    before = np.arange(k_max) < lag[:, None]
    Z[:, :, :k_max] *= ~before[:, None, :]
    beyond = np.arange(m) > lag[:, None]
    Z[:, :m][beyond] = 0.0
    return _gram(Z)


def row_bytes(T: int) -> int:
    """The bytes the kernel holds per series of length ``T``: eight
    series-length arrays and five of (k_max + 3)^2."""
    return 8 * (8 * T + 5 * (default_k_max(T) + 3) ** 2)
