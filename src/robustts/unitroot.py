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
scalar formula references it is tested against live in
``tests/reference_unitroot.py``.

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

__all__ = ["UnitRootStats", "default_k_max", "unit_root_battery"]

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


def default_k_max(T: int) -> int:
    """Standard maximum-lag rule ``floor(12 * (T/100)^(1/4))``."""
    return int(math.floor(12.0 * (T / 100.0) ** 0.25))


def _values(y) -> np.ndarray:
    if isinstance(y, Series):
        return np.asarray(y.values, dtype=float)
    return np.asarray(y, dtype=float)


def _solve_normal(G: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(G, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular ADF regression") from exc


def _chunk_rows(T: int) -> int:
    """Series of length ``T`` per :func:`_battery_batch` call within ``CHUNK_BYTES``."""
    return max(1, CHUNK_BYTES // (T * (default_k_max(T) + 2) * 8))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products, pairwise summed."""
    return np.sum(a * b, axis=1)


def _lag_design(U: np.ndarray, k: int) -> np.ndarray:
    """The lag-``k`` ADF regression (``_adf_design`` in
    ``tests/reference_unitroot.py``) at every observation of every row of
    ``U``, as a C x (k+2) x (T-1) stack: the level, the differences lagged
    1..k, then the response (the difference).

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
    are those of ``select_lag_maic``, ``gls_demean``, ``_adf_fit``,
    ``mz_msb_mzt``, ``mp_test`` and ``lr_test`` in
    ``tests/reference_unitroot.py``, evaluated with batched Gram matrices and
    stacked solves, so a row agrees with them to rounding.  Their
    ``NumericalError`` checks and those of :class:`UnitRootStats` are kept,
    bar the MZt identity, which holds by construction here: one failing on
    any row raises the same message.
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
