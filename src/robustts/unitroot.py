"""GLS-demeaned unit-root test battery with MAIC lag selection.

Implements six statistics on a single demeaned series: a profile
quasi-likelihood ratio (right tailed), the modified Phillips-Perron trio
(MZa, MSB, MZt), the modified point-optimal statistic (MPt), and the
GLS-demeaned augmented Dickey-Fuller t-ratio.  Lag length is chosen once per
series by the modified AIC computed from standard ADF regressions on
OLS-demeaned data; the statistics themselves use GLS-demeaned data with that
shared lag.

This module is the kernel alone: :func:`_battery_batch` evaluates the
battery on a stack of series from one lag design and one Gram matrix, which
serve both the MAIC search and the ADF fit; :func:`_battery_rows`, its one
loop, calls it per chunk of series, and :func:`_stats` turns its rows into
:class:`UnitRootStats`.  A row's bits do not depend on the rows sharing its
call.  Series reach it through :mod:`robustts.bootstrap`.  The scalar formula
references it is tested against live in ``tests/reference_unitroot.py``.

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

__all__ = ["STAT_TAILS", "UnitRootStats", "default_k_max"]

# the six statistics in table order, with the side each rejects on: LR
# rejects for large values, the rest for small
STAT_TAILS = {"LR": "right", "MZa": "left", "MSB": "left", "MZt": "left", "MPt": "left", "ADF": "left"}

# fixed tuning: GLS constant of Elliott, Rothenberg & Stock (1996) and the
# local-alternative grid c = 0, 0.5, ..., 50 of the LR profile
DEFAULT_C_BAR = -7.0
LR_C_GRID = np.arange(0.0, 50.5, 0.5)
MIN_BATTERY_LENGTH = 25
# about the bytes of one chunk's lag design, the one design both fits read
# and so the kernel's working set; a row's bits do not depend on the chunking
CHUNK_BYTES = 2_000_000


@dataclass(frozen=True)
class UnitRootStats:
    """The six statistics for one series, with the shared selected lag."""

    lr: float
    mz_alpha: float
    msb: float
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

    @property
    def mz_t(self) -> float:
        """MZt, which is MZa * MSB by definition."""
        return self.mz_alpha * self.msb

    def as_dict(self) -> dict[str, float]:
        """The six statistics keyed and ordered as :data:`STAT_TAILS`."""
        return dict(zip(STAT_TAILS, (self.lr, self.mz_alpha, self.msb, self.mz_t, self.mp_t, self.adf)))


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


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericalError("unit-root battery overflows: the series values are too large")
    return a


def _gram(Z: np.ndarray) -> np.ndarray:
    """``Z Z'`` for every row: the regressors' Gram matrix bordered by their
    cross-products with the response and its sum of squares."""
    return Z @ Z.transpose(0, 2, 1)


def _maic(G: np.ndarray, g: np.ndarray, rr: np.ndarray, T: int, k_max: int) -> np.ndarray:
    """MAIC of lags 0..k_max for every row, a C x (k_max+1) array.

    The lag-k fit solves the leading (k+1) x (k+1) block of the Gram matrix
    ``G`` of (level, lagged differences) against their cross-products ``g``
    with the response, whose sum of squares is ``rr``.  One Cholesky factor
    of the bordered Gram, reordered as (lags, level, response), gives every
    lag's fit without a solve: with ``L`` its lag block, its level and
    response rows are ``p = L^-1 G_lag,level`` and ``q = L^-1 g_lag``, and
    with prefix sums ``P_k, Q_k, R_k`` of ``p^2, q^2, p*q`` over the first k
    lags the level coefficient is ``b0_k = (g0 - R_k) / (G00 - P_k)`` and
    ``SSR_k = rr - Q_k - (g0 - R_k) * b0_k``.  Should the factor fail or an
    SSR come out non-positive, the lags are fitted one solve at a time
    instead, which raises the scalar reference's message with its lag.
    """
    C, m = g.shape
    N = T - 1 - k_max
    order = np.r_[1:m, 0]
    B = np.empty((C, m + 1, m + 1))
    B[:, :m, :m] = G[:, order][:, :, order]
    B[:, :m, m] = B[:, m, :m] = g[:, order]
    B[:, m, m] = rr
    try:
        F = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        F = None
    if F is not None:
        p, q = F[:, k_max, :k_max], F[:, m, :k_max]
        P, Q, R = np.pad(np.cumsum(np.stack((p * p, q * q, p * q)), axis=2), ((0, 0), (0, 0), (1, 0)))
        r = g[:, :1] - R
        b0 = r / (G[:, :1, 0] - P)
        ssr = rr[:, None] - Q - r * b0
    if F is None or not np.all(ssr > 0):
        ssr, b0 = np.empty_like(g), np.empty_like(g)
        for k in range(k_max + 1):
            b = _solve_normal(G[:, : k + 1, : k + 1], g[:, : k + 1, None])[:, :, 0]
            ssr[:, k] = rr - _rowdot(b, g[:, : k + 1])
            if not np.all(ssr[:, k] > 0):
                raise NumericalError(f"degenerate ADF regression at lag {k}")
            b0[:, k] = b[:, 0]
    s2 = ssr / N
    tau = b0**2 * G[:, :1, 0] / s2
    return np.log(s2) + 2.0 * (tau + np.arange(k_max + 1)) / (T - k_max)


def _adf_gram(Z: np.ndarray, A: np.ndarray, V: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """The bordered Gram matrix of each row's ADF regression on the GLS-demeaned
    ``V`` over ``s >= lag``, read off the OLS-demeaned design ``Z`` and its
    Gram ``A`` over ``s >= k_max``: both fits share the differences, so the lag
    rows are ``A`` plus the Gram of the head ``lag <= s < k_max``, the level row
    is ``Z`` times ``V``'s level zeroed for ``s < lag``, and the corner is that
    level's sum of squares.  Lags beyond ``lag`` get zero rows and columns.
    """
    k_max = Z.shape[1] - 2
    head = Z[:, 1:, :k_max] * (np.arange(k_max) >= lag[:, None])[:, None, :]
    level = V[:, :-1] * (np.arange(Z.shape[2]) >= lag[:, None])
    out = A.copy()
    out[:, 1:, 1:] += _gram(head)
    out[:, 0, 1:] = out[:, 1:, 0] = (Z[:, 1:] @ level[:, :, None])[:, :, 0]
    out[:, 0, 0] = _rowdot(level, level)
    keep = np.arange(k_max + 2) <= lag[:, None]
    keep[:, -1] = True
    return np.where(keep[:, :, None] & keep[:, None, :], out, 0.0)


# an overflow shows as a non-finite Gram entry, MAIC value or statistic, all
# checked; a factor pivot lost to rounding gives a non-positive MAIC SSR
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _battery_batch(Y: np.ndarray) -> dict[str, np.ndarray]:
    """The battery on every row of a C x T matrix of series.

    Returns one length-C array per statistic (keyed as
    :meth:`UnitRootStats.as_dict`) plus ``lag`` and ``s2_ar``.  The formulas
    are those of ``select_lag_maic``, ``gls_demean``, ``_adf_fit``,
    ``mz_msb_mzt``, ``mp_test`` and ``lr_test`` in
    ``tests/reference_unitroot.py``, evaluated on one lag design and its Gram
    matrix, which serve the MAIC search (:func:`_maic`) and the ADF fit
    (:func:`_adf_gram`), so a row agrees with them to rounding.  Every step
    works row by row (no product spans rows), so a row's bits do not depend
    on the other rows.  Their ``NumericalError`` checks and those of
    :class:`UnitRootStats` are kept: one failing on any row raises the same
    message.
    """
    C, T = Y.shape
    if T < MIN_BATTERY_LENGTH:
        raise DataError(f"battery needs at least {MIN_BATTERY_LENGTH} observations, got {T}")
    k_max = default_k_max(T)
    U = Y - Y.mean(axis=1, keepdims=True)

    # MAIC on the OLS-demeaned data over the common sample t > k_max+1: the
    # lag-k fit solves the leading (k+1) x (k+1) block of one Gram matrix
    m = k_max + 1
    Z = _lag_design(U, k_max)
    A = _finite(_gram(Z[:, :, k_max:]))
    lag = np.argmin(_finite(_maic(A[:, :m, :m], A[:, :m, m], A[:, m, m], T, k_max)), axis=1)

    # GLS demeaning, then one stacked ADF fit with every row at its own lag:
    # a row's lag variables beyond its own lag have zero Gram rows and
    # columns; a unit diagonal there keeps the solve regular and gives zero
    # coefficients, so the cost does not depend on the lags chosen
    rho = 1.0 + DEFAULT_C_BAR / T
    ya = np.empty_like(Y)
    ya[:, 0] = Y[:, 0]
    ya[:, 1:] = Y[:, 1:] - rho * Y[:, :-1]
    za = np.full(T, 1.0 - rho)
    za[0] = 1.0
    V = Y - (_rowdot(ya, za[None, :]) / float(za @ za))[:, None]
    A = _finite(_adf_gram(Z, A, V, lag))
    G, g, rr = A[:, :m, :m], A[:, :m, m:], A[:, m, m]
    diag = np.arange(m)
    G[:, diag, diag] += diag > lag[:, None]
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
    D, L = Z[:, -1], Z[:, 0]
    s_dd, s_dl, s_ll = _rowdot(D, D), _rowdot(D, L), _rowdot(L, L)
    h = LR_C_GRID / T
    sig2 = (s_dd[:, None] + 2.0 * h * s_dl[:, None] + h**2 * s_ll[:, None]) / (T - 1)
    if not np.all(sig2 > 0):
        raise NumericalError("degenerate AR(1) profile (constant series)")
    # LR_C_GRID starts at c = 0, so column 0 is the null variance s_dd / (T-1)
    lr = (T - 1) * (np.log(sig2[:, 0]) - np.log(sig2.min(axis=1)))

    out = dict(zip(STAT_TAILS, (lr, mz_alpha, msb, mz_t, mp_t, adf)))
    if not all(np.all(np.isfinite(v)) for v in (*out.values(), s2_ar)):
        raise NumericalError("non-finite unit-root statistic")
    if not np.all(msb > 0):
        raise NumericalError(f"MSB must be positive, got {float(msb[~(msb > 0)][0])}")
    out.update(lag=lag, s2_ar=s2_ar)
    return out


def _battery_rows(n: int, T: int, stack) -> dict[str, np.ndarray]:
    """:func:`_battery_batch` of ``n`` series of length ``T``, where
    ``stack(lo, hi)`` returns series ``lo..hi-1`` as rows.

    The one loop over the kernel: one call per chunk of series within
    ``CHUNK_BYTES``, each chunk stacked only when its turn comes, and each
    key's chunks concatenated.  Series shorter than the battery's minimum
    fail in the kernel.
    """
    T = max(T, MIN_BATTERY_LENGTH)
    size = max(1, CHUNK_BYTES // (T * (default_k_max(T) + 2) * 8))
    chunks = [_battery_batch(stack(lo, min(lo + size, n))) for lo in range(0, n, size)]
    return {key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]}


def _stats(out: dict[str, np.ndarray]) -> list[UnitRootStats]:
    """One :class:`UnitRootStats` per row of a kernel result."""
    # the UnitRootStats fields in order; MZt is derived from MZa and MSB
    fields = (out[key].tolist() for key in ("LR", "MZa", "MSB", "MPt", "ADF", "lag", "s2_ar"))
    return [UnitRootStats(*row) for row in zip(*fields)]
