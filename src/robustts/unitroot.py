"""GLS-demeaned unit-root test battery with MAIC lag selection.

Implements six statistics on a single demeaned series: a profile
quasi-likelihood ratio (right tailed), the modified Phillips-Perron trio
(MZa, MSB, MZt), the modified point-optimal statistic (MPt), and the
GLS-demeaned augmented Dickey-Fuller t-ratio.  Lag length is chosen once per
series by the modified AIC computed from standard ADF regressions on
OLS-demeaned data; the statistics themselves use GLS-demeaned data with that
shared lag.

This module is the kernel alone: :func:`_battery_batch` evaluates the
battery on a stack of series from one row of lag sums of the differences and
both demeaned levels (:func:`_lag_sums`), built without the lag design; the
MAIC search and the ADF fit each gather their own Gram block from it, in the
order :func:`_gram_index` lays out.  :func:`_battery_rows`, its one loop,
calls it per chunk of series, and
:func:`_stats` turns its rows into :class:`UnitRootStats`.  A row's bits do
not depend on the rows sharing its call.  Each thread has one
:class:`_Workspace` for the kernel's series- and Gram-sized intermediates,
made by its first :func:`_battery_rows` call and written in place by every
chunk of every later call; no two threads share one, so calls may run on
several threads at once.  What depends on the series length alone is made
once per length (:func:`_length_terms`).  Series reach it through
:mod:`robustts.bootstrap`.  The scalar formula references it is tested
against live in ``tests/reference_unitroot.py``.

No critical values are shipped: decisions are meant to come from the
bootstrap p-values in :mod:`robustts.bootstrap`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
# the bytes a chunk of series may hold: per series, eight series-length
# arrays (the series, the workspace's two levels, lag source and three-row
# stack the level sums run over, and the resampler's multipliers or spectra)
# and five of (k_max+3)^2 (the workspace's lag products, their skew gather,
# sums and MAIC block, and that block's factor)
CHUNK_BYTES = 3_000_000


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
    v = np.asarray(y.values if isinstance(y, Series) else y, dtype=float)
    if v.ndim != 1:
        raise DataError(f"a series must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DataError("series holds NaN or infinite values")
    return v


def _solve_normal(G: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(G, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular ADF regression") from exc


class _Workspace(dict):
    """The buffers of one thread's :func:`_battery_rows` calls, by name, reused by every
    chunk: ``w(name, *shape)`` is a C-contiguous view of the buffer's leading elements,
    allocated by the first (largest) chunk that asks and grown only for a larger request,
    so a buffer keeps the largest size any length has asked for.  Arrays that share a
    name must not be live at once.  No two threads share a workspace.
    """

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        if name not in self or self[name].size < size:
            self[name] = np.empty(size)
        return self[name][:size].reshape(shape)


_THREAD = threading.local()  # each thread's workspace, as the attribute ``w``


@cache
def _length_terms(T: int) -> tuple:
    """What the kernel reads at length ``T`` alone, made once per length: ``k_max``, the
    GLS quasi-difference ``rho``, its constant regressor ``za`` and ``za @ za``, the LR
    profile's ``2h`` and ``h**2`` over ``h = c/T`` of :data:`LR_C_GRID`, the ADF block's
    diagonal indices and its first unit vector ``e0``, as a column."""
    k_max = default_k_max(T)
    rho = 1.0 + DEFAULT_C_BAR / T
    za = np.full(T, 1.0 - rho)
    za[0] = 1.0
    h = LR_C_GRID / T
    e0 = np.zeros((k_max + 1, 1))
    e0[0] = 1.0
    arrays = za, 2.0 * h, h**2, np.arange(k_max + 1), e0
    for a in arrays:
        a.flags.writeable = False
    return k_max, rho, za, float(za @ za), *arrays[1:]


def _rowdot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise inner products, pairwise summed; the products go to ``out``."""
    return np.multiply(a, b, out=out).sum(axis=1)


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericalError("unit-root battery overflows: the series values are too large")
    return a


def _gram(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Z Z'`` for every row: the cross-products of every pair of design
    variables, regressors and response alike."""
    return np.matmul(Z, Z.transpose(0, 2, 1), out=out)


_GRAM_INDEX: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}  # per k_max, built on first use


def _gram_index(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one statement of the Gram's variable order: flat indices into a
    row of :func:`_lag_sums` at ``k_max = k`` that lay out its lag products by
    lag difference, that gather MAIC's bordered block in the order (lags 1..k,
    OLS level U, response), and the ADF fit's in the order (GLS level V, lags
    1..k, response)."""
    if k not in _GRAM_INDEX:
        m = k + 1
        # [a, e] takes R[e] for a = 0, then W[a-1, a-1+e] while a-1+e < k,
        # else the zero after W
        a, e = np.ogrid[:m, :m]
        skew = np.where(a == 0, e, m + np.where(a + e <= k, (a - 1) * (k + 1) + e, k * k))
        # a block's variables as lags, the response being lag 0, or as the
        # levels U (-1) and V (-2); a level's F row and a level pair count the Vs
        def block(var):
            p, q, v = var[:, None], var, (var == -2).astype(int)
            lo, hi, lv = np.minimum(p, q), np.maximum(p, q), v[:, None] + v
            return np.where(lo >= 0, lo * m + hi - lo, m * m + np.where(hi >= 0, m * lv + hi, 2 * m + lv)).ravel()
        _GRAM_INDEX[k] = skew.ravel(), block(np.r_[1:m, -1, 0]), block(np.r_[-2, 1:m, 0])
    return _GRAM_INDEX[k]


def _lag_sums(U: np.ndarray, V: np.ndarray, P: np.ndarray, w: _Workspace) -> np.ndarray:
    """Every cross-product of the lag design over observations ``k..T-2`` for
    every row, as one row of sums built without the design (``_adf_design``
    in ``tests/reference_unitroot.py``): of the OLS-demeaned level ``U``, the
    differences lagged 1..k, the response (the difference) and the
    GLS-demeaned level ``V``.  ``P`` is the differences after ``k`` zeros, so
    lagged differences from before a series starts are zeros.  A row holds
    ``L[a, e] = LL[a, a+e]`` of lags 0..k (the response is lag 0), ``F(j)`` of
    ``U`` and of ``V``, then ``UU, UV, VV``, in :func:`_gram_index`'s layout.

    The lag columns are shifted copies of the differences ``d``, so only
    ``R[e] = sum_s d_s d_{s-e}`` (e = 0..k) and the level sums ``UU, UV,
    VV, Ud, Vd`` run over the sample.  A lag pair moved one step back gains
    the product that enters at the head and loses the one that leaves at the
    tail, ``LL[a+1, b+1] = LL[a, b] + h_a h_b - t_a t_b`` with
    ``h_a = d_{k-1-a}`` and ``t_a = d_{T-2-a}``; and as both levels ``X``
    have the differences ``d``, ``F(j) = sum_s X_s d_{s-j}`` is ``F(j-1) +
    X_{k-1} h_{j-1} - X_{T-2} t_{j-1} + LL[1, j]``.  Each sum is a row's
    own, so a row's bits do not depend on the other rows.  The stacks go to
    ``w``'s buffers ``s`` and ``g``, and the sums to ``sums``.
    """
    C, T = U.shape
    k = P.shape[1] - (T - 1)
    m = k + 1
    skew = _gram_index(k)[0]
    d = P[:, k:]
    h, t = P[:, 2 * k - 1 : k - 1 : -1], P[:, : -k - 1 : -1]
    X = np.stack((U[:, k : T - 1], V[:, k : T - 1], d[:, k:]), axis=1, out=w("s", C, 3, T - 1 - k))
    S = X[:, :2] @ X.transpose(0, 2, 1)  # (U, V) against (U, V, d)
    # R[e], then W = h h' - t t', then a zero, gathered so that L[a, e] = LL[a, a+e]
    lags = w("s", C, m + k * k + 1)
    window = as_strided(d, (C, T - 1 - k, m), (d.strides[0], d.strides[1], d.strides[1]), writeable=False)
    lags[:, :m] = np.einsum("cnw,cn->cw", window, d[:, k:])[:, ::-1]
    W = lags[:, m:-1].reshape(C, k, k)
    np.multiply(h[:, :, None], h[:, None, :], out=W)
    W -= np.multiply(t[:, :, None], t[:, None, :], out=w("g", C, k, k))
    lags[:, -1] = 0.0
    # L summed down a, the F rows and the level sums, as one row of sums per series
    sums = w("sums", C, m * m + 2 * m + 3)
    L = sums[:, : m * m].reshape(C, m, m)
    np.cumsum(np.take(lags, skew, axis=1, out=w("g", C, m * m), mode="clip").reshape(C, m, m), axis=1, out=L)
    ends = np.stack((U[:, [k - 1, T - 2]], V[:, [k - 1, T - 2]]), axis=1)
    F = sums[:, m * m : -3].reshape(C, 2, m)
    F[:, :, 0] = S[:, :, 2]
    F[:, :, 1:] = ends[:, :, :1] * h[:, None] - ends[:, :, 1:] * t[:, None] + L[:, None, 1, :k]
    np.cumsum(F, axis=2, out=F)
    sums[:, -3:-1], sums[:, -1] = S[:, 0, :2], S[:, 1, 1]
    return sums


def _maic(B: np.ndarray, T: int, k_max: int) -> np.ndarray:
    """MAIC of lags 0..k_max for every row, a C x (k_max+1) array, from the
    bordered Gram ``B`` of the lag search in the order (lags 1..k_max, level,
    response); the lag-k fit regresses the response on the level and the
    first k lags.  With ``L`` the lag block of ``B``'s Cholesky factor, its
    level and response rows are ``p = L^-1 G_lag,level`` and ``q = L^-1
    g_lag``; with prefix sums ``P_k, Q_k, R_k`` of ``p^2, q^2, p*q`` over the
    first k lags, the level's sums ``G00, g0`` and the response's ``rr``, the
    level coefficient is ``b0_k = (g0 - R_k) / (G00 - P_k)`` and ``SSR_k = rr
    - Q_k - (g0 - R_k) * b0_k``, so no lag needs a solve.  Should the factor
    fail or an SSR come out non-positive, the lags are fitted one solve at a
    time on the level-first view of ``B`` instead, which raises the scalar
    reference's message with its lag.
    """
    m = k_max + 1
    N = T - 1 - k_max
    G00, g0, rr = B[:, k_max, k_max : m], B[:, k_max, m:], B[:, m, m:]
    try:
        F = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        F = None
    if F is not None:
        p, q = F[:, k_max, :k_max], F[:, m, :k_max]
        # the prefix sums over the first k lags, k = 0..k_max, the empty one zero
        P, Q, R = pqr = np.zeros((3, len(B), m))
        np.multiply(p, p, out=P[:, 1:]), np.multiply(q, q, out=Q[:, 1:]), np.multiply(p, q, out=R[:, 1:])
        np.cumsum(pqr[:, :, 1:], axis=2, out=pqr[:, :, 1:])
        r = g0 - R
        b0 = r / (G00 - P)
        ssr = rr - Q - r * b0
    if F is None or not (ssr > 0).all():
        order = np.r_[k_max, :k_max]
        G, g = B[:, order[:, None], order], B[:, order, m]
        ssr, b0 = np.empty_like(g), np.empty_like(g)
        for k in range(k_max + 1):
            b = _solve_normal(G[:, : k + 1, : k + 1], g[:, : k + 1, None])[:, :, 0]
            ssr[:, k] = rr[:, 0] - _rowdot(b, g[:, : k + 1])
            if not (ssr[:, k] > 0).all():
                raise NumericalError(f"degenerate ADF regression at lag {k}")
            b0[:, k] = b[:, 0]
    s2 = ssr / N
    tau = b0**2 * G00 / s2
    return np.log(s2) + 2.0 * (tau + np.arange(k_max + 1)) / (T - k_max)


def _adf_gram(sums: np.ndarray, head: np.ndarray, lag: np.ndarray, w: _Workspace) -> np.ndarray:
    """The bordered Gram matrix of each row's ADF regression on the GLS-demeaned
    level over ``s >= lag``, in the order (level, lags, response): that block
    of the lag design over ``s >= k_max``, gathered from the row ``sums``,
    plus the Gram of the design's ``head`` observations ``s < k_max``, rows in
    the same order, zeroed for ``s < lag``.  Lags beyond ``lag`` get zero rows
    and columns.  The block goes to ``w``'s buffer ``s``, which holds the
    result, the zeroed head to ``A`` and its Gram to ``sums``, once read.
    """
    C, m, k_max = head.shape
    out = np.take(sums, _gram_index(k_max)[2], axis=1, out=w("s", C, m * m), mode="clip").reshape(C, m, m)
    head = np.multiply(head, (np.arange(k_max) >= lag[:, None])[:, None, :], out=w("A", C, m, k_max))
    out += _gram(head, w("sums", C, m, m))
    keep = np.arange(m) <= lag[:, None]
    keep[:, -1] = True
    np.copyto(out, 0.0, where=~(keep[:, :, None] & keep[:, None, :]))
    return out


# an overflow shows as a non-finite Gram entry, MAIC value or statistic, all
# checked; a factor pivot lost to rounding gives a non-positive MAIC SSR
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _battery_batch(Y: np.ndarray, w: _Workspace) -> dict[str, np.ndarray]:
    """The battery on every row of a C x T matrix of series.

    Returns one length-C array per statistic (keyed as
    :meth:`UnitRootStats.as_dict`) plus ``lag`` and ``s2_ar``.  The formulas
    are those of ``select_lag_maic``, ``gls_demean``, ``_adf_fit``,
    ``mz_msb_mzt``, ``mp_test`` and ``lr_test`` in
    ``tests/reference_unitroot.py``, evaluated on one row of lag sums of a
    lag design carrying both demeaned levels (:func:`_lag_sums`), from which
    the MAIC search (:func:`_maic`) and the ADF fit (:func:`_adf_gram`) each
    gather their own Gram block, so a row agrees with them to rounding.  Of
    the design only its first ``k_max`` observations are built, and every
    intermediate goes to the workspace ``w``.  Every step works row by row
    (no product spans rows), so a row's bits do not depend on the other
    rows.  Their ``NumericalError`` checks and those of
    :class:`UnitRootStats` are kept: one failing on any row raises the same
    message.
    """
    C, T = Y.shape
    if T < MIN_BATTERY_LENGTH:
        raise DataError(f"battery needs at least {MIN_BATTERY_LENGTH} observations, got {T}")
    k_max, rho, za, zz, lr_2h, lr_hh, diag, e0 = _length_terms(T)
    m = k_max + 1
    # the shared buffers at their largest first (the three-row stack or ADF block, the skew gather)
    w("s", C, max(3 * (T - 1 - k_max), (m + 1) ** 2)), w("g", C, m, m)
    U = np.subtract(Y, Y.mean(axis=1, keepdims=True), out=w("U", C, T))
    # GLS demeaning, which no lag enters; V holds the quasi-differences first,
    # then their products with za, then the demeaned level
    V = w("V", C, T)
    V[:, 0] = Y[:, 0]
    np.subtract(Y[:, 1:], np.multiply(rho, Y[:, :-1], out=V[:, 1:]), out=V[:, 1:])
    np.subtract(Y, (_rowdot(V, za, V) / zz)[:, None], out=V)
    # the differences after k_max zeros, the lags' one source
    P = w("P", C, k_max + T - 1)
    P[:, :k_max] = 0.0
    D = np.subtract(U[:, 1:], U[:, :-1], out=P[:, k_max:])

    # MAIC on the OLS-demeaned data over the common sample t > k_max+1, from
    # one bordered Gram block
    sums = _lag_sums(U, V, P, w)
    B = np.take(sums, _gram_index(k_max)[1], axis=1, out=w("A", C, (m + 1) ** 2), mode="clip")
    lag = np.argmin(_finite(_maic(_finite(B).reshape(C, m + 1, m + 1), T, k_max)), axis=1)

    # the design's first k_max observations in the ADF fit's order, variables as rows
    head = w("g", C, m + 1, k_max)
    head[:, 0], head[:, m] = V[:, :k_max], D[:, :k_max]
    for j in range(1, m):
        head[:, j] = P[:, k_max - j : 2 * k_max - j]
    # one stacked ADF fit with every row at its own lag: a row's lag
    # variables beyond its own lag have zero Gram rows and columns; a unit
    # diagonal there keeps the solve regular and gives zero coefficients, so
    # the cost does not depend on the lags chosen
    A = _finite(_adf_gram(sums, head, lag, w))
    G, g, rr = A[:, :m, :m], A[:, :m, m:], A[:, m, m]
    G[:, diag, diag] += diag > lag[:, None]
    # the right-hand sides g and e0 go to the head's buffer, read by now
    rhs = w("g", C, m, 2)
    rhs[:, :, :1], rhs[:, :, 1:] = g, e0
    sol = _solve_normal(G, rhs)
    b, g00 = sol[:, :, 0], sol[:, 0, 1]
    ssr = rr - _rowdot(b, g[:, :, 0])
    if not (ssr > 0).all():
        raise NumericalError("degenerate ADF regression (zero residual variance)")
    sigma2 = ssr / (T - 1 - lag - (lag + 1))  # observations less coefficients
    if not (g00 > 0).all():
        raise NumericalError("singular ADF regression")
    adf = b[:, 0] / np.sqrt(sigma2 * g00)
    lag_sum = np.sum(b[:, 1:], axis=1)

    denom = (1.0 - lag_sum) ** 2
    if not (denom > 0).all():
        raise NumericalError("autoregressive spectral density denominator vanished")
    s2_ar = sigma2 / denom
    s = w("s", C, T - 1)
    kappa = _rowdot(V[:, :-1], V[:, :-1], s) / T**2
    if (kappa == 0.0).any():
        raise NumericalError("sum of squared lagged values is zero")
    mz_alpha = (V[:, -1] ** 2 / T - s2_ar) / (2.0 * kappa)
    msb = np.sqrt(kappa / s2_ar)
    mz_t = mz_alpha * msb
    c = DEFAULT_C_BAR
    mp_t = (c**2 * kappa - c * V[:, -1] ** 2 / T) / s2_ar

    # LR profile in closed form: with h = c/T the AR(1) residual is D + h*L,
    # so no large sums are subtracted from each other
    L = U[:, :-1]
    s_dd, s_dl, s_ll = _rowdot(D, D, s), _rowdot(D, L, s), _rowdot(L, L, s)
    sig2 = (s_dd[:, None] + lr_2h * s_dl[:, None] + lr_hh * s_ll[:, None]) / (T - 1)
    if not (sig2 > 0).all():
        raise NumericalError("degenerate AR(1) profile (constant series)")
    # LR_C_GRID starts at c = 0, so column 0 is the null variance s_dd / (T-1)
    lr = (T - 1) * (np.log(sig2[:, 0]) - np.log(sig2.min(axis=1)))

    out = dict(zip(STAT_TAILS, (lr, mz_alpha, msb, mz_t, mp_t, adf)))
    if not np.isfinite(np.stack((*out.values(), s2_ar))).all():
        raise NumericalError("non-finite unit-root statistic")
    if not (msb > 0).all():
        raise NumericalError(f"MSB must be positive, got {float(msb[~(msb > 0)][0])}")
    out.update(lag=lag, s2_ar=s2_ar)
    return out


def _battery_rows(n: int, T: int, stack) -> dict[str, np.ndarray]:
    """:func:`_battery_batch` of ``n`` series of length ``T``, where
    ``stack(lo, hi)`` returns series ``lo..hi-1`` as rows.

    The one loop over the kernel: one call per chunk of series within
    ``CHUNK_BYTES``, each chunk stacked only when its turn comes, and each
    key's chunks concatenated.  Every chunk works in the calling thread's
    workspace, made on its first call, so ``stack`` must not run the battery
    itself.  Series shorter than the battery's minimum fail in the kernel.
    """
    T = max(T, MIN_BATTERY_LENGTH)
    size = max(1, CHUNK_BYTES // (8 * (8 * T + 5 * (default_k_max(T) + 3) ** 2)))
    w = getattr(_THREAD, "w", None)
    if w is None:
        w = _THREAD.w = _Workspace()
    chunks = [_battery_batch(stack(lo, min(lo + size, n)), w) for lo in range(0, n, size)]
    return {key: np.concatenate([chunk[key] for chunk in chunks]) for key in chunks[0]}


def _stats(out: dict[str, np.ndarray]) -> list[UnitRootStats]:
    """One :class:`UnitRootStats` per row of a kernel result."""
    # the UnitRootStats fields in order; MZt is derived from MZa and MSB
    fields = (out[key].tolist() for key in ("LR", "MZa", "MSB", "MPt", "ADF", "lag", "s2_ar"))
    return [UnitRootStats(*row) for row in zip(*fields)]
