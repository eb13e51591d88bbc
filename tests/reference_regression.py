"""Per-lag and per-block references for the regression kernels.

:func:`long_run_variance` sums the weighted score autocovariances one lag at
a time, as the formula is written.  The library evaluates the same sum by one
FFT convolution (:func:`robustts.regression.long_run_variance`); the tests
hold it to this loop.  :func:`group_estimates` fits each block of the grouped
t by its own ``np.linalg.lstsq``; the library fits all blocks of a q by one
batched QR (``robustts.regression._group_estimates``).
"""

from __future__ import annotations

import numpy as np

from robustts.errors import NumericalError
from robustts.regression import group_partition, qs_kernel


def long_run_variance(scores, bandwidth: float) -> np.ndarray:
    """QS-weighted long-run variance of (mean-zero) score series.

    ``Omega = Gamma(0) + sum_l w(l/bandwidth) (Gamma(l) + Gamma(l)')`` with
    ``Gamma(l) = T^-1 sum_t V_t V_{t-l}'``; bandwidth 0 keeps only the
    contemporaneous term.
    """
    V = np.asarray(scores, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    T = V.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        omega = V.T @ V / T
        if bandwidth > 0:
            for lag in range(1, T):
                w = qs_kernel(lag / bandwidth)
                gamma = V[lag:].T @ V[:-lag] / T
                omega = omega + w * (gamma + gamma.T)
        omega = (omega + omega.T) / 2.0
    if not np.all(np.isfinite(omega)):
        raise NumericalError("QS long-run variance is not finite: the scores are too large")
    eigs = np.linalg.eigvalsh(omega)
    if eigs[0] < -1e-10 * float(eigs[-1]):
        raise NumericalError("QS long-run variance lost positive semidefiniteness")
    return omega


def group_estimates(X, y, q: int) -> np.ndarray:
    """The coefficients of ``lstsq`` on each of the q blocks, one row per block."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rows = []
    for j, (lo, hi) in enumerate(group_partition(len(y), q), start=1):
        coef, _, rank, _ = np.linalg.lstsq(X[lo:hi], y[lo:hi], rcond=None)
        if rank < X.shape[1]:
            raise NumericalError(f"group {j} is rank-deficient")
        rows.append(coef)
    return np.array(rows)
