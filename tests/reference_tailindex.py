"""Sort-per-call references for the tail estimators.

Each function sorts its sample, takes means with ``.mean()`` and builds
``ln(rank - 1/2)`` afresh, as the formulas are written.  The library skips
the sort of an ascending sample and reads the log ranks from a table
(:mod:`robustts.tailindex`); the tests hold it to these bit for bit.
"""

from __future__ import annotations

import numpy as np

from robustts.errors import NumericalError


def hill_zeta(sample, k: int) -> float:
    logs = np.log(np.sort(np.asarray(sample, dtype=float))[::-1][: k + 1])
    return k / float(np.sum(logs[:k]) - k * logs[k])


def rank_size_fit(sample, k: int) -> tuple[float, float]:
    """``(zeta, log_scale)`` of the log-log rank-size regression over the k largest values."""
    sizes = np.sort(np.asarray(sample, dtype=float))[::-1][:k]
    if np.all(sizes == sizes[0]):
        raise NumericalError("fewer than 2 distinct sizes among the top k values")
    x = np.log(sizes)
    ydep = np.log(np.arange(1, k + 1) - 0.5)
    xc = x - x.mean()
    zeta = -float(xc @ (ydep - ydep.mean())) / float(xc @ xc)
    return zeta, float(ydep.mean() + zeta * x.mean())
