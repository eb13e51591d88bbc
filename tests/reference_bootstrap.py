"""Recursive-filter reference for the bootstrap recolouring.

:func:`resample_chunk` recolours the wild innovations through the sieve's AR
filter with ``scipy.signal.lfilter`` and cumulates them, as the recursion is
written.  The library computes the same series by one FFT convolution with
the cumulated impulse response (:func:`robustts.bootstrap._resample_chunk`);
the tests hold it to this filter.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from robustts.bootstrap import SieveModel, rademacher


def resample_chunk(model: SieveModel, seeds) -> np.ndarray:
    """One bootstrap series per seed, stacked as rows, by recursive filtering."""
    eps = np.stack([rademacher(seed, len(model.residuals)) for seed in seeds]) * model.residuals
    if model.p == 0:
        dstar = eps
    else:
        a = np.concatenate(([1.0], -np.asarray(model.phi)))
        dstar = lfilter([1.0], a, eps, axis=1)
    return np.cumsum(dstar, axis=1)
