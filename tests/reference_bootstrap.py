"""Recursive-filter reference for the bootstrap recolouring.

:func:`resample_chunk` recolours the wild innovations through the sieve's AR
filter with ``scipy.signal.lfilter`` and cumulates them, as the recursion is
written.  The library computes the same series by one FFT convolution with
the cumulated impulse response (:func:`robustts.bootstrap._resample_chunk`);
the tests hold it to this filter.  The multipliers come from numpy's own
``Generator.integers``, not from the library's draw.  scipy is imported only
when a sieve has coefficients to filter through, so the module loads without it.
"""

from __future__ import annotations

import numpy as np

from robustts.bootstrap import SieveModel


def resample_chunk(model: SieveModel, seeds) -> np.ndarray:
    """One bootstrap series per seed, stacked as rows, by recursive filtering."""
    n = len(model.residuals)
    signs = [
        np.random.default_rng(np.random.SeedSequence(s)).integers(0, 2, size=n) * 2.0 - 1.0 for s in seeds
    ]
    eps = np.stack(signs) * model.residuals
    if model.p == 0:
        dstar = eps
    else:
        from scipy.signal import lfilter

        a = np.concatenate(([1.0], -np.asarray(model.phi)))
        dstar = lfilter([1.0], a, eps, axis=1)
    return np.cumsum(dstar, axis=1)
