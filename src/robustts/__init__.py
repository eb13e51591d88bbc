"""Robust inference for heavy-tailed, possibly non-stationary time series.

The package bundles four pieces that are designed to be used together:

* a unit-root battery (LR profile, MZa/MSB/MZt, MPt, GLS-demeaned ADF) with
  MAIC lag selection (:mod:`robustts.unitroot`);
* sieve wild bootstrap p-values for that battery (:mod:`robustts.bootstrap`);
* Hill and rank-size tail-index estimation with confidence bands over
  truncation grids (:mod:`robustts.tailindex`);
* predictive and factor regressions with classical, QS-kernel HAC and
  grouped t-statistic inference (:mod:`robustts.regression`).

Dated-series plumbing lives in :mod:`robustts.series` and
:mod:`robustts.ingest`; deterministic table rendering in
:mod:`robustts.report`; the command line in :mod:`robustts.cli`.
"""

__version__ = "0.1.0"

from .errors import DataError, NumericalError, RobusttsError
from .series import FactorPanel, PairedSample, Series
from .bootstrap import unit_root_report
from .tailindex import hill_estimate, k_grid, rank_size_estimate, tail_curve
from .regression import factor_report, predictive_report

__all__ = [
    "__version__",
    "RobusttsError",
    "DataError",
    "NumericalError",
    "Series",
    "PairedSample",
    "FactorPanel",
    "unit_root_report",
    "hill_estimate",
    "rank_size_estimate",
    "k_grid",
    "tail_curve",
    "predictive_report",
    "factor_report",
]
