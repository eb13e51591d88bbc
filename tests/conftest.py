from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from robustts.series import Series

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def make_series(values, start=date(2020, 1, 22)) -> Series:
    """Series with consecutive calendar dates starting at `start`."""
    values = np.asarray(values, dtype=float)
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return Series(dates, values)


def plain_rank_size_zeta(sample, k: int) -> float:
    """Minus the OLS slope of ln(rank) on ln(size) over the k largest values: no rank shift."""
    x = np.log(np.sort(np.asarray(sample, dtype=float))[::-1][:k])
    y = np.log(np.arange(1, k + 1))
    xc = x - x.mean()
    return -float(xc @ (y - y.mean())) / float(xc @ xc)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20210322)
