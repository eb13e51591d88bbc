"""CSV ingestion for the four supported file formats.

Formats (all comma-separated, parsed with the stdlib csv module):

* counts:  ``Province/State,Country/Region,Lat,Long,<M/D/YY>,...`` wide file,
  one row per province, cumulative non-negative values; provinces are summed
  into one series per country.
* prices:  ``Date,Open,High,Low,Close,Adj Close,Volume`` with ISO dates; the
  adjusted close is used and empty/``null`` rows are skipped.
* rates:   ``date,rate_pct`` with ISO dates, annual percent.
* factors: ``date,Mkt.RF,SMB,HML,MOM,RMW,CMA,RF`` with ISO dates, values in
  percent per period, converted to fractions on ingest.

Every parse failure raises :class:`~robustts.errors.DataError` naming the
file, line and field.
"""

from __future__ import annotations

import csv
import math
import re
from datetime import date as Date
from datetime import datetime

import numpy as np

from .errors import DataError
from .series import FactorPanel, Series, _ordered_series, first_unordered

__all__ = ["ingest_counts", "ingest_prices", "ingest_rates", "ingest_factors"]

COUNTS_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")
PRICES_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")
RATES_HEADER = ("date", "rate_pct")
FACTORS_HEADER = ("date", "Mkt.RF", "SMB", "HML", "MOM", "RMW", "CMA", "RF")
# the one shape on which date.fromisoformat agrees with strptime("%Y-%m-%d")
ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
# strptime's own %m/%d/%y fields in ASCII digits alone (no space-padded
# day), so what it matches strptime reads the same; a plain string, which
# re compiles on first use
US_DATE = "(1[0-2]|0[1-9]|[1-9])/(3[01]|[12][0-9]|0[1-9]|[1-9])/([0-9]{2})"


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(str(exc), path=path) from exc
    if not rows:
        raise DataError("empty file", path=path)
    return rows


def _data_rows(rows: list[list[str]], path):
    """``(line, row)`` for each non-empty row below the header, checked to be as wide."""
    width = len(rows[0])
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"expected {width} fields, got {len(row)}", path=path, line=line_no)
        yield line_no, row


def _parse_date(raw: str, fmt: str, path, line: int, field: str) -> Date:
    text = raw.strip()
    try:
        if fmt == "%Y-%m-%d" and ISO_DATE.fullmatch(text):
            return Date.fromisoformat(text)
        if fmt == "%m/%d/%y" and (us := re.fullmatch(US_DATE, text)):
            month, day, year = map(int, us.groups())
            # strptime's %y pivot: 69-99 are 19xx, 00-68 are 20xx
            return Date(year + (1900 if year >= 69 else 2000), month, day)
        return datetime.strptime(text, fmt).date()
    except ValueError as exc:
        raise DataError(f"unparseable date {raw!r}", path=path, line=line, field=field) from exc


def _parse_number(raw: str, path, line: int, field: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise DataError(f"unparseable number {raw!r}", path=path, line=line, field=field) from exc
    if not math.isfinite(value):
        raise DataError(f"non-finite number {raw!r}", path=path, line=line, field=field)
    return value


def ingest_counts(path) -> dict[str, Series]:
    """Read a wide cumulative-counts file into one Series per country."""
    rows = _read_rows(path)
    header = rows[0]
    if tuple(header[:4]) != COUNTS_FIXED_COLUMNS:
        raise DataError(
            f"malformed header, expected leading columns {','.join(COUNTS_FIXED_COLUMNS)}",
            path=path,
            line=1,
            field=",".join(header[:4]),
        )
    if len(header) < 5:
        raise DataError("no date columns", path=path, line=1)
    dates = [
        _parse_date(raw, "%m/%d/%y", path, 1, f"column {i + 5}")
        for i, raw in enumerate(header[4:])
    ]
    bad = first_unordered(dates)
    if bad is not None:
        raise DataError(
            f"date columns out of order ({dates[bad - 1]} then {dates[bad]})", path=path, line=1
        )

    totals: dict[str, np.ndarray] = {}
    for line_no, row in _data_rows(rows, path):
        country = row[1].strip()
        if not country:
            raise DataError("empty country name", path=path, line=line_no, field="Country/Region")
        # float is _parse_number's parser; field by field only to name a failure
        try:
            values = np.array(list(map(float, row[4:])))
        except ValueError:
            values = None
        if values is None or not np.all(np.isfinite(values)):
            values = np.array(
                [
                    _parse_number(raw, path, line_no, header[4 + i])
                    for i, raw in enumerate(row[4:])
                ]
            )
        if np.any(values < 0):
            bad = int(np.argmax(values < 0))
            raise DataError(
                f"negative cumulative count {values[bad]}",
                path=path,
                line=line_no,
                field=header[4 + bad],
            )
        if country in totals:
            with np.errstate(over="ignore"):
                values = totals[country] + values
            if not np.all(np.isfinite(values)):
                bad = int(np.argmin(np.isfinite(values)))
                raise DataError(
                    f"province sum for {country} overflows",
                    path=path,
                    line=line_no,
                    field=header[4 + bad],
                )
        totals[country] = values
    if not totals:
        raise DataError("no data rows", path=path)
    dates = tuple(dates)
    return {country: _ordered_series(dates, vals) for country, vals in sorted(totals.items())}


def _read_table(path, header: tuple[str, ...], columns, empty: str, skip=None) -> tuple[tuple, np.ndarray]:
    """Dates and value columns of a long-format file with ISO dates first.

    Checks the header, the field count of every non-empty row, each date and
    strict date order.  Rows for which ``skip(row)`` is true are dropped before
    their date is parsed; of each kept row, the fields ``columns`` are parsed,
    stripped, as finite numbers.  Returns the dates as a tuple and the values as
    one float array with a column per field; with no kept row, ``DataError(empty)``.
    """
    rows = _read_rows(path)
    if tuple(rows[0]) != header:
        raise DataError(
            f"malformed header, expected {','.join(header)}",
            path=path,
            line=1,
            field=",".join(rows[0]),
        )
    dates: list[Date] = []
    values = []
    for line_no, row in _data_rows(rows, path):
        if skip is not None and skip(row):
            continue
        d = _parse_date(row[0], "%Y-%m-%d", path, line_no, header[0])
        if dates and d <= dates[-1]:
            raise DataError(
                f"dates out of order ({dates[-1]} then {d})",
                path=path,
                line=line_no,
                field=header[0],
            )
        dates.append(d)
        for c in columns:
            values.append(_parse_number(row[c].strip(), path, line_no, header[c]))
    if not dates:
        raise DataError(empty, path=path)
    return tuple(dates), np.array(values).reshape(len(dates), len(columns))


def ingest_prices(path) -> Series:
    """Read adjusted closes from a Yahoo-style daily price file."""
    dates, values = _read_table(
        path, PRICES_HEADER, (5,), "no usable price rows",
        skip=lambda row: row[5].strip().lower() in ("", "null"),
    )
    return _ordered_series(dates, values[:, 0])


def ingest_rates(path) -> Series:
    """Read an annual-percent policy rate file."""
    dates, values = _read_table(path, RATES_HEADER, (1,), "no rate rows")
    return _ordered_series(dates, values[:, 0])


def ingest_factors(path) -> FactorPanel:
    """Read a daily factor panel; percent values become fractions."""
    dates, values = _read_table(path, FACTORS_HEADER, range(1, len(FACTORS_HEADER)), "no factor rows")
    return FactorPanel(dates=dates, columns=dict(zip(FACTORS_HEADER[1:], values.T / 100.0)))
