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
from datetime import date as Date
from datetime import datetime

import numpy as np

from .errors import DataError
from .regression import FactorPanel
from .series import Series

__all__ = ["ingest_counts", "ingest_prices", "ingest_rates", "ingest_factors"]

COUNTS_FIXED_COLUMNS = ("Province/State", "Country/Region", "Lat", "Long")
PRICES_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")
RATES_HEADER = ("date", "rate_pct")
FACTORS_HEADER = ("date", "Mkt.RF", "SMB", "HML", "MOM", "RMW", "CMA", "RF")


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(str(exc), path=path) from exc
    if not rows:
        raise DataError("empty file", path=path)
    return rows


def _parse_date(raw: str, fmt: str, path, line: int, field: str) -> Date:
    try:
        return datetime.strptime(raw.strip(), fmt).date()
    except ValueError as exc:
        raise DataError(f"unparseable date {raw!r}", path=path, line=line, field=field) from exc


def _parse_number(raw: str, path, line: int, field: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise DataError(f"unparseable number {raw!r}", path=path, line=line, field=field) from exc
    if not np.isfinite(value):
        raise DataError(f"non-finite number {raw!r}", path=path, line=line, field=field)
    return value


def _check_increasing(dates: list[Date], path, line: int) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise DataError(
                f"date columns out of order ({prev} then {cur})", path=path, line=line
            )


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
    _check_increasing(dates, path, 1)

    totals: dict[str, np.ndarray] = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"expected {len(header)} fields, got {len(row)}", path=path, line=line_no
            )
        country = row[1].strip()
        if not country:
            raise DataError("empty country name", path=path, line=line_no, field="Country/Region")
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
    return {country: Series(tuple(dates), vals) for country, vals in sorted(totals.items())}


def _read_table(path, header: tuple[str, ...], parse_row, skip=None) -> tuple[list[Date], list]:
    """Dates and per-row values of a long-format file with ISO dates first.

    Checks the header, the field count of every non-empty row, each date and
    strict date order.  Rows for which ``skip(row)`` is true are dropped before
    their date is parsed; ``parse_row(row, line)`` turns each kept row into
    its values.
    """
    rows = _read_rows(path)
    if tuple(rows[0]) != header:
        raise DataError(
            f"malformed header, expected {','.join(header)}",
            path=path,
            line=1,
            field=",".join(rows[0]),
        )
    date_field = header[0]
    dates: list[Date] = []
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"expected {len(header)} fields, got {len(row)}", path=path, line=line_no
            )
        if skip is not None and skip(row):
            continue
        d = _parse_date(row[0], "%Y-%m-%d", path, line_no, date_field)
        if dates and d <= dates[-1]:
            raise DataError(
                f"dates out of order ({dates[-1]} then {d})",
                path=path,
                line=line_no,
                field=date_field,
            )
        dates.append(d)
        values.append(parse_row(row, line_no))
    return dates, values


def ingest_prices(path) -> Series:
    """Read adjusted closes from a Yahoo-style daily price file."""
    dates, values = _read_table(
        path,
        PRICES_HEADER,
        lambda row, line: _parse_number(row[5].strip(), path, line, "Adj Close"),
        skip=lambda row: row[5].strip().lower() in ("", "null"),
    )
    if not dates:
        raise DataError("no usable price rows", path=path)
    return Series(tuple(dates), np.array(values))


def ingest_rates(path) -> Series:
    """Read an annual-percent policy rate file."""
    dates, values = _read_table(
        path, RATES_HEADER, lambda row, line: _parse_number(row[1], path, line, "rate_pct")
    )
    if not dates:
        raise DataError("no rate rows", path=path)
    return Series(tuple(dates), np.array(values))


def ingest_factors(path) -> FactorPanel:
    """Read a daily factor panel; percent values become fractions."""
    names = FACTORS_HEADER[1:]

    def parse_row(row, line):
        return [_parse_number(raw, path, line, name) / 100.0 for name, raw in zip(names, row[1:])]

    dates, rows = _read_table(path, FACTORS_HEADER, parse_row)
    if not dates:
        raise DataError("no factor rows", path=path)
    return FactorPanel(
        dates=tuple(dates),
        columns={name: np.array(col) for name, col in zip(names, zip(*rows))},
    )
