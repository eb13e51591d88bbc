import csv
import tracemalloc
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from robustts import ingest
from robustts.errors import DataError
from robustts.ingest import _parse_date, ingest_counts, ingest_factors, ingest_prices, ingest_rates
from robustts.series import FactorPanel

COUNTS_HEADER = "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestIngestCounts:
    def test_province_rows_summed(self, tmp_path):
        p = write(
            tmp_path,
            "c.csv",
            f"{COUNTS_HEADER}\nA,Xland,0,0,1,2\nB,Xland,0,0,3,4\n",
        )
        out = ingest_counts(p)
        assert np.array_equal(out["Xland"].values, [4, 6])
        assert out["Xland"].dates == (date(2020, 1, 22), date(2020, 1, 23))

    def test_single_row_pass_through(self, tmp_path):
        p = write(tmp_path, "c.csv", f"{COUNTS_HEADER}\n,Solo,1,1,5,9\n")
        assert np.array_equal(ingest_counts(p)["Solo"].values, [5, 9])

    def test_date_columns_out_of_order(self, tmp_path):
        header = "Province/State,Country/Region,Lat,Long,1/23/20,1/22/20"
        p = write(tmp_path, "c.csv", f"{header}\n,X,0,0,1,2\n")
        with pytest.raises(DataError, match="out of order"):
            ingest_counts(p)

    def test_malformed_header(self, tmp_path):
        p = write(tmp_path, "c.csv", "State,Country,Lat,Long,1/22/20\n,X,0,0,1\n")
        with pytest.raises(DataError, match="malformed header"):
            ingest_counts(p)

    def test_unparseable_number_names_location(self, tmp_path):
        p = write(tmp_path, "c.csv", f"{COUNTS_HEADER}\n,X,0,0,1,oops\n")
        with pytest.raises(DataError) as err:
            ingest_counts(p)
        msg = str(err.value)
        assert "line 2" in msg and "1/23/20" in msg and "oops" in msg

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_number_names_location(self, tmp_path, raw):
        p = write(tmp_path, "c.csv", f"{COUNTS_HEADER}\n,X,0,0,1,{raw}\n")
        with pytest.raises(DataError, match=f"non-finite number {raw!r}") as err:
            ingest_counts(p)
        assert (err.value.path, err.value.line, err.value.field) == (p, 2, "1/23/20")

    @pytest.mark.parametrize("raw, message", [
        ("abc", "unparseable number 'abc'"),
        ("inf", "non-finite number 'inf'"),
        ("nan", "non-finite number 'nan'"),
        ("-1", "negative cumulative count -1.0"),
    ])
    def test_bad_value_names_line_and_column(self, tmp_path, raw, message):
        # the second of three rows, the second date column
        p = write(tmp_path, "c.csv", f"{COUNTS_HEADER}\n,X,0,0,1,2\n,Y,0,0,3,{raw}\n,Z,0,0,5,6\n")
        with pytest.raises(DataError) as err:
            ingest_counts(p)
        assert str(err.value) == f"file {p}, line 3, field '1/23/20': {message}"

    def test_values_read_by_float(self, tmp_path):
        fields = [" 5", "1e3", "+2", "1_000", "7.25", "-0"]
        header = "Province/State,Country/Region,Lat,Long," + ",".join(f"1/{d}/20" for d in range(1, 7))
        p = write(tmp_path, "c.csv", f"{header}\n,X,0,0,{','.join(fields)}\n")
        assert ingest_counts(p)["X"].values.tolist() == [float(f) for f in fields]

    def test_negative_count_rejected(self, tmp_path):
        p = write(tmp_path, "c.csv", f"{COUNTS_HEADER}\n,X,0,0,1,-2\n")
        with pytest.raises(DataError, match="negative cumulative"):
            ingest_counts(p)

    def test_reproducible_from_same_bytes(self, data_dir):
        a = ingest_counts(data_dir / "counts_infections.csv")
        b = ingest_counts(data_dir / "counts_infections.csv")
        assert list(a) == list(b)
        for name in a:
            assert a[name].dates == b[name].dates
            assert np.array_equal(a[name].values, b[name].values)

    def test_countries_sorted(self, data_dir):
        names = list(ingest_counts(data_dir / "counts_infections.csv"))
        assert names == sorted(names)


class TestIngestPrices:
    HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"

    def test_reads_adj_close(self, tmp_path):
        p = write(
            tmp_path,
            "p.csv",
            f"{self.HEADER}\n2020-01-02,1,1,1,1,100.5,10\n2020-01-03,1,1,1,1,101.25,10\n",
        )
        s = ingest_prices(p)
        assert np.array_equal(s.values, [100.5, 101.25])

    def test_null_rows_skipped(self, tmp_path):
        p = write(
            tmp_path,
            "p.csv",
            f"{self.HEADER}\n2020-01-02,1,1,1,1,100,10\n"
            "2020-01-03,null,null,null,null,null,null\n"
            "2020-01-06,1,1,1,1,,10\n"
            "2020-01-07,1,1,1,1,104,10\n",
        )
        s = ingest_prices(p)
        assert np.array_equal(s.values, [100, 104])
        assert s.dates == (date(2020, 1, 2), date(2020, 1, 7))

    def test_non_monotone_dates(self, tmp_path):
        p = write(
            tmp_path,
            "p.csv",
            f"{self.HEADER}\n2020-01-03,1,1,1,1,100,10\n2020-01-02,1,1,1,1,101,10\n",
        )
        with pytest.raises(DataError, match="out of order"):
            ingest_prices(p)

    def test_header_checked(self, tmp_path):
        p = write(tmp_path, "p.csv", "Date,Close\n2020-01-02,3\n")
        with pytest.raises(DataError, match="malformed header"):
            ingest_prices(p)


class TestIngestRates:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "r.csv", "date,rate_pct\n2020-01-02,1.50\n2020-03-16,0.25\n")
        s = ingest_rates(p)
        assert np.array_equal(s.values, [1.5, 0.25])

    def test_bad_number_has_context(self, tmp_path):
        p = write(tmp_path, "r.csv", "date,rate_pct\n2020-01-02,zzz\n")
        with pytest.raises(DataError) as err:
            ingest_rates(p)
        assert "rate_pct" in str(err.value) and "line 2" in str(err.value)


@pytest.mark.parametrize("read, text, field", [
    (ingest_prices, "Date,Open,High,Low,Close,Adj Close,Volume\n2020-01-02,1,1,1,1, zzz ,10\n", "Adj Close"),
    (ingest_rates, "date,rate_pct\n2020-01-02, zzz \n", "rate_pct"),
    (ingest_factors, "date,Mkt.RF,SMB,HML,MOM,RMW,CMA,RF\n2020-01-02,1,1, zzz ,1,1,1,1\n", "HML"),
], ids=("prices", "rates", "factors"))
def test_padded_bad_number_is_quoted_stripped(tmp_path, read, text, field):
    p = write(tmp_path, "t.csv", text)
    with pytest.raises(DataError) as err:
        read(p)
    assert str(err.value) == f"file {p}, line 2, field {field!r}: unparseable number 'zzz'"


def contents(read):
    """Dates and value bytes of whatever an ingest function returned."""
    if isinstance(read, dict):
        return {name: contents(s) for name, s in read.items()}
    if isinstance(read, FactorPanel):
        return read.dates, {name: col.tobytes() for name, col in read.columns.items()}
    return read.dates, read.values.tobytes()


@pytest.mark.parametrize("name, read", [
    ("counts_infections.csv", ingest_counts),
    ("prices/Arcadia_AVX.csv", ingest_prices),
    ("rates.csv", ingest_rates),
    ("factors.csv", ingest_factors),
], ids=("counts", "prices", "rates", "factors"))
def test_byte_order_mark_is_skipped(data_dir, tmp_path, name, read):
    # spreadsheet programs save "CSV UTF-8" with a leading BOM
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (data_dir / name).read_bytes())
    assert contents(read(bom)) == contents(read(data_dir / name))


def wide_counts(rows=300, days=1000, start=date(2020, 1, 22)) -> list[str]:
    """The lines of a counts file: ``rows`` provinces, two to a country, over ``days`` dates."""
    dates = [start + timedelta(days=i) for i in range(days)]
    header = "Province/State,Country/Region,Lat,Long," + ",".join(f"{d.month}/{d.day}/{d:%y}" for d in dates)
    return [header] + [
        f"P{r},Land{r // 2:03d},1.5,-2.5," + ",".join(str(37 * r + 11 * i) for i in range(days))
        for r in range(rows)
    ]


def long_factors(rows=20_000, start=date(1950, 1, 2)) -> list[str]:
    """The lines of a factors file of ``rows`` days."""
    return ["date,Mkt.RF,SMB,HML,MOM,RMW,CMA,RF"] + [
        (start + timedelta(days=r)).isoformat() + ","
        + ",".join(f"{(7 * r + 31 * c) % 401 / 100 - 2:.2f}" for c in range(7))
        for r in range(rows)
    ]


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def listed_rows(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return list(csv.reader(fh))


class TestStreaming:
    # a reader holds one row's strings at a time besides the values it parsed,
    # so it peaks far below a list of every row
    @pytest.mark.parametrize("lines, read", [
        (wide_counts, ingest_counts),
        (long_factors, ingest_factors),
    ], ids=("counts", "factors"))
    def test_traced_peak_under_a_third_of_every_row_listed(self, tmp_path, lines, read):
        p = write(tmp_path, "big.csv", "\n".join(lines()) + "\n")
        read(p)  # first-use caches (regular expressions, codecs) are not the reader's
        listed = traced_peak(lambda: listed_rows(p))
        assert traced_peak(lambda: read(p)) < listed / 3

    def test_earlier_fault_named_before_a_later_bad_byte(self, tmp_path):
        # a negative count on line 3 and, about 200 KB on, a byte that is not UTF-8
        lines = wide_counts(rows=200, days=200, start=date(2020, 1, 1))
        lines[2] = lines[2].replace(",1.5,-2.5,37,", ",1.5,-2.5,-1,")
        data = "\n".join(lines).encode("utf-8") + b"\n,Land\xff,0,0" + b",1" * 200 + b"\n"
        assert data.index(b"\xff") > 200_000
        p = tmp_path / "c.csv"
        p.write_bytes(data)
        with pytest.raises(DataError) as err:
            ingest_counts(p)
        assert str(err.value) == f"file {p}, line 3, field '1/1/20': negative cumulative count -1.0"

    def test_bad_byte_in_the_first_row_is_a_decode_error(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(f"{COUNTS_HEADER}\xff\n,X,0,0,1,2\n,Y,0,0,3,-4\n".encode("latin-1"))
        with pytest.raises(DataError, match="'utf-8' codec can't decode byte 0xff") as err:
            ingest_counts(p)
        assert (err.value.path, err.value.line, err.value.field) == (p, None, None)


@pytest.mark.parametrize("read, header, no_rows", [
    (ingest_counts, COUNTS_HEADER, "no data rows"),
    (ingest_prices, "Date,Open,High,Low,Close,Adj Close,Volume", "no usable price rows"),
    (ingest_rates, "date,rate_pct", "no rate rows"),
    (ingest_factors, "date,Mkt.RF,SMB,HML,MOM,RMW,CMA,RF", "no factor rows"),
], ids=("counts", "prices", "rates", "factors"))
def test_empty_and_header_only_files(tmp_path, read, header, no_rows):
    for text, message in (("", "empty file"), (f"{header}\n\n", no_rows)):
        p = write(tmp_path, "e.csv", text)
        with pytest.raises(DataError) as err:
            read(p)
        assert str(err.value) == f"file {p}: {message}"


class TestFileHandles:
    # the reader is a generator suspended inside its ``with open``; each file
    # must close when the read ends, not when a traceback that still holds the
    # generator is collected, so every check runs while ``err`` is alive
    @pytest.fixture()
    def opened(self, monkeypatch):
        handles = []

        def tracked_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(ingest, "open", tracked_open, raising=False)
        return handles

    @pytest.mark.parametrize("read, name", [
        (ingest_counts, "counts_infections.csv"),
        (ingest_prices, "prices/Arcadia_AVX.csv"),
        (ingest_rates, "rates.csv"),
        (ingest_factors, "factors.csv"),
    ], ids=("counts", "prices", "rates", "factors"))
    def test_closed_after_a_read(self, data_dir, opened, read, name):
        read(data_dir / name)
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("data, message", [
        (b"State,Country,Lat,Long,1/22/20\n,X,0,0,1\n,Y,0,0,2\n", "malformed header"),
        (f"{COUNTS_HEADER}\n,X,0,0,1,2\n,Y,0,0,3,oops\n,Z,0,0,5,6\n".encode(), "line 3, field '1/23/20'"),
        ("\n".join(wide_counts(rows=50)).encode() + b"\n,\xff,0,0" + b",1" * 1000 + b"\n", "can't decode byte 0xff"),
    ], ids=("malformed-header", "bad-number-on-line-3", "read-error-partway"))
    def test_closed_after_an_error(self, tmp_path, opened, data, message):
        p = tmp_path / "c.csv"
        p.write_bytes(data)
        with pytest.raises(DataError, match=message) as err:
            ingest_counts(p)
        assert err.value.path == p
        assert len(opened) == 1 and opened[0].closed

    def test_closed_after_a_table_error(self, tmp_path, opened):
        p = write(tmp_path, "r.csv", "date,rate_pct\n2020-01-02,1.5\n2020-01-03,zzz\n2020-01-06,2\n")
        with pytest.raises(DataError, match="line 3, field 'rate_pct'") as err:
            ingest_rates(p)
        assert err.value.path == p
        assert len(opened) == 1 and opened[0].closed


class TestIngestFactors:
    def test_percent_to_fraction(self, tmp_path):
        p = write(
            tmp_path,
            "f.csv",
            "date,Mkt.RF,SMB,HML,MOM,RMW,CMA,RF\n2020-01-02,1.0,0.5,-0.25,0,0,0,0.006\n",
        )
        panel = ingest_factors(p)
        assert panel.columns["Mkt.RF"][0] == pytest.approx(0.01)
        assert panel.columns["HML"][0] == pytest.approx(-0.0025)
        assert panel.columns["RF"][0] == pytest.approx(0.00006)

    def test_header_exact(self, tmp_path):
        p = write(tmp_path, "f.csv", "date,MktRF,SMB\n2020-01-02,1,1\n")
        with pytest.raises(DataError, match="malformed header"):
            ingest_factors(p)

    def test_fixture_panel_loads(self, data_dir):
        panel = ingest_factors(data_dir / "factors.csv")
        assert set(panel.columns) == {"Mkt.RF", "SMB", "HML", "MOM", "RMW", "CMA", "RF"}
        assert len(panel.dates) == len(panel.columns["RF"])


def strptime_or_error(text):
    try:
        return datetime.strptime(text.strip(), "%Y-%m-%d").date()
    except ValueError:
        return "rejected"


def parse_or_error(text):
    try:
        return _parse_date(text, "%Y-%m-%d", "f.csv", 2, "Date")
    except DataError as exc:
        assert str(exc) == f"file f.csv, line 2, field 'Date': unparseable date {text!r}"
        return "rejected"


class TestIsoDates:
    # _parse_date takes the exact YYYY-MM-DD shape through date.fromisoformat
    # and every other string through strptime; the accepted set is strptime's
    @pytest.mark.parametrize("text, expected", [
        ("20200101", "rejected"),  # fromisoformat takes these two
        ("2020-W01-1", "rejected"),
        ("2020-1-5", date(2020, 1, 5)),  # fromisoformat rejects these two
        ("\uff12\uff10\uff12\uff10-01-05", date(2020, 1, 5)),  # fullwidth digits
        ("2020-02-30", "rejected"),
        ("0000-01-01", "rejected"),
        (" 2020-02-29 ", date(2020, 2, 29)),
    ])
    def test_matches_strptime(self, text, expected):
        assert strptime_or_error(text) == expected
        assert parse_or_error(text) == expected

    def test_every_day_from_1900_to_2100(self):
        day, last = date(1900, 1, 1), date(2100, 12, 31)
        while day <= last:
            assert _parse_date(day.isoformat(), "%Y-%m-%d", "f.csv", 2, "Date") == day
            day += timedelta(days=1)

    def test_edge_grid_matches_strptime(self):
        for y in ("0001", "1899", "1900", "2000", "2020", "2100", "9999"):
            for m in ("00", "01", "02", "12", "13"):
                for d in ("00", "01", "28", "29", "30", "31", "32"):
                    text = f"{y}-{m}-{d}"
                    assert parse_or_error(text) == strptime_or_error(text), text


def us_strptime_or_error(text):
    try:
        return datetime.strptime(text.strip(), "%m/%d/%y").date()
    except ValueError:
        return "rejected"


def us_parse_or_error(text):
    try:
        return _parse_date(text, "%m/%d/%y", "f.csv", 1, "column 5")
    except DataError as exc:
        assert str(exc) == f"file f.csv, line 1, field 'column 5': unparseable date {text!r}"
        return "rejected"


class TestUsDates:
    # _parse_date takes the digit shapes of strptime's %m/%d/%y fields through
    # a regular expression and every other string through strptime; the
    # accepted set and the dates are strptime's
    PARTS = ("", "0", "00", "1", "01", "2", "02", "9", "09", "10", "12", "13", "19", "20", "28", "29",
             "30", "31", "32", "68", "69", "99", " 1", "1 ", "2020", "001", "\u0661", "\uff11", "a")

    def test_shape_grid_matches_strptime(self):
        for m in self.PARTS:
            for d in self.PARTS:
                for y in self.PARTS:
                    text = f"{m}/{d}/{y}"
                    assert us_parse_or_error(text) == us_strptime_or_error(text), text

    @pytest.mark.parametrize("text", [
        "1/22/20", " 1/22/20 ", "1-22-20", "1/22/2020", "2/29/21", "2/29/20", "1/22",
    ])
    def test_other_separators_and_padding(self, text):
        assert us_parse_or_error(text) == us_strptime_or_error(text)

    def test_every_day_of_the_century_pivot(self):
        # %y reads 69-99 as 19xx and 00-68 as 20xx
        day, last = date(1969, 1, 1), date(2068, 12, 31)
        while day <= last:
            for text in (f"{day.month}/{day.day}/{day:%y}", day.strftime("%m/%d/%y")):
                assert _parse_date(text, "%m/%d/%y", "f.csv", 1, "column 5") == day, text
            day += timedelta(days=1)
