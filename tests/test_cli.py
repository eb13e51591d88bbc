import hashlib
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from robustts import cli
from robustts.cli import main
from robustts.errors import DataError
from robustts.report import Table

COUNTS_HEADER = "Province/State,Country/Region,Lat,Long,1/22/20"


def run(argv):
    return main([str(a) for a in argv])


def truncated_factors(data_dir, path, rows):
    """The fixture factor panel cut to its first ``rows`` data rows."""
    lines = (data_dir / "factors.csv").read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[: rows + 1]) + "\n", encoding="utf-8")
    return path


def prices_with_tiny_adj_close(data_dir, prices, adj_close):
    """A price directory holding the AVX fixture with one ``Adj Close`` replaced."""
    lines = (data_dir / "prices" / "Arcadia_AVX.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[10].split(",")
    fields[5] = adj_close
    lines[10] = ",".join(fields)
    prices.mkdir()
    (prices / "Arcadia_AVX.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return prices


def write_counts(path, countries):
    """A counts file with one row of cumulative counts per country, daily from 2020-01-22."""
    start = date(2020, 1, 22)
    days = len(next(iter(countries.values())))
    dates = [start + timedelta(days=i) for i in range(days)]
    header = "Province/State,Country/Region,Lat,Long," + ",".join(
        f"{d.month}/{d.day}/{d.strftime('%y')}" for d in dates
    )
    rows = [f",{name},0,0," + ",".join(str(v) for v in values) for name, values in countries.items()]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def write_degenerate_counts(path, values):
    """A counts file holding one country's cumulative counts, daily from 2020-01-22."""
    write_counts(path, {"Flatland": values})


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["unitroot"])  # --counts missing
        assert exc.value.code == 2

    def test_seed_required_with_bootstrap(self, data_dir):
        with pytest.raises(SystemExit) as exc:
            run(["unitroot", "--counts", data_dir / "counts_infections.csv", "--B", "99"])
        assert exc.value.code == 2

    def test_negative_b_is_usage_error(self, data_dir, tmp_path):
        out = tmp_path / "ur.csv"
        with pytest.raises(SystemExit) as exc:
            run(["unitroot", "--counts", data_dir / "counts_infections.csv",
                 "--B", "-5", "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_b_below_minimum_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["unitroot", "--counts", data_dir / "counts_infections.csv",
                 "--B", "50", "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: robustts unitroot")
        assert "--B" in err

    @pytest.mark.parametrize("grid", [
        ["--grid-steps", "0"],
        ["--grid-lo", "0"],
        ["--grid-lo", "0.5", "--grid-hi", "0.1"],
        ["--grid-hi", "inf"],
        ["--grid-hi", "1.5"],
    ])
    def test_bad_grid_is_usage_error(self, data_dir, tmp_path, capsys, grid):
        out = tmp_path / "curves"
        with pytest.raises(SystemExit) as exc:
            run(["tailindex", "--counts", data_dir / "counts_infections.csv",
                 "--out", out, *grid])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: robustts tailindex")
        assert "--grid-" in err
        assert not out.exists()

    @pytest.mark.parametrize("qs, message", [
        ("1,4", "q values must be >= 2"),
        ("4,4", "q values must not repeat"),
        ("4,8,4", "q values must not repeat"),
        ("4,x", "argument --q: bad q list '4,x'"),
    ])
    def test_bad_q_is_usage_error(self, data_dir, tmp_path, capsys, qs, message):
        out = tmp_path / "pred.csv"
        with pytest.raises(SystemExit) as exc:
            run(["predict", "--counts", data_dir / "counts_infections.csv",
                 "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
                 "--q", qs, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: robustts predict")
        assert message in err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["unitroot", "--counts", data_dir / "counts_infections.csv", "--B", "0", "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: robustts unitroot")
        assert err.endswith("error: --seed must be non-negative\n")

    @pytest.mark.parametrize("text, message", [
        ("", ": empty file"),
        ("Province/State,Country/Region,Lat,Long\n,X,0,0\n", ", line 1: no date columns"),
        (f"{COUNTS_HEADER}\n,X,0,0,1\nA, ,0,0,2\n", ", line 3, field 'Country/Region': empty country name"),
        (f"{COUNTS_HEADER}\n\n", ": no data rows"),
    ], ids=("empty", "no-dates", "no-country", "no-rows"))
    def test_unusable_counts_file_is_3(self, tmp_path, capsys, text, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(text, encoding="utf-8")
        assert run(["unitroot", "--counts", counts, "--B", "0"]) == 3
        assert capsys.readouterr().err == f"error: file {counts}{message}\n"

    @pytest.mark.parametrize("name, text, argv, message", [
        ("prices/Arcadia_AVX.csv",
         "Date,Open,High,Low,Close,Adj Close,Volume\n2020-01-02,null,null,null,null,null,null\n",
         ["factors", "--prices-dir", "{tmp}/prices", "--factors", "{data}/factors.csv"],
         "no usable price rows"),
        ("rates.csv", "date,rate_pct\n",
         ["predict", "--counts", "{data}/counts_infections.csv", "--prices-dir", "{data}/prices",
          "--rates", "{tmp}/rates.csv"],
         "no rate rows"),
        ("factors.csv", "date,Mkt.RF,SMB,HML,MOM,RMW,CMA,RF\n\n",
         ["factors", "--prices-dir", "{data}/prices", "--index", "AVX", "--factors", "{tmp}/factors.csv"],
         "no factor rows"),
    ], ids=("prices", "rates", "factors"))
    def test_long_format_file_with_no_kept_row_is_3(
        self, data_dir, tmp_path, capsys, name, text, argv, message
    ):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        assert run([a.format(tmp=tmp_path, data=data_dir) for a in argv]) == 3
        assert capsys.readouterr().err == f"error: file {path}: {message}\n"

    def test_empty_prices_dir_is_3(self, data_dir, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        assert run(["factors", "--prices-dir", prices, "--factors", data_dir / "factors.csv"]) == 3
        assert capsys.readouterr().err == f"error: no price files in {prices}\n"

    def test_price_file_name_without_underscore_is_3(self, data_dir, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        (prices / "AVX.csv").write_bytes((data_dir / "prices" / "Arcadia_AVX.csv").read_bytes())
        assert run(["factors", "--prices-dir", prices, "--factors", data_dir / "factors.csv"]) == 3
        assert capsys.readouterr().err == (
            f"error: file {prices / 'AVX.csv'}, field 'file name': "
            "price file name must be <Country>_<Index>.csv\n"
        )

    def test_data_error_is_3_and_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n", encoding="utf-8")
        code = run(["unitroot", "--counts", bad, "--B", "99", "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.csv" in err and "header" in err

    def test_unknown_country_is_3(self, data_dir, capsys):
        code = run([
            "unitroot", "--counts", data_dir / "counts_infections.csv",
            "--B", "99", "--seed", "1", "--country", "Atlantis",
        ])
        assert code == 3
        assert "Atlantis" in capsys.readouterr().err

    @pytest.mark.parametrize("selection, missing", [
        (["--index", "AVX,NOPE"], "indices not in price files: NOPE"),
        (["--index", "NOPE,AVX,ZZZ"], "indices not in price files: NOPE, ZZZ"),
        (["--country", "Arcadia,Atlantis"], "countries not in price files: Atlantis"),
        (["--index", "AVX", "--country", "Atlantis"], "countries not in price files: Atlantis"),
    ])
    def test_predict_selection_matching_no_file_is_3(self, data_dir, tmp_path, capsys, selection, missing):
        out = tmp_path / "pred.csv"
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
            *selection, "--out", out,
        ])
        assert code == 3
        assert missing in capsys.readouterr().err
        assert not out.exists()

    def test_factors_index_matching_no_price_file_is_3(self, data_dir, tmp_path, capsys):
        out = tmp_path / "fac.csv"
        code = run([
            "factors", "--prices-dir", data_dir / "prices", "--index", "AVX,NOPE",
            "--factors", data_dir / "factors.csv", "--out", out,
        ])
        assert code == 3
        assert "indices not in price files: NOPE" in capsys.readouterr().err
        assert not out.exists()

    def test_selection_of_existing_values_matching_no_file_is_3(self, data_dir, tmp_path, capsys):
        # AVX and Borduria each name a price file, but no file is both
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
            "--index", "AVX", "--country", "Borduria", "--out", tmp_path / "pred.csv",
        ])
        assert code == 3
        assert "no price files match" in capsys.readouterr().err

    def test_tailindex_data_error_leaves_no_out_dir(self, data_dir, tmp_path):
        out = tmp_path / "curves"
        code = run(["tailindex", "--counts", data_dir / "counts_infections.csv",
                    "--country", "Atlantis", "--out", out])
        assert code == 3
        assert not out.exists()

    def test_tailindex_file_name_clash_is_3(self, data_dir, tmp_path, capsys):
        # "Terra Nova" and "Terra_Nova" both name their curves Terra_Nova_*
        lines = (data_dir / "counts_deaths.csv").read_text(encoding="utf-8").splitlines()
        borduria = next(line for line in lines if ",Borduria," in line)
        counts = tmp_path / "clash.csv"
        counts.write_text("\n".join([
            *lines, borduria.replace("Borduria", "Terra Nova"), borduria.replace("Borduria", "Terra_Nova"),
        ]) + "\n", encoding="utf-8")
        out = tmp_path / "curves"
        code = run(["tailindex", "--counts", counts, "--target", "deaths", "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "'Terra Nova'" in err and "'Terra_Nova'" in err
        assert not out.exists()

    def test_numerical_failure_is_4(self, tmp_path, capsys):
        # constant first difference: the lag search is singular
        counts = tmp_path / "flat.csv"
        write_degenerate_counts(counts, [i + 1 for i in range(60)])
        code = run(["unitroot", "--counts", counts, "--B", "99", "--seed", "1"])
        assert code == 4
        assert capsys.readouterr().err == "numerical failure: singular ADF regression\n"

    def test_exact_lag_fit_is_4(self, tmp_path, capsys):
        # first difference 0, 1, 0, 1, ...: the lag-0 MAIC regression fits exactly
        counts = tmp_path / "zigzag.csv"
        write_degenerate_counts(counts, [(i + 1) // 2 for i in range(60)])
        code = run(["unitroot", "--counts", counts, "--B", "99", "--seed", "1"])
        assert code == 4
        assert capsys.readouterr().err == "numerical failure: degenerate ADF regression at lag 0\n"

    @pytest.mark.parametrize("B", ["0", "99"])
    def test_first_failing_series_in_file_order_names_the_error(self, tmp_path, capsys, B):
        # Boreal d1 (58 values, a lag-0 exact fit) fails first in table order;
        # Cascadia d1 (59 constant values, a singular lag search) has the
        # length of Arcadia d1, the first series, so a stacked run reaches it first
        counts = tmp_path / "mixed.csv"
        walk = [int(v) for v in np.cumsum(np.random.default_rng(6).integers(50, 150, 60))]
        write_counts(counts, {
            "Arcadia": walk,
            "Boreal": [(i + 1) // 2 for i in range(60)],
            "Cascadia": [i + 1 for i in range(60)],
        })
        code = run(["unitroot", "--counts", counts, "--B", B, "--seed", "1"])
        assert code == 4
        assert capsys.readouterr().err == "numerical failure: degenerate ADF regression at lag 0\n"
        write_counts(counts, {"Arcadia": walk, "Cascadia": [i + 1 for i in range(60)]})
        assert run(["unitroot", "--counts", counts, "--B", B, "--seed", "1"]) == 4
        assert capsys.readouterr().err == "numerical failure: singular ADF regression\n"

    def test_short_battery_series_is_3(self, tmp_path, capsys):
        # a 24-day positive window leaves 23 first differences
        counts = tmp_path / "short.csv"
        write_degenerate_counts(counts, [(i + 1) ** 2 for i in range(24)])
        code = run(["unitroot", "--counts", counts, "--B", "0"])
        assert code == 3
        assert capsys.readouterr().err == "error: battery needs at least 25 observations, got 23\n"

    def test_short_bootstrap_replicates_is_3(self, tmp_path, capsys):
        # first differences are a T=27 random walk whose MAIC lag is 2, so the
        # sieve leaves 24 residuals per replicate
        counts = tmp_path / "walk.csv"
        write_degenerate_counts(counts, [
            1, 993, 1972, 2948, 3928, 4920, 5913, 6900, 7880, 8867, 9870, 10876, 11870, 12854,
            13854, 14856, 15841, 16825, 17797, 18763, 19724, 20678, 21638, 22597, 23550, 24507,
            25473, 26422,
        ])
        assert run(["unitroot", "--counts", counts, "--B", "0"]) == 0
        capsys.readouterr()
        code = run(["unitroot", "--counts", counts, "--B", "99", "--seed", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: bootstrap series would have 24 observations; need at least 25\n"
        )

    def test_short_tail_sample_is_3(self, tmp_path, capsys):
        # 21 convex counts leave 19 positive second differences
        counts = tmp_path / "short.csv"
        write_degenerate_counts(counts, [(i + 1) ** 2 for i in range(21)])
        code = run(["tailindex", "--counts", counts, "--out", tmp_path / "curves"])
        assert code == 3
        assert capsys.readouterr().err == "error: need n >= 40 for a truncation grid, got 19\n"

    @pytest.mark.parametrize("covered, message", [
        (0, "only 0 return dates covered by the factor panel"),
        (8, "need at least 10 observations, got 8"),
        (9, "need at least 10 observations, got 9"),
    ], ids=("0", "8", "9"))
    def test_short_factor_panel_is_3(self, data_dir, tmp_path, capsys, covered, message):
        # prices start on the panel's first date, so returns cover one date fewer
        panel = truncated_factors(data_dir, tmp_path / "factors.csv", covered + 1)
        code = run(["factors", "--prices-dir", data_dir / "prices", "--index", "AVX",
                    "--factors", panel])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_factor_q_above_half_sample_is_3(self, data_dir, tmp_path, capsys):
        panel = truncated_factors(data_dir, tmp_path / "factors.csv", 20)
        code = run(["factors", "--prices-dir", data_dir / "prices", "--index", "AVX",
                    "--factors", panel, "--q", "12"])
        assert code == 3
        assert capsys.readouterr().err == "error: q=12 too large for T=19 (need q <= T/2)\n"

    @pytest.mark.parametrize("rows, message", [
        (20, "q=4 leaves blocks of 4 observations for 4 parameters"),
        (30, "q=4 leaves blocks of 7 observations for 7 parameters"),
    ], ids=("20", "30"))
    def test_factor_blocks_no_longer_than_k_are_3(self, data_dir, tmp_path, capsys, rows, message):
        # 19 returns in blocks of 4 for the 3F model, 29 in blocks of 7 for the 6F model
        panel = truncated_factors(data_dir, tmp_path / "factors.csv", rows)
        code = run(["factors", "--prices-dir", data_dir / "prices", "--index", "AVX",
                    "--factors", panel, "--q", "4", "--out", tmp_path / "f.csv"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("rows", [36, 40])
    def test_factor_blocks_longer_than_k_are_0(self, data_dir, tmp_path, rows):
        panel = truncated_factors(data_dir, tmp_path / "factors.csv", rows)
        code = run(["factors", "--prices-dir", data_dir / "prices", "--index", "AVX",
                    "--factors", panel, "--q", "4", "--out", tmp_path / "f.csv"])
        assert code == 0
        assert (tmp_path / "f.csv").exists()

    def test_predict_q_above_half_sample_is_3(self, data_dir, capsys):
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
            "--q", "4,200",
        ])
        assert code == 3
        assert capsys.readouterr().err == "error: q=200 too large for T=135 (need q <= T/2)\n"

    @pytest.mark.parametrize("province, encoding, message", [
        ("Z\xfcrich", "latin-1",
         "'utf-8' codec can't decode byte 0xfc in position 48: invalid start byte"),
        ("x" * 200_000, "utf-8", "field larger than field limit (131072)"),
    ], ids=("not-utf8", "csv-field-limit"))
    def test_unreadable_file_is_3(self, tmp_path, capsys, province, encoding, message):
        counts = tmp_path / "counts.csv"
        counts.write_bytes(
            f"Province/State,Country/Region,Lat,Long,1/22/20\n{province},Flatland,0,0,1\n"
            .encode(encoding)
        )
        code = run(["unitroot", "--counts", counts, "--B", "0"])
        assert code == 3
        assert capsys.readouterr().err == f"error: file {counts}: {message}\n"

    def test_program_bug_is_not_a_data_error(self, data_dir, monkeypatch, capsys):
        def bad_table(entries, title):
            return Table(title=title, headers=("series",), rows=(("a", "b"),))

        monkeypatch.setattr(cli, "unitroot_table", bad_table)
        with pytest.raises(ValueError) as exc:
            run(["unitroot", "--counts", data_dir / "counts_infections.csv",
                 "--B", "0", "--country", "Borduria"])
        assert not isinstance(exc.value, DataError)
        assert capsys.readouterr().err == ""

    def test_parse_error_location_reported(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("date,rate_pct\n2020-01-02,abc\n", encoding="utf-8")
        code = run([
            "predict", "--counts", p, "--prices-dir", tmp_path, "--rates", p,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "r.csv" in err

    def test_overflowing_province_sum_is_3(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(
            "Province/State,Country/Region,Lat,Long,1/22/20,1/23/20\n"
            "North,Flatland,0,0,1,1e308\n"
            "South,Flatland,0,0,1,1e308\n",
            encoding="utf-8",
        )
        code = run(["unitroot", "--counts", counts, "--B", "0"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: file {counts}, line 3, field '1/23/20': province sum for Flatland overflows\n"
        )

    def test_overflowing_second_difference_is_3(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_degenerate_counts(counts, [1.7e308 if i % 2 == 0 else 0 for i in range(60)])
        code = run(["tailindex", "--counts", counts, "--out", tmp_path / "curves"])
        assert code == 3
        assert capsys.readouterr().err == "error: difference of order 2 overflows on 2020-01-24\n"
        assert not (tmp_path / "curves").exists()

    def test_overflowing_return_is_3(self, data_dir, tmp_path, capsys):
        prices = tmp_path / "prices"
        prices.mkdir()
        (prices / "Flatland_FLX.csv").write_text(
            "Date,Open,High,Low,Close,Adj Close,Volume\n"
            "2020-01-22,1,1,1,1,1e-300,1\n"
            "2020-01-23,1,1,1,1,1e300,1\n",
            encoding="utf-8",
        )
        code = run(["factors", "--prices-dir", prices, "--factors", data_dir / "factors.csv"])
        assert code == 3
        assert capsys.readouterr().err == "error: return overflows on 2020-01-23\n"

    @pytest.mark.parametrize("command, kind", [
        ("unitroot", "directory"),
        ("predict", "directory"),
        ("factors", "directory"),
        ("tailindex", "file"),
    ])
    def test_unwritable_out_is_usage_error(self, data_dir, tmp_path, capsys, command, kind):
        out = tmp_path / "taken"
        if kind == "directory":
            out.mkdir()
        else:
            out.write_text("keep\n", encoding="utf-8")
        counts, prices = data_dir / "counts_infections.csv", data_dir / "prices"
        rates, factors = data_dir / "rates.csv", data_dir / "factors.csv"
        inputs = {
            "unitroot": ["--counts", counts, "--B", "0"],
            "tailindex": ["--counts", counts],
            "predict": ["--counts", counts, "--prices-dir", prices, "--rates", rates],
            "factors": ["--prices-dir", prices, "--index", "AVX", "--factors", factors],
        }
        with pytest.raises(SystemExit) as exc:
            run([command, *inputs[command], "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: robustts {command}")
        assert f"--out {out} is a {kind}" in err
        if kind == "directory":
            assert list(out.iterdir()) == []
        else:
            assert out.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("command, below", [
        ("unitroot", "x.csv"),
        ("tailindex", "d/e"),
    ])
    def test_out_under_a_file_is_usage_error(self, data_dir, tmp_path, capsys, command, below):
        taken = tmp_path / "taken"
        taken.write_text("keep\n", encoding="utf-8")
        out = taken / below
        extra = ["--B", "0"] if command == "unitroot" else []
        with pytest.raises(SystemExit) as exc:
            run([command, "--counts", data_dir / "counts_infections.csv", *extra, "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: robustts {command}")
        assert f"--out {out} lies under {taken}, which is not a directory" in err
        assert taken.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("adj_close, message", [
        ("1e-300", "classical residual variance overflows: the residuals are too large"),
    ])
    def test_overflowing_factor_fit_is_4(self, data_dir, tmp_path, capsys, adj_close, message):
        # one Adj Close of 1e-300 makes the next return about 1e302
        prices = prices_with_tiny_adj_close(data_dir, tmp_path / "prices", adj_close)
        code = run(["factors", "--prices-dir", prices, "--factors", data_dir / "factors.csv"])
        assert code == 4
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("B", ["0", "99"])
    @pytest.mark.parametrize("count", ["1e153", "1e155"])
    def test_overflowing_battery_is_4(self, data_dir, tmp_path, capsys, count, B):
        # one Borduria count this large makes the battery's sums of squares overflow
        lines = (data_dir / "counts_infections.csv").read_text(encoding="utf-8").splitlines()
        column = lines[0].split(",").index("4/27/20")
        row = next(i for i, line in enumerate(lines) if line.split(",")[1] == "Borduria")
        fields = lines[row].split(",")
        fields[column] = count
        lines[row] = ",".join(fields)
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "ur.csv"
        code = run(["unitroot", "--counts", counts, "--B", B, "--seed", "1", "--out", out])
        assert code == 4
        assert capsys.readouterr().err == (
            "numerical failure: unit-root battery overflows: the series values are too large\n"
        )
        assert not out.exists()

    def test_tiny_adj_close_factor_fit_is_0(self, data_dir, tmp_path, capsys):
        # returns of about 1e82 and 1e152: the HAC t-statistics are scale
        # invariant, and the bandwidth rescales its scores exactly
        hac_cells = []
        for adj_close in ("1e-80", "1e-150"):
            prices = prices_with_tiny_adj_close(data_dir, tmp_path / adj_close, adj_close)
            assert run(["factors", "--prices-dir", prices, "--factors", data_dir / "factors.csv"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[1].startswith("Mkt.RF,")
            hac_cells.append(lines[3].split(",")[1:])
        assert hac_cells[0] == hac_cells[1] == ["(1.012)", "(1.014)", "(1.019)", "(1.019)", "(1.024)"]

    @pytest.mark.parametrize("command, existing", [("unitroot", False), ("tailindex", True)])
    def test_unwritable_out_directory_is_usage_error(
        self, data_dir, tmp_path, capsys, monkeypatch, command, existing
    ):
        # root ignores permission bits, so the check is made to fail instead
        checked = []

        def deny(path, mode):
            checked.append((path, mode))
            return False

        monkeypatch.setattr(cli.os, "access", deny)
        home = tmp_path / "home"
        home.mkdir()
        out = home if existing else home / "new" / "ur.csv"
        extra = ["--B", "0"] if command == "unitroot" else []
        with pytest.raises(SystemExit) as exc:
            run([command, "--counts", data_dir / "counts_infections.csv", *extra, "--out", out])
        assert exc.value.code == 2
        assert checked == [(home, os.W_OK)]
        err = capsys.readouterr().err
        assert err.startswith(f"usage: robustts {command}") and err.count("usage:") == 1
        assert f"--out {out} lies in {home}, which is not writable" in err
        assert list(home.iterdir()) == []

    def test_tailindex_out_dot_writes_here(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["tailindex", "--counts", data_dir / "counts_infections.csv", "--out", "."]) == 0
        curves = sorted(p.name for p in tmp_path.iterdir())
        assert "run.manifest" in curves
        assert "Arcadia_infections_hill.csv" in curves


STARTUP_CHILD = """
import sys
from pathlib import Path

import numpy
lazy = "numpy.random" not in sys.modules  # numpy >= 2 loads it on first use
import robustts, robustts.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def no_numpy_random():  # robustts loads it only to draw multipliers
    return not lazy or "numpy.random" not in sys.modules

assert not scipy_modules(), scipy_modules()
assert no_numpy_random()
data, out = Path(sys.argv[1]), sys.argv[2]
counts, prices = str(data / "counts_infections.csv"), str(data / "prices")
main = robustts.cli.main
assert main(["tailindex", "--counts", counts, "--out", out + "/curves"]) == 0
assert no_numpy_random()
assert main(["unitroot", "--counts", counts, "--B", "0", "--out", out + "/ur.csv"]) == 0
assert no_numpy_random()
assert not scipy_modules(), scipy_modules()
bootstrap = ["--B", "99", "--seed", "42", "--out", out + "/ur99.csv"]
assert main(["unitroot", "--counts", counts, *bootstrap]) == 0
assert not scipy_modules(), scipy_modules()
rates = str(data / "rates.csv")
assert main(["predict", "--counts", counts, "--prices-dir", prices, "--rates", rates,
             "--out", out + "/pred.csv"]) == 0
factors = ["--index", "AVX", "--factors", str(data / "factors.csv"), "--out", out + "/fac.csv"]
assert main(["factors", "--prices-dir", prices, *factors]) == 0
assert not scipy_modules(), scipy_modules()
"""


def test_startup_loads_no_scipy(data_dir, tmp_path):
    """Importing the CLI and running every command, the bootstrap and the
    regression p-values included, loads no scipy module; importing it and
    running the commands that draw nothing loads no ``numpy.random``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, data_dir, tmp_path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("ur.csv", "ur99.csv", "pred.csv", "fac.csv"):
        assert (tmp_path / name).is_file(), name


class TestUnitrootCommand:
    def test_writes_table_and_manifest(self, data_dir, tmp_path):
        out = tmp_path / "ur.csv"
        code = run([
            "unitroot", "--counts", data_dir / "counts_infections.csv",
            "--B", "99", "--seed", "42", "--country", "Borduria", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "series,LR,MZa,MSB,MZt,MPt,ADF"
        assert lines[1].startswith("Borduria d1,")
        assert lines[2].startswith(",(")
        assert lines[3].startswith("Borduria d2,")
        manifest = (tmp_path / "ur.csv.manifest").read_text()
        assert "seed=42" in manifest and "B=99" in manifest
        assert "input.counts.sha256=" in manifest

    def test_stats_only_when_b_zero(self, data_dir, tmp_path):
        out = tmp_path / "ur.csv"
        code = run([
            "unitroot", "--counts", data_dir / "counts_infections.csv",
            "--B", "0", "--country", "Borduria", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[2] == ",,,,,,"

    def test_byte_order_mark_counts_file_writes_the_same_table(self, data_dir, tmp_path):
        plain = data_dir / "counts_infections.csv"
        bom = tmp_path / "counts_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for counts, out in ((plain, tmp_path / "plain.csv"), (bom, tmp_path / "bom.csv")):
            assert run(["unitroot", "--counts", counts, "--B", "0", "--out", out]) == 0
        assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_markdown_format(self, data_dir, tmp_path):
        out = tmp_path / "ur.md"
        code = run([
            "unitroot", "--counts", data_dir / "counts_infections.csv",
            "--B", "0", "--country", "Cascadia", "--format", "md", "--out", out,
        ])
        assert code == 0
        assert out.read_text().startswith("## Unit root battery (infections)")

    def test_backlog_dump_gets_a_causal_sieve(self, tmp_path):
        # daily counts ending in a backlog far above the rest: the d1 series'
        # least-squares sieve at its MAIC lag 1 is explosive (coefficient 6.93)
        y = np.cumsum(np.random.default_rng([2, 821, 150, 1]).standard_cauchy(151))
        d1 = y - y.min() + 1.0
        counts = tmp_path / "counts.csv"
        write_counts(counts, {"Backlog": [1.0, *(1.0 + np.cumsum(d1)).tolist()]})
        out = tmp_path / "ur.csv"
        assert run(["unitroot", "--counts", counts, "--B", "99", "--seed", "1", "--out", out]) == 0
        labels = [line.split(",")[0] for line in out.read_text().splitlines()]
        assert labels == ["series", "Backlog d1", "", "Backlog d2", ""]


class TestTailindexCommand:
    def test_curve_files_per_country_and_method(self, data_dir, tmp_path):
        out = tmp_path / "curves"
        code = run(["tailindex", "--counts", data_dir / "counts_infections.csv", "--out", out])
        assert code == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "Arcadia_infections_hill.csv",
            "Arcadia_infections_rank_size.csv",
            "Borduria_infections_hill.csv",
            "Borduria_infections_rank_size.csv",
            "Cascadia_infections_hill.csv",
            "Cascadia_infections_rank_size.csv",
        ]
        first = (out / "Arcadia_infections_hill.csv").read_text().splitlines()
        assert first[0] == "k,frac,zeta,se,ci_lo,ci_hi"
        assert (out / "run.manifest").exists()

    def test_deaths_target_labels_files(self, data_dir, tmp_path):
        out = tmp_path / "curves"
        code = run([
            "tailindex", "--counts", data_dir / "counts_deaths.csv",
            "--target", "deaths", "--country", "Borduria", "--out", out,
        ])
        assert code == 0
        assert (out / "Borduria_deaths_hill.csv").exists()

    def test_any_grid_steps_accepted(self, data_dir, tmp_path):
        out = tmp_path / "curves"
        code = run(["tailindex", "--counts", data_dir / "counts_infections.csv",
                    "--country", "Borduria", "--grid-steps", "1000000000000", "--out", out])
        assert code == 0
        assert (out / "Borduria_infections_hill.csv").exists()


class TestPredictCommand:
    def test_table_columns_and_rows(self, data_dir, tmp_path):
        out = tmp_path / "pred.csv"
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
            "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "series,T,q=4,q=8,q=12,q=16,HAC"
        labels = [l.split(",")[0] for l in lines[1:]]
        assert labels == [
            "Arcadia AVX d1", "Arcadia AVX d2", "Borduria BDX d1", "Borduria BDX d2",
        ]

    def test_regressor_selection(self, data_dir, tmp_path):
        out = tmp_path / "pred.csv"
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
            "--regressor", "d2", "--index", "AVX", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["Arcadia AVX d2"]

    def test_custom_q_list(self, data_dir, tmp_path):
        out = tmp_path / "pred.csv"
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", data_dir / "prices", "--rates", data_dir / "rates.csv",
            "--q", "4,8", "--out", out,
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "series,T,q=4,q=8,HAC"

    def test_manifest_keeps_every_price_file_of_a_shared_index(self, data_dir, tmp_path):
        prices = tmp_path / "prices"
        prices.mkdir()
        for src, dst in (("Arcadia_AVX", "Arcadia_IDX"), ("Borduria_BDX", "Borduria_IDX")):
            (prices / f"{dst}.csv").write_bytes((data_dir / "prices" / f"{src}.csv").read_bytes())
        out = tmp_path / "pred.csv"
        code = run([
            "predict", "--counts", data_dir / "counts_infections.csv",
            "--prices-dir", prices, "--rates", data_dir / "rates.csv", "--out", out,
        ])
        assert code == 0
        manifest = (tmp_path / "pred.csv.manifest").read_text().splitlines()
        for stem in ("Arcadia_IDX", "Borduria_IDX"):
            digest = hashlib.sha256((prices / f"{stem}.csv").read_bytes()).hexdigest()
            assert f"input.prices.{stem}.sha256={digest}" in manifest
        assert not any(line.startswith("input.prices.IDX.") for line in manifest)


class TestFactorsCommand:
    def test_five_model_columns(self, data_dir, tmp_path):
        out = tmp_path / "fac.csv"
        code = run([
            "factors", "--prices-dir", data_dir / "prices", "--index", "AVX",
            "--factors", data_dir / "factors.csv", "--out", out,
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",CAPM,3-F,4-F,5-F,6-F"
        assert lines[1].startswith("Mkt.RF,")
        assert any(l.startswith("Alpha,") for l in lines)

    def test_requires_single_index(self, data_dir, tmp_path, capsys):
        code = run([
            "factors", "--prices-dir", data_dir / "prices",
            "--factors", data_dir / "factors.csv", "--out", tmp_path / "f.csv",
        ])
        assert code == 3
        assert "exactly one" in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_same_bytes(self, data_dir, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run([
                "unitroot", "--counts", data_dir / "counts_infections.csv",
                "--B", "99", "--seed", "7", "--country", "Cascadia", "--out", out,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_different_seed_different_pvalues(self, data_dir, tmp_path):
        outs = []
        for seed in ("7", "8"):
            out = tmp_path / f"s{seed}.csv"
            assert run([
                "unitroot", "--counts", data_dir / "counts_infections.csv",
                "--B", "99", "--seed", seed, "--country", "Cascadia", "--out", out,
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]
