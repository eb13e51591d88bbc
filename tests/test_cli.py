from datetime import date, timedelta

import pytest

from robustts import cli
from robustts.cli import main
from robustts.errors import DataError
from robustts.report import Table


def run(argv):
    return main([str(a) for a in argv])


def truncated_factors(data_dir, path, rows):
    """The fixture factor panel cut to its first ``rows`` data rows."""
    lines = (data_dir / "factors.csv").read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[: rows + 1]) + "\n", encoding="utf-8")
    return path


def write_degenerate_counts(path, values):
    """A counts file holding one country's cumulative counts, daily from 2020-01-22."""
    start = date(2020, 1, 22)
    dates = [start + timedelta(days=i) for i in range(len(values))]
    header = "Province/State,Country/Region,Lat,Long," + ",".join(
        f"{d.month}/{d.day}/{d.strftime('%y')}" for d in dates
    )
    row = ",Flatland,0,0," + ",".join(str(v) for v in values)
    path.write_text(header + "\n" + row + "\n", encoding="utf-8")


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

    def test_tailindex_data_error_leaves_no_out_dir(self, data_dir, tmp_path):
        out = tmp_path / "curves"
        code = run(["tailindex", "--counts", data_dir / "counts_infections.csv",
                    "--country", "Atlantis", "--out", out])
        assert code == 3
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

    def test_markdown_format(self, data_dir, tmp_path):
        out = tmp_path / "ur.md"
        code = run([
            "unitroot", "--counts", data_dir / "counts_infections.csv",
            "--B", "0", "--country", "Cascadia", "--format", "md", "--out", out,
        ])
        assert code == 0
        assert out.read_text().startswith("## Unit root battery (infections)")


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
