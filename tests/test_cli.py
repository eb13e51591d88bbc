from datetime import date, timedelta

import pytest

from robustts.cli import main


def run(argv):
    return main([str(a) for a in argv])


def write_degenerate_counts(path, values):
    """One country's cumulative counts, chosen to be numerically degenerate."""
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

    def test_parse_error_location_reported(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("date,rate_pct\n2020-01-02,abc\n", encoding="utf-8")
        code = run([
            "predict", "--counts", p, "--prices-dir", tmp_path, "--rates", p,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "r.csv" in err


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
