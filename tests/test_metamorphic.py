"""Metamorphic relations: related inputs must give related outputs.

Each relation here holds today; the goldens pin one input each and cannot
say whether a reordered or rescaled input keeps its answer.
"""

import numpy as np
import pytest

from robustts.bootstrap import unit_root_report
from robustts.cli import main
from robustts.tailindex import k_grid, tail_curve

BOM = b"\xef\xbb\xbf"  # what spreadsheet programs put before "CSV UTF-8"


def tailindex_outputs(counts, out):
    """The curve files ``tailindex`` writes for ``counts``, by name; ``run.manifest`` hashes the input, so it
    is left out."""
    assert main(["tailindex", "--counts", str(counts), "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run.manifest"}
    assert len(files) == 6 and all(files.values())
    return files


def table_output(argv, out):
    """The table a command writes to ``out``; its ``.manifest`` hashes the inputs, so it is left out."""
    assert main([*map(str, argv), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture()
def deaths(data_dir):
    return (data_dir / "counts_deaths.csv").read_bytes()


class TestUnitrootCommand:
    @staticmethod
    def table(counts, out):
        return table_output(["unitroot", "--counts", counts, "--B", "99", "--seed", "3"], out)

    def test_reversed_country_rows_write_the_same_table(self, deaths, tmp_path):
        header, *rows = deaths.decode("utf-8").splitlines(keepends=True)
        (tmp_path / "plain.csv").write_bytes(deaths)
        reversed_counts = tmp_path / "reversed.csv"
        reversed_counts.write_text(header + "".join(reversed(rows)), encoding="utf-8")
        want = self.table(tmp_path / "plain.csv", tmp_path / "plain.out")
        assert self.table(reversed_counts, tmp_path / "reversed.out") == want

    def test_crlf_line_ends_write_the_same_table(self, deaths, tmp_path):
        (tmp_path / "plain.csv").write_bytes(deaths)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(deaths.replace(b"\n", b"\r\n"))
        assert self.table(crlf, tmp_path / "crlf.out") == self.table(tmp_path / "plain.csv", tmp_path / "plain.out")

    def test_byte_order_mark_writes_the_same_table(self, deaths, tmp_path):
        (tmp_path / "plain.csv").write_bytes(deaths)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(BOM + deaths)
        assert self.table(bom, tmp_path / "bom.out") == self.table(tmp_path / "plain.csv", tmp_path / "plain.out")


def scaled_prices(prices, out, j):
    """A copy of the price directory with every ``Adj Close`` multiplied by 2^j, which every return keeps."""
    out.mkdir()
    for path in sorted(prices.glob("*.csv")):
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        col = header.split(",").index("Adj Close")
        lines = [header]
        for row in rows:
            fields = row.split(",")
            if fields[col] != "null":
                fields[col] = repr(float(fields[col]) * 2.0**j)
            lines.append(",".join(fields))
        (out / path.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


class TestLongFormatEncodings:
    # CRLF line ends and a UTF-8 byte-order mark, as spreadsheet programs save
    # CSV, on every price file, rates.csv and factors.csv at once
    @pytest.mark.parametrize("change", [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: BOM + data,
    ], ids=("crlf", "bom"))
    def test_predict_and_factors_write_the_same_tables(self, data_dir, tmp_path, change):
        def tables(inputs, tag):
            counts = data_dir / "counts_infections.csv"
            prices, rates, factors = inputs / "prices", inputs / "rates.csv", inputs / "factors.csv"
            return (
                table_output(["predict", "--counts", counts, "--prices-dir", prices, "--rates", rates],
                             tmp_path / f"predict_{tag}.csv"),
                table_output(["factors", "--prices-dir", prices, "--index", "AVX", "--factors", factors],
                             tmp_path / f"factors_{tag}.csv"),
            )

        changed = tmp_path / "changed"
        (changed / "prices").mkdir(parents=True)
        names = [f"prices/{p.name}" for p in sorted((data_dir / "prices").glob("*.csv"))]
        assert len(names) == 2
        for name in (*names, "rates.csv", "factors.csv"):
            data = (data_dir / name).read_bytes()
            assert change(data) != data
            (changed / name).write_bytes(change(data))
        assert tables(changed, "changed") == tables(data_dir, "plain")


class TestPriceScale:
    @pytest.mark.parametrize("j", [-60, 1, 60])
    def test_power_of_two_prices_write_the_same_tables(self, data_dir, tmp_path, j):
        def tables(prices, tag):
            counts, rates, factors = (data_dir / name for name in ("counts_infections.csv", "rates.csv", "factors.csv"))
            return (
                table_output(["predict", "--counts", counts, "--prices-dir", prices, "--rates", rates],
                             tmp_path / f"predict_{tag}.csv"),
                table_output(["factors", "--prices-dir", prices, "--index", "AVX", "--factors", factors],
                             tmp_path / f"factors_{tag}.csv"),
            )

        scaled = scaled_prices(data_dir / "prices", tmp_path / "scaled", j)
        assert tables(scaled, "scaled") == tables(data_dir / "prices", "plain")


def walks():
    """A random walk (lag 0, cumulation alone) and an MA(1) walk (lag > 0, the FFT recolouring)."""
    rng = np.random.default_rng(2)
    u = rng.standard_normal(301)
    return {"walk": np.cumsum(rng.standard_normal(150)), "ma": np.cumsum(u[1:] - 0.8 * u[:-1])}


class TestUnitRootReportAffine:
    # the battery is invariant to scale and shift up to rounding, and the
    # p-values are ranks, so lags and p-values are kept exactly
    @pytest.mark.parametrize("change", ["2^-60", "2^1", "2^60", "+1e3"])
    @pytest.mark.parametrize("name", ["walk", "ma"])
    def test_scale_and_shift_keep_lags_and_p_values(self, name, change):
        y = walks()[name]
        z = y + 1e3 if change == "+1e3" else y * 2.0 ** int(change[2:])
        want, got = unit_root_report(y, B=199, seed=(9,)), unit_root_report(z, B=199, seed=(9,))
        assert (want.stats.lag > 0) == (name == "ma")
        assert got.stats.lag == want.stats.lag and got.p_values == want.p_values


class TestTailindexCommand:
    def test_reversed_country_rows_write_the_same_curves(self, deaths, tmp_path):
        # reversing the rows also swaps Arcadia's two provinces
        header, *rows = deaths.decode("utf-8").splitlines(keepends=True)
        assert [r.split(",")[:2] for r in rows][:2] == [["North", "Arcadia"], ["South", "Arcadia"]]
        (tmp_path / "plain.csv").write_bytes(deaths)
        reversed_counts = tmp_path / "reversed.csv"
        reversed_counts.write_text(header + "".join(reversed(rows)), encoding="utf-8")
        want = tailindex_outputs(tmp_path / "plain.csv", tmp_path / "plain")
        assert tailindex_outputs(reversed_counts, tmp_path / "reversed") == want

    def test_crlf_line_ends_write_the_same_curves(self, deaths, tmp_path):
        (tmp_path / "plain.csv").write_bytes(deaths)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(deaths.replace(b"\n", b"\r\n"))
        assert tailindex_outputs(crlf, tmp_path / "crlf") == tailindex_outputs(tmp_path / "plain.csv", tmp_path / "plain")

    def test_byte_order_mark_writes_the_same_curves(self, deaths, tmp_path):
        (tmp_path / "plain.csv").write_bytes(deaths)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(BOM + deaths)
        assert tailindex_outputs(bom, tmp_path / "bom") == tailindex_outputs(tmp_path / "plain.csv", tmp_path / "plain")


class TestTailCurveScale:
    # 2^j scaling shifts every log by j ln 2, so zeta moves only by rounding
    @pytest.mark.parametrize("j", [-60, 1, 60])
    @pytest.mark.parametrize("method", ["hill", "rank_size"])
    @pytest.mark.parametrize("n", [40, 1000, 12_345])
    def test_power_of_two_scaling_keeps_zeta(self, n, method, j):
        rng = np.random.default_rng(n)
        x = np.round(rng.random(n) ** (-1.0 / 1.5), 2)  # ties from rounding
        grid = k_grid(n)
        want = [p.zeta for p in tail_curve(x, method, grid).points]
        got = [p.zeta for p in tail_curve(x * 2.0**j, method, grid).points]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
