"""Metamorphic relations: related inputs must give related outputs.

Each relation here holds today; the goldens pin one input each and cannot
say whether a reordered or rescaled input keeps its answer.
"""

import numpy as np
import pytest

from robustts.cli import main
from robustts.tailindex import k_grid, tail_curve


def tailindex_outputs(counts, out):
    """The curve files ``tailindex`` writes for ``counts``, by name; ``run.manifest`` hashes the input, so it
    is left out."""
    assert main(["tailindex", "--counts", str(counts), "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run.manifest"}
    assert len(files) == 6 and all(files.values())
    return files


class TestTailindexCommand:
    @pytest.fixture()
    def deaths(self, data_dir):
        return (data_dir / "counts_deaths.csv").read_bytes()

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
