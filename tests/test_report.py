"""Rendering tests: deterministic bytes, layout, and reviewed golden snapshots.

Regenerate the snapshots with ``UPDATE_GOLDEN=1 pytest tests/test_report.py``
and re-review the files under tests/golden/ before committing.
"""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from robustts.bootstrap import BootstrapResult, UnitRootReport
from robustts.regression import (
    CoefficientInference,
    GroupInference,
    HacResult,
    InferenceReport,
    PredictiveInference,
)
from robustts.report import (
    Table,
    emit_tail_curve,
    factor_table,
    predict_table,
    render_table,
    unitroot_table,
)
from robustts.tailindex import tail_curve
from robustts.unitroot import UnitRootStats

GOLDEN_DIR = Path(__file__).parent / "golden"


def _unitroot_entries():
    def entry(label, lr, mza, msb, mpt, adf, lag, ps):
        stats = UnitRootStats(lr=lr, mz_alpha=mza, msb=msb, mp_t=mpt, adf=adf, lag=lag, s2_ar=1.0)
        result = BootstrapResult(
            p_values=dict(zip(("LR", "MZa", "MSB", "MZt", "MPt", "ADF"), ps)), B=199, seed=(42,)
        )
        return label, UnitRootReport(stats, result)

    return [
        entry("Arcadia d1", 0.81, -3.10, 0.41, 8.25, -1.37, 2, (0.31, 0.36, 0.42, 0.30, 0.37, 0.33)),
        entry("Arcadia d2", 28.40, -61.25, 0.09, 0.52, -11.06, 0, (0.005, 0.005, 0.005, 0.005, 0.005, 0.005)),
    ]


def _group(q, t):
    return GroupInference(group_estimates=tuple(float(i) for i in range(q)), t_stat=t, p_value=0.5)


# a p-value per star count: stars are derived from the p-value
STAR_P = {"": 0.5, "*": 0.07, "**": 0.02, "***": 0.001}


def _hac(ts, stars):
    ts = np.asarray(ts, dtype=float)
    return HacResult(
        bandwidth=1.5,
        lrv=np.eye(len(ts)),
        se=np.ones(len(ts)),
        t_stats=ts,
        p_values=np.array([STAR_P[s] for s in stars]),
    )


def _predict_entries():
    row = PredictiveInference(
        T=285,
        alpha=0.001,
        beta=-0.002,
        grouped={4: _group(4, -0.31), 8: _group(8, 1.24), 12: _group(12, 0.58), 16: _group(16, 0.77)},
        hac=_hac([0.1, -3.64], ("", "***")),
    )
    return [("Arcadia AVX d1", row)]


def _factor_reports():
    def coef(name, est, ct, ht, stars, gt):
        return CoefficientInference(
            name=name, estimate=est, classical_t=ct, classical_p=0.5,
            hac_t=ht, hac_p=STAR_P[stars], grouped={4: _group(4, gt)},
        )

    capm = InferenceReport(
        model="CAPM", T=285,
        coefficients=(coef("Mkt.RF", -0.231, 1.418, -0.352, "", 0.208),
                      coef("Alpha", 0.011, 2.614, 2.977, "**", 3.861)),
    )
    three = InferenceReport(
        model="3F", T=285,
        coefficients=(coef("Mkt.RF", -0.224, 1.287, -0.330, "", -0.189),
                      coef("SMB", 0.146, 0.751, 0.305, "", -0.044),
                      coef("HML", -0.918, 0.112, -1.532, "*", -2.406),
                      coef("Alpha", 0.011, 2.633, 3.248, "***", 3.914)),
    )
    return [capm, three]


def sample_tables() -> dict[str, Table]:
    return {
        "unitroot": unitroot_table(_unitroot_entries(), title="Unit root battery (infections)"),
        "predict": predict_table(_predict_entries(), title="Predictive regressions"),
        "factors": factor_table(_factor_reports(), title="Factor models (Arcadia AVX)"),
    }


class TestRenderTable:
    def test_byte_identical_rendering(self):
        for table in sample_tables().values():
            for fmt in ("csv", "md", "tex"):
                assert render_table(table, fmt) == render_table(table, fmt)

    def test_empty_report_is_header_only(self):
        table = unitroot_table([], title="empty")
        payload = render_table(table, "csv").decode()
        assert payload == "series,LR,MZa,MSB,MZt,MPt,ADF\n"

    def test_two_line_row_shape(self):
        table = sample_tables()["unitroot"]
        lines = render_table(table, "csv").decode().splitlines()
        assert lines[1].startswith("Arcadia d1,0.81,-3.10,0.41,-1.27,8.25,-1.37")
        assert lines[2].startswith(",(0.310),(0.360),(0.420),(0.300),(0.370),(0.330)")

    def test_predict_columns(self):
        table = sample_tables()["predict"]
        lines = render_table(table, "csv").decode().splitlines()
        assert lines[0] == "series,T,q=4,q=8,q=12,q=16,HAC"
        assert lines[1] == "Arcadia AVX d1,285,-0.31,1.24,0.58,0.77,-3.64***"

    def test_factor_model_headers(self):
        table = sample_tables()["factors"]
        assert table.headers == ("", "CAPM", "3-F")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            Table(title="x", headers=("a", "b"), rows=(("1",),))

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_table(sample_tables()["predict"], "html")

    def test_md_escapes_pipes(self):
        table = predict_table([("Arcadia A|X d1", _predict_entries()[0][1])], title="t")
        lines = render_table(table, "md").decode().splitlines()
        header, row = lines[2], lines[4]
        assert row.startswith("| Arcadia A\\|X d1 | 285 |")
        separator = re.compile(r"(?<!\\)\|")
        assert len(separator.findall(row)) == len(separator.findall(header)) == 8
        assert render_table(table, "csv").decode().splitlines()[1].startswith("Arcadia A|X d1,285,")

    def test_tex_escapes_specials(self):
        table = Table(title="t", headers=("a", "b"), rows=(("S&P", "5%"),))
        tex = render_table(table, "tex").decode()
        assert "S\\&P" in tex and "5\\%" in tex
        table = Table(title="t", headers=("a", "b"), rows=(("Arcadia ^AVX", "a\\b~$5 {x}"),))
        tex = render_table(table, "tex").decode()
        assert "Arcadia \\^{}AVX & a\\textbackslash{}b\\~{}\\$5 \\{x\\} \\\\" in tex

    @pytest.mark.parametrize("name", ["unitroot", "predict", "factors"])
    @pytest.mark.parametrize("fmt", ["csv", "md", "tex"])
    def test_golden_snapshots(self, name, fmt):
        table = sample_tables()[name]
        payload = render_table(table, fmt)
        path = GOLDEN_DIR / f"{name}.{fmt}"
        if os.environ.get("UPDATE_GOLDEN"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_bytes(payload)
        assert path.read_bytes() == payload


class TestEmitTailCurve:
    def test_format_and_values(self):
        sample = np.array([np.e**3, np.e**2, np.e, 1.0] + [0.5] * 36)
        curve = tail_curve(sample, "hill", (2, 3))
        lines = emit_tail_curve(curve).decode().splitlines()
        assert lines[0] == "k,frac,zeta,se,ci_lo,ci_hi"
        k, frac, zeta, se, lo, hi = lines[2].split(",")
        assert k == "3" and float(zeta) == pytest.approx(0.5, abs=1e-6)
        assert float(frac) == pytest.approx(3 / 40, abs=1e-6)
        assert float(lo) == pytest.approx(0.5 - 1.96 * 0.5 / np.sqrt(3), abs=1e-5)

    def test_deterministic(self):
        sample = np.arange(1.0, 60.0)
        curve = tail_curve(sample, "rank_size", (5, 10))
        assert emit_tail_curve(curve) == emit_tail_curve(curve)
