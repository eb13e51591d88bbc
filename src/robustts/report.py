"""Deterministic table model and the csv/md/tex renderers.

Tables are plain grids of pre-formatted strings.  Stacked cells (a statistic
with its p-value in parentheses beneath, or a coefficient with several
t-statistic lines) are realised as extra physical rows whose label column is
empty, the same two-line row shape the reference tables use.  Rendering the same report
twice yields identical bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .bootstrap import UnitRootReport
from .regression import CoefficientInference, InferenceReport, PredictiveInference
from .tailindex import TailCurve
from .unitroot import STAT_TAILS

__all__ = [
    "Table",
    "render_table",
    "unitroot_table",
    "predict_table",
    "factor_table",
    "emit_tail_curve",
]

# one pass, so the braces and backslashes inserted here are not escaped again
_TEX_ESCAPES = str.maketrans(
    {ch: "\\" + ch for ch in "&%#_{}$"}
    | {"\\": "\\textbackslash{}", "^": "\\^{}", "~": "\\~{}"}
)


@dataclass(frozen=True)
class Table:
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "headers", tuple(self.headers))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for r in self.rows:
            if len(r) != len(self.headers):
                raise ValueError(f"row width {len(r)} != header width {len(self.headers)}")


def _md_row(cells) -> str:
    """One markdown table line; a ``|`` in a cell is escaped so it cannot split the cell."""
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


def _csv(headers, rows) -> bytes:
    """CSV bytes (utf-8, LF endings) of a header line and its rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def render_table(table: Table, fmt: str) -> bytes:
    """Render a table to csv, markdown or latex bytes (utf-8, LF endings)."""
    if fmt == "csv":
        return _csv(table.headers, table.rows)
    if fmt == "md":
        lines = [f"## {table.title}", "", _md_row(table.headers), _md_row("---" for _ in table.headers)]
        lines += [_md_row(r) for r in table.rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "tex":
        lines = [f"% {table.title}"]
        lines.append("\\begin{tabular}{l" + "c" * (len(table.headers) - 1) + "}")
        lines.append("\\hline")
        lines.append(" & ".join(h.translate(_TEX_ESCAPES) for h in table.headers) + " \\\\")
        lines.append("\\hline")
        for r in table.rows:
            lines.append(" & ".join(c.translate(_TEX_ESCAPES) for c in r) + " \\\\")
        lines.append("\\hline")
        lines.append("\\end{tabular}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def unitroot_table(entries: list[tuple[str, UnitRootReport]], title: str) -> Table:
    """Two physical rows per series: the six statistics, p-values in parentheses."""
    rows = []
    for label, report in entries:
        stats = report.stats.as_dict()
        rows.append((label,) + tuple(f"{stats[c]:.2f}" for c in STAT_TAILS))
        p = report.p_values
        rows.append(("",) + tuple(f"({p[c]:.3f})" if c in p else "" for c in STAT_TAILS))
    return Table(title=title, headers=("series", *STAT_TAILS), rows=tuple(rows))


def predict_table(entries: list[tuple[str, PredictiveInference]], title: str) -> Table:
    """One row per (index, regressor): T, grouped t per q, starred HAC t."""
    qs = tuple(entries[0][1].grouped) if entries else ()  # the rows of one run share their q
    headers = ("series", "T") + tuple(f"q={q}" for q in qs) + ("HAC",)
    rows = []
    for label, inf in entries:
        grouped = tuple(f"{inf.grouped[q].t_stat:.2f}" for q in qs)
        rows.append((label, str(inf.T), *grouped, f"{inf.hac_t:.2f}{inf.hac_stars}"))
    return Table(title=title, headers=headers, rows=tuple(rows))


def factor_table(reports: list[InferenceReport], title: str) -> Table:
    """Factor rows plus Alpha; per cell the estimate with stacked t-statistics.

    Under each estimate sit ``[classical]``, ``(HAC)`` with its stars, and one
    ``{grouped}`` line per q the coefficient carries.  A factor a model lacks
    gets as many blank lines as the other cells in its row.
    """
    headers = ("",) + tuple(_model_header(r.model) for r in reports)
    models = [{c.name: c for c in r.coefficients} for r in reports]
    # first-seen order, with the intercept last
    names = sorted(dict.fromkeys(name for m in models for name in m), key=lambda name: name == "Alpha")
    rows = []
    for name in names:
        cells = [_factor_cell(m[name]) if name in m else None for m in models]
        blank = [""] * len(next(c for c in cells if c))
        for j, line in enumerate(zip(*(c or blank for c in cells))):
            rows.append(("" if j else name,) + line)
    return Table(title=title, headers=headers, rows=tuple(rows))


def _factor_cell(c: CoefficientInference) -> list[str]:
    lines = [f"{c.estimate:.3f}", f"[{c.classical_t:.3f}]", f"({c.hac_t:.3f}){c.hac_stars}"]
    return lines + [f"{{{g.t_stat:.3f}}}" for g in c.grouped.values()]


def _model_header(name: str) -> str:
    return name if name == "CAPM" else f"{name[:-1]}-{name[-1]}"


def emit_tail_curve(curve: TailCurve) -> bytes:
    """Curve records ``k,frac,zeta,se,ci_lo,ci_hi``, the data behind the plots."""
    return _csv(
        ("k", "frac", "zeta", "se", "ci_lo", "ci_hi"),
        ((p.k, *(f"{v:.6f}" for v in (p.k / curve.n, p.zeta, p.se, *p.ci95))) for p in curve.points),
    )
