"""In-memory spans around the public calls of each ``robustts`` module.

The benchmark records spans from its own files: :meth:`Tracer.install` swaps
the listed public functions for timing wrappers in every loaded ``robustts``
module namespace (the package re-exports and the ``from .x import y`` copies
included), so calls the program makes between its own modules are traced
too.  :meth:`Tracer.uninstall` puts the originals back.  A name a later
version of the program no longer has is skipped, and its time then shows as
self time of its caller.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# layer -> public functions wrapped.  Cheap per-element helpers called in
# tight loops (``qs_kernel``, ``im_tstat``, ``significance_stars``) are left
# out: their time is part of the caller's span.
TARGETS = {
    "ingest": ("ingest_counts", "ingest_prices", "ingest_rates", "ingest_factors"),
    "series": ("difference", "simple_returns", "excess_returns", "align_predictive",
               "positive_part", "positive_window"),
    # ``_adf_fit`` is how the battery reaches the ADF regression; it is the one
    # private name here, so ``unitroot.gls_adf_ms`` covers the battery's fit.
    "unitroot": ("unit_root_battery", "select_lag_maic", "gls_demean", "adf_gls", "_adf_fit",
                 "mz_msb_mzt", "mp_test", "lr_test"),
    "bootstrap": ("unit_root_report", "fit_sieve", "resample_null"),
    "tailindex": ("tail_curve", "hill_estimate", "rank_size_estimate", "k_grid"),
    "regression": ("ols", "classical_tstats", "andrews_bandwidth", "long_run_variance",
                   "hac_inference", "grouped_ols", "predictive_report", "factor_report"),
    "report": ("unitroot_table", "predict_table", "factor_table", "render_table",
               "emit_tail_curve"),
    "cli": ("main",),
}

LAYERS = tuple(TARGETS)


def _battery_info(args, kwargs, result):
    return len(args[0])


def _curve_info(args, kwargs, result):
    return [args[1] if len(args) > 1 else kwargs.get("method"), len(result.points)]


def _lrv_info(args, kwargs, result):
    bandwidth = args[1] if len(args) > 1 else kwargs.get("bandwidth")
    return (len(args[0]) - 1) if bandwidth > 0 else 0


def _ingest_info(args, kwargs, result):
    return [str(args[0]), len(result.dates) if hasattr(result, "dates") else None]


def _bytes_info(args, kwargs, result):
    return len(result)


def _main_info(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# Cheap facts kept with a span; anything costly is derived after the run.
INFO = {
    "unit_root_battery": _battery_info,
    "tail_curve": _curve_info,
    "long_run_variance": _lrv_info,
    "render_table": _bytes_info,
    "emit_tail_curve": _bytes_info,
    "main": _main_info,
    **{name: _ingest_info for name in TARGETS["ingest"]},
}


class Tracer:
    """Spans ``[name, layer, start, end, parent, op, info, failed]`` kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._patched: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info = INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                span[7] = True
                raise
            finally:
                stack.pop()
            span[3] = clock()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"robustts.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = self.wrap(layer, name, fn)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "robustts" or n.startswith("robustts."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent, op, info, failed) in enumerate(self.spans):
                fh.write(json.dumps([i, f"{layer}.{name}", round(start * 1e6, 1),
                                     round(end * 1e6, 1), parent, op, info, failed]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _file_rows(path: str) -> tuple[int, int]:
    """(data rows, bytes) of a CSV: non-empty lines after the header."""
    data = Path(path).read_bytes()
    rows = sum(1 for line in data.splitlines()[1:] if line.strip())
    return rows, len(data)


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics; ``_ms`` and counts are per op unless named per call."""
    n = max(n_ops, 1)
    dur = [s[3] - s[2] for s in spans]
    self_t = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(*names):
        return [i for nm in names for i in by_name.get(nm, ())]

    def outer_ms(*names):
        """Time under the named spans, nested ones counted once, per op."""
        chosen = set(ids(*names))
        return sum(dur[i] for i in chosen if spans[i][4] not in chosen) * 1e3 / n

    def self_ms(*names):
        return sum(self_t[i] for i in ids(*names)) * 1e3 / n

    m: dict[str, float] = {}

    ing = ids(*TARGETS["ingest"])
    rows = kept = nbytes = 0
    file_rows: dict[str, tuple[int, int]] = {}
    for i in ing:
        if spans[i][6] is not None:
            path = spans[i][6][0]
            if path not in file_rows:
                file_rows[path] = _file_rows(path)
            r, b = file_rows[path]
            k = spans[i][6][1]
            # counts rows are provinces summed into countries: every row is used
            rows, kept, nbytes = rows + r, kept + (r if spans[i][0] == "ingest_counts" else k), nbytes + b
    busy_s = sum(dur[i] for i in ing)
    m["ingest.busy_ms"] = busy_s * 1e3 / n
    m["ingest.rows"] = rows / n
    m["ingest.rows_kept_ratio"] = kept / rows if rows else 0.0
    m["ingest.mb_per_s"] = nbytes / 1e6 / busy_s if busy_s > 0 else 0.0

    m["series.busy_ms"] = outer_ms(*TARGETS["series"])
    m["series.align_ms"] = outer_ms("align_predictive", "excess_returns")

    battery = ids("unit_root_battery")
    for label, keep in (("T150", lambda t: t < 400), ("T1000", lambda t: t >= 400)):
        per_call = [dur[i] * 1e3 for i in battery if keep(spans[i][6] or 0)]
        m[f"unitroot.battery_{label}_ms"] = statistics.median(per_call) if per_call else 0.0
    m["unitroot.maic_ms"] = outer_ms("select_lag_maic")
    m["unitroot.gls_adf_ms"] = outer_ms("gls_demean", "adf_gls", "_adf_fit")
    m["unitroot.mz_mp_ms"] = outer_ms("mz_msb_mzt", "mp_test")
    m["unitroot.lr_ms"] = outer_ms("lr_test")
    m["unitroot.calls"] = len(battery) / n
    m["unitroot.self_ms"] = self_ms("unit_root_battery")

    reports = set(ids("unit_root_report"))
    # the first battery under a report is the observed series; the rest are replicates
    seen, replicate = set(), 0.0
    for i in battery:
        parent = spans[i][4]
        if parent in reports:
            if parent in seen:
                replicate += dur[i]
            seen.add(parent)
    m["bootstrap.report_ms"] = outer_ms("unit_root_report")
    m["bootstrap.sieve_fit_ms"] = outer_ms("fit_sieve")
    m["bootstrap.resample_ms"] = outer_ms("resample_null")
    m["bootstrap.replicate_battery_ms"] = replicate * 1e3 / n
    m["bootstrap.self_ms"] = self_ms("unit_root_report")
    m["bootstrap.replicates"] = len(ids("resample_null")) / n

    curves = ids("tail_curve")
    for method in ("hill", "rank_size"):
        m[f"tailindex.{method}_ms"] = sum(dur[i] for i in curves if spans[i][6][0] == method) * 1e3 / n
    m["tailindex.points"] = sum(spans[i][6][1] for i in curves) / n
    m["tailindex.self_ms"] = self_ms("tail_curve")

    m["regression.ols_ms"] = outer_ms("ols")
    m["regression.classical_ms"] = outer_ms("classical_tstats")
    m["regression.bandwidth_ms"] = outer_ms("andrews_bandwidth")
    m["regression.lrv_ms"] = outer_ms("long_run_variance")
    m["regression.lrv_lags"] = sum(spans[i][6] or 0 for i in ids("long_run_variance")) / n
    m["regression.hac_ms"] = outer_ms("hac_inference")
    m["regression.grouped_ms"] = outer_ms("grouped_ols")
    m["regression.self_ms"] = self_ms("predictive_report", "factor_report")

    m["report.table_ms"] = outer_ms("unitroot_table", "predict_table", "factor_table")
    m["report.render_ms"] = outer_ms("render_table", "emit_tail_curve")
    m["report.bytes"] = sum(spans[i][6] or 0 for i in ids("render_table", "emit_tail_curve")) / n

    mains = ids("main")
    for command in ("unitroot", "tailindex", "predict", "factors"):
        per_call = [dur[i] * 1e3 for i in mains if spans[i][6] == command]
        m[f"cli.{command}_ms"] = statistics.mean(per_call) if per_call else 0.0
    m["cli.self_ms"] = self_ms("main")

    for layer in LAYERS:
        m[f"{layer}.errors"] = float(sum(1 for s in spans if s[1] == layer and s[7]))
    return m
