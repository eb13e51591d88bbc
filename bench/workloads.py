"""Seeded inputs, operations and output checks for the three workloads.

Every workload is a fixed *cycle* of operations built from the workload seed;
the timed loop repeats whole cycles, so the mix of operation kinds is the
same in every run and results can be compared op by op across cycles and
against the stored references.

``bootstrap``   one ``unit_root_report(y, B=999, seed=(s, i))`` per series.
                Five T=150 series (one per DGP) and one T=1000 series per
                cycle: the two lengths give ``k_max`` 13 vs 21 and a B x T
                working set of 1.2 MB vs 8 MB against a 2 MiB per-core L2.
``estimators``  ``tail_curve`` (Hill and rank-size, default grid),
                ``predictive_report`` and ``factor_report(..., "6F")``; 24
                small inputs (n=1e3, T=250) and one large input of each kind
                (n=1e5, T=5000) per cycle.  No bootstrap, ingest or rendering.
``cli``         one fresh ``python -m robustts.cli`` process per op over the
                bundled fixtures and over scaled synthetic CSVs written with
                the fixture generators in ``tests/data/generate_fixtures.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

B = 999
CLI_B = 99
DGPS = ("iid", "t2", "cauchy", "varshift", "ma1")
SMALL_TAILS = 3  # per method; the T=250 regressions then hold the median op
SMALL_REGRESSIONS = 9  # per kind
SCALED_COUNTRIES = 100
SCALED_COUNT_DAYS = 1000
PRICE_DAYS = 3500  # weekdays of 3500 calendar days: about 2,500 price rows
REL_TOL = 1e-9
# Whole cycles a timed run makes at least, whatever --seconds says.  The CPU
# speed of a shared machine drifts by up to 2x over seconds to tens of seconds,
# and Python-heavy ops (the bootstrap loop, the T=250 HAC loop) feel it most,
# so those workloads measure for about 30 s.  cli needs 24 ops so that its
# tail percentile (p58) lies above the median.
MIN_CYCLES = {"bootstrap": 6, "estimators": 30, "cli": 3}


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``record``/``invariants`` are not."""

    kind: str
    run: Callable[[], object]
    record: Callable[[object], dict]
    invariants: Callable[[object], list]


@dataclass
class Workload:
    name: str
    ops: list
    min_cycles: int
    probe_code: str  # fresh-interpreter set-up probe, run with ``probe_args``
    probe_args: list
    inproc: list | None = None  # cli only: argv per op for in-process re-runs


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """Generator for one input family, a function of the workload seed only."""
    tag_int = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")
    return np.random.default_rng([seed % 2**32, tag_int])


# ---------------------------------------------------------------- bootstrap


def innovations(rng: np.random.Generator, dgp: str, T: int) -> np.ndarray:
    """Innovations of the size-study DGPs; their cumulative sum has a unit root."""
    if dgp == "iid":
        return rng.standard_normal(T)
    if dgp == "t2":
        return rng.standard_t(2, T)
    if dgp == "cauchy":
        return rng.standard_cauchy(T)
    if dgp == "varshift":
        e = rng.standard_normal(T)
        e[T // 2 :] *= math.sqrt(5.0)
        return e
    if dgp == "ma1":
        u = rng.standard_normal(T + 1)
        return u[1:] - 0.8 * u[:-1]
    raise ValueError(f"unknown DGP {dgp!r}")


def bootstrap_series(seed: int) -> list[tuple[str, np.ndarray]]:
    rng = rng_for(seed, "bootstrap")
    plan = [(dgp, 150) for dgp in DGPS] + [(DGPS[seed % len(DGPS)], 1000)]
    return [(f"T{T}.{dgp}", np.cumsum(innovations(rng, dgp, T))) for dgp, T in plan]


def report_record(report) -> dict:
    stats = report.stats.as_dict()
    exact = {"lag": report.stats.lag}
    exact.update({f"p.{k}": v for k, v in report.p_values.items()})
    approx = dict(stats)
    approx["s2_ar"] = report.stats.s2_ar
    return {"exact": exact, "approx": approx}


def report_invariants(report) -> list:
    problems = []
    n = report.result.B + 1
    for name, p in report.p_values.items():
        if not 1.0 / n - 1e-12 <= p <= 1.0 + 1e-12:
            problems.append(f"p.{name}={p} outside [1/(B+1), 1]")
        if abs(p * n - round(p * n)) > 1e-6:
            problems.append(f"p.{name}={p} not a multiple of 1/(B+1)")
    s = report.stats
    if abs(s.mz_t - s.mz_alpha * s.msb) > 1e-10 * max(1.0, abs(s.mz_t)):
        problems.append("MZt != MZa*MSB")
    if len(report.p_values) != 6:
        problems.append(f"{len(report.p_values)} p-values, expected 6")
    return problems


def build_bootstrap(seed: int, tmp: Path, root: Path, env: dict) -> Workload:
    import robustts as rt

    s = seed % 2**32
    ops = []
    for i, (kind, y) in enumerate(bootstrap_series(seed)):
        ops.append(
            Op(
                kind=kind,
                run=lambda y=y, i=i: rt.unit_root_report(y, B=B, seed=(s, i)),
                record=report_record,
                invariants=report_invariants,
            )
        )
    probe_input = tmp / "probe.npy"
    np.save(probe_input, bootstrap_series(seed)[0][1])
    code = (
        "import sys, numpy, robustts\n"
        f"robustts.unit_root_report(numpy.load(sys.argv[1]), B={B}, seed=({s}, 0))\n"
    )
    return Workload("bootstrap", ops, MIN_CYCLES["bootstrap"], code, [str(probe_input)])


# --------------------------------------------------------------- estimators


def pareto_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    alpha = float(rng.choice([1.5, 2.0, 3.0]))
    return (rng.pareto(alpha, n) + 1.0) * float(rng.uniform(1.0, 10.0))


def day_dates(T: int, start: date = date(2000, 1, 3)) -> tuple:
    return tuple(start + timedelta(days=i) for i in range(T))


def stochastic_vol(rng: np.random.Generator, T: int) -> np.ndarray:
    h = np.zeros(T)
    shocks = rng.standard_normal(T) * 0.3
    for t in range(1, T):
        h[t] = 0.9 * h[t - 1] + shocks[t]
    return np.exp(0.5 * h)


def predictive_pair(rng: np.random.Generator, T: int):
    """Persistent t(4) regressor, t(3) returns with stochastic volatility."""
    from robustts import PairedSample

    e = rng.standard_t(4, T + 1)
    x = np.empty(T + 1)
    x[0] = e[0]
    for t in range(1, T + 1):
        x[t] = 0.95 * x[t - 1] + e[t]
    y = 0.02 * x[:-1] + stochastic_vol(rng, T) * rng.standard_t(3, T)
    return PairedSample(y, x[:-1], day_dates(T + 1)[1:])


FACTOR_NAMES = ("Mkt.RF", "SMB", "HML", "MOM", "RMW", "CMA")


def factor_inputs(rng: np.random.Generator, T: int):
    """Heavy-tailed factors and heteroskedastic excess returns (fractions)."""
    from robustts import FactorPanel, Series

    dates = day_dates(T)
    cols = {n: rng.standard_t(4, T) * 0.006 for n in FACTOR_NAMES}
    cols["RF"] = np.full(T, 0.00006)
    loadings = rng.uniform(-0.5, 1.2, len(FACTOR_NAMES))
    noise = stochastic_vol(rng, T) * rng.standard_t(3, T) * 0.004
    y = np.column_stack([cols[n] for n in FACTOR_NAMES]) @ loadings + noise
    return Series(dates, y), FactorPanel(dates, cols)


def tail_record(curve) -> dict:
    exact = {"n": curve.n}
    approx = {}
    for i, p in enumerate(curve.points):
        exact[f"k.{i}"] = p.k
        approx.update({f"zeta.{i}": p.zeta, f"se.{i}": p.se, f"lo.{i}": p.ci95[0], f"hi.{i}": p.ci95[1]})
        if p.log_scale is not None:
            approx[f"log_scale.{i}"] = p.log_scale
    return {"exact": exact, "approx": approx}


def tail_invariants(curve) -> list:
    problems = []
    for p in curve.points:
        tol = 1e-12 * max(1.0, p.zeta)
        if abs(p.ci95[0] - (p.zeta - 1.96 * p.se)) > tol or abs(p.ci95[1] - (p.zeta + 1.96 * p.se)) > tol:
            problems.append(f"k={p.k}: CI != zeta +- 1.96 se")
        if not p.zeta > 0:
            problems.append(f"k={p.k}: zeta={p.zeta} not positive")
    if not curve.points:
        problems.append("empty curve")
    return problems


def _p_problems(label: str, ps) -> list:
    return [f"{label} p={p} outside [0, 1]" for p in ps if not 0.0 <= p <= 1.0]


def _t_problems(label: str, ts) -> list:
    return [f"{label} t={t} not finite" for t in ts if not math.isfinite(t)]


def predictive_record(inf) -> dict:
    approx = {"alpha": inf.alpha, "beta": inf.beta, "hac.t": inf.hac_t, "hac.p": inf.hac_p,
              "hac.bw": inf.hac.bandwidth}
    for q, g in inf.grouped.items():
        approx[f"g{q}.t"] = g.t_stat
        approx[f"g{q}.p"] = g.p_value
    return {"exact": {"T": inf.T}, "approx": approx}


def predictive_invariants(inf) -> list:
    ps = [inf.hac_p] + [g.p_value for g in inf.grouped.values()]
    ts = [inf.hac_t] + [g.t_stat for g in inf.grouped.values()]
    problems = _p_problems("predictive", ps) + _t_problems("predictive", ts)
    problems += [f"q={q}: df={g.df}" for q, g in inf.grouped.items() if g.df != q - 1]
    return problems


def factor_record(rep) -> dict:
    approx = {}
    for c in rep.coefficients:
        approx.update({f"{c.name}.est": c.estimate, f"{c.name}.ct": c.classical_t,
                       f"{c.name}.cp": c.classical_p, f"{c.name}.ht": c.hac_t,
                       f"{c.name}.hp": c.hac_p})
        for q, g in c.grouped.items():
            approx[f"{c.name}.g{q}.t"] = g.t_stat
            approx[f"{c.name}.g{q}.p"] = g.p_value
    names = ",".join(c.name for c in rep.coefficients)
    return {"exact": {"T": rep.T, "model": rep.model, "names": names}, "approx": approx}


def factor_invariants(rep) -> list:
    ps, ts = [], []
    for c in rep.coefficients:
        ps += [c.classical_p, c.hac_p] + [g.p_value for g in c.grouped.values()]
        ts += [c.classical_t, c.hac_t] + [g.t_stat for g in c.grouped.values()]
    return _p_problems("factor", ps) + _t_problems("factor", ts)


def estimator_inputs(seed: int) -> list[tuple[str, object]]:
    """(kind, input) per op: 24 small ops, then one large op of each kind."""
    rng = rng_for(seed, "estimators")
    plan = []
    for i in range(SMALL_REGRESSIONS):
        if i < SMALL_TAILS:
            plan += [("tail_hill.n1e3", 1000), ("tail_rank_size.n1e3", 1000)]
        plan += [("predict.T250", 250), ("factor6F.T250", 250)]
    plan += [("tail_hill.n1e5", 100_000), ("tail_rank_size.n1e5", 100_000),
             ("predict.T5000", 5000), ("factor6F.T5000", 5000)]
    out = []
    for kind, size in plan:
        if kind.startswith("tail"):
            out.append((kind, pareto_sample(rng, size)))
        elif kind.startswith("predict"):
            out.append((kind, predictive_pair(rng, size)))
        else:
            out.append((kind, factor_inputs(rng, size)))
    return out


def build_estimators(seed: int, tmp: Path, root: Path, env: dict) -> Workload:
    import robustts as rt

    ops = []
    for kind, data in estimator_inputs(seed):
        if kind.startswith("tail"):
            method = "hill" if kind.startswith("tail_hill") else "rank_size"
            run = lambda x=data, m=method: rt.tail_curve(x, m, rt.k_grid(len(x)))
            ops.append(Op(kind, run, tail_record, tail_invariants))
        elif kind.startswith("predict"):
            ops.append(Op(kind, lambda p=data: rt.predictive_report(p), predictive_record,
                          predictive_invariants))
        else:
            run = lambda d=data: rt.factor_report(d[0], d[1], "6F")
            ops.append(Op(kind, run, factor_record, factor_invariants))
    probe_input = tmp / "probe.npy"
    np.save(probe_input, estimator_inputs(seed)[0][1])
    code = (
        "import sys, numpy, robustts\n"
        "x = numpy.load(sys.argv[1])\n"
        "robustts.tail_curve(x, 'hill', robustts.k_grid(len(x)))\n"
    )
    return Workload("estimators", ops, MIN_CYCLES["estimators"], code, [str(probe_input)])


# ---------------------------------------------------------------------- cli


def load_fixture_generators(root: Path):
    """A private instance of ``tests/data/generate_fixtures.py`` (the file is only read)."""
    path = root / "tests" / "data" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("_bench_fixture_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def fixture_days(gen, days: int):
    """The fixture writers read the module-level ``DAYS`` when called."""
    old = gen.DAYS
    gen.DAYS = days
    try:
        yield
    finally:
        gen.DAYS = old


def write_scaled_counts(gen, path: Path, rng: np.random.Generator, countries, days: int) -> None:
    """Wide cumulative counts; every tenth country is split over two provinces."""
    with fixture_days(gen, days):
        dates = gen.daterange(days)
        lines = ["Province/State,Country/Region,Lat,Long,"
                 + ",".join(f"{d.month}/{d.day}/{d.strftime('%y')}" for d in dates)]
        for i, country in enumerate(countries):
            provinces = ("North", "South") if i % 10 == 0 else ("",)
            for prov in provinces:
                vals = gen.epidemic_counts(rng, int(rng.integers(0, 40)), float(rng.uniform(20, 200)))
                lines.append(f"{prov},{country},0.0,0.0," + ",".join(f"{int(v)}" for v in vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_cli_inputs(seed: int, tmp: Path, root: Path) -> dict[str, Path]:
    gen = load_fixture_generators(root)
    rng = rng_for(seed, "cli")
    d = tmp / "inputs"
    (d / "prices").mkdir(parents=True)
    countries = [f"Land{i:03d}" for i in range(SCALED_COUNTRIES)]
    write_scaled_counts(gen, d / "counts_scaled.csv", rng, countries, SCALED_COUNT_DAYS)
    write_scaled_counts(gen, d / "counts_long.csv", rng, countries[:2], PRICE_DAYS)
    with fixture_days(gen, PRICE_DAYS):
        for country, index in zip(countries[:2], ("IDXA", "IDXB")):
            null_rows = tuple(sorted(int(r) for r in rng.choice(2400, 12, replace=False)))
            gen.write_prices(d / "prices" / f"{country}_{index}.csv", rng, null_rows)
        gen.write_factors(d / "factors_scaled.csv", rng)
    return {
        "counts_scaled": d / "counts_scaled.csv",
        "counts_long": d / "counts_long.csv",
        "prices": d / "prices",
        "factors": d / "factors_scaled.csv",
    }


def cli_commands(seed: int, inputs: dict[str, Path], root: Path) -> list[tuple[str, list[str]]]:
    """(kind, argv without --out) per op; formats cycle over csv/md/tex."""
    data = root / "tests" / "data"
    s = str(seed % 2**32)
    return [
        ("unitroot.fixture.B99", ["unitroot", "--counts", str(data / "counts_infections.csv"),
                                  "--B", str(CLI_B), "--seed", s, "--format", "csv"]),
        ("tailindex.fixture", ["tailindex", "--counts", str(data / "counts_deaths.csv")]),
        ("predict.fixture", ["predict", "--counts", str(data / "counts_infections.csv"),
                             "--prices-dir", str(data / "prices"), "--rates", str(data / "rates.csv"),
                             "--format", "md"]),
        ("factors.fixture", ["factors", "--prices-dir", str(data / "prices"), "--index", "AVX",
                             "--factors", str(data / "factors.csv"), "--format", "tex"]),
        ("unitroot.scaled.B0", ["unitroot", "--counts", str(inputs["counts_scaled"]), "--B", "0",
                                "--format", "md"]),
        ("tailindex.scaled", ["tailindex", "--counts", str(inputs["counts_scaled"])]),
        ("predict.scaled", ["predict", "--counts", str(inputs["counts_long"]),
                            "--prices-dir", str(inputs["prices"]), "--rates", str(data / "rates.csv"),
                            "--format", "tex"]),
        ("factors.scaled", ["factors", "--prices-dir", str(inputs["prices"]), "--index", "IDXA",
                            "--factors", str(inputs["factors"]), "--format", "csv"]),
    ]


def with_out(argv: list[str], out_dir: Path) -> list[str]:
    """Append ``--out``: a directory for tailindex, a file for the tables."""
    if argv[0] == "tailindex":
        return argv + ["--out", str(out_dir)]
    fmt = argv[argv.index("--format") + 1]
    return argv + ["--out", str(out_dir / f"table.{fmt}")]


def hash_outputs(out_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(f.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class CliResult:
    returncode: int
    stderr: str
    out_dir: Path
    maxrss_kb: int


def cli_invariants_for(argv: list[str]) -> Callable[[CliResult], list]:
    def check(res: CliResult) -> list:
        if res.returncode != 0:
            return [f"exit {res.returncode}: {res.stderr.strip()[-300:]}"]
        files = sorted(p for p in res.out_dir.rglob("*") if p.is_file())
        manifests = [f for f in files if f.name.endswith("manifest")]
        outputs = [f for f in files if not f.name.endswith("manifest")]
        problems = []
        if len(manifests) != 1:
            problems.append(f"{len(manifests)} manifests")
        if not outputs or any(f.stat().st_size == 0 for f in outputs):
            problems.append("missing or empty output")
        if argv[0] == "unitroot" and argv[argv.index("--B") + 1] != "0":
            text = outputs[0].read_text(encoding="utf-8") if outputs else ""
            lo = round(1.0 / (CLI_B + 1), 3)
            for cell in re.findall(r"\((\d+\.\d+)\)", text):
                if not lo <= float(cell) <= 1.0:
                    problems.append(f"rendered p-value {cell} outside [{lo}, 1]")
        return problems

    return check


def run_cli_process(argv: list[str], out_dir: Path, env: dict) -> CliResult:
    """One fresh interpreter; ``wait4`` gives this child's own peak RSS."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "robustts.cli"] + with_out(argv, out_dir),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
    )
    stderr = proc.stderr.read().decode("utf-8", "replace")
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, stderr, out_dir, usage.ru_maxrss)


def cli_record(res: CliResult) -> dict:
    return {"exact": {"sha256": hash_outputs(res.out_dir)}, "approx": {}}


def build_cli(seed: int, tmp: Path, root: Path, env: dict) -> Workload:
    inputs = write_cli_inputs(seed, tmp, root)
    ops, inproc = [], []
    for i, (kind, argv) in enumerate(cli_commands(seed, inputs, root)):
        out_dir = tmp / "cli" / f"op{i}"
        run = lambda argv=argv, out_dir=out_dir: run_cli_process(argv, out_dir, env)
        ops.append(Op(kind, run, cli_record, cli_invariants_for(argv)))
        inproc.append(argv)
    return Workload("cli", ops, MIN_CYCLES["cli"], "import robustts.cli\n", [], inproc=inproc)


# ------------------------------------------------------------------ checking


def close(a, b) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_to_reference(record: dict, ref: dict) -> list:
    """Exact fields must match bit for bit, approx fields within 1e-9 relative."""
    problems = []
    for part in ("exact", "approx"):
        got, want = record.get(part, {}), ref.get(part, {})
        if set(got) != set(want):
            problems.append(f"{part} fields differ: {sorted(set(got) ^ set(want))[:5]}")
            continue
        for key, value in want.items():
            ok = got[key] == value if part == "exact" else close(got[key], value)
            if not ok:
                problems.append(f"{key}: got {got[key]!r}, reference {value!r}")
    return problems


MAKE_WORKLOAD = {"bootstrap": build_bootstrap, "estimators": build_estimators, "cli": build_cli}
