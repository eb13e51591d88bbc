"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Reproducing the
original empirical tables needs archived 2020-2021 data snapshots, so numeric
replication is opt-in (set ROBUSTTS_ARCHIVE_DATA); everything else is
property- and Monte-Carlo-based with frozen tolerances.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import t as student_t

from robustts.bootstrap import unit_root_report
from robustts.cli import main as cli_main
from robustts.regression import (
    andrews_bandwidth,
    grouped_ols,
    group_partition,
    im_tstat,
    long_run_variance,
    qs_kernel,
)
from robustts.tailindex import hill_estimate, rank_size_estimate
from robustts.unitroot import _battery_batch, _chunk_rows

from reference_unitroot import mz_msb_mzt

DATA = Path(__file__).parent / "data"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def pareto(rng, n, zeta):
    return rng.random(n) ** (-1.0 / zeta)


def test_c01_hill_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    zetas, covered = [], 0
    for _ in range(200):
        fit = hill_estimate(pareto(rng, 10_000, 2.0), 500)
        zetas.append(fit.zeta)
        covered += fit.ci95[0] <= 2.0 <= fit.ci95[1]
    elapsed = time.perf_counter() - start
    mean = float(np.mean(zetas))
    ok = 1.9 <= mean <= 2.1 and covered >= 0.90 * 200 and elapsed < 10
    report(
        "C1 hill-recovery", ok,
        f"mean={mean:.4f} in [1.9,2.1], coverage={covered / 200:.3f} >= 0.90, {elapsed:.1f}s < 10s",
    )


def test_c02_rank_size_shift_correction():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    bias_half, bias_zero = [], []
    for _ in range(2000):
        x = pareto(rng, 50, 1.0)
        bias_half.append(rank_size_estimate(x, 50, shift=0.5).zeta - 1.0)
        bias_zero.append(rank_size_estimate(x, 50, shift=0.0).zeta - 1.0)
    elapsed = time.perf_counter() - start
    b_half, b_zero = abs(np.mean(bias_half)), abs(np.mean(bias_zero))
    ok = b_half < b_zero and elapsed < 10
    report(
        "C2 rank-size-shift", ok,
        f"|bias(1/2)|={b_half:.4f} < |bias(0)|={b_zero:.4f}, {elapsed:.1f}s < 10s",
    )


def test_c03_rank_size_standard_error():
    rng = np.random.default_rng(103)
    zetas = np.array([rank_size_estimate(pareto(rng, 1000, 1.0), 200).zeta for _ in range(1000)])
    target = math.sqrt(2.0 / 200) * 1.0
    ratio = float(zetas.std(ddof=1)) / target
    ok = abs(ratio - 1.0) < 0.20
    report("C3 rank-size-se", ok, f"sd ratio={ratio:.3f} within 20% of sqrt(2/k)*zeta")


def test_c04_dfgls_null_distribution():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    T = 200
    Y = np.cumsum(rng.standard_normal((10_000, T)), axis=1)  # one walk per row
    rows = _chunk_rows(T)
    stats = np.concatenate(
        [_battery_batch(Y[i : i + rows])["ADF"] for i in range(0, len(Y), rows)]
    )
    elapsed = time.perf_counter() - start
    q5 = float(np.percentile(stats, 5))
    ok = -2.10 <= q5 <= -1.80 and elapsed < 60
    report("C4 dfgls-null", ok, f"5% quantile={q5:.3f} in [-2.10,-1.80], {elapsed:.1f}s < 60s")


def test_c05_bootstrap_size_and_power():
    start = time.perf_counter()
    rng = np.random.default_rng(105)

    rejections = {"ADF": 0, "MZt": 0}
    n_size = 500
    for i in range(n_size):
        y = np.cumsum(rng.standard_normal(150))
        rep = unit_root_report(y, B=399, seed=(105, i))
        for name in rejections:
            rejections[name] += rep.p_values[name] <= 0.05
    size_adf = rejections["ADF"] / n_size
    size_mzt = rejections["MZt"] / n_size

    n_power = 200
    power_hits = {"ADF": 0, "MZt": 0}
    for i in range(n_power):
        e = rng.standard_normal(200)
        y = np.zeros(200)
        for t in range(1, 200):
            y[t] = 0.8 * y[t - 1] + e[t]
        rep = unit_root_report(y, B=399, seed=(205, i))
        for name in power_hits:
            power_hits[name] += rep.p_values[name] <= 0.05
    power_adf = power_hits["ADF"] / n_power
    power_mzt = power_hits["MZt"] / n_power

    elapsed = time.perf_counter() - start
    ok = (
        0.03 <= size_adf <= 0.07
        and 0.03 <= size_mzt <= 0.07
        and power_adf >= 0.50
        and power_mzt >= 0.50
        and elapsed < 600
    )
    report(
        "C5 bootstrap-size-power", ok,
        f"size ADF={size_adf:.3f}, MZt={size_mzt:.3f} in [0.03,0.07]; "
        f"power ADF={power_adf:.2f}, MZt={power_mzt:.2f} >= 0.50; {elapsed:.0f}s < 600s",
    )


def test_c06_mz_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal(int(rng.integers(10, 200)))
        s2 = float(rng.uniform(0.01, 10.0))
        mza, msb, mzt = mz_msb_mzt(v, s2)
        worst = max(worst, abs(mzt - mza * msb) / max(1.0, abs(mzt)))
    ok = worst <= 1e-10
    report("C6 mz-identity", ok, f"max relative defect={worst:.2e} <= 1e-10")


def test_c07_hac_oracle():
    rng = np.random.default_rng(107)
    T = 5000
    e = rng.standard_normal(T)
    u = np.zeros(T)
    for t in range(1, T):
        u[t] = 0.5 * u[t - 1] + e[t]
    lrv = float(long_run_variance(u, andrews_bandwidth(u))[0, 0])
    z = 6.0 * math.pi / 5.0
    qs1_closed = 25.0 / (12.0 * math.pi**2) * (math.sin(z) / z - math.cos(z))
    ok = (
        abs(lrv / 4.0 - 1.0) < 0.10
        and qs_kernel(0.0) == 1.0
        and abs(qs_kernel(1.0) - qs1_closed) < 1e-6
    )
    report(
        "C7 hac-oracle", ok,
        f"lrv={lrv:.3f} within 10% of 4; qs(0)=1 exact; qs(1) err={abs(qs_kernel(1.0) - qs1_closed):.1e}",
    )


def test_c08_grouped_t_mechanics():
    g = im_tstat([0.5, 1.0, 1.5, 2.0])
    crit5 = float(student_t.ppf(0.975, 3))
    mech_ok = abs(g.t_stat - 3.873) <= 0.001 and g.df == 3 and abs(g.t_stat) > crit5

    rng = np.random.default_rng(108)
    T, q = 400, 8
    crit = float(student_t.ppf(0.975, q - 1))
    rej = 0
    for _ in range(2000):
        x = rng.standard_normal(T)
        y = 0.3 + rng.standard_normal(T)  # true slope zero
        X = np.column_stack([np.ones(T), x])
        rej += abs(grouped_ols(X, y, q)[1].t_stat) > crit
    rate = rej / 2000
    ok = mech_ok and rate <= 0.07
    report(
        "C8 grouped-t", ok,
        f"t={g.t_stat:.3f}~3.873 (df 3, crit {crit5:.3f}); null rejection {rate:.3f} <= 0.07",
    )


def test_c09_partition_law():
    checked = 0
    for T in range(10, 1001):
        for q in (4, 8, 12, 16):
            if 2 * q > T:
                continue
            ranges = group_partition(T, q)
            sizes = [hi - lo for lo, hi in ranges]
            flat = [t for lo, hi in ranges for t in range(lo, hi)]
            assert flat == list(range(T)), (T, q)
            assert max(sizes) - min(sizes) <= 1, (T, q)
            checked += 1
    report("C9 partition-law", checked > 3000, f"{checked} (T,q) pairs verified")


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _golden_run(out: Path) -> dict[str, bytes]:
    """Run the four fixture commands into ``out``; every file written, by relative path."""
    commands = [
        ["unitroot", "--counts", DATA / "counts_infections.csv",
         "--B", "199", "--seed", "42", "--out", out / "unitroot.csv"],
        ["predict", "--counts", DATA / "counts_infections.csv",
         "--prices-dir", DATA / "prices", "--rates", DATA / "rates.csv",
         "--out", out / "predict.csv"],
        ["tailindex", "--counts", DATA / "counts_infections.csv", "--out", out / "tailindex"],
        ["factors", "--prices-dir", DATA / "prices", "--index", "AVX",
         "--factors", DATA / "factors.csv", "--out", out / "factors.csv"],
    ]
    for argv in commands:
        assert cli_main([str(a) for a in argv]) == 0, argv
    return _files(out)


def test_c10_end_to_end_golden_run(tmp_path):
    """Tables, curve files and manifests match tests/golden/cli byte for byte.

    After an intended output change, regenerate the golden files by hand: run
    the four commands of ``_golden_run`` from the repository root with each
    ``--out`` under ``tests/golden/cli``, and say why the bytes changed.
    """
    first = _golden_run(tmp_path / "a")
    second = _golden_run(tmp_path / "b")
    golden = _files(GOLDEN_CLI)
    same_rerun = first == second
    same_golden = first == golden
    changed = sorted(k for k in first.keys() | golden.keys() if first.get(k) != golden.get(k))
    ok = same_rerun and same_golden and len(first) >= 9
    report(
        "C10 golden-run", ok,
        f"{len(first)} artifacts byte-identical across reruns={same_rerun} "
        f"and to tests/golden/cli={same_golden} (differing: {changed})",
    )


def test_c11_conditional_replication_layout(tmp_path):
    # layout is checked on the bundled fixtures: the statistic columns match
    # the reference tables column-for-column
    ur = tmp_path / "ur.csv"
    assert cli_main([
        "unitroot", "--counts", str(DATA / "counts_infections.csv"),
        "--B", "0", "--country", "Borduria", "--out", str(ur),
    ]) == 0
    ur_cols = ur.read_text().splitlines()[0].split(",")

    pred = tmp_path / "pred.csv"
    assert cli_main([
        "predict", "--counts", str(DATA / "counts_infections.csv"),
        "--prices-dir", str(DATA / "prices"), "--rates", str(DATA / "rates.csv"),
        "--index", "AVX", "--out", str(pred),
    ]) == 0
    pred_cols = pred.read_text().splitlines()[0].split(",")

    fac = tmp_path / "fac.csv"
    assert cli_main([
        "factors", "--prices-dir", str(DATA / "prices"), "--index", "AVX",
        "--factors", str(DATA / "factors.csv"), "--out", str(fac),
    ]) == 0
    fac_cols = fac.read_text().splitlines()[0].split(",")

    ok = (
        ur_cols == ["series", "LR", "MZa", "MSB", "MZt", "MPt", "ADF"]
        and pred_cols == ["series", "T", "q=4", "q=8", "q=12", "q=16", "HAC"]
        and fac_cols == ["", "CAPM", "3-F", "4-F", "5-F", "6-F"]
    )
    report("C11 replication-layout", ok, "column layout matches the reference tables")

    if not os.environ.get("ROBUSTTS_ARCHIVE_DATA"):
        pytest.skip(
            "numeric replication needs the archived 2020-2021 snapshots; "
            "set ROBUSTTS_ARCHIVE_DATA to opt in"
        )
