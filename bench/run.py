"""Run one benchmark workload against the package under ``src/`` and print its metrics.

    python3 bench/run.py --workload {bootstrap,estimators,cli,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload is one closed-loop caller: this process (``cli``: one child
interpreter at a time) sends the next operation only after the previous one
returned, on a single thread.  Inputs are generated from ``--seed``; the
timed loop repeats the workload's cycle of operations, in whole cycles,
until ``--seconds`` have passed and at least ``workloads.MIN_CYCLES`` cycles
ran.  Every result is checked: against the stored
reference for the reference seeds, otherwise against invariants, and always
against the first run of the same operation.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last line of standard output is one
JSON object; a result file with the environment goes to ``bench/out/``.
The exit code is 1 when any operation failed or any output check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import MAKE_WORKLOAD, Op, compare_to_reference, hash_outputs, with_out

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("bootstrap", "estimators", "cli")
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
IMPORT_METRICS = {
    "import.numpy_ms": "numpy",
    "import.scipy_stats_ms": "scipy.stats",
    "import.scipy_signal_ms": "scipy.signal",
    "import.robustts_ms": "robustts",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "report.bytes":
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wall(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


# --------------------------------------------------------------- environment


def _cache_sizes() -> dict:
    sizes = {}
    try:
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (idx / "type").read_text().strip() != "Instruction":
                sizes[f"L{(idx / 'level').read_text().strip()}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _openblas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return os.environ.get("OPENBLAS_NUM_THREADS")
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ checking


class Checker:
    """Invariants always; stored reference for reference seeds; repeat equality."""

    def __init__(self, reference: list | None):
        self.reference = reference
        self.first: dict[int, dict] = {}

    def check(self, i: int, op, result) -> list:
        problems = op.invariants(result)
        if problems:
            return problems
        record = op.record(result)
        if self.reference is not None:
            problems += compare_to_reference(record, self.reference[i])
        if i not in self.first:
            self.first[i] = record
        elif record != self.first[i]:
            problems.append("result differs from the first run of this op")
        return problems


def load_reference(workload: str, seed: int):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed % 2**32))


def run_op(i: int, op, checker: Checker, failures: list):
    """Time one op; check it outside the timed region.  Returns (seconds, result)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is counted, the run goes on
        elapsed = time.perf_counter() - t0
        failures.append({"op": i, "kind": op.kind, "problems": [f"raised {exc!r}"]})
        return elapsed, None
    elapsed = time.perf_counter() - t0
    problems = checker.check(i, op, result)
    if problems:
        failures.append({"op": i, "kind": op.kind, "problems": problems[:5]})
    return elapsed, result


# ------------------------------------------------------------------ measuring


def measure_setup(wl, env: dict, repeats: int) -> list[float]:
    """Fresh-interpreter set-up times; the median drops a first cold start."""
    cmd = [sys.executable, "-c", wl.probe_code, *wl.probe_args]
    return [wall(cmd, env) for _ in range(repeats)]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Value at the highest percentile that leaves at least ten ops above it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def run_untraced(wl, seconds: float, checker: Checker) -> dict:
    failures: list = []
    if wl.name != "cli":  # in-process lazy set-up; cli children start fresh anyway
        run_op(0, wl.ops[0], checker, failures)
    latencies, child_rss_kb = [], 0
    cycles = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            dt, result = run_op(i, op, checker, failures)
            latencies.append(dt)
            child_rss_kb = max(child_rss_kb, getattr(result, "maxrss_kb", 0))
        cycles += 1
        if time.perf_counter() - start >= seconds and cycles >= wl.min_cycles:
            break
    elapsed = time.perf_counter() - start
    rss_kb = child_rss_kb if wl.name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail, pct = tail_latency(latencies)
    return {
        "latencies": latencies,
        "cycles": cycles,
        "elapsed": elapsed,
        "failures": failures,
        "attempted": len(latencies) + (wl.name != "cli"),
        "tail_pct": pct,
        "metrics": {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }


def startup_metrics(env: dict) -> dict:
    samples: dict[str, list] = {k: [] for k in IMPORT_METRICS}
    cmd = [sys.executable, "-X", "importtime", "-c", "import robustts"]
    for _ in range(STARTUP_REPEATS):
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(cumulative.get(module, 0) / 1e3)
    start = [wall([sys.executable, "-c", "pass"], env) * 1e3 for _ in range(STARTUP_REPEATS)]
    out = {"interp.start_ms": statistics.median(start)}
    out.update({k: statistics.median(v) for k, v in samples.items()})
    return out


def run_traced(wl, seed: int, seconds: float, checker: Checker, env: dict, tmp: Path) -> dict:
    """Run every op untraced and traced back to back, alternating which goes first.

    ``cli`` re-runs each command in-process through ``robustts.cli.main`` (the
    first cycle also runs the child process) and requires byte-identical output.
    """
    import robustts.cli

    tracer = Tracer()
    failures: list = []
    ops = wl.ops
    if wl.name == "cli":
        expected = {}
        for i, op in enumerate(ops):
            _, result = run_op(i, op, checker, failures)
            if result is not None and result.returncode == 0:
                expected[i] = hash_outputs(result.out_dir)

        def inproc(i, argv):
            out_dir = tmp / "inproc" / f"op{i}"

            def run():
                shutil.rmtree(out_dir, ignore_errors=True)
                out_dir.mkdir(parents=True)
                code = robustts.cli.main(with_out(argv, out_dir))
                return code, hash_outputs(out_dir)

            def invariants(res):
                code, digest = res
                if code != 0:
                    return [f"in-process exit {code}"]
                if digest != expected.get(i):
                    return ["in-process bytes differ from the child process output"]
                return []

            return Op(ops[i].kind, run, lambda res: {"exact": {"sha256": res[1]}}, invariants)

        ops = [inproc(i, argv) for i, argv in enumerate(wl.inproc)]
        checker = Checker(None)
    attempted = (len(wl.ops) if wl.name == "cli" else 0) + 1
    run_op(0, ops[0], checker, failures)  # warm-up, not timed
    untraced = traced = 0.0
    traced_ops = cycles = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            for with_trace in ((False, True) if (i + cycles) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    tracer.op = traced_ops
                try:
                    dt, _ = run_op(i, op, checker, failures)
                finally:
                    tracer.uninstall()
                attempted += 1
                if with_trace:
                    traced += dt
                    traced_ops += 1
                else:
                    untraced += dt
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = layer_metrics(tracer.spans, traced_ops)
    metrics.update(startup_metrics(env))
    metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    return {
        "cycles": cycles,
        "elapsed": time.perf_counter() - start,
        "failures": failures,
        "attempted": attempted,
        "traced_ops": traced_ops,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------- main


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        total["correct"] &= result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    emit(total)
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robustts" / "__init__.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        print(f"error: no robustts sources under {SRC} (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = MAKE_WORKLOAD[args.workload](args.seed, tmp, ROOT, env)
        checker = Checker(load_reference(args.workload, args.seed))
        details: dict = {"reference_checked": checker.reference is not None}
        if args.trace:
            res = run_traced(wl, args.seed, args.seconds, checker, env, tmp)
            metrics = res["metrics"]
            details.update({k: res[k] for k in ("traced_ops", "spans", "spans_file")})
        else:
            setup = measure_setup(wl, env, SETUP_REPEATS)
            res = run_untraced(wl, args.seconds, checker)
            metrics = {"setup_s": statistics.median(setup), **res["metrics"]}
            details.update({
                "setup_samples_s": setup,
                "op_tail_percentile": res["tail_pct"],
                "ops": len(res["latencies"]),
                "latencies_ms": [round(x * 1e3, 3) for x in res["latencies"]],
                "op_kinds": [op.kind for op in wl.ops],
            })
        failed = len(res["failures"])
        attempted = max(res["attempted"], 1)
        units = END_TO_END_UNITS if not args.trace else {k: unit_of(k) for k in metrics}
        out = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        details.update({"cycles": res["cycles"], "elapsed_s": res["elapsed"],
                        "error_rate": failed / attempted, "failures": res["failures"][:20],
                        "failed_kinds": sorted({f["kind"] for f in res["failures"]})})
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(args.seed),
                  "metrics": out, "details": details}
        result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} ops={attempted} "
          f"cycles={res['cycles']} elapsed_s={res['elapsed']:.1f} "
          f"reference_checked={details['reference_checked']}")
    for name, m in out.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{details['op_tail_percentile']:.1f} of {details['ops']} ops)"
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  {'error_rate':32s} {failed / attempted:14.4f} ratio  ({failed} of {attempted} ops failed)")
    for f in res["failures"][:5]:
        print(f"  FAILED op {f['op']} ({f['kind']}): {'; '.join(f['problems'])}", file=sys.stderr)
    emit({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out})
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
