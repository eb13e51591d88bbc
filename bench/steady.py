"""Steadiness report: repeat workloads and compare each metric's spread with its bound.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 100]
                            [--seconds S] [--save FILE] [--against FILE]

Runs ``run.py`` ``--runs`` times per workload, each with its own seed, and
prints per end-to-end metric the median, the quartiles (``statistics.
quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median.  A metric is
flagged when its spread exceeds its bound in ``BENCHMARK.json`` (``setup_s``
is reported, not flagged) or, with ``--against``, when its median is worse
than that earlier set's median by more than the bound.  A flagged metric
means the workload must run longer or be dropped.  Exit code 1 when
anything is flagged or any run failed.  ``--save`` writes the values, their
summaries and the environment; ``bench/baseline.json`` is such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric: dict, new: float, old: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, help="write values, summaries and environment as JSON")
    parser.add_argument("--against", type=Path, help="a file an earlier --save wrote")
    args = parser.parse_args()

    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    saved: dict[str, dict[str, dict]] = {}
    flagged = 0
    for workload in args.workload or names:
        runs = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        saved[workload] = {}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            s = summarize(values)
            saved[workload][name] = {"values": values, **s}
            notes, bad = [], False
            if name != "setup_s" and s["spread"] > bound:
                notes.append(f"SPREAD > bound {bound}")
                bad = True
            elif name != "setup_s" and s["spread"] > bound / 3:
                notes.append(f"spread > bound/3 ({bound / 3:.3f})")
            if workload in earlier:
                old = earlier[workload][name]["median"]
                shift = worse_by(metric, s["median"], old)
                notes.append(f"vs earlier median {old:.4g}: {shift:+.1%} worse")
                if shift > bound:
                    notes.append("WORSE THAN BOUND")
                    bad = True
            flagged += bad
            print(f"  {name:12s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}"
                  f"  spread {s['spread']:6.3f}  {metric['unit']:5s} {'; '.join(notes)}")
    if args.save:
        import run

        payload = {"environment": run.environment(None), "run_seconds": args.seconds,
                   "seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": saved}
        args.save.write_text(json.dumps(payload, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
