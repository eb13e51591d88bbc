"""Write the reference results that ``run.py`` checks the reference seeds against.

    python3 bench/make_reference.py [--workload NAME ...]

Runs one cycle of each workload for every seed in ``REFERENCE_SEEDS`` and
stores each op's record in ``bench/reference/<workload>.json``: battery,
tail and regression numbers (compared within 1e-9 relative), bootstrap
p-values and lags (compared exactly) and the sha256 of every ``cli`` output
file set (compared exactly).  Regenerate only when a change to the program
is meant to change its results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

REFERENCE_SEEDS = (0, 12345)  # 0 is the default seed, 12345 is held out from tuning


def reference_records(workload: str, seed: int) -> list[dict]:
    tmp = Path(tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=run.OUT))
    try:
        wl = run.MAKE_WORKLOAD[workload](seed, tmp, run.ROOT, run.child_env())
        records = []
        for op in wl.ops:
            result = op.run()
            problems = op.invariants(result)
            if problems:
                raise SystemExit(f"{workload} seed {seed} {op.kind}: {problems}")
            records.append(op.record(result))
        return records
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        seeds = {str(s): reference_records(workload, s) for s in REFERENCE_SEEDS}
        payload = {"workload": workload, "commit": run._git_commit(), "seeds": seeds}
        path = run.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
