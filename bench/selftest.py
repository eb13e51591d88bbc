"""Self-tests of the benchmark: generators, output checks and span arithmetic.

    python3 bench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))

import robustts  # noqa: E402
import robustts.cli  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _digest(obj) -> str:
    """Hash of every array and scalar reachable from a generated input."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        elif isinstance(x, dict):
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif hasattr(x, "__dataclass_fields__"):
            for name in x.__dataclass_fields__:
                feed(getattr(x, name))
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


class TempDir(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class GeneratorTests(TempDir):
    def test_library_inputs_repeat_per_seed(self):
        for gen in (workloads.bootstrap_series, workloads.estimator_inputs):
            self.assertEqual(_digest(gen(3)), _digest(gen(3)))
            self.assertNotEqual(_digest(gen(3)), _digest(gen(4)))

    def test_cli_inputs_repeat_per_seed(self):
        def files(seed, sub):
            paths = workloads.write_cli_inputs(seed, self.tmp / sub, run.ROOT)
            root = paths["counts_scaled"].parent
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        first, again, other = files(5, "a"), files(5, "b"), files(6, "c")
        self.assertEqual(first, again)
        self.assertEqual(set(first), set(other))
        self.assertNotEqual(first, other)


class CheckTests(TempDir):
    def test_perturbed_p_value_is_rejected(self):
        reference = run.load_reference("bootstrap", 0)
        op = workloads.build_bootstrap(0, self.tmp, run.ROOT, run.child_env()).ops[0]
        record = op.record(op.run())
        self.assertEqual(workloads.compare_to_reference(record, reference[0]), [])
        bumped = json.loads(json.dumps(record))
        bumped["exact"]["p.ADF"] += 1.0 / (workloads.B + 1)
        self.assertNotEqual(workloads.compare_to_reference(bumped, reference[0]), [])

    def test_changed_output_byte_is_rejected(self):
        reference = run.load_reference("cli", 0)
        inputs = workloads.write_cli_inputs(0, self.tmp, run.ROOT)
        commands = workloads.cli_commands(0, inputs, run.ROOT)
        i = next(j for j, (kind, _) in enumerate(commands) if kind == "tailindex.fixture")
        out = self.tmp / "out"
        self.assertEqual(robustts.cli.main(workloads.with_out(commands[i][1], out)), 0)
        record = {"exact": {"sha256": workloads.hash_outputs(out)}, "approx": {}}
        self.assertEqual(workloads.compare_to_reference(record, reference[i]), [])
        victim = sorted(out.glob("*.csv"))[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        record = {"exact": {"sha256": workloads.hash_outputs(out)}, "approx": {}}
        self.assertNotEqual(workloads.compare_to_reference(record, reference[i]), [])

    def test_approx_fields_use_relative_tolerance(self):
        ref = {"exact": {}, "approx": {"x": 1.0e6}}
        self.assertEqual(workloads.compare_to_reference({"exact": {}, "approx": {"x": 1.0e6 + 1e-4}}, ref), [])
        self.assertNotEqual(workloads.compare_to_reference({"exact": {}, "approx": {"x": 1.0e6 + 1e-2}}, ref), [])


class SpanTests(unittest.TestCase):
    def test_self_plus_children_equals_span(self):
        tracer = Tracer()

        leaf_t = tracer.wrap("x", "leaf", lambda: time.sleep(0.002))
        mid_t = tracer.wrap("x", "middle", lambda: (leaf_t(), time.sleep(0.001), leaf_t()))
        top_t = tracer.wrap("x", "top", lambda: (mid_t(), leaf_t()))
        top_t()
        spans = tracer.spans
        self.assertEqual([s[0] for s in spans], ["top", "middle", "leaf", "leaf", "leaf"])
        self.assertEqual([s[4] for s in spans], [-1, 0, 1, 1, 0])
        own = self_times(spans)
        for i, s in enumerate(spans):
            children = sum(c[3] - c[2] for c in spans if c[4] == i)
            self.assertAlmostEqual(own[i] + children, s[3] - s[2], delta=1e-12)
            self.assertGreaterEqual(own[i], 0.0)

    def test_install_traces_program_calls_and_uninstall_restores(self):
        original = robustts.regression.long_run_variance
        tracer = Tracer()
        tracer.install()
        try:
            robustts.tail_curve(np.arange(1.0, 201.0), "hill", robustts.k_grid(200))
        finally:
            tracer.uninstall()
        self.assertIs(robustts.regression.long_run_variance, original)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[:2], ["k_grid", "tail_curve"])
        self.assertIn("hill_estimate", names)
        curve = tracer.spans[1]
        self.assertTrue(all(s[4] == 1 for s in tracer.spans[2:]))
        self.assertEqual(curve[6][0], "hill")


if __name__ == "__main__":
    unittest.main()
