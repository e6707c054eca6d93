"""The benchmark's own tests: helpers, tracing, gates and the smoke mode.

    python3 bench/selftest.py

Kept out of tier-1 on purpose: the file name does not match pytest's test
pattern, and the smoke mode takes about two minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import qinv  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import tail  # noqa: E402


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(tail([float(k) for k in range(1, 20)]), (19.0, "max"))
        self.assertEqual(tail([float(k) for k in range(1, 21)]), (10.0, "p50"))
        self.assertEqual(tail([float(k) for k in range(1, 101)]), (90.0, "p90"))
        self.assertEqual(tail([float(k) for k in range(1, 1001)]), (990.0, "p99"))


class TracingTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [("op", 0.0, 10.0, -1), ("invariants.f", 1.0, 9.0, 0),
                 ("pauli._apply_2x2", 2.0, 5.0, 1), ("pauli._apply_2x2", 6.0, 7.0, 1)]
        self.assertEqual(tracing.self_times(spans),
                         {"op": 2.0, "invariants.f": 4.0, "pauli._apply_2x2": 4.0})
        shares = tracing.module_self_times(spans)
        self.assertEqual((shares["invariants"], shares["pauli"], shares["state"]),
                         (4.0, 4.0, 0.0))

    def test_wraps_every_binding_and_restores(self):
        original = qinv.state.partial_trace
        state = qinv.random_state(3, 1)
        rec = tracing.Recorder()
        rec.install()
        try:
            self.assertIs(qinv.invariants.partial_trace, qinv.state.partial_trace)
            self.assertIs(qinv.partial_trace, qinv.state.partial_trace)
            self.assertIsNot(qinv.state.partial_trace, original)
            rec.span(tracing.ROOT_SPAN, qinv.single_qubit_invariant_dm, state, 1)
        finally:
            rec.uninstall()
        self.assertIs(qinv.state.partial_trace, original)
        self.assertIs(qinv.invariants.partial_trace, original)
        self.assertEqual(rec.missing, [])
        spans = list(rec.spans())
        names = [s[0] for s in spans]
        self.assertEqual(names[:2], [tracing.ROOT_SPAN, "invariants.single_qubit_invariant_dm"])
        self.assertIn("state.partial_trace", names)
        self.assertIn("state.DensityMatrix", names)
        self.assertTrue(all(spans[p][1] <= s[1] and s[2] <= spans[p][2]
                            for s in spans for p in [s[3]] if p >= 0))


class GateTest(unittest.TestCase):
    def _report(self, **kw):
        fields = dict(invariant="Z", samples=workloads.SAMPLES, seed=7, passed=False,
                      metric="rel", max_rel_deviation=float("inf"),
                      max_abs_deviation=1e-15, tol=workloads.SL_TOL)
        fields.update(kw)
        return SimpleNamespace(**fields)

    def test_zero_base_verdict_is_a_counted_known_defect(self):
        wl = workloads.OrbitSL.__new__(workloads.OrbitSL)
        op = ("w3:Z", None, "Z", 7)
        failure = wl.check(op, self._report())
        self.assertEqual(failure.known_defect, "zero-base-rel-verdict")
        large = wl.check(op, self._report(max_abs_deviation=1e-3))
        self.assertIsNotNone(large)
        self.assertIsNone(large.known_defect)
        self.assertIsNone(wl.check(op, self._report(passed=True)))

    def test_report_gate_catches_a_wrong_value(self):
        wl = workloads.Report.__new__(workloads.Report)
        wl._refs = {}
        wl.states = [("random5", qinv.random_state(5, 3)), ("ghz6", workloads.ghz(6))]
        out = [qinv.invariant_report(s) for _, s in wl.states]
        self.assertIsNone(wl.check("pass", out))
        bad = qinv.invariant_report(qinv.random_state(6, 4))
        self.assertIsNotNone(wl.check("pass", [out[0], bad]))


class CommandTest(unittest.TestCase):
    def test_smoke_mode(self):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "report", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=180, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            self.assertNotIn("correct", json.loads(line) if line.startswith("{") else {})


if __name__ == "__main__":
    unittest.main()
