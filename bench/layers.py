"""Per-layer timings: each module's public functions called directly.

Sizes are part of the metric names. Each timing is the median per-call time
over several batches, after one warm-up call; calls slower than
``SLOW_CALL_S`` are timed twice instead. ``quick`` times every call once (the
smoke mode).
"""
from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

import qinv
import qinv.cli
from workloads import state_file_text

BATCHES = 5
BATCH_S = 0.03
SLOW_CALL_S = 0.3
SUBPROCESS_REPEATS = 5
AMPLITUDE_BYTES = 16


def per_call_s(fn, quick: bool) -> float:
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if quick:
        return first
    if first > SLOW_CALL_S:
        t0 = time.perf_counter()
        fn()
        return (first + time.perf_counter() - t0) / 2
    reps = max(1, int(BATCH_S / max(first, 1e-7)))
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def _wall_s(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stderr


def import_times_s(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out[name.strip()] = int(cumulative) * 1e-6
    return out


def _cli_process_layers(quick: bool) -> dict[str, float]:
    repeats = 1 if quick else SUBPROCESS_REPEATS
    interp, imp, scipy_imp = [], [], []
    for _ in range(repeats):
        interp.append(_wall_s([sys.executable, "-c", "pass"])[0])
        times = import_times_s(
            _wall_s([sys.executable, "-X", "importtime", "-c", "import qinv"])[1])
        imp.append(times["qinv"])
        # Zero once scipy is no longer imported by qinv.
        scipy_imp.append(times.get("scipy.linalg", 0.0))
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imp),
            "cli.import_scipy_s": statistics.median(scipy_imp)}


def measure(workdir: str, llc_bytes: int | None, quick: bool = False):
    """Return ({name: (value, unit)}, details)."""
    rs = qinv.random_state
    s3, s5, s7, s8 = rs(3, 31), rs(5, 51), rs(7, 71), rs(8, 81)
    s16 = rs(16, 161)
    rho1 = qinv.partial_trace(s3, {1})
    u = qinv.random_lu(1, 5).ops[0]
    lu5, sl5 = qinv.random_lu(5, 52).ops, qinv.random_sl(5, 53).ops
    g3, g8 = qinv.random_lu(3, 32), qinv.random_sl(8, 82)
    spin8 = (qinv.SPIN_FLIP,) * 8
    spin3 = (qinv.SPIN_FLIP,) * 3

    path14 = os.path.join(workdir, "layers-n14.json")
    s14 = rs(14, 141)
    with open(path14, "w", encoding="utf-8") as fh:
        fh.write(state_file_text(s14))

    def main_compute():
        with contextlib.redirect_stdout(io.StringIO()):
            code = qinv.cli.main(["compute", "-s", path14, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"qinv compute exited {code}")

    us = [
        ("state.PureState.n3.us", lambda: qinv.PureState(3, s3.amplitudes)),
        ("state.PureState.n16.us", lambda: qinv.PureState(16, s16.amplitudes)),
        ("state.partial_trace.n3.keep1.us", lambda: qinv.partial_trace(s3, {1})),
        ("state.partial_trace.n3.keep2.us", lambda: qinv.partial_trace(s3, {1, 2})),
        ("state.purity.us", lambda: qinv.purity(rho1)),
        ("pauli.apply_single_qubit.n3.us", lambda: qinv.apply_single_qubit(s3, 2, u)),
        ("pauli.expectation.n3.us", lambda: qinv.expectation(s3, "XYZ")),
        ("pauli.bilinear.n3.us", lambda: qinv.bilinear(s3, spin3)),
        ("pauli.bilinear.n8.us", lambda: qinv.bilinear(s8, spin8)),
        ("invariants.single_qubit_invariant.n5.us",
         lambda: qinv.single_qubit_invariant(s5, 3)),
        ("invariants.pair_invariant.n5.us", lambda: qinv.pair_invariant(s5, 2, 4)),
        ("invariants.cubic_invariant.us", lambda: qinv.cubic_invariant(s3)),
        ("invariants.three_tangle.us", lambda: qinv.three_tangle(s3)),
        ("invariants.odd_tangle.n3.us", lambda: qinv.odd_tangle(s3)),
        ("invariants.odd_tangle.n7.us", lambda: qinv.odd_tangle(s7)),
        ("invariants.concurrence.n8.us", lambda: qinv.concurrence(s8)),
        ("orbit.random_lu.n3.us", lambda: qinv.random_lu(3, 33)),
        ("orbit.random_lu.n5.us", lambda: qinv.random_lu(5, 54)),
        ("orbit.LocalOperator.lu.n5.us", lambda: qinv.LocalOperator(lu5, "LU")),
        ("orbit.random_sl.n3.us", lambda: qinv.random_sl(3, 34)),
        ("orbit.random_sl.n8.us", lambda: qinv.random_sl(8, 83)),
        ("orbit.LocalOperator.sl.n5.us", lambda: qinv.LocalOperator(sl5, "SL")),
        ("orbit.apply_local.n3.us", lambda: qinv.apply_local(s3, g3)),
        ("orbit.apply_local.n8.us", lambda: qinv.apply_local(s8, g8)),
    ]
    metrics = {name: (per_call_s(fn, quick) * 1e6, "us") for name, fn in us}

    samples = 100
    for group, name, tol in (("lu", "I_6", 1e-9), ("sl", "Z", 1e-7)):
        t = per_call_s(lambda: qinv.verify_invariance(s3, name, group.upper(), samples,
                                                      tol, 35), quick)
        metrics[f"orbit.verify_invariance.{group}.n3.per_sample_us"] = (
            t / samples * 1e6, "us")

    details = {"kernel_bytes": "pauli.*.gbps_computed is computed, not measured "
               "traffic: 2 x 16 B per amplitude (read + write) over the call time."}
    for n in (16, 22):
        s = s16 if n == 16 else rs(n, 221)
        t = per_call_s(lambda: qinv.apply_single_qubit(s, (n + 1) // 2, u), quick)
        array_bytes = AMPLITUDE_BYTES << n
        metrics[f"pauli.apply_single_qubit.n{n}.us"] = (t * 1e6, "us")
        metrics[f"pauli.apply_single_qubit.n{n}.gbps_computed"] = (
            2 * array_bytes / t / 1e9, "GB/s")
        details[f"pauli.apply_single_qubit.n{n}"] = {
            "array_bytes": array_bytes, "llc_bytes": llc_bytes,
            "array_over_llc": array_bytes / llc_bytes if llc_bytes else None,
            "dram_bandwidth_claimed": False}
        del s

    s17 = rs(17, 171)
    seconds = [
        ("invariants.first_kind_fingerprint.n16.s",
         lambda: qinv.first_kind_fingerprint(s16)),
        ("invariants.first_kind_fingerprint.n17.s",
         lambda: qinv.first_kind_fingerprint(s17)),
        ("invariants.invariant_report.n16.s", lambda: qinv.invariant_report(s16)),
        ("invariants.invariant_report.n17.s", lambda: qinv.invariant_report(s17)),
        ("orbit.random_state.n17.s", lambda: qinv.random_state(17, 172)),
        ("cli.load_state.n14.s", lambda: qinv.cli.load_state(path14)),
        ("cli.dumps_state.n14.s", lambda: qinv.cli.dumps_state(s14)),
        ("cli.main_compute.n14.s", main_compute),
    ]
    metrics.update({name: (per_call_s(fn, quick), "s") for name, fn in seconds})
    metrics.update({name: (v, "s") for name, v in _cli_process_layers(quick).items()})
    return metrics, details
