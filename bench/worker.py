"""One workload in one process, driven by run.py.

Protocol on stdout: the worker prints ``READY`` once its inputs exist, waits
for ``run`` (or ``exit``) on stdin, and ends with one ``RESULT <json>`` line.
Anything qinv prints goes to stderr, so it cannot break the protocol.

Untraced, the worker runs one checked warm-up pass over the workload's
cycle, then the timed loop. Traced, it runs the warm-up, the per-layer
timings of layers.py, and then alternates untraced and traced ops.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MAX_FAILURES_LISTED = 10
# Spans are held in memory: six seconds of traced orbit-lu is ~400k spans.
TRACE_PHASE_MAX_S = 6.0


def tail(durations: list[float]) -> tuple[float, str]:
    """Highest listed percentile with at least ten samples beyond it.

    Nearest-rank percentiles. With fewer than 20 samples no percentile
    qualifies and the maximum is reported, labelled as such.
    """
    ordered = sorted(durations)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-int(p * 10) * n // 1000)  # ceil(p/100 * n) without float error
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], f"p{p:g}"
    return ordered[-1], "max"


def op_label(op) -> str:
    return op if isinstance(op, str) else op[0]


def run_checked(wl, op, failures: list, recorder=None, **kwargs) -> float:
    """Run one op, time it, gate it outside the timed region; return seconds.

    With a ``recorder`` the op runs traced, inside one root span; the gate
    always runs untraced.
    """
    from workloads import Failure

    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = wl.run(op, **kwargs)
        else:
            recorder.install()
            try:
                out = recorder.span(tracing.ROOT_SPAN, wl.run, op, **kwargs)
            finally:
                recorder.uninstall()
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        dt = time.perf_counter() - t0
        failures.append(Failure(op_label(op), f"raised {type(exc).__name__}: {exc}"))
        return dt
    dt = time.perf_counter() - t0
    try:
        failure = wl.check(op, out)
    except Exception as exc:
        failure = Failure(op_label(op), f"gate raised {type(exc).__name__}: {exc}")
    if failure is not None:
        failures.append(failure)
    return dt


def failure_summary(failures: list, attempted: int) -> dict:
    """Counts for the result line, plus each distinct failure with its count."""
    distinct: dict[tuple, int] = {}
    for f in failures:
        key = (f.op, f.reason, f.known_defect)
        distinct[key] = distinct.get(key, 0) + 1
    known: dict[str, int] = {}
    for (_, _, defect), count in distinct.items():
        if defect:
            known[defect] = known.get(defect, 0) + count
    return {
        "attempted": attempted,
        "failed": len(failures),
        "unexpected_failures": sum(1 for f in failures if not f.known_defect),
        "fail_ratio": len(failures) / attempted,
        "known_defects": known,
        "failures": [{"op": op, "reason": reason, "known_defect": defect, "count": count}
                     for (op, reason, defect), count in distinct.items()
                     ][:MAX_FAILURES_LISTED],
    }


def warm_up(wl) -> None:
    """One checked, untimed pass over the cycle: fills caches and the gates'
    references before anything is timed."""
    for op in wl.cycle:
        run_checked(wl, op, [])


def untraced(wl, seconds: float, max_ops: int | None) -> dict:
    cycle = wl.cycle
    if not max_ops:
        warm_up(wl)
    durations: list[float] = []
    failures: list = []
    start = time.perf_counter()
    while True:
        durations.append(run_checked(wl, cycle[len(durations) % len(cycle)], failures))
        if max_ops and len(durations) >= max_ops:
            break
        # Stop on a cycle boundary so every run weighs the ops alike.
        if len(durations) % len(cycle) == 0 and time.perf_counter() - start >= seconds:
            break
    tail_s, tail_label = tail(durations)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    return {
        "metrics": {
            "op_p50_s": (statistics.median(durations), "s"),
            "op_tail_s": (tail_s, "s"),
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        },
        "details": {
            "op_tail_s": {"percentile": tail_label, "samples": len(durations)},
            "peak_rss_mb": "largest child process" if wl.name == "cli" else "this process",
            "timed_s": sum(durations),
            "cycle_ops": len(cycle),
            **failure_summary(failures, len(durations)),
        },
    }


def traced(wl, seconds: float, max_ops: int | None, workdir: str, llc: int | None) -> dict:
    import layers

    cycle = wl.cycle
    if not max_ops:
        warm_up(wl)
    metrics, details = layers.measure(workdir, llc, quick=bool(max_ops))

    trace_dir = Path(workdir) / "traces"
    child_dir = trace_dir / "children"
    child_dir.mkdir(parents=True, exist_ok=True)
    shim = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(child_dir)]
    rec = tracing.Recorder()
    failures: list = []
    seconds = min(seconds, TRACE_PHASE_MAX_S)
    plain_s = 0.0
    pairs = 0
    start = time.perf_counter()
    while True:
        op = cycle[pairs % len(cycle)]
        plain_s += run_checked(wl, op, failures)
        run_checked(wl, op, failures, rec, **({"argv0": shim} if wl.name == "cli" else {}))
        pairs += 1
        if max_ops and pairs >= max_ops:
            break
        if pairs % len(cycle) == 0 and time.perf_counter() - start >= seconds:
            break

    spans = list(rec.spans())
    # Traced wall time is the root spans: install, uninstall and gates excluded.
    traced_s = sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
    module_s = tracing.module_self_times(spans)
    children = sorted(child_dir.glob("*.jsonl"))
    for path in children:
        for module, value in tracing.module_self_times(tracing.load_spans(str(path))).items():
            module_s[module] += value
    for module, value in module_s.items():
        metrics[f"trace.{module}.self_share"] = (value / traced_s, "ratio")
    metrics["trace.unattributed.self_share"] = (1.0 - sum(module_s.values()) / traced_s,
                                                "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    rec.dump(str(trace_dir / "spans.jsonl"))
    details.update({
        "trace": {"pairs": pairs, "spans": len(spans), "child_span_files": len(children),
                  "traced_s": traced_s, "untraced_s": plain_s,
                  "unwrapped_targets": rec.missing, "spans_dir": str(trace_dir)},
        **failure_summary(failures, 2 * pairs),
    })
    return {"metrics": metrics, "details": details}


def _llc_bytes() -> int | None:
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if level > best[0]:
            best = (level, value)
    return best[1]


def _blas() -> dict:
    import numpy

    info = {"threads_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info.update(library=lib, threads=fn())
                return info
    return info


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, llc: int | None) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "llc_bytes": llc,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas": _blas(),
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--max-ops", type=int, default=None)
    args = parser.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr
    import qinv

    if not Path(qinv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qinv imported from {qinv.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    protocol.write("READY\n")
    protocol.flush()
    if sys.stdin.readline().strip() != "run":
        return 0
    llc = _llc_bytes()
    if args.trace:
        result = traced(wl, args.seconds, args.max_ops, args.workdir, llc)
    else:
        result = untraced(wl, args.seconds, args.max_ops)
    result["provenance"] = provenance(args, llc)
    protocol.write("RESULT " + json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
