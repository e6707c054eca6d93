"""qinv benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload report --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout that has ``src/qinv``; qinv is imported
from that ``src``, never from an installed copy. Untraced (``--trace 0``) the
last stdout line is the end-to-end result; traced (``--trace 1``) it holds the
per-layer metrics. The line before it carries provenance and details. See
bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("report", "orbit-lu", "orbit-sl", "cli")
# setup_s is the median of this many cold starts of the worker.
SETUPS = 5
DEADLINE_S = 170.0
READY, RESULT = "READY", "RESULT "


class BenchError(Exception):
    pass


def _read_tagged(proc: subprocess.Popen, tag: str) -> str:
    for line in proc.stdout:
        if line.startswith(tag):
            return line[len(tag):].strip()
    raise BenchError(f"worker exited with code {proc.wait()} before printing {tag.strip()}")


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 setups: int = SETUPS, max_ops: int | None = None) -> dict:
    """Start ``setups`` workers one after another; time each from spawn to
    READY; let the last one run the workload. Returns the combined result."""
    workdir = ROOT / ".bench_work" / f"{workload}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    if max_ops:
        argv += ["--max-ops", str(max_ops)]

    procs: list[subprocess.Popen] = []
    expired = threading.Event()

    def kill_all() -> None:
        expired.set()
        for p in procs:
            p.kill()

    watchdog = threading.Timer(DEADLINE_S, kill_all)
    watchdog.start()
    setup_s = []
    try:
        for k in range(setups):
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    text=True, env=env, cwd=ROOT)
            procs.append(proc)
            _read_tagged(proc, READY)
            setup_s.append(time.perf_counter() - t0)
            last = k == setups - 1
            proc.stdin.write("run\n" if last else "exit\n")
            proc.stdin.flush()
            if not last and proc.wait() != 0:
                raise BenchError(f"setup worker exited with code {proc.returncode}")
        result = json.loads(_read_tagged(proc, RESULT))
        if proc.wait() != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    finally:
        watchdog.cancel()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        shutil.rmtree(workdir / "inputs", ignore_errors=True)
    if expired.is_set():
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    if not trace:
        result["metrics"]["setup_s"] = (statistics.median(setup_s), "s")
        result["details"]["setup_s"] = {"samples": setup_s}
    return result


def emit(workload: str, result: dict) -> None:
    details = result["details"]
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    for name, m in sorted(metrics.items()):
        print(f"{workload:<9} {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:<9} {'fail_ratio':<52} {details['fail_ratio']:>14.6g} ratio"
          f"  (known defects: {details['known_defects'] or 'none'})")
    print(json.dumps({"provenance": result["provenance"], "details": details}))
    print(json.dumps({
        "correct": details["unexpected_failures"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }))


def smoke() -> int:
    """One op per workload, untraced and traced; every metric that
    BENCHMARK.json names must come out with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, seed=0, seconds=0, trace=trace, setups=1,
                                  max_ops=1)
            got = result["metrics"]
            for m in wanted[trace]:
                if m["name"] not in got:
                    problems.append(f"{workload} trace={trace}: {m['name']} missing")
                elif got[m["name"]][1] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} has unit "
                                    f"{got[m['name']][1]}, BENCHMARK.json says {m['unit']}")
            if "fail_ratio" not in result["details"]:
                problems.append(f"{workload} trace={trace}: fail_ratio missing")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, "
                  f"failed {result['details']['failed']}/{result['details']['attempted']}")
    for p in problems:
        print("smoke FAIL:", p, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per workload; check every metric is emitted")
    args = parser.parse_args()
    if not (ROOT / "src" / "qinv" / "__init__.py").is_file():
        print(f"no qinv sources under {ROOT / 'src'}; run from a qinv checkout",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        emit(args.workload, run_workload(args.workload, args.seed, args.seconds, args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
