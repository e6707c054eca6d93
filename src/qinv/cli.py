"""Command-line front end: state-file I/O, invariant reports, fingerprint
comparison and orbit-verification campaigns.

State files are JSON: {"n_qubits": n, "amplitudes": [[re, im], ...],
"normalized": true}, amplitudes in basis order |q1...qn> with qubit 1 as the
most significant bit. Numbers are written with 17 significant digits so a
write -> read -> write round trip is byte-stable.

Exit codes: 0 success / indistinguishable; 1 invariance failure or
distinguished; 2 unreadable or schema-invalid input; 3 unnormalized state
without --normalize; 4 qubit-count mismatch (compare); 5 unwritable output.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import invariants as _inv
from . import orbit as _orbit
from .errors import (
    QinvError,
    StateFileError,
    TooLargeError,
    UnnormalizedError,
    UnnormalizedInputError,
)
from .invariants import InvariantReport
from .state import MAX_QUBITS, PureState, new_state

DEFAULT_LU_TOL = 1e-9
DEFAULT_SL_TOL = 1e-7
DEFAULT_COMPARE_TOL = 1e-9
SEED_ENV_VAR = "QINV_SEED"


def _fmt(x: float) -> str:
    # 17 significant digits: exact float64 round trip.
    return f"{x:.16e}"


def dumps_state(state: PureState) -> str:
    """Canonical state-file text: fixed field order, fixed number format."""
    lines = ["{", f'  "n_qubits": {state.n_qubits},', '  "amplitudes": [']
    last = state.dim - 1
    for k, amp in enumerate(state.amplitudes):
        comma = "," if k != last else ""
        lines.append(f"    [{_fmt(amp.real)}, {_fmt(amp.imag)}]{comma}")
    lines += ["  ],", '  "normalized": true', "}", ""]
    return "\n".join(lines)


def write_state(state: PureState, path: str) -> None:
    Path(path).write_text(dumps_state(state), encoding="utf-8")


def load_state(path: str, normalize: bool = False) -> PureState:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"{path}: cannot read: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise StateFileError(f"{path}: top level must be a JSON object")
    if "n_qubits" not in data:
        raise StateFileError(f"{path}: missing required field 'n_qubits'")
    n = data["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StateFileError(f"{path}: 'n_qubits' must be a positive integer, got {n!r}")
    if n > MAX_QUBITS:
        raise StateFileError(f"{path}: n_qubits={n} exceeds the maximum of {MAX_QUBITS}")
    if "amplitudes" not in data:
        raise StateFileError(f"{path}: missing required field 'amplitudes'")
    raw = data["amplitudes"]
    if not isinstance(raw, list):
        raise StateFileError(f"{path}: 'amplitudes' must be a list")
    if len(raw) != 1 << n:
        raise StateFileError(
            f"{path}: expected {1 << n} amplitude pairs for n_qubits={n}, "
            f"got {len(raw)}"
        )
    amps = np.empty(len(raw), dtype=np.complex128)
    for k, item in enumerate(raw):
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in item)):
            raise StateFileError(
                f"{path}: amplitudes[{k}]: expected a [re, im] number pair, got {item!r}"
            )
        try:
            amps[k] = complex(item[0], item[1])
        except OverflowError:
            raise StateFileError(f"{path}: amplitudes[{k}]: integer out of float64 range")
    try:
        return new_state(n, amps, normalize=normalize)
    except UnnormalizedError as exc:
        raise UnnormalizedInputError(
            f"{path}: state is not normalized; pass --normalize to rescale ({exc})"
        ) from exc
    except QinvError as exc:
        raise StateFileError(f"{path}: {exc}") from exc


def report_to_json_dict(report: InvariantReport) -> dict:
    invariants = {}
    for name, entry in report.entries.items():
        if entry.kind == "complex":
            value = [float(np.real(entry.value)), float(np.imag(entry.value))]
        else:
            value = float(np.real(entry.value))
        invariants[name] = {"value": value, "kind": entry.kind}
    return {
        "n": report.n_qubits,
        "invariants": invariants,
        "tolerances": dict(report.tolerances),
    }


def _entry_text(entry: _inv.ReportEntry) -> str:
    if entry.kind == "complex":
        v = complex(entry.value)
        return f"{_fmt(v.real)} {'+' if v.imag >= 0 else '-'} {_fmt(abs(v.imag))}j"
    return _fmt(float(np.real(entry.value)))


def print_report_text(report: InvariantReport) -> None:
    print(f"n_qubits: {report.n_qubits}")
    print(f"{'invariant':<12} {'kind':<8} value")
    for name, entry in report.entries.items():
        print(f"{name:<12} {entry.kind:<8} {_entry_text(entry)}")


def _at_least(low: int):
    """argparse ``type=``: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_seed = _at_least(0)


def _tolerance(text: str) -> float:
    """argparse ``type=``: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return _seed(env)
        except argparse.ArgumentTypeError as exc:
            raise StateFileError(f"{SEED_ENV_VAR}={env!r}: {exc}") from exc
    return 0


def cmd_compute(args: argparse.Namespace) -> int:
    state = load_state(args.state, normalize=args.normalize)
    report = _inv.invariant_report(state)
    if args.format == "json":
        print(json.dumps(report_to_json_dict(report), indent=2))
    else:
        print_report_text(report)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    state = load_state(args.state, normalize=args.normalize)
    group = args.group.upper()
    tol = args.tol if args.tol is not None else (
        DEFAULT_LU_TOL if group == "LU" else DEFAULT_SL_TOL
    )
    names = _orbit.applicable_invariants(state.n_qubits, group)
    reports = _orbit._campaign(state, names, group, args.samples, tol, _resolve_seed(args))
    if args.format == "json":
        payload = [{("pass" if k == "passed" else k): v for k, v in asdict(r).items()}
                   for r in reports]
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"{'invariant':<10} {'group':<6} {'samples':<8} "
              f"{'max_abs':<12} {'max_rel':<12} {'tol':<10} result")
        for r in reports:
            print(f"{r.invariant:<10} {r.group:<6} {r.samples:<8} "
                  f"{r.max_abs_deviation:<12.3e} {r.max_rel_deviation:<12.3e} "
                  f"{r.tol:<10.1e} {'pass' if r.passed else 'FAIL'}")
    failures = [r for r in reports if not r.passed]
    if failures:
        worst = max(failures, key=lambda r: r.deviation / r.tol)
        print(f"FAIL: worst offender {worst.invariant} "
              f"({worst.metric} deviation {worst.deviation:.3e} >= tol {worst.tol:.1e})",
              file=sys.stderr)
        return 1
    return 0


def _entry_deviation(a: _inv.ReportEntry, b: _inv.ReportEntry) -> float:
    # Complex bilinears are phase-covariant under local unitaries, so the
    # fingerprint compares their moduli; anything else compares values.
    if a.kind == "complex" or b.kind == "complex":
        return abs(abs(complex(a.value)) - abs(complex(b.value)))
    return abs(float(np.real(a.value)) - float(np.real(b.value)))


def cmd_compare(args: argparse.Namespace) -> int:
    state_a = load_state(args.path_a, normalize=args.normalize)
    state_b = load_state(args.path_b, normalize=args.normalize)
    if state_a.n_qubits != state_b.n_qubits:
        print(f"qubit-count mismatch: {args.path_a} has n={state_a.n_qubits}, "
              f"{args.path_b} has n={state_b.n_qubits}", file=sys.stderr)
        return 4
    report_a = _inv.invariant_report(state_a)
    report_b = _inv.invariant_report(state_b)
    worst_name = None
    worst_dev = 0.0
    for name, entry_a in report_a.entries.items():
        dev = _entry_deviation(entry_a, report_b.entries[name])
        # Deviations within a relative 1e-12 are numerically tied; keep the
        # earliest entry so the named offender is stable against rounding.
        if dev > worst_dev * (1.0 + 1e-12):
            worst_name, worst_dev = name, dev
    if worst_dev > args.tol:
        entry_a = report_a.entries[worst_name]
        entry_b = report_b.entries[worst_name]
        print(f"distinguished by {worst_name}: {_entry_text(entry_a)} vs "
              f"{_entry_text(entry_b)} (deviation {worst_dev:.3e} > tol {args.tol:.1e})")
        return 1
    print(f"indistinguishable by computed invariants "
          f"(max deviation {worst_dev:.3e}, tol {args.tol:.1e})")
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    try:
        state = _orbit.random_state(args.n, seed)
    except TooLargeError as exc:
        print(f"TooLarge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    text = dumps_state(state)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 5
    print(f"wrote {args.out} (n={args.n}, seed={seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinv",
        description="Local-unitary and SLOCC invariants of n-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("-s", "--state", required=True, help="state file (JSON)")
        p.add_argument("--normalize", action="store_true",
                       help="rescale an unnormalized input instead of failing")

    p_compute = sub.add_parser("compute", help="compute all applicable invariants")
    add_state_arg(p_compute)
    p_compute.add_argument("--format", choices=("json", "text"), default="text")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="verify invariance on random orbits")
    add_state_arg(p_verify)
    p_verify.add_argument("--group", choices=("lu", "sl"), default="lu")
    p_verify.add_argument("--samples", type=_at_least(1), default=100)
    p_verify.add_argument("--tol", type=_tolerance, default=None,
                          help="pass tolerance (default 1e-9 for lu, 1e-7 for sl); "
                               "write a value that starts with '-' as --tol=VALUE")
    p_verify.add_argument("--seed", type=_seed, default=None,
                          help=f"sampling seed (default ${SEED_ENV_VAR} or 0)")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser(
        "compare", help="compare the invariant fingerprints of two states")
    p_compare.add_argument("path_a")
    p_compare.add_argument("path_b")
    p_compare.add_argument("--tol", type=_tolerance, default=DEFAULT_COMPARE_TOL)
    p_compare.add_argument("--normalize", action="store_true")
    p_compare.set_defaults(func=cmd_compare)

    p_random = sub.add_parser("random", help="write a reproducible random state file")
    p_random.add_argument("n", type=int, help="number of qubits (1..24)")
    p_random.add_argument("--seed", type=_seed, default=None,
                          help=f"sampling seed (default ${SEED_ENV_VAR} or 0)")
    p_random.add_argument("--out", "-o", default=None,
                          help="output path (stdout when omitted)")
    p_random.set_defaults(func=cmd_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StateFileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except UnnormalizedInputError as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
