"""The four benchmark workloads: inputs from a seed, one op, and its gate.

Every workload is a closed loop with one client: the next op starts when the
last one returns. ``cycle`` lists the ops of one pass over the inputs; the
runner goes round it. ``run(op)`` is the timed part. ``check(op, out)`` is
the correctness gate, run outside the timed region; the reference values it
compares against are computed once per distinct input and cached.

A gate returns None when the op was right, or a ``Failure``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import qinv

VALUE_TOL = 1e-12
LU_TOL = 1e-9
SL_TOL = 1e-7
SAMPLES = 100
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Failure:
    op: str
    reason: str
    # Set when the failure matches a defect the benchmark documents (see
    # README.md). It still counts in ``failed`` and ``fail_ratio``.
    known_defect: str | None = None


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence((seed % 2**64, *key)).generate_state(1)[0])


def ghz(n: int) -> qinv.PureState:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 2 ** -0.5
    return qinv.new_state(n, amps)


def w3() -> qinv.PureState:
    s = 3 ** -0.5
    return qinv.new_state(3, [0, s, s, 0, s, 0, 0, 0])


def zero3() -> qinv.PureState:
    return qinv.new_state(3, [1, 0, 0, 0, 0, 0, 0, 0])


def state_file_text(state: qinv.PureState) -> str:
    """State-file JSON written by the benchmark, 17 significant digits."""
    pairs = ",\n".join(f"    [{a.real:.16e}, {a.imag:.16e}]" for a in state.amplitudes)
    return (f'{{\n  "n_qubits": {state.n_qubits},\n  "amplitudes": [\n{pairs}\n'
            f'  ],\n  "normalized": true\n}}\n')


def report_values(report) -> dict[str, complex]:
    return {name: complex(e.value) for name, e in report.entries.items()}


def compare_values(got: dict[str, complex], want: dict[str, complex],
                   tol: float = VALUE_TOL) -> str | None:
    if list(got) != list(want):
        return f"entry names differ: {list(got)[:4]}... vs {list(want)[:4]}..."
    worst = max(want, key=lambda k: abs(got[k] - want[k]))
    dev = abs(got[worst] - want[worst])
    if not dev <= tol:
        return f"{worst} deviates by {dev:.3e} > {tol:.0e}"
    return None


class Report:
    """In-process ``invariant_report`` over random states at n = 12, 14, 16, 17
    and GHZ_16. Nearly all the time is ``first_kind_fingerprint``; n = 16 takes
    its fused path and n = 17 its streaming path."""

    name = "report"
    SIZES = (12, 14, 16, 17)

    def __init__(self, seed: int, workdir: str) -> None:
        self.states = [(f"random{n}", qinv.random_state(n, sub_seed(seed, 1, n)))
                       for n in self.SIZES]
        self.states.append(("ghz16", ghz(16)))
        self.cycle = ["pass"]
        self._refs: dict[str, dict[str, float]] = {}

    def run(self, op: str):
        return [qinv.invariant_report(state) for _, state in self.states]

    def _reference(self, label: str, state) -> dict[str, float]:
        if label not in self._refs:
            n = state.n_qubits
            names = qinv.invariants.report_entry_names(n)
            if label.startswith("ghz"):
                ref = {qinv.invariants.single_name(i): 1.0 for i in range(1, n + 1)}
                ref.update({qinv.invariants.pair_name(i, j, n): 0.0
                            for i in range(1, n) for j in range(i + 1, n + 1)})
                ref["C"] = 1.0
            else:
                mid = n // 2
                ref = {qinv.invariants.single_name(i): qinv.single_qubit_invariant(state, i)
                       for i in (1, mid, n)}
                ref.update({qinv.invariants.pair_name(i, j, n): qinv.pair_invariant(state, i, j)
                            for i, j in ((1, 2), (1, n), (mid, mid + 1))})
            self._refs[label] = {"names": names, "values": ref}
        return self._refs[label]

    def check(self, op: str, out) -> Failure | None:
        for (label, state), report in zip(self.states, out):
            ref = self._reference(label, state)
            if list(report.entries) != ref["names"]:
                return Failure(label, "report entry names differ from report_entry_names")
            for name, want in ref["values"].items():
                dev = abs(complex(report.value(name)) - want)
                if not dev <= VALUE_TOL:
                    return Failure(label, f"{name} deviates by {dev:.3e} from its reference")
        return None


class _Orbit:
    """One op is one ``verify_invariance`` campaign; the cycle holds every
    campaign once, each with a fixed sub-seed, so every cycle repeats the same
    work."""

    group = ""
    tol = 0.0

    def __init__(self, seed: int, workdir: str) -> None:
        self.cycle = []
        for label, state in self.states(seed):
            for name in qinv.applicable_invariants(state.n_qubits, self.group):
                self.cycle.append((f"{label}:{name}", state, name,
                                   sub_seed(seed, 2, len(self.cycle))))

    def run(self, op):
        _, state, name, seed = op
        return qinv.verify_invariance(state, name, self.group, samples=SAMPLES,
                                      tol=self.tol, seed=seed)

    def check(self, op, out) -> Failure | None:
        label, _, name, seed = op
        if out.invariant != name or out.samples != SAMPLES or out.seed != seed:
            return Failure(label, "report does not describe the campaign that ran")
        if out.passed:
            return None
        reason = (f"FAIL verdict on an exact invariant: max_abs={out.max_abs_deviation:.3e} "
                  f"max_rel={out.max_rel_deviation:.3e} tol={out.tol:.0e}")
        known = None
        # The relative verdict divides by |base|; on a state whose invariant
        # is 0 any rounding gives max_rel = inf although the deviation is tiny.
        if (out.metric == "rel" and out.max_rel_deviation == float("inf")
                and out.max_abs_deviation < self.tol):
            known = "zero-base-rel-verdict"
        return Failure(label, reason, known)


class OrbitLU(_Orbit):
    """LU campaigns for every applicable invariant on tiny states: per-sample
    Python cost dominates, and the fingerprint is never called."""

    name = "orbit-lu"
    group = "LU"
    tol = LU_TOL

    @staticmethod
    def states(seed: int):
        return [("random3", qinv.random_state(3, sub_seed(seed, 3, 3))),
                ("random5", qinv.random_state(5, sub_seed(seed, 3, 5))),
                ("ghz3", ghz(3)), ("w3", w3())]


class OrbitSL(_Orbit):
    """SL campaigns on C or Z at n = 3..8 plus the SLOCC-null W_3 and |000>:
    ``random_sl`` dominates, and the null states take the zero-base verdict."""

    name = "orbit-sl"
    group = "SL"
    tol = SL_TOL

    @staticmethod
    def states(seed: int):
        out = [(f"random{n}", qinv.random_state(n, sub_seed(seed, 4, n)))
               for n in range(3, 9)]
        return out + [("w3", w3()), ("zero3", zero3())]


class Cli:
    """Subprocess ``python -m qinv`` calls in a fixed cycle; the only workload
    that pays for interpreter start, ``import qinv`` and state-file I/O."""

    name = "cli"

    def __init__(self, seed: int, workdir: str) -> None:
        self.dir = os.path.join(workdir, "inputs")
        os.makedirs(self.dir, exist_ok=True)
        a3 = qinv.random_state(3, sub_seed(seed, 5, 3))
        b14 = qinv.random_state(14, sub_seed(seed, 5, 14))
        c10 = qinv.random_state(10, sub_seed(seed, 5, 10))
        g = qinv.random_lu(10, sub_seed(seed, 6, 10))
        c10_image, _ = qinv.apply_local(c10, g)
        self.states = {"a3": a3, "b14": b14, "c10": c10, "c10lu": c10_image}
        for label, state in self.states.items():
            with open(self._path(label), "w", encoding="utf-8") as fh:
                fh.write(state_file_text(state))
        self.random_seed = sub_seed(seed, 7, 14)
        self.random_out = self._path("random14")
        self.cycle = ["cycle"]
        self.commands = [
            ("compute-text-n3", ["compute", "-s", self._path("a3")]),
            ("compute-json-n14", ["compute", "-s", self._path("b14"), "--format", "json"]),
            ("verify-lu-n3", ["verify", "-s", self._path("a3"), "--seed",
                              str(sub_seed(seed, 8, 1))]),
            ("verify-sl-n3", ["verify", "-s", self._path("a3"), "--group", "sl",
                              "--seed", str(sub_seed(seed, 8, 2))]),
            ("compare-n10", ["compare", self._path("c10"), self._path("c10lu")]),
            ("random-n14", ["random", "14", "--seed", str(self.random_seed),
                            "--out", self.random_out]),
        ]
        self._refs: dict[str, object] = {}

    def _path(self, label: str) -> str:
        return os.path.join(self.dir, f"{label}.json")

    def run(self, op: str, argv0: list[str] | None = None):
        """Run the cycle; ``argv0`` replaces ``python -m qinv`` (the traced run)."""
        argv0 = argv0 or [sys.executable, "-m", "qinv"]
        out = []
        for label, args in self.commands:
            proc = subprocess.run(argv0 + args, capture_output=True,
                                  text=True, cwd=self.dir,
                                  timeout=CLI_TIMEOUT_S)
            out.append((label, proc.returncode, proc.stdout, proc.stderr))
        return out

    def _ref_report(self, label: str) -> dict[str, complex]:
        if label not in self._refs:
            self._refs[label] = report_values(qinv.invariant_report(self.states[label]))
        return self._refs[label]

    def check(self, op: str, out) -> Failure | None:
        for label, code, stdout, stderr in out:
            if code != 0:
                return Failure(label, f"exit code {code}: {stderr.strip()[-200:]}")
            problem = getattr(self, "_check_" + label.split("-")[0])(label, stdout)
            if problem:
                return Failure(label, problem)
        return None

    def _check_compute(self, label: str, stdout: str) -> str | None:
        if label.endswith("n3"):
            got = {}
            for line in stdout.splitlines()[2:]:
                name, kind, value = line.split(None, 2)
                got[name] = complex(value.replace(" ", "")) if kind == "complex" \
                    else complex(float(value))
            return compare_values(got, self._ref_report("a3"))
        data = json.loads(stdout)
        got = {}
        for name, entry in data["invariants"].items():
            v = entry["value"]
            got[name] = complex(v[0], v[1]) if entry["kind"] == "complex" else complex(v)
        return compare_values(got, self._ref_report("b14"))

    def _check_verify(self, label: str, stdout: str) -> str | None:
        rows = stdout.splitlines()[1:]
        want = len(qinv.applicable_invariants(3, "SL" if "sl" in label else "LU"))
        if len(rows) != want or not all(r.rstrip().endswith("pass") for r in rows):
            return f"expected {want} passing campaigns, got {rows}"
        return None

    def _check_compare(self, label: str, stdout: str) -> str | None:
        if not stdout.startswith("indistinguishable"):
            return f"LU-equivalent states were not reported indistinguishable: {stdout!r}"
        return None

    def _check_random(self, label: str, stdout: str) -> str | None:
        if "random" not in self._refs:
            self._refs["random"] = qinv.random_state(14, self.random_seed).amplitudes
        with open(self.random_out, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(self.random_out)  # the next op must write it afresh
        got = np.array([complex(re, im) for re, im in data["amplitudes"]])
        dev = float(np.max(np.abs(got - self._refs["random"])))
        if data["n_qubits"] != 14 or not dev <= VALUE_TOL:
            return f"written state deviates by {dev:.3e} from random_state(14, seed)"
        return None


WORKLOADS = {w.name: w for w in (Report, OrbitLU, OrbitSL, Cli)}
