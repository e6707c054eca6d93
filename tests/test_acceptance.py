"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line with the measured worst case next to its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""
import json
import subprocess
import sys
import time

import numpy as np

from qinv import (
    PureState,
    apply_local,
    concurrence,
    cubic_invariant,
    first_kind_fingerprint,
    invariant_count,
    new_state,
    odd_tangle,
    pair_identity_residual,
    pair_tangle,
    random_lu,
    random_sl,
    random_state,
    three_qubit_suite,
    three_tangle,
)
from qinv.cli import load_state, main, write_state

from conftest import subprocess_env
from oracles import dense_bilinear

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)
GHZ_AMPS = [S2, 0, 0, 0, 0, 0, 0, S2]
W_AMPS = [0, S3, S3, 0, S3, 0, 0, 0]


def report(num: int, ok: bool, desc: str, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_pair_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for k in range(1000):
            s = random_state(n, 10_000 * n + k)
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    worst = max(worst, abs(pair_identity_residual(s, i, j)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    report(1, ok, "pair consistency identity on 1000 states x n=2..5",
           f"max residual {worst:.3e} (tol 1e-10), runtime {elapsed:.1f}s (limit 30s)")


def _first_kind_values(state: PureState) -> np.ndarray:
    singles, pairs = first_kind_fingerprint(state)
    n = state.n_qubits
    values = [1.0 - float(np.sum(singles[i] ** 2)) for i in range(n)]
    values += [1.0 - float(np.sum(pairs[i, j] ** 2))
               for i in range(n) for j in range(i + 1, n)]
    return np.array(values)


def test_criterion_02_lu_invariance_first_kind():
    worst = 0.0
    for n in (2, 3, 4, 5):
        for k in range(100):
            s = random_state(n, 20_000 * n + k)
            base = _first_kind_values(s)
            for m in range(100):
                image, _ = apply_local(s, random_lu(n, 777_000 + 100 * k + m))
                dev = np.max(np.abs(_first_kind_values(image) - base))
                worst = max(worst, float(dev))
    ok = worst < 1e-9
    report(2, ok, "LU invariance of single and pair invariants (100x100, n=2..5)",
           f"max deviation {worst:.3e} (tol 1e-9)")


def test_criterion_03_suite_closed_forms():
    cases = [
        ("GHZ", GHZ_AMPS,
         {"I_1": 1.0, "I_2": 0.5, "I_3": 0.5, "I_4": 0.5, "I_5": 0.25, "I_6": 1.0}),
        ("|000>", [1, 0, 0, 0, 0, 0, 0, 0],
         {"I_1": 1.0, "I_2": 1.0, "I_3": 1.0, "I_4": 1.0, "I_5": 1.0, "I_6": 0.0}),
        ("W", W_AMPS,
         {"I_2": 5 / 9, "I_3": 5 / 9, "I_4": 5 / 9, "I_6": 0.0}),
    ]
    worst = 0.0
    for _, amps, want in cases:
        suite = three_qubit_suite(new_state(3, amps))
        for name, value in want.items():
            worst = max(worst, abs(float(np.real(suite.value(name))) - value))
    ok = worst < 1e-10
    report(3, ok, "three-qubit suite on GHZ, |000>, W",
           f"max error {worst:.3e} (tol 1e-10)")


def test_criterion_04_tangle_equals_bilinear_modulus():
    worst = 0.0
    for k in range(1000):
        s = random_state(3, 30_000 + k)
        worst = max(worst, abs(abs(pair_tangle(s, "AB")) - three_tangle(s)))
    ok = worst < 1e-9
    report(4, ok, "three-tangle equals |pair bilinear| on 1000 states",
           f"max gap {worst:.3e} (tol 1e-9)")


def test_criterion_05_pair_tangle_permutation_symmetry():
    worst = 0.0
    for k in range(1000):
        s = random_state(3, 40_000 + k)
        ab = pair_tangle(s, "AB")
        ac = pair_tangle(s, "AC")
        bc = pair_tangle(s, "BC")
        worst = max(worst, abs(ab - ac), abs(ab - bc), abs(ac - bc))
    ok = worst < 1e-10
    report(5, ok, "pair-tangle values agree across AB, AC, BC on 1000 states",
           f"max difference {worst:.3e} (tol 1e-10)")


def test_criterion_06_cubic_invariant_dual_path():
    worst = 0.0
    for k in range(500):
        s = random_state(3, 50_000 + k)
        worst = max(worst, abs(cubic_invariant(s, "density")
                               - cubic_invariant(s, "pauli")))
    ok = worst < 1e-10
    report(6, ok, "cubic invariant: density route vs expectation route (500 states)",
           f"max gap {worst:.3e} (tol 1e-10)")


def test_criterion_07_slocc_invariance():
    worst = 0.0

    def run(n, fn, tag_base):
        nonlocal worst
        for k in range(100):
            s = random_state(n, tag_base + k)
            base = complex(fn(s))
            for m in range(50):
                g = random_sl(n, tag_base + 1000 * k + m)
                image, raw_norm = apply_local(s, g)
                raw = PureState(n, image.amplitudes * raw_norm, is_normalized=False)
                worst = max(worst, abs(complex(fn(raw)) - base) / abs(base))

    run(4, concurrence, 60_000)
    run(3, odd_tangle, 70_000)
    run(5, odd_tangle, 80_000)
    ok = worst < 1e-7
    report(7, ok, "SLOCC invariance of C (n=4) and Z (n=3, 5), 100x50 det-one ops",
           f"max relative deviation {worst:.3e} (tol 1e-7)")


def test_criterion_08_adjoint_map_is_so3():
    from qinv import adjoint_rotation
    worst = 0.0
    for k in range(1000):
        rot = adjoint_rotation(random_lu(1, 90_000 + k).ops[0])
        worst = max(worst,
                    float(np.max(np.abs(rot @ rot.T - np.eye(3)))),
                    abs(float(np.linalg.det(rot)) - 1.0))
    ok = worst < 1e-9
    report(8, ok, "adjoint rotation orthogonal with unit determinant (1000 draws)",
           f"max defect {worst:.3e} (tol 1e-9)")


def test_criterion_09_bilinear_vs_dense_oracle():
    from qinv import bilinear
    worst = 0.0
    for n in range(1, 7):
        rng = np.random.default_rng(95_000 + n)
        for k in range(10):
            s = random_state(n, 95_000 + 10 * n + k)
            ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(n)]
            worst = max(worst, abs(bilinear(s, ops) - dense_bilinear(s.amplitudes, ops)))
    ok = worst < 1e-12
    report(9, ok, "stride-kernel bilinear vs dense-matrix oracle (n<=6)",
           f"max gap {worst:.3e} (tol 1e-12)")


def test_criterion_10_invariant_count():
    got = (invariant_count(1), invariant_count(2), invariant_count(3))
    ok = got == (0, 1, 6)
    report(10, ok, "invariant parameter count at n=1,2,3",
           f"got {got}, want (0, 1, 6)")


def test_criterion_11_cli_end_to_end(tmp_path, capsys):
    checks = []

    state_file = tmp_path / "state.json"
    checks.append(("random exit 0",
                   main(["random", "3", "--seed", "11", "--out", str(state_file)]) == 0))

    capsys.readouterr()
    checks.append(("compute exit 0",
                   main(["compute", "-s", str(state_file), "--format", "json"]) == 0))
    computed = json.loads(capsys.readouterr().out)
    checks.append(("compute emits report schema",
                   set(computed) == {"n", "invariants", "tolerances"}))

    # compare state against its own local-unitary image: indistinguishable
    state = load_state(str(state_file))
    image, _ = apply_local(state, random_lu(3, 12, global_phase=True))
    image_file = tmp_path / "image.json"
    write_state(image, str(image_file))
    code = main(["compare", str(state_file), str(image_file)])
    out = capsys.readouterr().out
    checks.append(("compare vs LU image exit 0", code == 0))
    checks.append(("compare vs LU image verdict", "indistinguishable" in out))

    ghz_file = tmp_path / "ghz.json"
    w_file = tmp_path / "w.json"
    write_state(new_state(3, GHZ_AMPS), str(ghz_file))
    write_state(new_state(3, W_AMPS), str(w_file))
    code = main(["compare", str(ghz_file), str(w_file)])
    out = capsys.readouterr().out
    checks.append(("compare GHZ vs W exit 1", code == 1))
    checks.append(("compare GHZ vs W names I_6", "distinguished by I_6" in out))

    bad_file = tmp_path / "bad.json"
    bad_file.write_text('{"n_qubits": 2, "amplitudes": [[1,0],[0,0],[0,0]]}')
    checks.append(("parse error exit 2",
                   main(["compute", "-s", str(bad_file)]) == 2))

    unnorm_file = tmp_path / "unnorm.json"
    unnorm_file.write_text('{"n_qubits": 1, "amplitudes": [[1,0],[1,0]]}')
    checks.append(("unnormalized exit 3",
                   main(["compute", "-s", str(unnorm_file)]) == 3))

    bell_file = tmp_path / "bell.json"
    write_state(new_state(2, [S2, 0, 0, S2]), str(bell_file))
    checks.append(("qubit mismatch exit 4",
                   main(["compare", str(ghz_file), str(bell_file)]) == 4))

    checks.append(("unwritable exit 5",
                   main(["random", "2", "--out",
                         str(tmp_path / "no-dir" / "x.json")]) == 5))
    capsys.readouterr()

    proc = subprocess.run(
        [sys.executable, "-m", "qinv", "verify", "-s", str(ghz_file),
         "--samples", "10", "--seed", "4"],
        capture_output=True, text=True, env=subprocess_env())
    checks.append(("module entry point verify exit 0", proc.returncode == 0))

    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        report(11, not failed, "CLI end-to-end, exit codes exactly as documented",
               f"{len(checks)} checks, failed: {failed or 'none'}")
