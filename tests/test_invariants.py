import numpy as np
import pytest

from qinv import (
    EvenQubitCountError,
    IndexOutOfRangeError,
    OddQubitCountError,
    PureState,
    SameIndexError,
    UnnormalizedError,
    WrongQubitCountError,
    applicable_invariants,
    apply_local,
    concurrence,
    cubic_invariant,
    first_kind_fingerprint,
    invariant_count,
    invariant_report,
    new_state,
    odd_tangle,
    pair_identity_residual,
    pair_invariant,
    pair_tangle,
    random_lu,
    random_sl,
    random_state,
    single_qubit_invariant,
    single_qubit_invariant_dm,
    three_qubit_suite,
    three_tangle,
    triple_correlation_sum,
)
from qinv import state as _s
from qinv.invariants import invariant_table, report_entry_names

from oracles import dense_pauli

S2 = 1.0 / np.sqrt(2.0)


# ----------------------------------------------------- single-qubit invariant

def test_single_invariant_product_state(zero3):
    assert single_qubit_invariant(zero3, 1) == pytest.approx(0.0, abs=1e-12)


def test_single_invariant_ghz(ghz3):
    assert single_qubit_invariant(ghz3, 1) == pytest.approx(1.0, abs=1e-12)


def test_single_invariant_w(w3):
    assert single_qubit_invariant(w3, 1) == pytest.approx(8 / 9, abs=1e-12)


def test_single_invariant_dm_routes(zero3, ghz3):
    assert single_qubit_invariant_dm(zero3, 2) == pytest.approx(0.0, abs=1e-12)
    assert single_qubit_invariant_dm(ghz3, 3) == pytest.approx(1.0, abs=1e-10)
    bell_with_spectator = new_state(3, [S2, 0, 0, 0, 0, 0, S2, 0])
    assert single_qubit_invariant_dm(bell_with_spectator, 3) == pytest.approx(0.0, abs=1e-12)


def test_single_invariant_errors(ghz3):
    with pytest.raises(IndexOutOfRangeError):
        single_qubit_invariant(ghz3, 0)
    raw = PureState(1, np.array([2.0, 0.0]), is_normalized=False)
    with pytest.raises(UnnormalizedError):
        single_qubit_invariant(raw, 1)


def test_single_invariant_bounds():
    for seed in range(20):
        s = random_state(3, seed)
        for q in (1, 2, 3):
            v = single_qubit_invariant(s, q)
            assert -1e-12 <= v <= 1.0 + 1e-12


# ------------------------------------------------------------- pair invariant

def test_pair_invariant_examples(bell, ghz3):
    assert pair_invariant(new_state(2, [1, 0, 0, 0]), 1, 2) == pytest.approx(0.0, abs=1e-12)
    assert pair_invariant(bell, 1, 2) == pytest.approx(-2.0, abs=1e-12)
    assert pair_invariant(ghz3, 1, 2) == pytest.approx(0.0, abs=1e-12)


def test_pair_invariant_same_index(bell):
    with pytest.raises(SameIndexError):
        pair_invariant(bell, 1, 1)


def test_pair_identity_residual_examples(ghz3):
    assert pair_identity_residual(new_state(2, [1, 0, 0, 0]), 1, 2) == pytest.approx(0.0, abs=1e-12)
    assert pair_identity_residual(ghz3, 1, 2) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pair_identity_residual_random(n):
    worst = 0.0
    for seed in range(20):
        s = random_state(n, 500 + seed)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                worst = max(worst, abs(pair_identity_residual(s, i, j)))
    assert worst < 1e-10


# --------------------------------------------------------- bilinear invariants

def test_concurrence_examples(bell, singlet):
    assert concurrence(bell) == pytest.approx(1.0)
    assert concurrence(new_state(2, [1, 0, 0, 0])) == pytest.approx(0.0)
    ghz4 = new_state(4, [S2] + [0] * 14 + [S2])
    assert abs(concurrence(ghz4)) == pytest.approx(1.0)
    assert concurrence(ghz4) == pytest.approx(1.0)  # T x4 fixes this state


def test_concurrence_parity(ghz3):
    with pytest.raises(OddQubitCountError):
        concurrence(ghz3)


def test_odd_tangle_examples(ghz3, w3, zero3):
    assert odd_tangle(ghz3) == pytest.approx(1.0, abs=1e-12)
    assert odd_tangle(w3) == pytest.approx(0.0, abs=1e-12)
    assert odd_tangle(zero3) == pytest.approx(0.0, abs=1e-12)


def test_odd_tangle_parity(bell):
    with pytest.raises(EvenQubitCountError):
        odd_tangle(bell)


def test_odd_tangle_single_qubit_vanishes():
    # For one qubit the three squared bilinears cancel identically.
    for seed in range(10):
        s = random_state(1, seed)
        assert odd_tangle(s) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------ triple correlation sum

def test_triple_correlation_sum_examples(ghz3, zero3):
    assert triple_correlation_sum(zero3, 1, 2) == pytest.approx(1.0, abs=1e-12)
    assert triple_correlation_sum(ghz3, 1, 2) == pytest.approx(0.0, abs=1e-12)
    bell_spectator = new_state(3, [S2, 0, 0, 0, 0, 0, S2, 0])
    assert triple_correlation_sum(bell_spectator, 1, 2) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------- cubic invariant

def test_cubic_invariant_examples(ghz3, zero3):
    assert cubic_invariant(zero3) == pytest.approx(1.0, abs=1e-12)
    assert cubic_invariant(ghz3) == pytest.approx(0.25, abs=1e-12)
    assert cubic_invariant(ghz3, "pauli") == pytest.approx(0.25, abs=1e-12)


def test_cubic_invariant_dual_paths_agree():
    for seed in range(30):
        s = random_state(3, 600 + seed)
        d = cubic_invariant(s, "density")
        p = cubic_invariant(s, "pauli")
        assert abs(d - p) < 1e-10


def test_cubic_invariant_wrong_count(bell):
    with pytest.raises(WrongQubitCountError):
        cubic_invariant(bell)
    with pytest.raises(ValueError):
        cubic_invariant(new_state(3, [1, 0, 0, 0, 0, 0, 0, 0]), "exact")


# ------------------------------------------------------- pair tangle / tangle

def test_pair_tangle_ghz(ghz3):
    assert abs(pair_tangle(ghz3, "AB")) == pytest.approx(1.0, abs=1e-12)


def test_pair_tangle_w_vanishes(w3):
    for pair in ("AB", "AC", "BC"):
        assert abs(pair_tangle(w3, pair)) == pytest.approx(0.0, abs=1e-12)


def test_pair_tangle_equals_odd_tangle():
    # sigma_y x sigma_y = -(T x T): the squares make both forms identical.
    for seed in range(20):
        s = random_state(3, 700 + seed)
        assert pair_tangle(s, "AB") == pytest.approx(odd_tangle(s), abs=1e-12)


def test_pair_tangle_permutation_equality():
    for seed in range(20):
        s = random_state(3, 800 + seed)
        ab, ac, bc = (pair_tangle(s, p) for p in ("AB", "AC", "BC"))
        assert abs(ab - ac) < 1e-10
        assert abs(ab - bc) < 1e-10


def test_three_tangle_examples(ghz3, w3, zero3):
    assert three_tangle(ghz3) == pytest.approx(1.0, abs=1e-12)
    assert three_tangle(w3) == pytest.approx(0.0, abs=1e-12)
    assert three_tangle(zero3) == pytest.approx(0.0, abs=1e-12)


def test_three_tangle_matches_bilinear_route():
    for seed in range(50):
        s = random_state(3, 900 + seed)
        assert abs(abs(pair_tangle(s, "AB")) - three_tangle(s)) < 1e-9


def test_three_tangle_wrong_count(bell):
    with pytest.raises(WrongQubitCountError):
        three_tangle(bell)


# -------------------------------------------------------------------- suite

def test_suite_ghz(ghz3):
    suite = three_qubit_suite(ghz3)
    want = {"I_1": 1.0, "I_2": 0.5, "I_3": 0.5, "I_4": 0.5, "I_5": 0.25, "I_6": 1.0}
    for name, value in want.items():
        assert suite.value(name) == pytest.approx(value, abs=1e-10), name


def test_suite_basis_state(zero3):
    suite = three_qubit_suite(zero3)
    want = {"I_1": 1.0, "I_2": 1.0, "I_3": 1.0, "I_4": 1.0, "I_5": 1.0, "I_6": 0.0}
    for name, value in want.items():
        assert suite.value(name) == pytest.approx(value, abs=1e-10), name


def test_suite_w(w3):
    suite = three_qubit_suite(w3)
    for name in ("I_2", "I_3", "I_4"):
        assert suite.value(name) == pytest.approx(5 / 9, abs=1e-10)
    assert suite.value("I_6") == pytest.approx(0.0, abs=1e-10)


def test_suite_metadata(ghz3):
    suite = three_qubit_suite(ghz3)
    assert suite.metadata["state_digest"] == ghz3.digest()
    assert suite.tolerances["internal_agreement"] == 1e-10


# ------------------------------------------------------------ invariant count

def test_invariant_count():
    assert invariant_count(1) == 0
    assert invariant_count(2) == 1
    assert invariant_count(3) == 6
    with pytest.raises(ValueError):
        invariant_count(0)


# ------------------------------------------------------ fingerprint / report

@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 17])
def test_fingerprint_matches_reference_path(n):
    s = random_state(n, 40 + n)
    singles, pairs = first_kind_fingerprint(s)
    for i in range(1, n + 1):
        got = 1.0 - float(np.sum(singles[i - 1] ** 2))
        assert got == pytest.approx(single_qubit_invariant(s, i), abs=1e-12)
    if n <= 10:
        checked = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    else:
        # The reference costs nine full-vector passes per pair: sample them.
        checked = [(1, 2), (1, n), (n // 2, n // 2 + 1)]
    report = invariant_report(s) if n == 10 else None
    for i, j in checked:
        want = pair_invariant(s, i, j)
        got = 1.0 - float(np.sum(pairs[i - 1, j - 1] ** 2))
        assert got == pytest.approx(want, abs=1e-12)
        if report is not None:
            # n = 10 is the first size whose report uses comma pair names.
            assert report.value(f"I_{{{i},{j}}}") == pytest.approx(want, abs=1e-12)


def test_report_names_and_order():
    report = invariant_report(random_state(3, 3))
    assert list(report.entries) == [
        "I_1", "I_2", "I_3", "I_4", "I_5", "I_6",
        "I_{1}", "I_{2}", "I_{3}", "I_{12}", "I_{13}", "I_{23}", "Z",
    ]
    assert report.entries["Z"].kind == "complex"
    assert report.entries["I_6"].kind == "real"

    report2 = invariant_report(random_state(2, 2))
    assert list(report2.entries) == ["I_{1}", "I_{2}", "I_{12}", "C"]


def test_report_seed_metadata():
    report = invariant_report(random_state(2, 9), seed=9)
    assert report.metadata["seed"] == 9


# --------------------------------------------------- invariance (smoke scale)

@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_kind_lu_invariance_smoke(n):
    s = random_state(n, n)
    base_singles = [single_qubit_invariant(s, i) for i in range(1, n + 1)]
    base_pair = pair_invariant(s, 1, 2)
    for k in range(10):
        image, _ = apply_local(s, random_lu(n, 1000 + k))
        for i in range(1, n + 1):
            assert single_qubit_invariant(image, i) == pytest.approx(
                base_singles[i - 1], abs=1e-9)
        assert pair_invariant(image, 1, 2) == pytest.approx(base_pair, abs=1e-9)


def test_bilinear_modulus_lu_invariance_smoke(bell):
    base = abs(concurrence(bell))
    for k in range(10):
        image, _ = apply_local(bell, random_lu(2, 2000 + k, global_phase=True))
        assert abs(concurrence(image)) == pytest.approx(base, abs=1e-9)


def test_bilinear_slocc_invariance_smoke():
    s = random_state(4, 123)
    base = concurrence(s)
    for k in range(10):
        image, raw_norm = apply_local(s, random_sl(4, 3000 + k))
        raw = PureState(4, image.amplitudes * raw_norm, is_normalized=False)
        assert concurrence(raw) == pytest.approx(base, rel=1e-7)


def test_odd_tangle_modulus_lu_invariance_smoke():
    s = random_state(3, 321)
    base_z = abs(odd_tangle(s))
    base_pair = abs(pair_tangle(s, "AB"))
    for k in range(10):
        image, _ = apply_local(s, random_lu(3, 4000 + k, global_phase=True))
        assert abs(odd_tangle(image)) == pytest.approx(base_z, abs=1e-9)
        assert abs(pair_tangle(image, "AB")) == pytest.approx(base_pair, abs=1e-9)


def test_report_single_qubit_state():
    report = invariant_report(random_state(1, 1))
    assert list(report.entries) == ["I_{1}", "Z"]
    assert complex(report.entries["Z"].value) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------ invariant table

def test_one_table_drives_report_names_and_selectors():
    for n in range(1, 11):
        table = invariant_table(n)
        names = list(table)
        assert report_entry_names(n) == names
        assert list(invariant_report(random_state(n, 70 + n)).entries) == names
        assert applicable_invariants(n, "LU") == names
        # SL orbits test exactly the complex (second-kind) rows: C or Z.
        assert applicable_invariants(n, "SL") == [
            name for name, row in table.items() if row.kind == "complex"]
        assert applicable_invariants(n, "SL") == ["C" if n % 2 == 0 else "Z"]


def test_report_runs_one_density_check_per_stack(monkeypatch):
    # Deterministic guard on the stacked evaluator: all singles share one
    # DensityMatrix check and all pairs another, whatever n is.
    shapes = []
    check_density = _s._check_density

    def counting(m, *args):
        shapes.append(m.shape)
        return check_density(m, *args)

    monkeypatch.setattr(_s, "_check_density", counting)
    invariant_report(random_state(10, 80))
    assert shapes == [(10, 2, 2), (45, 4, 4)]


# ------------------------------------------------- independence of I_1..I_6

def _report_vector(amps: np.ndarray, names: list[str]) -> np.ndarray:
    """The report's ``names`` entries on the normalized ``amps``, complex
    entries in modulus (a global phase rotates them)."""
    n = int(amps.size).bit_length() - 1
    entries = invariant_report(PureState(n, amps / np.linalg.norm(amps))).entries
    return np.array([abs(entries[name].value) if entries[name].kind == "complex"
                     else entries[name].value for name in names])


def _derivative(amps: np.ndarray, names: list[str], direction: np.ndarray,
                h: float = 1e-6) -> np.ndarray:
    """Central difference of ``_report_vector`` along ``direction``, with the
    state renormalized after each step."""
    return (_report_vector(amps + h * direction, names)
            - _report_vector(amps - h * direction, names)) / (2.0 * h)


def _jacobian(amps: np.ndarray, names: list[str]) -> np.ndarray:
    """Derivatives of ``names`` along the 2**(n+1) real coordinates of
    ``amps``: one column per real and per imaginary part."""
    eye = np.eye(amps.size)
    return np.array([_derivative(amps, names, d) for d in np.concatenate([eye, 1j * eye])]).T


def _lu_generators(amps: np.ndarray) -> list[np.ndarray]:
    """i sigma_{q,a} psi for every qubit q and Pauli a, and i psi: the 3n + 1
    directions in which local unitaries move ``amps``."""
    n = int(amps.size).bit_length() - 1
    return [1j * amps] + [1j * dense_pauli("I" * q + a + "I" * (n - q - 1)) @ amps
                          for q in range(n) for a in "XYZ"]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_three_qubit_suite_is_a_full_set_of_independent_lu_invariants(seed):
    # The paper's claim: I_1..I_6 are all the independent LU invariants of
    # three qubits. I_1 is the norm, so I_2..I_6 must have full rank
    # invariant_count(3) - 1 = 5 on the normalized states; and every report
    # row must have a vanishing derivative along each local-unitary
    # generator, an infinitesimal check that orbit sampling does not replace.
    amps = random_state(3, seed).amplitudes
    names = ["I_2", "I_3", "I_4", "I_5", "I_6"]
    sigma = np.linalg.svd(_jacobian(amps, names), compute_uv=False)
    assert len(sigma) == invariant_count(3) - 1
    assert sigma[-1] >= 1e-3, sigma
    for k, direction in enumerate(_lu_generators(amps)):
        moved = _derivative(amps, report_entry_names(3), direction)
        assert np.abs(moved).max() <= 1e-7, (k, moved)
