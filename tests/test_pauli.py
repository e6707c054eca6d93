import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qinv import (
    IndexOutOfRangeError,
    LengthMismatchError,
    NonFiniteError,
    NotUnitaryError,
    PAULI_I,
    PAULI_X,
    PauliString,
    SPIN_FLIP,
    adjoint_rotation,
    apply_single_qubit,
    apply_string,
    bilinear,
    expectation,
    new_state,
    random_lu,
    random_state,
)
from qinv import pauli as _p

from conftest import count_calls
from oracles import (
    SY,
    adjoint_defining_residual,
    dense_bilinear,
    dense_expectation,
    kron_chain,
)

S2 = 1.0 / np.sqrt(2.0)


# -------------------------------------------------------------- PauliString

def test_pauli_string_parse():
    p = PauliString.coerce("XYI")
    assert p.letters == ("X", "Y", "I")
    assert str(p) == "XYI"
    assert len(p) == 3


def test_pauli_string_rejects_bad_letter():
    with pytest.raises(ValueError):
        PauliString.coerce("XQ")


# ------------------------------------------------------- single-qubit apply

def test_apply_x_flips_basis():
    s = new_state(1, [1, 0])
    assert_allclose(apply_single_qubit(s, 1, PAULI_X).amplitudes, [0, 1])


def test_apply_spin_flip_sign():
    s = new_state(2, [1, 0, 0, 0])
    out = apply_single_qubit(s, 2, SPIN_FLIP)
    assert_allclose(out.amplitudes, [0, -1, 0, 0])


def test_apply_identity_fixes_ghz(ghz3):
    out = apply_single_qubit(ghz3, 1, PAULI_I)
    assert_allclose(out.amplitudes, ghz3.amplitudes)


def test_apply_out_of_range(ghz3):
    with pytest.raises(IndexOutOfRangeError):
        apply_single_qubit(ghz3, 4, PAULI_X)


@pytest.mark.parametrize("bad", [2.0, 1.7, "2", True])
def test_apply_rejects_a_qubit_that_is_not_an_integer(ghz3, bad):
    with pytest.raises(IndexOutOfRangeError, match="qubit index must be an integer"):
        apply_single_qubit(ghz3, bad, PAULI_X)
    out = apply_single_qubit(ghz3, np.int64(2), PAULI_X)
    assert np.array_equal(out.amplitudes, apply_single_qubit(ghz3, 2, PAULI_X).amplitudes)


def test_apply_unitary_preserves_norm():
    for seed in range(10):
        s = random_state(4, seed)
        u = random_lu(1, seed).ops[0]
        out = apply_single_qubit(s, 1 + seed % 4, u)
        assert abs(out.norm() - 1.0) < 1e-12
        assert out.is_normalized


def test_apply_non_unitary_flags_unnormalized():
    s = new_state(1, [1, 0])
    out = apply_single_qubit(s, 1, 2.0 * PAULI_X)
    assert not out.is_normalized
    assert out.norm() == pytest.approx(2.0)


# ------------------------------------------------------------- apply_string

def test_apply_string_spin_flips():
    s00 = new_state(2, [1, 0, 0, 0])
    out = apply_string(s00, (SPIN_FLIP, SPIN_FLIP))
    assert_allclose(out.amplitudes, [0, 0, 0, 1])
    s01 = new_state(2, [0, 1, 0, 0])
    out = apply_string(s01, (SPIN_FLIP, SPIN_FLIP))
    assert_allclose(out.amplitudes, [0, 0, -1, 0])


def test_apply_string_identity(ghz3):
    out = apply_string(ghz3, (PAULI_I,) * 3)
    assert_allclose(out.amplitudes, ghz3.amplitudes)


def test_apply_string_length_mismatch(ghz3):
    with pytest.raises(LengthMismatchError):
        apply_string(ghz3, (PAULI_X,))


# -------------------------------------------------------------- expectation

def test_expectation_eigenstates():
    assert expectation(new_state(1, [1, 0]), "Z") == pytest.approx(1.0)
    assert expectation(new_state(1, [S2, S2]), "X") == pytest.approx(1.0)


def test_expectation_ghz_xxx(ghz3):
    want = dense_expectation(ghz3.amplitudes, "XXX").real
    assert expectation(ghz3, "XXX") == pytest.approx(want)
    assert expectation(ghz3, "XXX") == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expectation_matches_dense_oracle(n):
    rng = np.random.default_rng(300 + n)
    s = random_state(n, 300 + n)
    for _ in range(10):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        got = expectation(s, word)
        want = dense_expectation(s.amplitudes, word)
        assert abs(want.imag) < 1e-10
        assert got == pytest.approx(want.real, abs=1e-12)
        assert got * got <= 1.0 + 1e-9


def test_expectation_length_mismatch(ghz3):
    with pytest.raises(LengthMismatchError):
        expectation(ghz3, "XX")


# ----------------------------------------------------------------- bilinear

def test_bilinear_bell(bell):
    assert bilinear(bell, (SPIN_FLIP, SPIN_FLIP)) == pytest.approx(1.0)


def test_bilinear_product_state():
    s = new_state(2, [1, 0, 0, 0])
    assert bilinear(s, (SPIN_FLIP, SPIN_FLIP)) == pytest.approx(0.0)


def test_bilinear_singlet(singlet):
    assert bilinear(singlet, (SPIN_FLIP, SPIN_FLIP)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bilinear_matches_dense_oracle(n):
    rng = np.random.default_rng(400 + n)
    s = random_state(n, 400 + n)
    for _ in range(5):
        ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(n)]
        got = bilinear(s, ops)
        want = dense_bilinear(s.amplitudes, ops)
        assert got == pytest.approx(want, abs=1e-12)


def test_bilinear_transpose_symmetry():
    rng = np.random.default_rng(11)
    s = random_state(3, 11)
    ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
           for _ in range(3)]
    assert bilinear(s, ops) == pytest.approx(bilinear(s, [m.T for m in ops]))


def test_bilinear_length_mismatch(bell):
    with pytest.raises(LengthMismatchError):
        bilinear(bell, (SPIN_FLIP,))


def test_bilinear_refuses_a_value_that_overflows():
    with pytest.raises(NonFiniteError, match=r"^bilinear form overflows float64$"):
        bilinear(random_state(2, 1), [np.diag([1e200, 1.0])] * 2)


# ------------------------------------------------------- operator kernel

def _unitaries(rng, *shape):
    z = rng.standard_normal((*shape, 2, 2)) + 1j * rng.standard_normal((*shape, 2, 2))
    return np.linalg.qr(z)[0]


def _per_qubit(amps, n, ops):
    for qubit, op in enumerate(ops, start=1):
        amps = _p._apply_2x2(amps, n, qubit, op)
    return amps


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_block_kernel_matches_dense_oracle(n):
    rng = np.random.default_rng(450 + n)
    psi = random_state(n, 450 + n).amplitudes
    # One vector: PAULI_I on every qubit of the first block (which is then
    # skipped) and SPIN_FLIP on the last qubit.
    ops = [PAULI_I] * (n // 2) + list(_unitaries(rng, n - n // 2 - 1)) + [SPIN_FLIP]
    got = _p._apply_factors(psi, n, ops)
    assert np.max(np.abs(got - kron_chain(ops) @ psi)) <= 1e-14
    # A stack of three vectors, factors per sample, with shared PAULI_I and
    # SPIN_FLIP factors in between.
    stack = np.array([random_state(n, 460 + n + k).amplitudes for k in range(3)])
    ops = list(_unitaries(rng, n, 3))
    ops[1], ops[n - 2] = PAULI_I, SPIN_FLIP
    got = _p._apply_factors(stack, n, ops)
    assert got.shape == stack.shape
    for k in range(3):
        want = kron_chain([op if op.ndim == 2 else op[k] for op in ops]) @ stack[k]
        assert np.max(np.abs(got[k] - want)) <= 1e-14, k
    # One vector under per-sample factors, as a campaign applies them.
    got = _p._apply_factors(psi, n, ops)
    assert got.shape == stack.shape
    for k in range(3):
        want = kron_chain([op if op.ndim == 2 else op[k] for op in ops]) @ psi
        assert np.max(np.abs(got[k] - want)) <= 1e-14, k


@pytest.mark.parametrize("n", [12, 13, 16])
def test_block_kernel_matches_the_per_qubit_passes(n):
    rng = np.random.default_rng(470 + n)
    psi = random_state(n, 470 + n).amplitudes
    ops = list(_unitaries(rng, n))
    assert np.max(np.abs(_p._apply_factors(psi, n, ops) - _per_qubit(psi, n, ops))) <= 1e-15
    ops = list(_unitaries(rng, n, 2))
    got = _p._apply_factors(psi, n, ops)
    assert got.shape == (2, 1 << n)
    assert np.max(np.abs(got - _per_qubit(psi, n, ops))) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factor_shape_picks_the_kernel_below_six_qubits(monkeypatch, n):
    # Shared 2x2 factors take one _apply_kron product per block with a factor
    # other than PAULI_I, on one vector and on a stack; only per-sample
    # factor stacks take one _apply_2x2 pass per such factor.
    rng = np.random.default_rng(480 + n)
    calls = count_calls(monkeypatch, [(_p, "_apply_2x2"), (_p, "_apply_kron")])
    psi = random_state(n, 480 + n).amplitudes
    stack = np.array([random_state(n, 490 + n + k).amplitudes for k in range(3)])
    ops = list(_unitaries(rng, n))
    ops[n // 2] = PAULI_I  # n = 1: the identity alone, which takes no product
    want = kron_chain(ops)
    assert np.max(np.abs(_p._apply_factors(psi, n, ops) - want @ psi)) <= 1e-14
    got = _p._apply_factors(stack, n, ops)
    assert got.shape == stack.shape
    assert np.max(np.abs(got - stack @ want.T)) <= 1e-14
    assert calls == ["_apply_kron"] * (2 * -(-n // 4) if n > 1 else 0)
    calls.clear()
    ops = list(_unitaries(rng, n, 3))
    ops[n // 2] = PAULI_I
    got = _p._apply_factors(stack, n, ops)
    for k in range(3):
        want = kron_chain([op if op.ndim == 2 else op[k] for op in ops]) @ stack[k]
        assert np.max(np.abs(got[k] - want)) <= 1e-14, k
    assert calls == ["_apply_2x2"] * (n - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_apply_single_qubit_matches_dense_oracle(monkeypatch, n):
    # A single-qubit gate takes one _apply_kron product: a block of one qubit,
    # or on qubit q > n - 4 from q = 6 on the block op (x) I of qubits q..n,
    # whose product runs on the right side in one matmul. Below q = 6
    # (n = 3's qubit 2 included) the gate stays a block of one.
    rng = np.random.default_rng(500 + n)
    widths = []
    kron = _p._apply_kron

    def spy(amps, n, first, k):
        widths.append(k.shape[-1])
        return kron(amps, n, first, k)

    calls = count_calls(monkeypatch, [(_p, "_apply_2x2")])
    monkeypatch.setattr(_p, "_apply_kron", spy)
    s = random_state(n, 500 + n)
    for qubit in range(1, n + 1):
        op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ops = [np.eye(2)] * n
        ops[qubit - 1] = op
        got = apply_single_qubit(s, qubit, op).amplitudes
        assert np.max(np.abs(got - kron_chain(ops) @ s.amplitudes)) <= 1e-14, qubit
    assert calls == []
    assert widths == [2 << (n - q) if q >= 6 and q > n - 4 else 2 for q in range(1, n + 1)]


# --------------------------------------------------------- adjoint_rotation

def test_adjoint_identity():
    assert_allclose(adjoint_rotation(np.eye(2)), np.eye(3), atol=1e-14)


def test_adjoint_quarter_turn_about_y():
    u = np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * SY
    rot = adjoint_rotation(u)
    assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0)
    # Conjugating twice rotates by pi about y: x -> -x, z -> -z.
    assert_allclose(rot @ rot, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)
    assert adjoint_defining_residual(u, rot) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=2.0 * np.pi))
def test_adjoint_z_phase_fixes_z_axis(alpha):
    u = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)])
    rot = adjoint_rotation(u)
    assert rot[2, 2] == pytest.approx(1.0)
    assert_allclose([rot[0, 2], rot[1, 2], rot[2, 0], rot[2, 1]], 0.0, atol=1e-12)
    assert adjoint_defining_residual(u, rot) < 1e-12


def test_adjoint_defining_property_random():
    for seed in range(50):
        u = random_lu(1, seed, global_phase=seed % 2 == 1).ops[0]
        assert adjoint_defining_residual(u, adjoint_rotation(u)) < 1e-12


def test_adjoint_is_homomorphism():
    # Row convention: rotation of a product is the product of rotations,
    # in the same order.
    for seed in range(20):
        u = random_lu(1, seed).ops[0]
        v = random_lu(1, 1000 + seed).ops[0]
        got = adjoint_rotation(u @ v)
        want = adjoint_rotation(u) @ adjoint_rotation(v)
        assert_allclose(got, want, atol=1e-9)


def test_adjoint_so3_for_sampled_unitaries():
    for seed in range(200):
        rot = adjoint_rotation(random_lu(1, seed).ops[0])
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9


def test_adjoint_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        adjoint_rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_adjoint_rejects_a_matrix_whose_gram_overflows():
    with pytest.raises(NotUnitaryError, match=r"^matrix is not unitary within 1e-10$"):
        adjoint_rotation(np.diag([1e160, 1e-160]))
