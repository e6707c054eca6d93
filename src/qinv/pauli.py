"""Single-qubit operator kernels, Pauli-string expectations and bilinear forms.

Gates are applied with bit-stride kernels, O(2^n) per single-qubit operator;
dense 2^n x 2^n matrices are never built here (the test suite keeps a dense
oracle for cross-checking).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InternalDisagreementError,
    LengthMismatchError,
    NotUnitaryError,
)
from .state import NORM_SQ_TOL, PureState, _real, _vdots

PAULI_I = np.array([[1, 0], [0, 1]], dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
# Spin flip T = i*sigma_y = [[0, 1], [-1, 0]]; T|0> = -|1>, T|1> = |0>.
SPIN_FLIP = 1j * PAULI_Y

_SIGMAS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])

for _m in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, SPIN_FLIP, _SIGMAS):
    _m.setflags(write=False)

PAULI_BY_LETTER = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

HERMITIAN_RESIDUE_TOL = 1e-10
UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class PauliString:
    """One letter from {I, X, Y, Z} per qubit."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        for c in letters:
            if c not in PAULI_BY_LETTER:
                raise ValueError(f"invalid Pauli letter {c!r}; expected I, X, Y or Z")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def coerce(cls, value: "PauliString | str | Iterable[str]") -> "PauliString":
        if isinstance(value, PauliString):
            return value
        return cls(tuple(value))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)


def _as_2x2(op: np.ndarray) -> np.ndarray:
    m = np.asarray(op, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("operator has non-finite entries")
    return m


def _apply_2x2(amps: np.ndarray, n: int, qubit: int, op: np.ndarray) -> np.ndarray:
    """Apply a 2x2 operator to one qubit of bare amplitude vectors.

    ``amps`` has shape (..., 2**n); ``op`` is one (2, 2) matrix or a stack
    (..., 2, 2) whose leading axes broadcast against those of ``amps``.
    One operator on one vector (either may be a stack of one) goes through
    einsum. Stacks sum two broadcast products instead, 2-3x faster than
    einsum, which has no BLAS path for stacked operands; their temporary is
    as large as the output, which campaign chunking keeps small.
    """
    left = 1 << (qubit - 1)
    right = 1 << (n - qubit)
    psi = amps.reshape(*amps.shape[:-1], left, 2, right)
    if op.size == 4 and amps.size == 1 << n:
        out = np.einsum("...ab,...lbr->...lar", op, psi)
    else:
        col = op[..., None, :, :, None]
        out = col[..., 0, :] * psi[..., 0:1, :]
        out += col[..., 1, :] * psi[..., 1:2, :]
    return out.reshape(*out.shape[:-3], -1)


def _apply_factors(amps: np.ndarray, n: int, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one already-validated factor per qubit, skipping ``PAULI_I``.

    ``ops[q - 1]`` acts on qubit q: a (2, 2) matrix, or a stack with one
    matrix per vector of ``amps`` (see ``_apply_2x2``).
    """
    for qubit, op in enumerate(ops, start=1):
        if op is not PAULI_I:
            amps = _apply_2x2(amps, n, qubit, op)
    return amps


def _expectations(amps: np.ndarray, n: int, ops: Sequence[np.ndarray],
                  what: str) -> np.ndarray:
    """<psi|M|psi> per vector of ``amps`` (..., 2**n), M the product of ``ops``.

    The imaginary residue of every value must stay below 1e-10.
    """
    return _real(_vdots(amps, _apply_factors(amps, n, ops)), what,
                 HERMITIAN_RESIDUE_TOL)


def _bilinears(amps: np.ndarray, n: int, ops: Sequence[np.ndarray]) -> np.ndarray:
    """<psi|M|psi*> per vector of ``amps`` (..., 2**n), M the product of ``ops``."""
    return _vdots(amps, _apply_factors(amps.conj(), n, ops))


def _wrap(n: int, amps: np.ndarray) -> PureState:
    nsq = float(np.vdot(amps, amps).real)
    return PureState(n, amps, is_normalized=abs(nsq - 1.0) <= NORM_SQ_TOL)


def apply_single_qubit(state: PureState, qubit: int, op: np.ndarray) -> PureState:
    """Act with a 2x2 operator on one qubit; norm is preserved iff op is unitary."""
    if not 1 <= qubit <= state.n_qubits:
        raise IndexOutOfRangeError(
            f"qubit {qubit} out of range 1..{state.n_qubits}"
        )
    out = _apply_2x2(state.amplitudes, state.n_qubits, qubit, _as_2x2(op))
    return _wrap(state.n_qubits, out)


def apply_string(state: PureState, ops: Sequence[np.ndarray]) -> PureState:
    """Apply one 2x2 operator per qubit (order immaterial: disjoint qubits)."""
    n = state.n_qubits
    if len(ops) != n:
        raise LengthMismatchError(f"expected {n} operators, got {len(ops)}")
    return _wrap(n, _apply_factors(state.amplitudes, n, [_as_2x2(op) for op in ops]))


def expectation(state: PureState, pauli: PauliString | str) -> float:
    """Sesquilinear expectation <psi|P|psi> of a Hermitian Pauli string.

    The imaginary residue must stay below 1e-10; a larger residue indicates a
    kernel bug and raises HermitianViolationError.
    """
    p = PauliString.coerce(pauli)
    n = state.n_qubits
    if len(p) != n:
        raise LengthMismatchError(
            f"Pauli string has length {len(p)}, state has {n} qubits"
        )
    ops = [PAULI_BY_LETTER[c] for c in p.letters]
    return float(_expectations(state.amplitudes, n, ops, f"expectation of {p}"))


def bilinear(state: PureState, ops: Sequence[np.ndarray]) -> complex:
    """Bilinear form <psi|M|psi*> = sum_ij conj(psi_i) M_ij conj(psi_j).

    M is the tensor product of the per-qubit operators. Unlike ``expectation``
    this is not sesquilinear: both slots carry the conjugated amplitudes, so
    the value is symmetric under transposing M and is complex in general.
    """
    n = state.n_qubits
    if len(ops) != n:
        raise LengthMismatchError(f"expected {n} operators, got {len(ops)}")
    return complex(_bilinears(state.amplitudes, n, [_as_2x2(op) for op in ops]))


def adjoint_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) matrix carrying the conjugation action of a single-qubit unitary.

    Row i holds the Pauli coefficients of u^-1 sigma_i u, i.e.
    u^-1 sigma_i u = sum_j O[i, j] sigma_j with i, j running over (x, y, z).
    Under this convention the map is a homomorphism:
    adjoint_rotation(u @ v) == adjoint_rotation(u) @ adjoint_rotation(v).
    """
    m = _as_2x2(u)
    if np.max(np.abs(m.conj().T @ m - PAULI_I)) > UNITARY_TOL:
        raise NotUnitaryError("matrix is not unitary within 1e-10")
    adj = m.conj().T @ _SIGMAS @ m
    out = _real(0.5 * np.einsum("xij,yji->xy", adj, _SIGMAS), "rotation",
                HERMITIAN_RESIDUE_TOL)
    # Orthogonality and unit determinant follow from unitarity of the input.
    orth = float(np.max(np.abs(out @ out.T - np.eye(3))))
    det = float(np.linalg.det(out))
    if not (orth < 1e-9 and abs(det - 1.0) < 1e-9):
        raise InternalDisagreementError(
            f"rotation is not in SO(3): orthogonality residual {orth!r}, "
            f"determinant {det!r}"
        )
    return out
