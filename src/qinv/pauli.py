"""Single-qubit operator kernels, Pauli-string expectations and bilinear forms.

A product of one factor per qubit takes one matmul per block of up to 4
qubits, O(2^(n+4)) per block, and a single-qubit gate is a block of one.
Only per-sample factor stacks below 6 qubits (a campaign's images there)
take one bit-stride pass per qubit instead, O(2^n) per factor. No matrix
larger than 16 x 16 is built here (the test suite keeps a dense oracle for
cross-checking).
"""
from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InternalDisagreementError,
    LengthMismatchError,
    NonFiniteError,
    NotUnitaryError,
)
from .state import NORM_SQ_TOL, PureState, _qubit, _real, _vdots

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


def _factors(ops: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """One checked 2x2 matrix per qubit of an n-qubit state."""
    if len(ops) != n:
        raise LengthMismatchError(f"expected {n} operators, got {len(ops)}")
    return [_as_2x2(op) for op in ops]


def _apply_2x2(amps: np.ndarray, n: int, qubit: int, op: np.ndarray) -> np.ndarray:
    """Apply a 2x2 operator to one qubit of bare amplitude vectors.

    ``amps`` has shape (..., 2**n); ``op`` is one (2, 2) matrix or a stack
    (..., 2, 2) whose leading axes broadcast against those of ``amps``: the
    sum of two broadcast products, whose temporary is as large as the
    output, which campaign chunking keeps small. ``_apply_factors`` uses it
    only for per-sample factor stacks below ``_KRON_FROM`` qubits.
    """
    left = 1 << (qubit - 1)
    right = 1 << (n - qubit)
    psi = amps.reshape(*amps.shape[:-1], left, 2, right)
    col = op[..., None, :, :, None]
    out = col[..., 0, :] * psi[..., 0:1, :]
    out += col[..., 1, :] * psi[..., 1:2, :]
    return out.reshape(*out.shape[:-3], -1)


# _apply_factors applies blocks of at most _KRON_QUBITS shared factors as one
# Kronecker product each at every n (1.1-3x faster than per-qubit passes at
# n = 2-5). Per-sample stacks below _KRON_FROM qubits take per-qubit passes:
# blocks took 2.6-3.3x as long there, with 4^m products per sample against
# 2m * 2^m and one small matmul per sample and row. apply_single_qubit widens
# a gate only from qubit _KRON_FROM on, where it saves 32 or more products.
_KRON_FROM = 6
_KRON_QUBITS = 4


def _kron(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of 2x2 matrices or stacks of them, broadcast over
    their leading axes; the first factor acts on the highest bit."""
    k = ops[0]
    for op in ops[1:]:
        k = k[..., :, None, :, None] * op[..., None, :, None, :]
        k = k.reshape(*k.shape[:-4], 2 * k.shape[-4], 2 * k.shape[-2])
    return k


def _apply_kron(amps: np.ndarray, n: int, first: int, k: np.ndarray) -> np.ndarray:
    """Apply ``k``, one 2**m x 2**m matrix or a stack whose leading axes
    broadcast against those of ``amps`` (..., 2**n), to qubits first + 1 ..
    first + m with one matmul: on the left of the (L, D, R) view, broadcast
    over L (one product when L = 1), or, for the last qubits, on the right
    of the (L, D) view: one product where the left side would take L
    matrix-vector products, 1.02-1.4x faster from 6 to 20 qubits."""
    d = k.shape[-1]
    left, right = 1 << first, (1 << n) // (d << first)
    lead = amps.shape[:-1]
    if right == 1:
        out = amps.reshape(*lead, left, d) @ k.swapaxes(-1, -2)
        return out.reshape(*out.shape[:-2], 1 << n)
    out = k[..., None, :, :] @ amps.reshape(*lead, left, d, right)
    return out.reshape(*out.shape[:-3], 1 << n)


def _apply_factors(amps: np.ndarray, n: int, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Apply one already-validated factor per qubit.

    ``ops[q - 1]`` acts on qubit q: a (2, 2) matrix, or a stack with one
    matrix per vector of ``amps`` (see ``_apply_2x2``). The qubits split
    into ceil(n / 4) consecutive blocks of at most 4, as even as possible,
    and each block with a factor other than ``PAULI_I`` takes one
    ``_apply_kron`` of the Kronecker product of its factors: about n / 4
    BLAS products instead of n strided passes. Only when some factor is a
    per-sample stack and n < 6 does each factor other than ``PAULI_I`` take
    one ``_apply_2x2`` pass instead.
    """
    if n < _KRON_FROM and any(op.ndim > 2 for op in ops):
        for qubit, op in enumerate(ops, start=1):
            if op is not PAULI_I:
                amps = _apply_2x2(amps, n, qubit, op)
        return amps
    blocks = -(-n // _KRON_QUBITS)
    first = 0
    for b in range(blocks):
        size = (n + b) // blocks  # the sizes of the last n % blocks round up
        block = ops[first:first + size]
        if any(op is not PAULI_I for op in block):
            amps = _apply_kron(amps, n, first, _kron(block))
        first += size
    return amps


def _bilinears(amps: np.ndarray, n: int, ops: Sequence[np.ndarray]) -> np.ndarray:
    """<psi|M|psi*> per vector of ``amps`` (..., 2**n), M the product of ``ops``."""
    return _vdots(amps, _apply_factors(amps.conj(), n, ops))


# (-1)^popcount(y) for y < 2**12, built by doubling: the signs of y and of
# y + 2**k differ by the added bit. Its first 2**k entries are the signs of
# k-bit indices, so both halves of a 24-bit index read prefixes of it.
_SIGNS = np.ones(1)
while _SIGNS.size < 1 << 12:
    _SIGNS = np.concatenate([_SIGNS, -_SIGNS])
_SIGNS.setflags(write=False)


def _flip_gram(amps: np.ndarray, n: int, free: int) -> np.ndarray:
    """Spin-flip Gram block of ``amps`` (..., 2**n), shape (..., 2**free, 2**free).

    With a = conj(amps) viewed as (..., 2**(n - free), 2**free), returns
    G[t, s] = sum_y (-1)^|y| a[y, t] a[~y, s], where ~y is the bitwise
    complement and |y| the number of set bits: (T x ... x T v)[y] =
    (-1)^|y| v[~y] for T = i sigma_y on the first n - free qubits, so
    <psi| T x ... x T x W |psi*> = sum_ts W[t, s] G[t, s] for a 2**free x
    2**free matrix W. One einsum over the state per (t, s): ~y is a
    reversed view, and the sign is the product of the signs of y's high and
    low halves. (One einsum over all (t, s) at once is 2-3x slower with a
    free qubit.) The sums run on the amplitudes and are conjugated at the
    end, which is exact, so neither conj(amps) nor a sign array of 2**n
    entries is made.
    """
    m, side = n - free, 1 << free
    high = m // 2
    psi = amps.reshape(*amps.shape[:-1], 1 << high, 1 << (m - high), side)
    rev = psi[..., ::-1, ::-1, :]
    g = np.empty((*amps.shape[:-1], side, side), dtype=np.complex128)
    for t, s in itertools.product(range(side), repeat=2):
        g[..., t, s] = np.einsum("h,l,...hl,...hl->...", _SIGNS[:1 << high],
                                 _SIGNS[:1 << (m - high)], psi[..., t], rev[..., s])
    return g.conj()


def _wrap(n: int, amps: np.ndarray) -> PureState:
    """The state of a fresh kernel output, normed once and not copied."""
    nsq = float(np.vdot(amps, amps).real)
    return PureState._own(n, amps, abs(nsq - 1.0) <= NORM_SQ_TOL, nsq)


def apply_single_qubit(state: PureState, qubit: int, op: np.ndarray) -> PureState:
    """Act with a 2x2 operator on one qubit; norm is preserved iff op is unitary.

    On qubits n - 3 .. n - 1 from ``_KRON_FROM`` on, op (x) I (a block that
    ends at qubit n, built by broadcasting: 5-7 us, ``np.kron`` 24 us) takes
    ``_apply_kron``'s one right-side product instead of 2**(qubit - 1) tiny
    ones. Below qubit 6 building it cost more than it saved: 1.1-1.3x slower
    at n = 3-7 (2-vCPU Xeon VM).
    """
    n = state.n_qubits
    qubit = _qubit(qubit, n)
    op = _as_2x2(op)
    if qubit >= _KRON_FROM and n - _KRON_QUBITS < qubit < n:
        right = 1 << (n - qubit)
        op = (op[:, None, :, None] * np.eye(right)[:, None, :]).reshape(2 * right, -1)
    return _wrap(n, _apply_kron(state.amplitudes, n, qubit - 1, op))


def apply_string(state: PureState, ops: Sequence[np.ndarray]) -> PureState:
    """Apply one 2x2 operator per qubit (order immaterial: disjoint qubits)."""
    n = state.n_qubits
    return _wrap(n, _apply_factors(state.amplitudes, n, _factors(ops, n)))


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
    psi = state.amplitudes
    ops = [PAULI_BY_LETTER[c] for c in p.letters]
    return float(_real(_vdots(psi, _apply_factors(psi, n, ops)), f"expectation of {p}",
                       HERMITIAN_RESIDUE_TOL))


def bilinear(state: PureState, ops: Sequence[np.ndarray]) -> complex:
    """Bilinear form <psi|M|psi*> = sum_ij conj(psi_i) M_ij conj(psi_j).

    M is the tensor product of the per-qubit operators. Unlike ``expectation``
    this is not sesquilinear: both slots carry the conjugated amplitudes, so
    the value is symmetric under transposing M and is complex in general. A
    value that overflows float64 raises NonFiniteError.
    """
    n = state.n_qubits
    factors = _factors(ops, n)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(_bilinears(state.amplitudes, n, factors))
    if not cmath.isfinite(value):
        raise NonFiniteError("bilinear form overflows float64")
    return value


def adjoint_rotation(u: np.ndarray) -> np.ndarray:
    """SO(3) matrix carrying the conjugation action of a single-qubit unitary.

    Row i holds the Pauli coefficients of u^-1 sigma_i u, i.e.
    u^-1 sigma_i u = sum_j O[i, j] sigma_j with i, j running over (x, y, z).
    Under this convention the map is a homomorphism:
    adjoint_rotation(u @ v) == adjoint_rotation(u) @ adjoint_rotation(v).
    """
    m = _as_2x2(u)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test
        gram = m.conj().T @ m
    if not np.max(np.abs(gram - PAULI_I)) <= UNITARY_TOL:
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
