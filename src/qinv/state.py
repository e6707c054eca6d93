"""Pure-state vectors, reduced density matrices and their scalar functionals.

Basis convention: the computational basis index encodes |q1 q2 ... qn> with
qubit 1 as the most significant bit, so qubit q owns bit (n - q) of the index.
Qubit indices are 1-based everywhere in the public API.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadSubsetError,
    DimensionMismatchError,
    HermitianViolationError,
    LengthMismatchError,
    NonFiniteError,
    TooLargeError,
    UnnormalizedError,
    ZeroVectorError,
)

MAX_QUBITS = 24
# Dense reduced density matrices: keep-sets above this would not fit in memory.
MAX_KEPT_QUBITS = 12

NORM_SQ_TOL = 1e-10
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class PureState:
    """Immutable n-qubit pure state.

    ``amplitudes`` has length 2**n_qubits and is stored read-only. States are
    normalized unless explicitly constructed with ``is_normalized=False``;
    first-kind invariant operations reject the unnormalized form.
    """

    n_qubits: int
    amplitudes: np.ndarray
    is_normalized: bool = True

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_qubits > MAX_QUBITS:
            raise TooLargeError(
                f"n_qubits={self.n_qubits} exceeds the maximum of {MAX_QUBITS}"
            )
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != 1 << self.n_qubits:
            raise LengthMismatchError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"n_qubits={self.n_qubits}, got {amps.size}"
            )
        _check_norms(np.vdot(amps, amps).real, self.is_normalized)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def digest(self) -> str:
        """Short content hash of the amplitude vector (for report metadata)."""
        raw = np.ascontiguousarray(self.amplitudes).tobytes()
        return hashlib.sha256(raw).hexdigest()[:16]


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix over an ordered subset of the original qubits."""

    kept_qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        kept = tuple(int(q) for q in self.kept_qubits)
        if len(kept) == 0:
            raise BadSubsetError("kept_qubits must be nonempty")
        if len(set(kept)) != len(kept):
            raise BadSubsetError(f"kept_qubits has duplicates: {kept}")
        if any(q < 1 for q in kept):
            raise BadSubsetError(f"kept_qubits must be positive: {kept}")
        side = 1 << len(kept)
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (side, side):
            raise DimensionMismatchError(
                f"expected a {side}x{side} matrix for {len(kept)} kept qubits, "
                f"got shape {m.shape}"
            )
        _check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "kept_qubits", kept)
        object.__setattr__(self, "matrix", m)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


def _failing(bad: np.ndarray, core: int = 0, first: int | None = 0,
             rows: Sequence[str] | None = None) -> tuple[tuple[int, ...], str]:
    """Index of the first failing entry of a check, and a message prefix.

    ``bad`` holds one flag per checked item; ``rows`` names the entries of
    the axis before its last ``core`` ones. An axis left before those stacks
    samples numbered from ``first`` unless that is None. The prefix names the
    failing sample and row.
    """
    idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    lead = bad.ndim - core - (rows is not None)
    at = f"sample {first + idx[0]}: " if first is not None and lead > 0 else ""
    return idx, at if rows is None else f"{at}{rows[idx[lead]]}: "


def _vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(a) . b over the last axis: np.vdot for one pair of vectors, one
    value per pair for stacks. The stacked form is a batched matmul of row by
    column, which gives each pair bit for bit what np.vdot gives it."""
    if a.ndim == 1 and b.ndim == 1:
        return np.vdot(a, b)
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _check_norms(nsq, normalized: bool, first: int = 0) -> None:
    """Squared norms of one vector or a stack: finite, and 1 within 1e-10
    when ``normalized``. ``first`` numbers the samples of a stack."""
    nsq = np.asarray(nsq)
    dev = np.abs(nsq - 1.0)
    if dev.max() <= NORM_SQ_TOL:  # NaN fails this test too
        return
    bad = ~np.isfinite(nsq)
    if bad.any():
        idx, at = _failing(bad, first=first)
        raise NonFiniteError(
            f"{at}amplitudes must be finite; squared norm is {float(nsq[idx])!r}")
    if normalized:
        idx, at = _failing(~(dev <= NORM_SQ_TOL), first=first)
        raise UnnormalizedError(f"{at}squared norm {float(nsq[idx])!r} deviates "
                                f"from 1 by more than {NORM_SQ_TOL}")


def _check_density(m: np.ndarray, first: int | None = 0,
                   rows: Sequence[str] | None = None) -> None:
    """Hermitian, unit-trace and PSD checks on one density matrix or a stack
    (..., side, side) whose leading axis numbers samples from ``first`` (None:
    not a stack of samples) and whose axis before the matrices is named by
    ``rows`` if given; each is written so that NaN fails it."""
    mh = m.conj().swapaxes(-1, -2)
    herm = np.abs(m - mh).max(axis=(-2, -1))
    if not herm.max() <= HERMITIAN_TOL:
        _, at = _failing(~(herm <= HERMITIAN_TOL), 0, first, rows)
        raise ValueError(f"{at}density matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0)
    if not dev.max() <= TRACE_TOL:
        idx, at = _failing(~(dev <= TRACE_TOL), 0, first, rows)
        raise ValueError(f"{at}density matrix trace {tr[idx]!r} deviates from 1")
    # PSD check on the Hermitized matrix; rounding makes exact PSD unattainable.
    low = np.linalg.eigvalsh((m + mh) / 2.0)[..., 0]
    if not low.min() >= -EIGENVALUE_TOL:
        idx, at = _failing(~(low >= -EIGENVALUE_TOL), 0, first, rows)
        raise ValueError(
            f"{at}density matrix has eigenvalue {low[idx]!r} below -{EIGENVALUE_TOL}")


def new_state(n: int, amps: Iterable[complex], *, normalize: bool = False) -> PureState:
    """Build a normalized PureState from raw amplitudes.

    If the squared norm deviates from 1 by more than 1e-10 the vector is
    rescaled only when ``normalize=True``; otherwise the call is rejected.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise TooLargeError(f"n={n} exceeds the maximum of {MAX_QUBITS}")
    vec = np.asarray(list(amps) if not isinstance(amps, np.ndarray) else amps,
                     dtype=np.complex128)
    if vec.ndim != 1 or vec.size != 1 << n:
        raise LengthMismatchError(
            f"expected {1 << n} amplitudes for n={n}, got {vec.size}"
        )
    norm = float(np.linalg.norm(vec))
    if not math.isfinite(norm):
        raise NonFiniteError(f"amplitudes must be finite; norm is {norm!r}")
    if norm < 1e-14:
        raise ZeroVectorError(f"amplitude vector has norm {norm!r}")
    if abs(norm * norm - 1.0) > NORM_SQ_TOL:
        if not normalize:
            raise UnnormalizedError(
                f"squared norm is {norm * norm!r}; pass normalize=True to rescale"
            )
        vec = vec / norm
    return PureState(n, vec)


def conjugate(state: PureState) -> PureState:
    """Entrywise complex conjugate of the state (an involution)."""
    return PureState(state.n_qubits, state.amplitudes.conj(),
                     is_normalized=state.is_normalized)


# rho = (Re Re^T + Im Im^T) + i (Im Re^T - Re Im^T), indexed [part, part].
_RE_IM_WEIGHTS = np.array([[1, -1j], [1j, 1]])


def _reduced(amps: np.ndarray, n: int, kept: Sequence[int]) -> np.ndarray:
    """Reduced density matrices of bare amplitude vectors over the qubits ``kept``.

    ``amps`` has shape (..., 2**n), C-contiguous; the result is
    (..., side, side). Rows and columns follow the kept qubits in increasing
    order, as in ``partial_trace``. Each run of consecutive qubits on one side
    of the cut shares one axis, so a pair reduction transposes an
    (L, 2, M, 2, R) tensor, never a (2,)*n one. Real and imaginary parts go
    through that transpose together as floats and meet in one real Gram
    product, so the transposed array is the only copy of the vectors made here.
    """
    keep = set(kept)
    lead = amps.shape[:-1]
    dims, kept_axes, traced_axes = [], [], []
    for q in range(1, n + 1):
        if q > 1 and (q in keep) == (q - 1 in keep):
            dims[-1] *= 2
        else:
            (kept_axes if q in keep else traced_axes).append(len(lead) + len(dims))
            dims.append(2)
    side = 1 << len(keep)
    parts = amps.view(np.float64).reshape(*lead, *dims, 2)
    order = [*range(len(lead)), parts.ndim - 1, *kept_axes, *traced_axes]
    f = parts.transpose(order).reshape(*lead, 2 * side, -1)
    gram = (f @ f.swapaxes(-1, -2)).reshape(*lead, 2, side, 2, side)
    return np.einsum("pq,...piqj->...ij", _RE_IM_WEIGHTS, gram)


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, tracing out all other qubits.

    Parameters
    ----------
    state : PureState
        Normalized input state.
    keep : iterable of int
        Nonempty subset of 1..n (improper subsets allowed). The reduced matrix
        uses the kept qubits in increasing original order, the smallest kept
        index being the most significant bit of the reduced basis.
    """
    n = state.n_qubits
    kept = sorted({int(q) for q in keep})
    if not kept:
        raise BadSubsetError("keep must be a nonempty set of qubit indices")
    if kept[0] < 1 or kept[-1] > n:
        raise BadSubsetError(f"keep={kept} is not a subset of 1..{n}")
    if len(kept) > MAX_KEPT_QUBITS:
        raise TooLargeError(
            f"cannot keep {len(kept)} qubits; dense reductions are capped at "
            f"{MAX_KEPT_QUBITS}"
        )
    if not state.is_normalized:
        raise UnnormalizedError("partial_trace requires a normalized state")
    return DensityMatrix(tuple(kept), _reduced(state.amplitudes, n, kept))


def _real(t, what: str, tol: float = HERMITIAN_TOL, first: int | None = None,
          rows: Sequence[str] | None = None):
    """Real part of a value that must be real, as a scalar or an array.

    An imaginary residue at or above ``tol`` means a kernel bug, not bad
    input, and raises HermitianViolationError (an assert would vanish
    under ``python -O``). With ``rows``, values (..., rows, k) name their
    failing row and, from ``first``, their sample.
    """
    residue = np.abs(t.imag).max() if isinstance(t, np.ndarray) else abs(t.imag)
    if not residue < tol:
        at = "" if rows is None else _failing(~(np.abs(t.imag) < tol), 1, first, rows)[1]
        raise HermitianViolationError(f"{at}{what} has imaginary residue {float(residue)!r}")
    return t.real


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2) as a real number."""
    return float(_real(np.einsum("ij,ji->", rho.matrix, rho.matrix), "tr(rho^2)"))


def trace_power(rho: DensityMatrix, k: int) -> float:
    """tr(rho^k) as a real number, k >= 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(_real(np.linalg.matrix_power(rho.matrix, k).trace(), f"tr(rho^{k})"))


def cross_term(rho_a: DensityMatrix, rho_b: DensityMatrix,
               rho_ab: DensityMatrix) -> float:
    """tr[(rho_a (x) rho_b) rho_ab] as a real number.

    ``rho_ab`` must cover rho_a's qubits followed by rho_b's qubits, in that
    order, so that the Kronecker product aligns with its basis.
    """
    if rho_a.kept_qubits + rho_b.kept_qubits != rho_ab.kept_qubits:
        raise DimensionMismatchError(
            f"rho_ab must be over qubits {rho_a.kept_qubits + rho_b.kept_qubits}, "
            f"got {rho_ab.kept_qubits}"
        )
    prod = np.kron(rho_a.matrix, rho_b.matrix)
    return float(_real(np.einsum("ij,ji->", prod, rho_ab.matrix), "cross term"))
