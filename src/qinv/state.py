"""Pure-state vectors, reduced density matrices and their scalar functionals.

Basis convention: the computational basis index encodes |q1 q2 ... qn> with
qubit 1 as the most significant bit, so qubit q owns bit (n - q) of the index.
Qubit indices are 1-based everywhere in the public API.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadSubsetError,
    DimensionMismatchError,
    HermitianViolationError,
    IndexOutOfRangeError,
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
    first-kind invariant operations reject the unnormalized form. The
    constructor copies the caller's amplitudes once, so changing them later
    leaves the state as it was. The vectors qinv computes itself
    (``random_state``, ``conjugate``, the ``apply_*`` functions, ``new_state``'s
    own copy) are handed to their state without another copy.
    """

    n_qubits: int
    amplitudes: np.ndarray
    is_normalized: bool = True

    def __post_init__(self) -> None:
        n = _count(self.n_qubits, "n_qubits", high=MAX_QUBITS)
        self._hold(n, np.array(self.amplitudes, dtype=np.complex128), None)

    @classmethod
    def _own(cls, n: int, amps: np.ndarray, is_normalized: bool = True,
             nsq: float | None = None) -> PureState:
        """A state that takes ``amps``, a C-contiguous complex128 vector that
        no one else writes to, without copying it. ``nsq`` is its squared
        norm if the caller has computed it; the checks are the constructor's."""
        state = object.__new__(cls)
        object.__setattr__(state, "is_normalized", is_normalized)
        state._hold(n, amps, nsq)
        return state

    def _hold(self, n: int, amps: np.ndarray, nsq: float | None) -> None:
        """Check ``amps`` as the vector of ``n`` qubits (``nsq`` its squared
        norm, or None to take it here), make it read-only and store it."""
        if amps.ndim != 1 or amps.size != 1 << n:
            raise LengthMismatchError(
                f"expected {1 << n} amplitudes for n_qubits={n}, got {amps.size}"
            )
        _check_norms(np.vdot(amps, amps).real if nsq is None else nsq, self.is_normalized)
        amps.setflags(write=False)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def digest(self) -> str:
        """Short content hash of the amplitude vector (for report metadata):
        the first 16 hex digits of the SHA-256 of its bytes, read in place."""
        return hashlib.sha256(memoryview(self.amplitudes)).hexdigest()[:16]


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced density matrix over an ordered subset of the original qubits."""

    kept_qubits: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        kept = tuple(_index(q, BadSubsetError) for q in self.kept_qubits)
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


def _index(q, error: type[Exception], what: str = "qubit index") -> int:
    """``q`` as an int; a bool or non-integer (2.0 too) raises ``error``
    naming it as ``what``."""
    if not isinstance(q, bool):  # numpy's bool_ fails operator.index
        try:
            return operator.index(q)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {q!r}")


def _count(value, name: str, low: int = 1, high: int | None = None) -> int:
    """The argument ``name`` as an int in low..high (no cap if ``high`` is
    None), else TypeError, ValueError below ``low`` or TooLargeError above."""
    v = _index(value, TypeError, name)
    if v < low:
        raise ValueError(f"{name} must be >= {low}, got {v}")
    if high is not None and v > high:
        raise TooLargeError(f"{name}={v} exceeds the maximum of {high}")
    return v


def _qubit(q, n: int) -> int:
    """A qubit index of an n-qubit state as an int in 1..n, else IndexOutOfRangeError."""
    q = _index(q, IndexOutOfRangeError)
    if not 1 <= q <= n:
        raise IndexOutOfRangeError(f"qubit {q} out of range 1..{n}")
    return q


def _positive(x, name: str) -> float:
    """The argument ``name`` as a finite float > 0: TypeError for a bool or a
    non-real, ValueError for NaN, 0, negatives and values beyond float range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:  # an int beyond float range
        v = math.inf
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {x!r}")
    return v


def _failing(bad: np.ndarray, core: int = 0, first: int = 0,
             rows: Sequence[str] | None = None) -> tuple[tuple[int, ...], str]:
    """Index of the first failing entry of a check, and a message prefix.

    ``bad`` holds one flag per checked item; ``rows`` names the entries of
    the axis before its last ``core`` ones. An axis left before those stacks
    samples numbered from ``first``. The prefix names the failing sample and
    row.
    """
    idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    lead = bad.ndim - core - (rows is not None)
    at = f"sample {first + idx[0]}: " if lead > 0 else ""
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


def _check_density(m: np.ndarray, first: int = 0,
                   rows: Sequence[str] | None = None) -> None:
    """Hermitian, unit-trace and PSD checks on one density matrix or a stack
    (..., side, side) whose leading axis numbers samples from ``first`` and
    whose axis before the matrices is named by ``rows`` if given; each is
    written so that NaN fails it.

    The PSD check first tries a certificate: if every Hermitized matrix plus
    EIGENVALUE_TOL / 2 times the identity has a Cholesky factor, every lowest
    eigenvalue lies above -EIGENVALUE_TOL / 2 (Cholesky's backward error on
    these entries is of order 1e-15) and the stack passes. Otherwise
    ``eigvalsh`` decides and names the failing matrix, as without it."""
    mh = m.conj().swapaxes(-1, -2)
    skew = np.abs(m - mh)
    if not skew.max() <= HERMITIAN_TOL:
        herm = skew.max(axis=(-2, -1))
        _, at = _failing(~(herm <= HERMITIAN_TOL), 0, first, rows)
        raise ValueError(f"{at}density matrix is not Hermitian within tolerance")
    tr = m.trace(axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0)
    if not dev.max() <= TRACE_TOL:
        idx, at = _failing(~(dev <= TRACE_TOL), 0, first, rows)
        raise ValueError(f"{at}density matrix trace {tr[idx]!r} deviates from 1")
    # PSD check on the Hermitized matrix; rounding makes exact PSD unattainable.
    h = (m + mh) / 2.0
    try:
        np.linalg.cholesky(h + EIGENVALUE_TOL / 2.0 * np.eye(m.shape[-1]))
        return
    except np.linalg.LinAlgError:
        pass
    low = np.linalg.eigvalsh(h)[..., 0]
    if not low.min() >= -EIGENVALUE_TOL:
        idx, at = _failing(~(low >= -EIGENVALUE_TOL), 0, first, rows)
        raise ValueError(
            f"{at}density matrix has eigenvalue {low[idx]!r} below -{EIGENVALUE_TOL}")


def new_state(n: int, amps: Iterable[complex], *, normalize: bool = False) -> PureState:
    """Build a normalized PureState from raw amplitudes.

    If the squared norm deviates from 1 by more than 1e-10 the vector is
    rescaled only when ``normalize=True``; otherwise the call is rejected.
    The norm is taken after an exact power-of-two scaling, so any finite
    vector with a nonzero amplitude rescales, however large or small. The
    caller's amplitudes are copied once, and the state holds that copy.
    """
    n = _count(n, "n", high=MAX_QUBITS)
    vec = np.array(amps if isinstance(amps, np.ndarray) else list(amps),
                   dtype=np.complex128, order="C")
    return _new_state(n, vec, normalize)


def _new_state(n: int, vec: np.ndarray, normalize: bool) -> PureState:
    """``new_state`` of a complex128 vector that it may scale in place and
    then hand to the state: no copy of it is made, nor any other array of its
    size unless the largest part is 1 or more in modulus."""
    if vec.ndim != 1 or vec.size != 1 << n:
        raise LengthMismatchError(
            f"expected {1 << n} amplitudes for n={n}, got {vec.size}"
        )
    parts = vec.view(np.float64)  # real and imaginary parts
    # The largest part scales into [0.5, 1). Scaling up is exact and is undone
    # exactly below, so it runs in place; scaling down can round subnormal
    # parts, so it scales a copy.
    exp = int(np.frexp(np.maximum(parts.max(), -parts.min()))[1])
    scaled = parts
    if exp > 0:
        scaled = np.ldexp(parts, -exp)
    elif exp < 0:
        np.ldexp(parts, -exp, out=parts)
    scaled_norm = float(np.linalg.norm(scaled.view(np.complex128)))
    if not math.isfinite(scaled_norm):
        raise NonFiniteError(f"amplitudes must be finite; norm is {scaled_norm!r}")
    if scaled_norm == 0.0:
        raise ZeroVectorError("every amplitude is 0")
    with np.errstate(over="ignore"):  # a norm beyond float64 range is inf: unnormalized
        norm = float(np.ldexp(scaled_norm, exp))
    if abs(norm * norm - 1.0) > NORM_SQ_TOL:
        if not normalize:
            raise UnnormalizedError(f"norm is {norm!r}, squared {norm * norm!r}; "
                                    f"pass normalize=True to rescale")
        vec = scaled.view(np.complex128)
        vec /= scaled_norm
    elif exp < 0:
        np.ldexp(parts, exp, out=parts)
    return PureState._own(n, vec)


def conjugate(state: PureState) -> PureState:
    """Entrywise complex conjugate of the state (an involution)."""
    return PureState._own(state.n_qubits, state.amplitudes.conj(), state.is_normalized)


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
    product, so the transposed array is the only copy of the vectors made
    here, and each call makes one. ``_reductions`` shares one call among
    many small keep-sets.
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


# Qubits per block of ``_reductions``: a union of two blocks keeps up to six.
_BLOCK = 3


def _home(n: int, kept: Sequence[int]) -> tuple[int, ...]:
    """The union of two blocks whose reduction serves the one or two qubits
    ``kept``: their two blocks if they lie in two, else their block and the
    next one (the previous one for the last block)."""
    last = (n - 1) // _BLOCK
    blocks = sorted({(q - 1) // _BLOCK for q in kept})
    if len(blocks) == 1:
        b = blocks[0]
        blocks = [b, b + 1] if b < last else [b - 1, b]
    return tuple(q for q in range(1, n + 1) if (q - 1) // _BLOCK in blocks)


def _reductions(amps: np.ndarray, n: int, keeps: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """``_reduced(amps, n, kept)`` for each keep-set of one or two qubits in
    ``keeps``, each within rounding of that call.

    The qubits fall into consecutive blocks of ``_BLOCK``. Each keep-set has a
    home union of two blocks (``_home``), and one ``_reduced`` call over each
    home in use serves every keep-set at home there: its rho is a small
    partial trace of the union's. At n = 17 that is 15 copies of the vectors
    instead of 153. A home depends on (n, kept) alone, so a keep-set's rho
    does not depend on which others share the call. The route is taken only
    while a union's density matrix is no larger than one vector (n >= 12);
    below that each keep-set takes its own ``_reduced`` call.
    """
    if 4 ** (2 * _BLOCK) > 1 << n:
        return [_reduced(amps, n, kept) for kept in keeps]
    lead = amps.shape[:-1]
    homes: dict[tuple[int, ...], list[int]] = {}
    for k, kept in enumerate(keeps):
        homes.setdefault(_home(n, kept), []).append(k)
    out: list[np.ndarray] = [np.empty(0)] * len(keeps)
    for home, members in homes.items():  # one union held at a time
        union = _reduced(amps, n, home)
        u = len(home)
        for k in members:
            # Rows and columns of the union index (a, x, b, y, c) with x, y
            # the kept qubits; the partial trace sums the diagonal of a, b, c.
            p, *rest = sorted(home.index(q) for q in keeps[k])
            if rest:
                dims = (1 << p, 2, 1 << (rest[0] - p - 1), 2, 1 << (u - rest[0] - 1))
                sub = "...axbycaubvc->...xyuv"
            else:
                dims = (1 << p, 2, 1 << (u - p - 1))
                sub = "...axbayb->...xy"
            rho = np.einsum(sub, union.reshape(*lead, *dims, *dims))
            out[k] = rho.reshape(*lead, 2 << len(rest), 2 << len(rest))
    return out


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of a normalized ``state`` over ``keep``, a
    nonempty set of integer qubit indices in 1..n (improper subsets allowed),
    tracing out all other qubits. The kept qubits appear in increasing order,
    the smallest as the most significant bit of the reduced basis."""
    n = state.n_qubits
    kept = sorted({_index(q, BadSubsetError) for q in keep})
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


def _real(t, what: str, tol: float = HERMITIAN_TOL, first: int = 0,
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


def _trace_power(m: np.ndarray, k: int) -> np.ndarray:
    """tr(m^k), k >= 1, per matrix of ``m`` (..., side, side), checked real;
    one einsum takes the final trace."""
    if k == 2:  # sum_ij m_ij m_ji, without forming m @ m
        t = np.einsum("...ij,...ji->...", m, m)
    else:
        t = np.einsum("...ii->...", functools.reduce(np.matmul, itertools.repeat(m, k)))
    return _real(t, f"tr(rho^{k})")


def _cross_term(rho_a: np.ndarray, rho_b: np.ndarray, rho_ab: np.ndarray) -> np.ndarray:
    """tr[(rho_a (x) rho_b) rho_ab] per matrix triple of the stacks, checked real."""
    kron = np.einsum("...ij,...kl->...ikjl", rho_a, rho_b).reshape(rho_ab.shape)
    return _real(np.einsum("...ij,...ji->...", kron, rho_ab), "cross term")


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2) as a real number."""
    return float(_trace_power(rho.matrix, 2))


def trace_power(rho: DensityMatrix, k: int) -> float:
    """tr(rho^k) as a real number, k >= 1 an integer."""
    return float(_trace_power(rho.matrix, _count(k, "k")))


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
    return float(_cross_term(rho_a.matrix, rho_b.matrix, rho_ab.matrix))
