"""Random states, random local-operator sampling and the invariance harness.

Local unitaries are drawn from the Euler-angle product
e^{i a sigma_z} e^{i w sigma_y} e^{i b sigma_z} with a, b uniform on [0, 2pi)
and w uniform on [0, pi); this is not the Haar measure, which is fine for
invariance testing because an invariant must hold pointwise for every group
element. Determinant-one operators exponentiate traceless Gaussian matrices
with the 2x2 closed form exp(M) = cosh(d) I + sinh(d)/d M, d^2 = -det M,
and are rejected on a closed-form condition number. Every factor of an
operator is drawn, built and validated as one (n, 2, 2) array; numpy is the
only dependency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import invariants as _inv
from . import pauli as _p
from . import state as _s
from .errors import (
    ConditioningFailureError,
    InvariantNotApplicableError,
    LengthMismatchError,
    NotUnitaryError,
    TooLargeError,
)
from .state import PureState

LU_KIND = "LU"
SL_KIND = "SL"

# Type-level cap; the sampler itself rejects above 10.
_SL_CONDITION_CAP = 100.0
_SL_SAMPLER_CONDITION_CAP = 10.0
_SL_MAX_ATTEMPTS = 1000
_UNIT_TOL = 1e-10
# Below this |d^2| the closed-form exponential switches to its Taylor series;
# the first dropped terms, d^4/24 and d^4/120, are then below 5e-18.
_EXPM_SERIES_CUTOFF = 1e-8
# Polynomial degree of the spin-flip invariants in the amplitudes. A value of
# degree k on a vector of norm r is rounded at the scale r**k, which is the
# relative-deviation floor when the invariant itself is zero.
_SPIN_FLIP_DEGREE = {"C": 2, "Z": 4}


def _det2(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2x2 matrices."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _cond2(m: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack of 2x2 matrices, in closed form.

    With F the Frobenius norm, the singular values satisfy s1^2 + s2^2 = F^2
    and s1 s2 = |det|, so cond = s1 / s2 = s1^2 / |det| with
    s1^2 = (F^2 + sqrt(F^4 - 4 |det|^2)) / 2. Singular matrices give inf and
    non-finite ones NaN; callers compare with ``<=`` so both are rejected.
    """
    fro2 = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    adet = np.abs(_det2(m))
    with np.errstate(divide="ignore", invalid="ignore"):
        s1sq = 0.5 * (fro2 + np.sqrt(np.maximum(fro2 * fro2 - 4.0 * adet * adet, 0.0)))
        return s1sq / adet


def _expm_traceless(m: np.ndarray) -> np.ndarray:
    """exp(M) for a stack of traceless 2x2 matrices.

    M^2 = d^2 I with d^2 = m00^2 + m01 m10, so exp(M) = cosh(d) I + sinh(d)/d M.
    Both coefficients are even in d, so the branch of the square root does not
    matter; near d = 0 (including nilpotent M) they come from their series.
    """
    d2 = m[:, 0, 0] ** 2 + m[:, 0, 1] * m[:, 1, 0]
    small = np.abs(d2) < _EXPM_SERIES_CUTOFF
    d = np.sqrt(np.where(small, 1.0, d2))
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(small, 1.0 + d2 / 2.0, np.cosh(d))
        s = np.where(small, 1.0 + d2 / 6.0, np.sinh(d) / d)
        out = s[:, None, None] * m
    out[:, 0, 0] += c
    out[:, 1, 1] += c
    return out


@dataclass(frozen=True)
class LocalOperator:
    """One 2x2 operator per qubit, either all-unitary (LU) or det-one (SL)."""

    ops: tuple[np.ndarray, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (LU_KIND, SL_KIND):
            raise ValueError(f"kind must be {LU_KIND!r} or {SL_KIND!r}, got {self.kind!r}")
        mats = [np.asarray(op, dtype=np.complex128) for op in self.ops]
        for k, m in enumerate(mats, start=1):
            if m.shape != (2, 2):
                raise ValueError(f"operator {k} has shape {m.shape}, expected (2, 2)")
        # One copy, so the factors do not alias the caller's arrays.
        stack = np.array(mats, dtype=np.complex128).reshape(-1, 2, 2)
        # Every check is written as ~(x <= tol) so that NaN fails it.
        if self.kind == LU_KIND:
            gram = stack.conj().swapaxes(-1, -2) @ stack
            bad = ~(np.max(np.abs(gram - np.eye(2)), axis=(-2, -1)) <= _UNIT_TOL)
            if bad.any():
                k = int(np.argmax(bad)) + 1
                raise NotUnitaryError(f"operator {k} is not unitary within {_UNIT_TOL:g}")
        else:
            det = _det2(stack)
            bad_det = ~(np.abs(det - 1.0) <= _UNIT_TOL)
            bad = bad_det | ~(_cond2(stack) <= _SL_CONDITION_CAP)
            if bad.any():
                k = int(np.argmax(bad))
                if bad_det[k]:
                    raise ValueError(f"operator {k + 1} has determinant "
                                     f"{complex(det[k])!r}, expected 1")
                raise ValueError(f"operator {k + 1} exceeds condition number "
                                 f"{_SL_CONDITION_CAP}")
        stack.setflags(write=False)
        object.__setattr__(self, "ops", tuple(stack))

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sampling one invariant over one group orbit."""

    invariant: str
    group: str
    samples: int
    max_abs_deviation: float
    max_rel_deviation: float
    seed: int
    tol: float
    metric: str  # deviation metric the pass verdict uses: "abs" or "rel"
    passed: bool


def random_state(n: int, seed: int) -> PureState:
    """Haar-direction random state: complex Gaussian entries, normalized."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _s.MAX_QUBITS:
        raise TooLargeError(f"n={n} exceeds the maximum of {_s.MAX_QUBITS}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    vec /= np.linalg.norm(vec)
    return PureState(n, vec)


def _euler_unitary(alpha, omega, beta) -> np.ndarray:
    """e^{i alpha sigma_z} e^{i omega sigma_y} e^{i beta sigma_z}, elementwise
    over angle arrays: shape (..., 2, 2)."""
    ea, ca = np.exp(1j * alpha), np.exp(-1j * alpha)
    eb, cb = np.exp(1j * beta), np.exp(-1j * beta)
    c, s = np.cos(omega), np.sin(omega)
    return np.stack([np.stack([ea * c * eb, ea * s * cb], axis=-1),
                     np.stack([ca * -s * eb, ca * c * cb], axis=-1)], axis=-2)


# Uniform ranges of (alpha, omega, beta, global phase); rng.random() * width
# is bit-for-bit what rng.uniform(0, width) returns.
_EULER_WIDTHS = np.array([2.0 * np.pi, np.pi, 2.0 * np.pi, 2.0 * np.pi])


def random_lu(n: int, seed: int, global_phase: bool = False) -> LocalOperator:
    """Random local unitary, one Euler-angle factor per qubit.

    Each factor has determinant one; ``global_phase`` multiplies every factor
    by an independent uniform phase (making the determinant a phase too).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cols = 4 if global_phase else 3
    angles = np.random.default_rng(seed).random((n, cols)) * _EULER_WIDTHS[:cols]
    u = _euler_unitary(angles[:, 0], angles[:, 1], angles[:, 2])
    if global_phase:
        u = np.exp(1j * angles[:, 3])[:, None, None] * u
    return LocalOperator(tuple(u), LU_KIND)


def random_sl(n: int, seed: int, spread: float = 0.5) -> LocalOperator:
    """Random determinant-one local operator with condition number <= 10.

    Per qubit: exponentiate the traceless part of a Gaussian complex matrix
    (determinant exactly one analytically), polish the determinant
    numerically, and reject on the condition number. Each attempt draws every
    still-pending qubit at once; only rejected qubits are drawn again.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spread <= 0:
        raise ValueError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    ops = np.empty((n, 2, 2), dtype=np.complex128)
    pending = np.arange(n)
    for _ in range(_SL_MAX_ATTEMPTS):
        z = rng.standard_normal((pending.size, 2, 2, 2))
        m = spread * (z[:, 0] + 1j * z[:, 1])
        half_trace = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
        m[:, 0, 0] -= half_trace
        m[:, 1, 1] -= half_trace
        g = _expm_traceless(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            g /= np.sqrt(_det2(g))[:, None, None]
        ok = _cond2(g) <= _SL_SAMPLER_CONDITION_CAP
        ops[pending[ok]] = g[ok]
        pending = pending[~ok]
        if pending.size == 0:
            return LocalOperator(tuple(ops), SL_KIND)
    raise ConditioningFailureError(
        f"no acceptable operator for qubit {pending[0] + 1} after {_SL_MAX_ATTEMPTS} draws"
    )


def apply_local(state: PureState, g: LocalOperator) -> tuple[PureState, float]:
    """Apply a local operator qubit by qubit.

    Returns ``(image, raw_norm)``: the image is always normalized and
    ``raw_norm`` is the norm the amplitudes had before rescaling (1 for
    unitaries up to rounding). Second-kind invariants are polynomial in the
    amplitudes, so for SL orbits they must be evaluated on the raw image,
    i.e. on ``image.amplitudes * raw_norm``.
    """
    n = state.n_qubits
    if len(g) != n:
        raise LengthMismatchError(f"operator has {len(g)} factors, state has {n} qubits")
    amps = _p._apply_factors(state.amplitudes, n, g.ops)
    raw_norm = float(np.linalg.norm(amps))
    if g.kind == LU_KIND:
        return PureState(n, amps), raw_norm
    return PureState(n, amps / raw_norm), raw_norm


def _raw_image(image: PureState, raw_norm: float) -> PureState:
    return PureState(image.n_qubits, image.amplitudes * raw_norm,
                     is_normalized=False)


def _subseed(seed: int, index: int) -> int:
    # Same derivation for serial and parallel runs keeps reports bit-identical.
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _parse_selector(name: str, n: int) -> Callable[[PureState], complex]:
    """Map an invariant name to its evaluator."""
    if name == "C":
        if n % 2 != 0:
            raise InvariantNotApplicableError(f"C needs even n, state has n={n}")
        return _inv.concurrence
    if name == "Z":
        if n % 2 == 0:
            raise InvariantNotApplicableError(f"Z needs odd n, state has n={n}")
        return _inv.odd_tangle
    if name in {"I_1", "I_2", "I_3", "I_4", "I_5", "I_6"}:
        if n != 3:
            raise InvariantNotApplicableError(f"{name} needs n=3, state has n={n}")
        k = int(name[2:])
        suite_fns: dict[int, Callable[[PureState], complex]] = {
            1: lambda s: float(np.vdot(s.amplitudes, s.amplitudes).real),
            2: lambda s: _s.purity(_s.partial_trace(s, {3})),
            3: lambda s: _s.purity(_s.partial_trace(s, {2})),
            4: lambda s: _s.purity(_s.partial_trace(s, {1})),
            5: _inv.cubic_invariant,
            6: _inv.three_tangle,
        }
        return suite_fns[k]
    if name.startswith("I_{") and name.endswith("}"):
        inner = name[3:-1]
        if "," in inner:
            parts = inner.split(",")
        elif len(inner) == 2 and n <= 9:
            parts = list(inner)
        else:
            parts = [inner]
        try:
            indices = [int(p) for p in parts]
        except ValueError:
            indices = []
        if len(indices) == 2:
            i, j = indices
            return lambda s: _inv.pair_invariant(s, i, j)
        if len(indices) == 1:
            return lambda s: _inv.single_qubit_invariant(s, indices[0])
        raise InvariantNotApplicableError(f"cannot parse selector {name!r}")
    raise InvariantNotApplicableError(f"unknown invariant selector {name!r}")


def verify_invariance(state: PureState, invariant: str, group: str,
                      samples: int, tol: float, seed: int) -> VerificationReport:
    """Sample a group orbit of ``state`` and measure how much the invariant moves.

    LU orbits compare absolute deviations; the bilinear invariants C and Z are
    compared in modulus there because per-qubit global phases rotate their
    phase. SL orbits evaluate C/Z on the raw (unnormalized) images, compare
    complex values, and the verdict uses the relative deviation: relative to
    |base|, or, when C/Z is zero on ``state``, to ``raw_norm ** degree`` of
    each image. Everything is deterministic per seed: sample k draws its
    operator from a sub-seed derived from (seed, k).
    """
    group = group.upper()
    if group not in (LU_KIND, SL_KIND):
        raise ValueError(f"group must be LU or SL, got {group!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    fn = _parse_selector(invariant, state.n_qubits)
    degree = _SPIN_FLIP_DEGREE.get(invariant)
    if group == SL_KIND and degree is None:
        raise InvariantNotApplicableError(
            f"{invariant} is a first-kind invariant; only C and Z are tested "
            f"on SL orbits"
        )
    modulus = degree is not None and group == LU_KIND
    base = complex(fn(state))
    base_mag = abs(base)
    max_abs = 0.0
    max_rel = 0.0
    for k in range(samples):
        sub = _subseed(seed, k)
        if group == LU_KIND:
            g = random_lu(state.n_qubits, sub, global_phase=modulus)
        else:
            g = random_sl(state.n_qubits, sub)
        image, raw_norm = apply_local(state, g)
        if group == SL_KIND:
            image = _raw_image(image, raw_norm)
        value = complex(fn(image))
        if modulus:
            dev = abs(abs(value) - base_mag)
        else:
            dev = abs(value - base)
        max_abs = max(max_abs, dev)
        if base_mag > 0.0:
            max_rel = max(max_rel, dev / base_mag)
        elif degree is not None:
            max_rel = max(max_rel, dev / raw_norm ** degree)
        elif dev > 0.0:
            max_rel = np.inf
    metric = "rel" if group == SL_KIND else "abs"
    chosen = max_rel if metric == "rel" else max_abs
    return VerificationReport(
        invariant=invariant,
        group=group,
        samples=samples,
        max_abs_deviation=max_abs,
        max_rel_deviation=max_rel,
        seed=seed,
        tol=tol,
        metric=metric,
        passed=bool(chosen < tol),
    )


def applicable_invariants(n: int, group: str) -> list[str]:
    """Invariant selectors ``verify_invariance`` accepts for an n-qubit state."""
    group = group.upper()
    if group == SL_KIND:
        return ["C" if n % 2 == 0 else "Z"]
    return _inv.report_entry_names(n)
