"""Random states, random local-operator sampling and the invariance harness.

Local unitaries are drawn from the Euler-angle product
e^{i a sigma_z} e^{i w sigma_y} e^{i b sigma_z} with a, b uniform on [0, 2pi)
and w uniform on [0, pi); this is not the Haar measure, which is fine for
invariance testing because an invariant must hold pointwise for every group
element. Determinant-one operators come from exponentiating traceless random
matrices, with rejection on the condition number.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

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


@dataclass(frozen=True)
class LocalOperator:
    """One 2x2 operator per qubit, either all-unitary (LU) or det-one (SL)."""

    ops: tuple[np.ndarray, ...]
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (LU_KIND, SL_KIND):
            raise ValueError(f"kind must be {LU_KIND!r} or {SL_KIND!r}, got {self.kind!r}")
        frozen = []
        for k, op in enumerate(self.ops, start=1):
            m = np.array(op, dtype=np.complex128)
            if m.shape != (2, 2):
                raise ValueError(f"operator {k} has shape {m.shape}, expected (2, 2)")
            if self.kind == LU_KIND:
                if np.max(np.abs(m.conj().T @ m - np.eye(2))) > 1e-10:
                    raise NotUnitaryError(f"operator {k} is not unitary within 1e-10")
            else:
                det = np.linalg.det(m)
                if abs(det - 1.0) > 1e-10:
                    raise ValueError(f"operator {k} has determinant {det!r}, expected 1")
                if np.linalg.cond(m) > _SL_CONDITION_CAP:
                    raise ValueError(f"operator {k} exceeds condition number "
                                     f"{_SL_CONDITION_CAP}")
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "ops", tuple(frozen))

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


def _euler_unitary(alpha: float, omega: float, beta: float) -> np.ndarray:
    rz_a = np.array([[np.exp(1j * alpha), 0], [0, np.exp(-1j * alpha)]])
    ry = np.array([[np.cos(omega), np.sin(omega)],
                   [-np.sin(omega), np.cos(omega)]], dtype=np.complex128)
    rz_b = np.array([[np.exp(1j * beta), 0], [0, np.exp(-1j * beta)]])
    return rz_a @ ry @ rz_b


def random_lu(n: int, seed: int, global_phase: bool = False) -> LocalOperator:
    """Random local unitary, one Euler-angle factor per qubit.

    Each factor has determinant one; ``global_phase`` multiplies every factor
    by an independent uniform phase (making the determinant a phase too).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        omega = rng.uniform(0.0, np.pi)
        beta = rng.uniform(0.0, 2.0 * np.pi)
        u = _euler_unitary(alpha, omega, beta)
        if global_phase:
            u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * u
        ops.append(u)
    return LocalOperator(tuple(ops), LU_KIND)


def random_sl(n: int, seed: int, spread: float = 0.5) -> LocalOperator:
    """Random determinant-one local operator with condition number <= 10.

    Per qubit: exponentiate the traceless part of a Gaussian complex matrix
    (determinant exactly one analytically), polish the determinant
    numerically, and reject on the condition number.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spread <= 0:
        raise ValueError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    ops = []
    for q in range(1, n + 1):
        for _ in range(_SL_MAX_ATTEMPTS):
            m = spread * (rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)))
            m -= 0.5 * np.trace(m) * np.eye(2)
            g = scipy.linalg.expm(m)
            g = g / np.sqrt(np.linalg.det(g))
            if np.linalg.cond(g) <= _SL_SAMPLER_CONDITION_CAP:
                ops.append(g)
                break
        else:
            raise ConditioningFailureError(
                f"no acceptable operator for qubit {q} after {_SL_MAX_ATTEMPTS} draws"
            )
    return LocalOperator(tuple(ops), SL_KIND)


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


def _parse_selector(name: str, n: int) -> tuple[Callable[[PureState], complex], bool]:
    """Map an invariant name to (evaluator, is_bilinear_kind)."""
    if name == "C":
        if n % 2 != 0:
            raise InvariantNotApplicableError(f"C needs even n, state has n={n}")
        return _inv.concurrence, True
    if name == "Z":
        if n % 2 == 0:
            raise InvariantNotApplicableError(f"Z needs odd n, state has n={n}")
        return _inv.odd_tangle, True
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
        return suite_fns[k], False
    if name.startswith("I_{") and name.endswith("}"):
        inner = name[3:-1]
        if "," in inner:
            parts = inner.split(",")
            if len(parts) != 2:
                raise InvariantNotApplicableError(f"cannot parse selector {name!r}")
            i, j = int(parts[0]), int(parts[1])
            return (lambda s: _inv.pair_invariant(s, i, j)), False
        if len(inner) == 2 and n <= 9:
            i, j = int(inner[0]), int(inner[1])
            return (lambda s: _inv.pair_invariant(s, i, j)), False
        i = int(inner)
        return (lambda s: _inv.single_qubit_invariant(s, i)), False
    raise InvariantNotApplicableError(f"unknown invariant selector {name!r}")


def verify_invariance(state: PureState, invariant: str, group: str,
                      samples: int, tol: float, seed: int) -> VerificationReport:
    """Sample a group orbit of ``state`` and measure how much the invariant moves.

    LU orbits compare absolute deviations; the bilinear invariants C and Z are
    compared in modulus there because per-qubit global phases rotate their
    phase. SL orbits evaluate C/Z on the raw (unnormalized) images, compare
    complex values, and the verdict uses the relative deviation. Everything is
    deterministic per seed: sample k draws its operator from a sub-seed
    derived from (seed, k).
    """
    group = group.upper()
    if group not in (LU_KIND, SL_KIND):
        raise ValueError(f"group must be LU or SL, got {group!r}")
    fn, is_bilinear = _parse_selector(invariant, state.n_qubits)
    if group == SL_KIND and not is_bilinear:
        raise InvariantNotApplicableError(
            f"{invariant} is a first-kind invariant; only C and Z are tested "
            f"on SL orbits"
        )
    modulus = is_bilinear and group == LU_KIND
    base = complex(fn(state))
    base_mag = abs(base)
    max_abs = 0.0
    max_rel = 0.0
    for k in range(samples):
        sub = _subseed(seed, k)
        if group == LU_KIND:
            g = random_lu(state.n_qubits, sub, global_phase=modulus)
            image, _ = apply_local(state, g)
            value = complex(fn(image))
        else:
            g = random_sl(state.n_qubits, sub)
            image, raw_norm = apply_local(state, g)
            value = complex(fn(_raw_image(image, raw_norm)))
        if modulus:
            dev = abs(abs(value) - base_mag)
        else:
            dev = abs(value - base)
        max_abs = max(max_abs, dev)
        if base_mag > 0.0:
            max_rel = max(max_rel, dev / base_mag)
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
