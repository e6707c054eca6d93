"""Invariant formulas: first-kind (real, local-unitary) and second-kind
(complex, built from spin-flip bilinears and unchanged under determinant-one
local operators), plus the six-invariant three-qubit suite and the
three-tangle polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import pauli as _p
from . import state as _s
from .errors import (
    EvenQubitCountError,
    IndexOutOfRangeError,
    InternalDisagreementError,
    OddQubitCountError,
    SameIndexError,
    UnnormalizedError,
    WrongQubitCountError,
)
from .pauli import PAULI_I, PAULI_X, PAULI_Z, SPIN_FLIP
from .state import PureState, partial_trace, purity

AXES = "XYZ"
INTERNAL_TOL = 1e-10
# Quartic polynomials lose roughly one digit relative to the quadratic forms.
TANGLE_TOL = 1e-9


@dataclass(frozen=True)
class ReportEntry:
    value: float | complex
    kind: str  # "real" | "complex"


@dataclass(frozen=True)
class InvariantReport:
    """Ordered, uniquely named invariant values for one state."""

    n_qubits: int
    entries: dict[str, ReportEntry]
    tolerances: dict[str, float] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)

    def value(self, name: str) -> float | complex:
        return self.entries[name].value


def _check_normalized(state: PureState) -> None:
    if not state.is_normalized:
        raise UnnormalizedError("this invariant requires a normalized state")


def _check_qubit(state: PureState, i: int) -> None:
    if not 1 <= i <= state.n_qubits:
        raise IndexOutOfRangeError(f"qubit {i} out of range 1..{state.n_qubits}")


def _one_point(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    """<sigma_{i,a}> for a in (x, y, z) through the operator kernel, per
    vector of ``amps`` (..., 2**n): shape (..., 3)."""
    ops = [PAULI_I] * n
    values = []
    for a in AXES:
        ops[i - 1] = _p.PAULI_BY_LETTER[a]
        values.append(_p._expectations(amps, n, ops, f"<{a}_{i}>"))
    return np.stack(values, axis=-1)


def _two_point(amps: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """<sigma_{i,a} sigma_{j,b}> at index 3a + b through the operator kernel,
    per vector of ``amps`` (..., 2**n): shape (..., 9)."""
    ops = [PAULI_I] * n
    values = []
    for a in AXES:
        ops[i - 1] = _p.PAULI_BY_LETTER[a]
        for b in AXES:
            ops[j - 1] = _p.PAULI_BY_LETTER[b]
            values.append(_p._expectations(amps, n, ops, f"<{a}_{i} {b}_{j}>"))
    return np.stack(values, axis=-1)


def single_qubit_invariant(state: PureState, i: int) -> float:
    """1 - <X_i>^2 - <Y_i>^2 - <Z_i>^2 (equals 4 det of the one-qubit reduction)."""
    _check_normalized(state)
    _check_qubit(state, i)
    return float(1.0 - np.sum(_one_point(state.amplitudes, state.n_qubits, i) ** 2))


def single_qubit_invariant_dm(state: PureState, i: int) -> float:
    """Density-matrix route to the single-qubit invariant.

    Evaluates 2(1 - tr rho_i^2), 4 det rho_i and the Pauli-expectation form,
    and insists all three agree to 1e-10 before returning the first.
    """
    _check_normalized(state)
    _check_qubit(state, i)
    rho = partial_trace(state, {i})
    via_purity = 2.0 * (1.0 - purity(rho))
    via_det = 4.0 * float(np.linalg.det(rho.matrix).real)
    via_pauli = single_qubit_invariant(state, i)
    spread = max(via_purity, via_det, via_pauli) - min(via_purity, via_det, via_pauli)
    if spread > INTERNAL_TOL:
        raise InternalDisagreementError(
            f"single-qubit invariant routes disagree: purity={via_purity!r} "
            f"det={via_det!r} pauli={via_pauli!r}"
        )
    return via_purity


def pair_invariant(state: PureState, i: int, j: int) -> float:
    """1 minus the nine squared two-point correlators <sigma_{i,a} sigma_{j,b}>.

    The correlators come from the operator kernel; their squares are summed
    by one ``np.sum`` over the fixed order 3a + b, so the floating-point
    reduction is reproducible. The I_{ij} rows of the report read the same
    numbers off rho_ij instead, and ``verify`` compares the two routes.
    """
    _check_normalized(state)
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise SameIndexError(f"pair invariant needs two distinct qubits, got {i}")
    return float(1.0 - np.sum(_two_point(state.amplitudes, state.n_qubits, i, j) ** 2))


def pair_identity_residual(state: PureState, i: int, j: int) -> float:
    """I_i + I_j + I_ij - 4(1 - tr rho_ij^2); zero for every normalized state."""
    lhs = (
        single_qubit_invariant(state, i)
        + single_qubit_invariant(state, j)
        + pair_invariant(state, i, j)
    )
    rho_ij = partial_trace(state, {i, j})
    return float(lhs - 4.0 * (1.0 - purity(rho_ij)))


def concurrence(state: PureState) -> complex:
    """Even-n concurrence: the bilinear <psi| T x ... x T |psi*>, T = i sigma_y.

    Quadratic in the amplitudes, so it is evaluated as-is even on states
    carrying a non-unit norm (determinant-one local operators change the norm
    but not this value).
    """
    n = state.n_qubits
    if n % 2 != 0:
        raise OddQubitCountError(f"concurrence needs an even qubit count, got {n}")
    return complex(_concurrence(state.amplitudes, n))


def _concurrence(amps: np.ndarray, n: int) -> np.ndarray:
    """``concurrence`` per vector of ``amps`` (..., 2**n), n even."""
    return _p._bilinears(amps, n, (SPIN_FLIP,) * n)


def odd_tangle(state: PureState) -> complex:
    """Odd-n invariant from three spin-flip bilinears.

    With T on qubits 1..n-1 and w in {sigma_x, sigma_z, identity} on the last
    qubit, returns b_x^2 + b_z^2 - b_1^2. Like ``concurrence`` it is evaluated
    on the raw amplitudes regardless of norm.
    """
    n = state.n_qubits
    if n % 2 == 0:
        raise EvenQubitCountError(f"odd_tangle needs an odd qubit count, got {n}")
    return complex(_odd_tangle(state.amplitudes, n))


def _odd_tangle(amps: np.ndarray, n: int) -> np.ndarray:
    """``odd_tangle`` per vector of ``amps`` (..., 2**n), n odd."""
    base = (SPIN_FLIP,) * (n - 1)
    b_x, b_z, b_1 = (_p._bilinears(amps, n, base + (w,))
                     for w in (PAULI_X, PAULI_Z, PAULI_I))
    return b_x**2 + b_z**2 - b_1**2


def triple_correlation_sum(state: PureState, i: int, j: int) -> float:
    """Nine-term sum <s_ia><s_jb><s_ia s_jb> over a, b in (x, y, z)."""
    _check_normalized(state)
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise SameIndexError(f"need two distinct qubits, got {i}")
    return float(_triple_correlation(state.amplitudes, state.n_qubits, i, j))


def _triple_correlation(amps: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """``triple_correlation_sum`` per vector of ``amps`` (..., 2**n)."""
    two = _two_point(amps, n, i, j)
    return np.einsum("...a,...b,...ab->...", _one_point(amps, n, i), _one_point(amps, n, j),
                     two.reshape(*two.shape[:-1], 3, 3))


def cubic_invariant(state: PureState, method: str = "density") -> float:
    """Degree-3 invariant of a three-qubit state mixing the (1, 2) marginals.

    Two routes are always evaluated and must agree to 1e-10:
      density: 3 tr[(rho_1 (x) rho_2) rho_12] - tr(rho_1^3) - tr(rho_2^3)
      pauli:   (1 + 3 * triple_correlation_sum(state, 1, 2)) / 4
    ``method`` selects which value is returned. Both come from ``_cubic``,
    the evaluator of the report's I_5 row.
    """
    if state.n_qubits != 3:
        raise WrongQubitCountError(
            f"cubic invariant is defined for 3 qubits, got {state.n_qubits}"
        )
    if method not in ("density", "pauli"):
        raise ValueError(f"method must be 'density' or 'pauli', got {method!r}")
    _check_normalized(state)
    via_density, via_pauli = _cubic(state.amplitudes, 3, None)
    return float(via_density if method == "density" else via_pauli)


_PAIR_TANGLE_SLOT = {"AB": 3, "AC": 2, "BC": 1}


def pair_tangle(state: PureState, pair: str = "AB") -> complex:
    """Pair-indexed tangle bilinear of a three-qubit state.

    For pair AB the two sigma_y factors sit on qubits 1 and 2 and the third
    qubit carries sigma_x / sigma_z / identity across the three squared
    bilinears; AC and BC move the free slot to qubit 2 resp. qubit 1. Since
    sigma_y (x) sigma_y = -(T (x) T) and every bilinear is squared, the AB
    value coincides exactly with ``odd_tangle`` on three qubits. All bilinears
    use the <psi|M|psi*> convention (the conjugate of the <psi*|M|psi> form).
    """
    if state.n_qubits != 3:
        raise WrongQubitCountError(
            f"pair tangle is defined for 3 qubits, got {state.n_qubits}"
        )
    if pair not in _PAIR_TANGLE_SLOT:
        raise ValueError(f"pair must be one of AB, AC, BC, got {pair!r}")
    _check_normalized(state)
    return complex(_pair_tangle(state.amplitudes, _PAIR_TANGLE_SLOT[pair]))


def _pair_tangle(amps: np.ndarray, slot: int) -> np.ndarray:
    """``pair_tangle`` per vector of ``amps`` (..., 8), with the free slot on
    qubit ``slot``."""
    total = 0.0 + 0.0j
    for slot_op, sign in ((PAULI_X, 1.0), (PAULI_Z, 1.0), (PAULI_I, -1.0)):
        ops = [_p.PAULI_Y] * 3
        ops[slot - 1] = slot_op
        total = total + sign * _p._bilinears(amps, 3, ops) ** 2
    return total


def three_tangle(state: PureState) -> float:
    """Residual three-way entanglement 4|d1 - 2 d2 + 4 d3| of a 3-qubit state.

    d1, d2, d3 are quartic polynomials in the eight amplitudes a[q1, q2, q3]:
    d1 sums the four squared products over complementary index pairs, d2 the
    six cross products of those pairs, and d3 the two cyclic quartic terms.
    """
    if state.n_qubits != 3:
        raise WrongQubitCountError(
            f"three-tangle is defined for 3 qubits, got {state.n_qubits}"
        )
    _check_normalized(state)
    return float(_tangle(state.amplitudes))


def _tangle(amps: np.ndarray) -> np.ndarray:
    """``three_tangle`` per vector of ``amps``, shape (8,) or (samples, 8)."""
    # Basis index 4 q1 + 2 q2 + q3; one vector unpacks into numpy scalars.
    a000, a001, a010, a011, a100, a101, a110, a111 = amps.T
    d1 = (a000 * a111) ** 2 + (a001 * a110) ** 2 \
        + (a010 * a101) ** 2 + (a100 * a011) ** 2
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)


def invariant_count(n: int) -> int:
    """Number of independent invariant parameters of an n-qubit pure state."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2 ** (n + 1) - (3 * n + 1)


# Batched evaluators: one value per vector of ``amps`` (..., 2**n), a single
# vector for the report and a stack of images (samples, 2**n) for a campaign.
# Each runs the checks of its per-operation counterpart on every vector:
# reductions pass the DensityMatrix checks, correlators the imaginary-residue
# check, and dual routes their agreement check. ``first`` is the number of a
# campaign stack's first sample, which a failed check names; it is None for
# one vector.

def _density(amps: np.ndarray, n: int, kept: tuple[int, ...],
             first: int | None) -> np.ndarray:
    """Reduced density matrices over ``kept``, with the DensityMatrix checks."""
    rho = _s._reduced(amps, n, kept)
    _s._check_density(rho, first)
    return rho


def _agree(what: str, first: int | None, tol: float, **routes: np.ndarray) -> None:
    """Raise InternalDisagreementError where two routes differ by more than ``tol``."""
    (name_a, a), (name_b, b) = routes.items()
    bad = ~(np.abs(a - b) <= tol)
    if bad.any():
        idx, at = _s._failing(bad, first=first)
        raise InternalDisagreementError(
            f"{at}{what} routes disagree: {name_a}={float(a[idx])!r} "
            f"{name_b}={float(b[idx])!r}")


# Transposed, flattened Pauli products by keep-set size: sigma_a, and
# sigma_a (x) sigma_b at row 3a + b. A product with a flattened rho gives
# tr(rho sigma_a), resp. tr(rho sigma_a (x) sigma_b).
_PAULI_ROWS = {
    1: _p._SIGMAS.transpose(0, 2, 1).reshape(3, 4),
    2: np.array([np.kron(a, b).T.ravel() for a in _p._SIGMAS for b in _p._SIGMAS]),
}


def _correlations(amps: np.ndarray, n: int, keeps: list[tuple[int, ...]],
                  first: int | None = None) -> np.ndarray:
    """Pauli correlators of ``amps`` reduced to each keep-set of ``keeps``.

    The keep-sets all have one size, 1 or 2; the result has shape
    (..., len(keeps), 3), resp. (..., len(keeps), 9) with
    <sigma_{i,a} sigma_{j,b}> at 3a + b. Each reduction is ``state._reduced``
    (one copy of the vectors at a time). They are stacked, so the
    DensityMatrix checks and the 1e-10 imaginary-residue check run once per
    call, not once per keep-set; a failed check names the keep-set's row.
    """
    rho = np.stack([_s._reduced(amps, n, kept) for kept in keeps], axis=-3)
    names = [single_name(*kept) if len(kept) == 1 else pair_name(*kept, n)
             for kept in keeps]
    _s._check_density(rho, first, names)
    # One vector-matrix product per reduction: one matmul over all of them
    # rounds differently when it has one row, so values would depend on stacking.
    t = (rho.reshape(*rho.shape[:-2], 1, -1) @ _PAULI_ROWS[len(keeps[0])].T)[..., 0, :]
    return _s._real(t, f"{len(keeps[0])}-point correlators", _p.HERMITIAN_RESIDUE_TOL,
                    first, names)


def _first_kind(amps: np.ndarray, n: int, keeps: list[tuple[int, ...]],
                first: int | None = None) -> np.ndarray:
    """I_{i} or I_{ij} per keep-set: 1 minus the keep-set's squared
    correlators, shape (..., len(keeps))."""
    return 1.0 - np.sum(_correlations(amps, n, keeps, first) ** 2, axis=-1)


def _purity(amps: np.ndarray, n: int, qubit: int, first: int | None) -> np.ndarray:
    """tr(rho^2) of one qubit, checked against its Pauli-expectation form."""
    via_purity = _s._trace_power(_density(amps, n, (qubit,), first), 2)
    via_pauli = 0.5 * (1.0 + np.sum(_one_point(amps, n, qubit) ** 2, axis=-1))
    _agree(f"purity of qubit {qubit}", first, INTERNAL_TOL,
           purity=via_purity, pauli=via_pauli)
    return via_purity


def _cubic(amps: np.ndarray, n: int, first: int | None) -> tuple[np.ndarray, np.ndarray]:
    """``cubic_invariant`` by its density and Pauli routes, checked to agree."""
    rho_a, rho_b, rho_ab = (_density(amps, n, kept, first)
                            for kept in ((1,), (2,), (1, 2)))
    via_density = (3.0 * _s._cross_term(rho_a, rho_b, rho_ab)
                   - _s._trace_power(rho_a, 3) - _s._trace_power(rho_b, 3))
    via_pauli = 0.25 * (1.0 + 3.0 * _triple_correlation(amps, n, 1, 2))
    _agree("cubic invariant", first, INTERNAL_TOL, density=via_density, pauli=via_pauli)
    return via_density, via_pauli


def _checked_tangle(amps: np.ndarray, first: int | None) -> np.ndarray:
    """``three_tangle``, checked against |pair_tangle(AB)| to 1e-9."""
    poly = _tangle(amps)
    bilinear = np.abs(_pair_tangle(amps, _PAIR_TANGLE_SLOT["AB"]))
    _agree("I_6", first, TANGLE_TOL, polynomial=poly, bilinear=bilinear)
    return poly


class Invariant(NamedTuple):
    """One row of ``invariant_table``: what an invariant is and how to compute it."""

    kind: str  # "real": first kind, LU-invariant; "complex": second kind, SLOCC
    degree: int  # polynomial degree in the amplitudes
    reference: Callable[[PureState], float | complex]  # per-operation route
    # (amplitudes (..., 2**n), first sample or None) -> float or complex values by kind
    batched: Callable[[np.ndarray, int | None], np.ndarray]
    kept: tuple[int, ...] = ()  # the qubits an I_{i} or I_{ij} row keeps
    # Report tolerances of the dual-route checks ``batched`` runs.
    tolerances: tuple[tuple[str, float], ...] = ()


_INTERNAL = (("internal_agreement", INTERNAL_TOL),)


def invariant_table(n: int) -> dict[str, Invariant]:
    """Every invariant of an n-qubit state, by name, in report order.

    The three-qubit suite I_1..I_6 (n = 3 only), then I_{i} per qubit, I_{ij}
    per pair, and C (even n) or Z (odd n). These names are the entries of
    ``invariant_report`` and the selectors ``verify_invariance`` accepts.
    References call their function through this module's globals at call
    time, so a wrapper installed on the module sees the call.
    """
    table: dict[str, Invariant] = {}
    if n == 3:
        table["I_1"] = Invariant(
            "real", 2, lambda s: float(np.vdot(s.amplitudes, s.amplitudes).real),
            lambda a, first: _s._vdots(a, a).real)
        # I_2..I_4 are the purities of qubits 3, 2, 1.
        for name, q in (("I_2", 3), ("I_3", 2), ("I_4", 1)):
            table[name] = Invariant(
                "real", 4, lambda s, q=q: purity(partial_trace(s, {q})),
                lambda a, first, q=q: _purity(a, 3, q, first), tolerances=_INTERNAL)
        table["I_5"] = Invariant("real", 6, lambda s: cubic_invariant(s),
                                 lambda a, first: _cubic(a, 3, first)[0],
                                 tolerances=_INTERNAL)
        table["I_6"] = Invariant("real", 4, lambda s: three_tangle(s), _checked_tangle,
                                 tolerances=(("tangle_agreement", TANGLE_TOL),))
    for i in range(1, n + 1):
        table[single_name(i)] = Invariant(
            "real", 4, lambda s, i=i: single_qubit_invariant(s, i),
            lambda a, first, k=(i,): _first_kind(a, n, [k], first)[..., 0], (i,))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            table[pair_name(i, j, n)] = Invariant(
                "real", 4, lambda s, i=i, j=j: pair_invariant(s, i, j),
                lambda a, first, k=(i, j): _first_kind(a, n, [k], first)[..., 0], (i, j))
    if n % 2 == 0:
        table["C"] = Invariant("complex", 2, lambda s: concurrence(s),
                               lambda a, first: _concurrence(a, n))
    else:
        table["Z"] = Invariant("complex", 4, lambda s: odd_tangle(s),
                               lambda a, first: _odd_tangle(a, n))
    return table


def _evaluate(amps: np.ndarray, n: int, rows: dict[str, Invariant],
              first: int | None) -> dict[str, np.ndarray]:
    """Values of table ``rows`` per vector of ``amps`` (..., 2**n), by name:
    one stacked ``_first_kind`` call for the I_{i} rows and one for the I_{ij}
    rows; every other row runs its batched evaluator with ``first``."""
    values: dict[str, np.ndarray] = {}
    for size in (1, 2):
        names = [name for name, row in rows.items() if len(row.kept) == size]
        if names:
            stacked = _first_kind(amps, n, [rows[name].kept for name in names], first)
            values.update(zip(names, np.moveaxis(stacked, -1, 0)))
    return {name: values[name] if row.kept else row.batched(amps, first)
            for name, row in rows.items()}


def single_name(i: int) -> str:
    return f"I_{{{i}}}"


def pair_name(i: int, j: int, n: int) -> str:
    # Concatenated digits are unambiguous only while qubit labels fit one digit.
    if n <= 9:
        return f"I_{{{i}{j}}}"
    return f"I_{{{i},{j}}}"


def report_entry_names(n: int) -> list[str]:
    """Canonical entry order for an n-qubit invariant report."""
    return list(invariant_table(n))


def three_qubit_suite(state: PureState) -> InvariantReport:
    """The six independent local invariants I_1..I_6 of a three-qubit state.

    I_1 = <psi|psi>; I_2..I_4 = tr rho^2 of qubits 3, 2, 1 (each checked
    against its Pauli-expectation form to 1e-10); I_5 = cubic invariant;
    I_6 = three-tangle, checked against |pair_tangle(AB)| to 1e-9.
    """
    if state.n_qubits != 3:
        raise WrongQubitCountError(
            f"the suite is defined for 3 qubits, got {state.n_qubits}"
        )
    # The suite is the real rows of the n = 3 table that keep no qubit set.
    rows = {name: row for name, row in invariant_table(3).items()
            if row.kind == "real" and not row.kept}
    return _report(state, rows, {})


def _report(state: PureState, rows: dict[str, Invariant], tolerances: dict[str, float],
            **metadata: object) -> InvariantReport:
    """Report of table ``rows`` on ``state`` from one ``_evaluate`` call, with
    ``tolerances`` then the rows' own, and the state's digest then ``metadata``."""
    _check_normalized(state)
    values = _evaluate(state.amplitudes, state.n_qubits, rows, None)
    return InvariantReport(
        state.n_qubits,
        {name: ReportEntry(values[name].item(), row.kind) for name, row in rows.items()},
        {**tolerances, **dict(tol for row in rows.values() for tol in row.tolerances)},
        {"state_digest": state.digest(), **metadata},
    )


def first_kind_fingerprint(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """All one-point and two-point Pauli expectations, read off reduced states.

    Returns ``(singles, pairs)`` where ``singles[i-1, a]`` is <sigma_{i,a}> =
    tr(rho_i sigma_a) and ``pairs[i-1, j-1]`` (i < j only; other blocks are
    NaN) is the 3x3 block <sigma_{i,a} sigma_{j,b}> = tr(rho_ij sigma_a (x)
    sigma_b). There is one route at every n: each rho comes from the same
    reduction as ``partial_trace``, which holds at most one extra copy of the
    state at a time. It is the route of the report's I_{i} and I_{ij} rows;
    ``single_qubit_invariant`` and ``pair_invariant`` compute the same
    correlators through the operator kernel instead, as its cross-check.
    """
    _check_normalized(state)
    n = state.n_qubits
    psi = state.amplitudes
    singles = _correlations(psi, n, [(i,) for i in range(1, n + 1)])
    pairs = np.full((n, n, 3, 3), np.nan, dtype=np.float64)
    if n > 1:
        keeps = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        pairs[np.triu_indices(n, 1)] = _correlations(psi, n, keeps).reshape(-1, 3, 3)
    return singles, pairs


def invariant_report(state: PureState, seed: int | None = None) -> InvariantReport:
    """Every invariant this package computes for the given state.

    One entry per row of ``invariant_table``, in its order, evaluated by
    ``_evaluate`` on a stack of one vector: the evaluator an orbit campaign
    runs on its stack of images.
    """
    return _report(state, invariant_table(state.n_qubits),
                   {"hermitian_residue": _p.HERMITIAN_RESIDUE_TOL},
                   **({} if seed is None else {"seed": seed}))
