"""Invariant formulas: first-kind (real, local-unitary) and second-kind
(complex, built from spin-flip bilinears and unchanged under determinant-one
local operators), plus the six-invariant three-qubit suite and the
three-tangle polynomial.
"""
from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import pauli as _p
from . import state as _s
from .errors import (
    EvenQubitCountError,
    InternalDisagreementError,
    NonFiniteError,
    OddQubitCountError,
    SameIndexError,
    UnnormalizedError,
    WrongQubitCountError,
)
from .pauli import PAULI_I, PAULI_X, PAULI_Z, SPIN_FLIP
from .state import PureState, partial_trace, purity

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


def _check_three(state: PureState, what: str) -> None:
    if state.n_qubits != 3:
        raise WrongQubitCountError(f"{what} is defined for 3 qubits, got {state.n_qubits}")


def _one_point(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    """<sigma_{i,a}> for a in (x, y, z) per vector of ``amps`` (..., 2**n):
    shape (..., 3). One strided contraction of the (..., L, 2, R) view with
    its conjugate gives the 2x2 block of qubit i; the Pauli matrices are read
    off it. Neither a reduction nor the operator kernel runs here."""
    psi = amps.reshape(*amps.shape[:-1], 1 << (i - 1), 2, 1 << (n - i))
    block = np.einsum("...lxr,...lyr->...xy", psi.conj(), psi)
    return _s._real(np.einsum("axy,...xy->...a", _p._SIGMAS, block),
                    f"<sigma_{{{i},a}}>", _p.HERMITIAN_RESIDUE_TOL)


def _two_point(amps: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """<sigma_{i,a} sigma_{j,b}> at index 3a + b per vector of ``amps``
    (..., 2**n): shape (..., 9). As ``_one_point``, from the 4x4 block of the
    strided (..., L, 2, M, 2, R) view over the ordered pair; for i > j the
    3x3 result is transposed so that a stays on qubit i."""
    lo, hi = min(i, j), max(i, j)
    psi = amps.reshape(*amps.shape[:-1], 1 << (lo - 1), 2, 1 << (hi - lo - 1), 2,
                       1 << (n - hi))
    block = np.einsum("...lxmyr,...lumvr->...xyuv", psi.conj(), psi)
    t = np.einsum("axu,byv,...xyuv->...ab", _p._SIGMAS, _p._SIGMAS, block)
    if i > j:
        t = t.swapaxes(-1, -2)
    return _s._real(t.reshape(*t.shape[:-2], 9), f"<sigma_{{{i},a}} sigma_{{{j},b}}>",
                    _p.HERMITIAN_RESIDUE_TOL)


def single_qubit_invariant(state: PureState, i: int) -> float:
    """1 - <X_i>^2 - <Y_i>^2 - <Z_i>^2 (equals 4 det of the one-qubit reduction)."""
    _check_normalized(state)
    i = _s._qubit(i, state.n_qubits)
    return float(1.0 - np.sum(_one_point(state.amplitudes, state.n_qubits, i) ** 2))


def single_qubit_invariant_dm(state: PureState, i: int) -> float:
    """Density-matrix route to the single-qubit invariant.

    Evaluates 2(1 - tr rho_i^2), 4 det rho_i and the Pauli-expectation form,
    and insists all three agree to 1e-10 before returning the first.
    """
    _check_normalized(state)
    i = _s._qubit(i, state.n_qubits)
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

    The correlators come from one strided contraction; their squares are summed
    by one ``np.sum`` over the fixed order 3a + b, so the floating-point
    reduction is reproducible. The I_{ij} rows of the report read the same
    numbers off rho_ij instead, and ``verify`` compares the two routes.
    """
    _check_normalized(state)
    i, j = _s._qubit(i, state.n_qubits), _s._qubit(j, state.n_qubits)
    if i == j:
        raise SameIndexError(f"need two distinct qubits, got {i}")
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
    but not this value). T is applied with the operator kernel, as
    ``bilinear`` does; the report's C row (``_concurrence``) takes one
    spin-flip contraction instead, so a campaign's base value and its images'
    values come from two routes.
    """
    n = state.n_qubits
    if n % 2 != 0:
        raise OddQubitCountError(f"concurrence needs an even qubit count, got {n}")
    return complex(_p._bilinears(state.amplitudes, n, (SPIN_FLIP,) * n))


def _concurrence(amps: np.ndarray, n: int) -> np.ndarray:
    """``concurrence`` per vector of ``amps`` (..., 2**n), n even: the one entry
    of the spin-flip Gram block ``pauli._flip_gram`` with no free qubit."""
    return _p._flip_gram(amps, n, 0)[..., 0, 0]


def odd_tangle(state: PureState) -> complex:
    """Odd-n invariant from three spin-flip bilinears.

    With T on qubits 1..n-1 and w in {sigma_x, sigma_z, identity} on the last
    qubit, returns b_x^2 + b_z^2 - b_1^2. Like ``concurrence`` it is evaluated
    on the raw amplitudes regardless of norm, with the operator kernel, while
    the report's Z row (``_odd_tangle``) takes one spin-flip contraction. A
    value that overflows float64 raises NonFiniteError.
    """
    n = state.n_qubits
    if n % 2 == 0:
        raise EvenQubitCountError(f"odd_tangle needs an odd qubit count, got {n}")
    base = (SPIN_FLIP,) * (n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        b_x, b_z, b_1 = (_p._bilinears(state.amplitudes, n, base + (w,))
                         for w in (PAULI_X, PAULI_Z, PAULI_I))
        value = complex(b_x**2 + b_z**2 - b_1**2)
    if not cmath.isfinite(value):
        raise NonFiniteError("odd_tangle overflows float64")
    return value


def _odd_tangle(amps: np.ndarray, n: int) -> np.ndarray:
    """``odd_tangle`` per vector of ``amps`` (..., 2**n), n odd, from the
    spin-flip Gram block G with the last qubit free: b_w = sum_ts w[t, s] G[t, s]."""
    g = _p._flip_gram(amps, n, 1)
    g00, g01, g10, g11 = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    b_x, b_z, b_1 = g01 + g10, g00 - g11, g00 + g11
    return b_x**2 + b_z**2 - b_1**2


def triple_correlation_sum(state: PureState, i: int, j: int) -> float:
    """Nine-term sum <s_ia><s_jb><s_ia s_jb> over a, b in (x, y, z)."""
    _check_normalized(state)
    i, j = _s._qubit(i, state.n_qubits), _s._qubit(j, state.n_qubits)
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
    _check_three(state, "cubic invariant")
    if method not in ("density", "pauli"):
        raise ValueError(f"method must be 'density' or 'pauli', got {method!r}")
    _check_normalized(state)
    a = state.amplitudes
    via_density, via_pauli = _cubic(a, 3, _correlations(a, 3, [(1,), (2,), (1, 2)]), 0)
    return float(via_density if method == "density" else via_pauli)


# Qubit order per pair that puts the pair's free qubit last.
_PAIR_ORDER = {"AB": (0, 1, 2), "AC": (0, 2, 1), "BC": (1, 2, 0)}


def pair_tangle(state: PureState, pair: str = "AB") -> complex:
    """Pair-indexed tangle bilinear of a three-qubit state.

    For pair AB the two sigma_y factors sit on qubits 1 and 2 and the third
    qubit carries sigma_x / sigma_z / identity across the three squared
    bilinears; AC and BC move the free slot to qubit 2 resp. qubit 1. Since
    sigma_y (x) sigma_y = -(T (x) T) and every bilinear is squared, the AB
    value is exactly ``odd_tangle`` on three qubits, so each pair is
    ``_odd_tangle`` of the amplitudes with the free qubit moved last. All
    bilinears use the <psi|M|psi*> convention (the conjugate of the
    <psi*|M|psi> form).
    """
    _check_three(state, "pair tangle")
    if pair not in _PAIR_ORDER:
        raise ValueError(f"pair must be one of AB, AC, BC, got {pair!r}")
    _check_normalized(state)
    psi = state.amplitudes.reshape(2, 2, 2).transpose(_PAIR_ORDER[pair])
    return complex(_odd_tangle(psi.ravel(), 3))


def three_tangle(state: PureState) -> float:
    """Residual three-way entanglement 4|d1 - 2 d2 + 4 d3| of a 3-qubit state.

    d1, d2, d3 are quartic polynomials in the eight amplitudes a[q1, q2, q3]:
    d1 sums the four squared products over complementary index pairs, d2 the
    six cross products of those pairs, and d3 the two cyclic quartic terms.
    """
    _check_three(state, "three-tangle")
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
    n = _s._count(n, "n")
    return 2 ** (n + 1) - (3 * n + 1)


# Batched evaluators: one value per vector of ``amps`` (..., 2**n), one vector
# for the report and a stack of images (samples, 2**n) for a campaign. Each
# runs the checks of its per-operation counterpart on every vector. ``first``
# numbers a stack's first sample, which a failed check names.

def _agree(what: str, first: int, tol: float, **routes: np.ndarray) -> None:
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


class _Checked(NamedTuple):
    """One checked pass: rhos and I_{i}/I_{ij} values by keep-set, correlators by size."""

    rho: dict[tuple[int, ...], np.ndarray]
    corr: dict[int, np.ndarray]
    value: dict[tuple[int, ...], np.ndarray]


def _correlations(amps: np.ndarray, n: int, keeps: Sequence[tuple[int, ...]],
                  first: int = 0) -> _Checked:
    """Reduced density matrices of ``amps`` over each keep-set of one or two
    qubits in ``keeps``, their Pauli correlators, <sigma_{i,a} sigma_{j,b}>
    at 3a + b, stacked by keep-set size in the order of ``keeps``, and each
    keep-set's I_{i} or I_{ij} value. One ``state._reductions`` call makes
    the rhos, so from n = 12 on singles and pairs share unions of qubit
    blocks. The DensityMatrix checks and the 1e-10 imaginary-residue check
    run once per keep-set size on a stack; a failed check names the
    keep-set's row, and in a stack of samples numbered from ``first`` its
    sample.
    """
    rho = dict(zip(keeps, _s._reductions(amps, n, keeps)))
    corr, value = {}, {}
    for size in (1, 2):
        group = [kept for kept in keeps if len(kept) == size]
        if group:
            names = [_row_name(kept, n) for kept in group]
            stack = np.stack([rho[kept] for kept in group], axis=-3)
            _s._check_density(stack, first, names)
            # One vector-matrix product per reduction: one matmul over all of them
            # rounds differently when it has one row, so values would depend on stacking.
            t = (stack.reshape(*stack.shape[:-2], 1, -1) @ _PAULI_ROWS[size].T)[..., 0, :]
            corr[size] = t = _s._real(t, f"{size}-point correlators",
                                      _p.HERMITIAN_RESIDUE_TOL, first, names)
            value.update(zip(group, np.moveaxis(1.0 - np.sum(t ** 2, axis=-1), -1, 0)))
    return _Checked(rho, corr, value)


def _purity(amps: np.ndarray, n: int, qubit: int, checked: _Checked,
            first: int) -> np.ndarray:
    """tr(rho^2) of one qubit, checked against its Pauli-expectation form."""
    via_purity = _s._trace_power(checked.rho[(qubit,)], 2)
    via_pauli = 0.5 * (1.0 + np.sum(_one_point(amps, n, qubit) ** 2, axis=-1))
    _agree(f"purity of qubit {qubit}", first, INTERNAL_TOL,
           purity=via_purity, pauli=via_pauli)
    return via_purity


def _cubic(amps: np.ndarray, n: int, checked: _Checked,
           first: int) -> tuple[np.ndarray, np.ndarray]:
    """``cubic_invariant`` by its density and Pauli routes, checked to agree."""
    rho_a, rho_b, rho_ab = checked.rho[(1,)], checked.rho[(2,)], checked.rho[(1, 2)]
    via_density = (3.0 * _s._cross_term(rho_a, rho_b, rho_ab)
                   - _s._trace_power(rho_a, 3) - _s._trace_power(rho_b, 3))
    via_pauli = 0.25 * (1.0 + 3.0 * _triple_correlation(amps, n, 1, 2))
    _agree("cubic invariant", first, INTERNAL_TOL, density=via_density, pauli=via_pauli)
    return via_density, via_pauli


def _checked_tangle(amps: np.ndarray, first: int) -> np.ndarray:
    """``three_tangle``, checked against |pair_tangle(AB)| = |odd_tangle| to 1e-9."""
    poly = _tangle(amps)
    bilinear = np.abs(_odd_tangle(amps, 3))
    _agree("I_6", first, TANGLE_TOL, polynomial=poly, bilinear=bilinear)
    return poly


class Invariant(NamedTuple):
    """One row of ``invariant_table``: what an invariant is and how to compute
    it. ``batched`` reads the keep-sets ``kept`` off ``_evaluate``'s one pass."""

    kind: str  # "real": first kind, LU-invariant; "complex": second kind, SLOCC
    degree: int  # polynomial degree in the amplitudes
    reference: Callable[[PureState], float | complex]  # per-operation route
    # (amplitudes (..., 2**n), checked pass, first sample) -> values
    batched: Callable[[np.ndarray, _Checked, int], np.ndarray]
    kept: tuple[tuple[int, ...], ...] = ()  # the keep-sets whose reductions it reads
    # Report tolerances of the dual-route checks ``batched`` runs.
    tolerances: tuple[tuple[str, float], ...] = ()


_INTERNAL = (("internal_agreement", INTERNAL_TOL),)


def _keep_sets(n: int) -> list[tuple[int, ...]]:
    """Every single and pair of qubits of an n-qubit state, in report order."""
    return [(i,) for i in range(1, n + 1)] + list(itertools.combinations(range(1, n + 1), 2))


def invariant_table(n: int) -> dict[str, Invariant]:
    """Every invariant of an n-qubit state, by name, in report order.

    The three-qubit suite I_1..I_6 (n = 3 only), then I_{i} per qubit, I_{ij}
    per pair, and C (even n) or Z (odd n). These names are the entries of
    ``invariant_report`` and the selectors ``verify_invariance`` accepts.
    One checked reduction pass serves every row of a stack: I_2..I_5 read
    their rhos off it, I_{i} and I_{ij} the values of their correlators. C, Z
    and I_6's cross-check come from the spin-flip contraction
    ``pauli._flip_gram``; no row applies an operator.
    """
    table: dict[str, Invariant] = {}
    if n == 3:
        table["I_1"] = Invariant(
            "real", 2, lambda s: float(np.vdot(s.amplitudes, s.amplitudes).real),
            lambda a, checked, first: _s._vdots(a, a).real)
        # I_2..I_4 are the purities of qubits 3, 2, 1.
        for name, q in (("I_2", 3), ("I_3", 2), ("I_4", 1)):
            table[name] = Invariant(
                "real", 4, lambda s, q=q: purity(partial_trace(s, {q})),
                lambda a, checked, first, q=q: _purity(a, 3, q, checked, first),
                ((q,),), _INTERNAL)
        table["I_5"] = Invariant("real", 6, cubic_invariant,
                                 lambda a, checked, first: _cubic(a, 3, checked, first)[0],
                                 ((1,), (2,), (1, 2)), _INTERNAL)
        table["I_6"] = Invariant("real", 4, three_tangle,
                                 lambda a, checked, first: _checked_tangle(a, first),
                                 tolerances=(("tangle_agreement", TANGLE_TOL),))
    for kept in _keep_sets(n):
        table[_row_name(kept, n)] = Invariant(
            "real", 4,
            lambda s, k=kept: (single_qubit_invariant if len(k) == 1 else pair_invariant)(
                s, *k),
            lambda a, checked, first, k=kept: checked.value[k],
            (kept,))
    if n % 2 == 0:
        table["C"] = Invariant("complex", 2, concurrence,
                               lambda a, checked, first: _concurrence(a, n))
    else:
        table["Z"] = Invariant("complex", 4, odd_tangle,
                               lambda a, checked, first: _odd_tangle(a, n))
    return table


def _evaluate(amps: np.ndarray, n: int, rows: dict[str, Invariant],
              first: int) -> dict[str, np.ndarray]:
    """Values of table ``rows`` per vector of ``amps`` (..., 2**n), by name:
    every row reads one ``_correlations`` pass over all the rows' keep-sets."""
    keeps = list(dict.fromkeys(k for row in rows.values() for k in row.kept))
    checked = _correlations(amps, n, keeps, first)
    return {name: row.batched(amps, checked, first) for name, row in rows.items()}


def single_name(i: int) -> str:
    return f"I_{{{i}}}"


def pair_name(i: int, j: int, n: int) -> str:
    # Concatenated digits are unambiguous only while qubit labels fit one digit.
    if n <= 9:
        return f"I_{{{i}{j}}}"
    return f"I_{{{i},{j}}}"


def _row_name(kept: tuple[int, ...], n: int) -> str:
    """Name of the I_{i} or I_{ij} row of a keep-set of one or two qubits."""
    return single_name(*kept) if len(kept) == 1 else pair_name(*kept, n)


def report_entry_names(n: int) -> list[str]:
    """Canonical entry order for an n-qubit invariant report."""
    return list(invariant_table(n))


def three_qubit_suite(state: PureState) -> InvariantReport:
    """The six independent local invariants I_1..I_6 of a three-qubit state.

    I_1 = <psi|psi>; I_2..I_4 = tr rho^2 of qubits 3, 2, 1 (each checked
    against its Pauli-expectation form to 1e-10); I_5 = cubic invariant;
    I_6 = three-tangle, checked against |pair_tangle(AB)| to 1e-9.
    """
    _check_three(state, "the suite")
    table = invariant_table(3)
    return _report(state, {f"I_{k}": table[f"I_{k}"] for k in range(1, 7)}, {})


def _report(state: PureState, rows: dict[str, Invariant],
            tolerances: dict[str, float]) -> InvariantReport:
    """Report of table ``rows`` on ``state`` from one ``_evaluate`` call, with
    ``tolerances`` then the rows' own, and the state's digest as metadata."""
    _check_normalized(state)
    values = _evaluate(state.amplitudes, state.n_qubits, rows, 0)
    return InvariantReport(
        state.n_qubits,
        {name: ReportEntry(values[name].item(), row.kind) for name, row in rows.items()},
        {**tolerances, **dict(tol for row in rows.values() for tol in row.tolerances)},
        {"state_digest": state.digest()},
    )


def first_kind_fingerprint(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """All one-point and two-point Pauli expectations, read off reduced states.

    Returns ``(singles, pairs)`` where ``singles[i-1, a]`` is <sigma_{i,a}> =
    tr(rho_i sigma_a) and ``pairs[i-1, j-1]`` (i < j only; other blocks are
    NaN) is the 3x3 block <sigma_{i,a} sigma_{j,b}> = tr(rho_ij sigma_a (x)
    sigma_b). Every rho comes from one checked ``_correlations`` pass over
    all singles and pairs, which holds at most one extra copy of the state at
    a time: one reduction per keep-set below n = 12, one per union of two
    qubit blocks from n = 12 on. It is the route of the report's I_{i} and
    I_{ij} rows; ``single_qubit_invariant`` and ``pair_invariant`` compute the
    same correlators by a strided contraction of the state instead, as its
    cross-check.
    """
    _check_normalized(state)
    n = state.n_qubits
    corr = _correlations(state.amplitudes, n, _keep_sets(n)).corr
    pairs = np.full((n, n, 3, 3), np.nan, dtype=np.float64)
    if n > 1:
        pairs[np.triu_indices(n, 1)] = corr[2].reshape(-1, 3, 3)
    return corr[1], pairs


def invariant_report(state: PureState) -> InvariantReport:
    """Every invariant this package computes for the given state.

    One entry per row of ``invariant_table``, in its order, evaluated by
    ``_evaluate`` on a stack of one vector: the evaluator an orbit campaign
    runs on its stack of images.
    """
    return _report(state, invariant_table(state.n_qubits),
                   {"hermitian_residue": _p.HERMITIAN_RESIDUE_TOL})
