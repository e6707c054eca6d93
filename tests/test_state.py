import ast
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qinv
from qinv import (
    BadSubsetError,
    DensityMatrix,
    LengthMismatchError,
    NonFiniteError,
    PureState,
    TooLargeError,
    UnnormalizedError,
    ZeroVectorError,
    conjugate,
    cross_term,
    new_state,
    partial_trace,
    purity,
    random_state,
    trace_power,
)

from conftest import subprocess_env
from oracles import ptrace_outer_product

S2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------- new_state

def test_new_state_basis():
    s = new_state(1, [1, 0])
    assert s.n_qubits == 1
    assert s.norm() == pytest.approx(1.0)


def test_new_state_auto_normalize():
    # Squared norms of 2e400, 2e-400 and about 5e-647 (5e-324 is the least
    # subnormal) leave float64 range; the vectors still normalize, without
    # a numpy warning.
    for scale in (1.0, 1e200, 1e-200, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = new_state(2, [scale, 0, 0, scale], normalize=True)
        assert_allclose(s.amplitudes, [S2, 0, 0, S2], atol=1e-15)


def test_new_state_length_mismatch():
    with pytest.raises(LengthMismatchError, match="4"):
        new_state(2, [1, 0, 0])


def test_new_state_rejects_unnormalized_without_flag():
    for amps in ([1, 0, 0, 1], [1e200, 0, 0, 0], [1e-200, 0, 0, 0]):
        with pytest.raises(UnnormalizedError):
            new_state(2, amps)


def test_new_state_zero_vector():
    # Only a vector of zeros: any nonzero amplitude normalizes.
    for normalize in (True, False):
        with pytest.raises(ZeroVectorError, match="every amplitude is 0"):
            new_state(1, [0, 0], normalize=normalize)


def test_new_state_too_large():
    with pytest.raises(TooLargeError):
        new_state(25, [0] * (1 << 25))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(NonFiniteError):
        new_state(1, [bad, 0])
    with pytest.raises(NonFiniteError):
        new_state(1, [bad, 0], normalize=True)
    with pytest.raises(NonFiniteError):
        PureState(1, np.array([bad, 0]), is_normalized=False)


def test_new_state_bad_n():
    with pytest.raises(ValueError):
        new_state(0, [1])


def test_amplitudes_are_read_only():
    s = new_state(1, [1, 0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


# ---------------------------------------------------------------- conjugate

def test_conjugate_real_state_fixed():
    s = new_state(1, [1, 0])
    assert_allclose(conjugate(s).amplitudes, [1, 0])


def test_conjugate_entrywise():
    s = new_state(1, [1j * S2, S2])
    assert_allclose(conjugate(s).amplitudes, [-1j * S2, S2], atol=1e-15)


def test_conjugate_fixes_ghz(ghz3):
    assert_allclose(conjugate(ghz3).amplitudes, ghz3.amplitudes)


def test_conjugate_is_involution():
    for seed in range(5):
        s = random_state(3, seed)
        assert_allclose(conjugate(conjugate(s)).amplitudes, s.amplitudes)


# ------------------------------------------------------------ partial_trace

def test_ptrace_product_state():
    s = new_state(2, [1, 0, 0, 0])
    rho = partial_trace(s, {1})
    assert rho.kept_qubits == (1,)
    assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_ptrace_ghz(ghz3):
    rho = partial_trace(ghz3, {1})
    assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_ptrace_w_state(w3):
    rho = partial_trace(w3, {1})
    assert_allclose(rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ptrace_matches_outer_product_oracle(n):
    rng = np.random.default_rng(100 + n)
    s = random_state(n, 100 + n)
    for _ in range(5):
        k = int(rng.integers(1, n + 1))
        keep = set(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
        got = partial_trace(s, keep).matrix
        want = ptrace_outer_product(s.amplitudes, keep)
        assert_allclose(got, want, atol=1e-12)


def test_ptrace_improper_subset_is_projector(ghz3):
    rho = partial_trace(ghz3, {1, 2, 3})
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)


def test_ptrace_bad_subset(ghz3):
    with pytest.raises(BadSubsetError):
        partial_trace(ghz3, set())
    with pytest.raises(BadSubsetError):
        partial_trace(ghz3, {0, 1})
    with pytest.raises(BadSubsetError):
        partial_trace(ghz3, {4})


def test_ptrace_keep_cap():
    s = random_state(13, 0)
    with pytest.raises(TooLargeError):
        partial_trace(s, set(range(1, 14)))


def test_ptrace_rejects_unnormalized():
    from qinv import PureState
    s = PureState(2, np.array([2.0, 0, 0, 0]), is_normalized=False)
    with pytest.raises(UnnormalizedError):
        partial_trace(s, {1})


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_schmidt_duality(n):
    # Complementary reductions share their nonzero spectrum.
    rng = np.random.default_rng(n)
    s = random_state(n, 200 + n)
    k = int(rng.integers(1, n))
    keep = set(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
    comp = set(range(1, n + 1)) - keep
    ev_a = np.linalg.eigvalsh(partial_trace(s, keep).matrix)
    ev_b = np.linalg.eigvalsh(partial_trace(s, comp).matrix)
    ev_a = np.sort(ev_a[ev_a > 1e-12])[::-1]
    ev_b = np.sort(ev_b[ev_b > 1e-12])[::-1]
    assert_allclose(ev_a, ev_b, atol=1e-10)


def test_ptrace_diagonal_is_marginal_distribution():
    s = random_state(4, 7)
    probs = np.abs(s.amplitudes) ** 2
    for q in range(1, 5):
        rho = partial_trace(s, {q})
        bit = (np.arange(16) >> (4 - q)) & 1
        marg = np.array([probs[bit == 0].sum(), probs[bit == 1].sum()])
        assert_allclose(np.diag(rho.matrix).real, marg, atol=1e-12)


# ------------------------------------------------- purity and trace powers

def test_purity_values(w3):
    assert purity(DensityMatrix((1,), np.diag([1.0, 0.0]))) == pytest.approx(1.0)
    assert purity(DensityMatrix((1,), np.eye(2) / 2)) == pytest.approx(0.5)
    assert purity(partial_trace(w3, {1})) == pytest.approx(5 / 9, abs=1e-12)


def test_full_keep_purity_is_one():
    for seed in range(5):
        s = random_state(4, seed)
        assert purity(partial_trace(s, {1, 2, 3, 4})) == pytest.approx(1.0, abs=1e-10)


def test_trace_power():
    pure = DensityMatrix((1,), np.diag([1.0, 0.0]))
    mixed = DensityMatrix((1,), np.eye(2) / 2)
    skew = DensityMatrix((1,), np.diag([2 / 3, 1 / 3]))
    assert trace_power(pure, 3) == pytest.approx(1.0)
    assert trace_power(mixed, 3) == pytest.approx(0.25)
    assert trace_power(skew, 3) == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        trace_power(pure, 0)


# ----------------------------------------------------------------- cross_term

def test_cross_term_projectors():
    rho_a = DensityMatrix((1,), np.diag([1.0, 0.0]))
    rho_b = DensityMatrix((2,), np.diag([1.0, 0.0]))
    m = np.zeros((4, 4))
    m[0, 0] = 1.0
    rho_ab = DensityMatrix((1, 2), m)
    assert cross_term(rho_a, rho_b, rho_ab) == pytest.approx(1.0)


def test_cross_term_ghz(ghz3):
    rho_a = partial_trace(ghz3, {1})
    rho_b = partial_trace(ghz3, {2})
    rho_ab = partial_trace(ghz3, {1, 2})
    assert cross_term(rho_a, rho_b, rho_ab) == pytest.approx(0.25, abs=1e-12)


def test_cross_term_maximally_mixed():
    rho_a = DensityMatrix((1,), np.eye(2) / 2)
    rho_b = DensityMatrix((2,), np.eye(2) / 2)
    rho_ab = DensityMatrix((1, 2), np.eye(4) / 4)
    assert cross_term(rho_a, rho_b, rho_ab) == pytest.approx(0.25)


def test_cross_term_dimension_mismatch():
    from qinv import DimensionMismatchError
    rho_a = DensityMatrix((1,), np.eye(2) / 2)
    rho_b = DensityMatrix((2,), np.eye(2) / 2)
    rho_ba = DensityMatrix((2, 1), np.eye(4) / 4)
    with pytest.raises(DimensionMismatchError):
        cross_term(rho_a, rho_b, rho_ba)


# ------------------------------------------------- DensityMatrix validation

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((1,), np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((1,), np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix((1,), np.diag([1.5, -0.5]))


def test_purity_check_survives_python_O():
    # A tampered matrix must be rejected even with assertions compiled out.
    script = textwrap.dedent("""
        if __debug__:
            raise SystemExit("assertions are not compiled out")
        import numpy as np
        from qinv import HermitianViolationError, new_state, partial_trace, purity
        rho = partial_trace(new_state(1, [2 ** -0.5, 2 ** -0.5]), {1})
        tampered = np.array(rho.matrix)
        tampered[0, 0] = 0.5 + 0.01j
        object.__setattr__(rho, "matrix", tampered)
        try:
            purity(rho)
        except HermitianViolationError:
            print("raised")
    """)
    env = subprocess_env()
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may be written as one.
    package = Path(qinv.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
