"""Independent oracles used to cross-check the package kernels.

The state and operator oracles build full 2^n x 2^n matrices on purpose, the
matrix exponential is a plain Taylor series, and campaign sub-seeds come from
numpy's own SeedSequence: these paths share no code with the package kernels
they validate.
"""
from __future__ import annotations

import numpy as np

EYE2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
LETTER = {"I": EYE2, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(mats) -> np.ndarray:
    out = np.array([[1.0]], dtype=np.complex128)
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_pauli(word: str) -> np.ndarray:
    return kron_chain([LETTER[c] for c in word])


def dense_expectation(psi: np.ndarray, word: str) -> complex:
    return complex(np.vdot(psi, dense_pauli(word) @ psi))


def dense_bilinear(psi: np.ndarray, mats) -> complex:
    m = kron_chain(mats)
    return complex(psi.conj() @ m @ psi.conj())


def ptrace_outer_product(psi: np.ndarray, keep) -> np.ndarray:
    """Partial trace via the full outer product |psi><psi|."""
    n = int(round(np.log2(psi.size)))
    keep = sorted(set(keep))
    rho = np.outer(psi, psi.conj()).reshape((2,) * (2 * n))
    traced = sorted((q for q in range(1, n + 1) if q not in keep), reverse=True)
    remaining = n
    for q in traced:
        rho = np.trace(rho, axis1=q - 1, axis2=q - 1 + remaining)
        remaining -= 1
    side = 1 << len(keep)
    return rho.reshape(side, side)


def adjoint_defining_residual(u: np.ndarray, rot: np.ndarray) -> float:
    """Worst entrywise error of u^-1 sigma_i u == sum_j rot[i,j] sigma_j."""
    sigmas = (SX, SY, SZ)
    worst = 0.0
    for i, si in enumerate(sigmas):
        lhs = u.conj().T @ si @ u
        rhs = sum(rot[i, j] * sigmas[j] for j in range(3))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def expm_taylor(m: np.ndarray, terms: int = 20) -> np.ndarray:
    """Matrix exponential by Taylor series with scaling and squaring.

    M is scaled by 2^-s until its 1-norm is at most 1/2, where 20 terms leave
    a truncation error below 1e-24, and the result is squared s times.
    """
    m = np.asarray(m, dtype=np.complex128)
    norm = np.linalg.norm(m, 1)
    s = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
    a = m / 2.0 ** s
    term = np.eye(m.shape[0], dtype=np.complex128)
    out = term.copy()
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def subseed(seed, k: int) -> int:
    """Sample k's sub-seed in a campaign of ``seed``, by numpy's own route."""
    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])
