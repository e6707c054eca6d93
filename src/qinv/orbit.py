"""Random states, random local-operator sampling and the invariance harness.

Local unitaries are drawn from the Euler-angle product
e^{i a sigma_z} e^{i w sigma_y} e^{i b sigma_z} with a, b uniform on [0, 2pi)
and w uniform on [0, pi); this is not the Haar measure, which is fine for
invariance testing because an invariant must hold pointwise for every group
element. Determinant-one operators exponentiate traceless Gaussian matrices
with the 2x2 closed form exp(M) = cosh(d) I + sinh(d)/d M, d^2 = -det M,
and are rejected on a closed-form condition number. numpy is the only
dependency.

A campaign checks any number of invariants of one state on one group's
orbit; ``verify_invariance`` is its one-invariant case. It runs in chunks of
samples (as many as keep a chunk within 2**12 amplitudes: 100 samples make
one chunk up to n = 5, and a chunk holds one sample from n = 12 on). Sample k's
operator is ``random_lu`` or ``random_sl`` at the sub-seed
``SeedSequence((seed, k)).generate_state(1)[0]``, bit for bit, so numpy alone
replays it; a campaign computes the generator words of up to 4096 samples at
once by running numpy's SeedSequence on uint32 columns. Per chunk, the group
draws, validates and applies one (chunk, n, 2, 2) stack of operators, so
sample k has one operator whatever the invariant, and
``invariants._evaluate``, the report's evaluator, evaluates every invariant
with every check of its per-operation route on the (chunk, 2**n) stack of
images. ``random_lu``, ``random_sl``, ``LocalOperator`` and ``apply_local``
are the one-sample case of the same code.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

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

_SL_CONDITION_CAP = 10.0
_SL_MAX_ATTEMPTS = 1000
_UNIT_TOL = 1e-10
# Below this |d^2| the closed-form exponential switches to its Taylor series;
# the first dropped terms, d^4/24 and d^4/120, are then below 5e-18.
_EXPM_SERIES_CUTOFF = 1e-8
_SL_SPREAD = 0.5
# A degree-d invariant of an image of norm r sums terms up to about r**d, so it
# carries rounding of about eps * r**d. A base below sqrt(eps) * r**d cannot show
# a relative change of 1e-7 above that rounding, so it is scaled like a zero.
_ZERO_BASE = 2.0 ** -26
# Amplitudes per campaign chunk (64 KB of images). Larger chunks are no
# faster, and a campaign holds a few arrays of this size at once.
_CHUNK_AMPLITUDES = 1 << 12


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


def _check_ops(stack: np.ndarray, kind: str, first: int = 0) -> None:
    """Validate local operators, (n, 2, 2) or a stack (samples, n, 2, 2)
    numbered from ``first``, in one pass.

    LU factors must be unitary; SL factors need determinant one and a
    condition number of at most 10. Every check is written as ~(x <= tol)
    so that NaN fails it. The message names the first failing factor by its
    1-based index, and its sample in a stack.
    """
    if kind == LU_KIND:
        gram = np.einsum("...ki,...kj->...ij", stack.conj(), stack)
        bad = ~(np.max(np.abs(gram - np.eye(2)), axis=(-2, -1)) <= _UNIT_TOL)
        if bad.any():
            idx, at = _s._failing(bad, core=1, first=first)
            raise NotUnitaryError(
                f"{at}operator {idx[-1] + 1} is not unitary within {_UNIT_TOL:g}")
        return
    det = _det2(stack)
    bad_det = ~(np.abs(det - 1.0) <= _UNIT_TOL)
    bad = bad_det | ~(_cond2(stack) <= _SL_CONDITION_CAP)
    if bad.any():
        idx, at = _s._failing(bad, core=1, first=first)
        if bad_det[idx]:
            raise ValueError(f"{at}operator {idx[-1] + 1} has determinant "
                             f"{complex(det[idx])!r}, expected 1")
        raise ValueError(f"{at}operator {idx[-1] + 1} exceeds condition number "
                         f"{_SL_CONDITION_CAP}")


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
        _check_ops(stack, self.kind)
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
    worst_sample: int  # first sample with the largest verdict deviation (or NaN)

    @property
    def deviation(self) -> float:
        """The deviation the verdict holds against ``tol``, chosen by ``metric``."""
        return self.max_rel_deviation if self.metric == "rel" else self.max_abs_deviation


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


def _draw_lu(rngs: Iterable[np.random.Generator], n: int,
             global_phase: bool = False) -> np.ndarray:
    """The factors ``random_lu`` builds from each generator, unvalidated:
    shape (samples, n, 2, 2)."""
    cols = 4 if global_phase else 3
    angles = np.array([rng.random((n, cols)) for rng in rngs])
    angles = (angles * _EULER_WIDTHS[:cols]).reshape(-1, cols)
    u = _euler_unitary(angles[:, 0], angles[:, 1], angles[:, 2])
    if global_phase:
        u = np.exp(1j * angles[:, 3])[:, None, None] * u
    return u.reshape(-1, n, 2, 2)


def random_lu(n: int, seed: int, global_phase: bool = False) -> LocalOperator:
    """Random local unitary, one Euler-angle factor per qubit.

    Each factor has determinant one; ``global_phase`` multiplies every factor
    by an independent uniform phase (making the determinant a phase too).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return LocalOperator(tuple(_draw_lu([np.random.default_rng(seed)], n, global_phase)[0]),
                         LU_KIND)


def _draw_sl(rngs: Iterable[np.random.Generator], n: int, spread: float,
             first: int | None = None) -> np.ndarray:
    """The factors ``random_sl`` builds from each generator, unvalidated:
    shape (samples, n, 2, 2).

    An attempt draws, from each sample's generator, that sample's
    still-pending qubits in increasing order, then builds and tests every
    drawn row of every sample at once. A campaign passes the number of its
    first sample as ``first``, for the error message.
    """
    rngs = list(rngs)
    ops = np.empty((len(rngs) * n, 2, 2), dtype=np.complex128)
    # Pending rows of ``ops`` (sample * n + qubit), ascending: within each
    # sample, the order random_sl draws its qubits in.
    pending = np.arange(len(rngs) * n)
    for _ in range(_SL_MAX_ATTEMPTS):
        counts = np.bincount(pending // n, minlength=len(rngs))
        z = np.concatenate([rngs[b].standard_normal((counts[b], 2, 2, 2))
                            for b in np.flatnonzero(counts)])
        m = spread * (z[:, 0] + 1j * z[:, 1])
        half_trace = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
        m[:, 0, 0] -= half_trace
        m[:, 1, 1] -= half_trace
        g = _expm_traceless(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            g /= np.sqrt(_det2(g))[:, None, None]
        ok = _cond2(g) <= _SL_CONDITION_CAP
        ops[pending[ok]] = g[ok]
        pending = pending[~ok]
        if pending.size == 0:
            return ops.reshape(len(rngs), n, 2, 2)
    sample, qubit = divmod(int(pending[0]), n)
    at = "" if first is None else f"sample {first + sample}: "
    raise ConditioningFailureError(
        f"{at}no acceptable operator for qubit {qubit + 1} after "
        f"{_SL_MAX_ATTEMPTS} draws"
    )


def random_sl(n: int, seed: int, spread: float = _SL_SPREAD) -> LocalOperator:
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
    ops = _draw_sl([np.random.default_rng(seed)], n, spread)[0]
    return LocalOperator(tuple(ops), SL_KIND)


def _images(amps: np.ndarray, n: int, ops: np.ndarray, kind: str,
            first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Images of one amplitude vector under a local operator (n, 2, 2) or a
    stack of them (samples, n, 2, 2) numbered from ``first``.

    Returns the raw images (2**n or (samples, 2**n)) and their norms. Every
    image must be finite, and an LU image normalized within 1e-10 (the
    PureState checks).
    """
    out = _p._apply_factors(amps, n, ops.swapaxes(0, -3))
    nsq = _s._vdots(out, out).real
    _s._check_norms(nsq, kind == LU_KIND, first)
    return out, np.sqrt(nsq)


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
    amps, raw_norm = _images(state.amplitudes, n, np.array(g.ops), g.kind)
    if g.kind == LU_KIND:
        return PureState(n, amps), float(raw_norm)
    return PureState(n, amps / raw_norm), float(raw_norm)


# numpy's SeedSequence (NEP 19 fixes its algorithm and constants) on uint32
# columns: the j-th hashmix of a pool uses _HASH_A[j] and _HASH_A[j + 1], the
# j-th generated word _HASH_B[j] and _HASH_B[j + 1].
_MASK32, _INIT_A, _MULT_A = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j < count, as a uint32 column."""
    return np.array([init * pow(mult, j, 1 << 32) & _MASK32 for j in range(count)],
                    dtype=np.uint32)[:, None]


_HASH_A, _HASH_B = _powers(_INIT_A, _MULT_A, 257), _powers(0x8B51F9DD, 0x58F38DED, 9)
_SEED_BLOCK = 1 << 12  # samples whose seed words a campaign derives at once


def _hashmix(x: np.ndarray, c: np.ndarray, c_next: np.ndarray) -> np.ndarray:
    h = (x ^ c) * c_next
    return h ^ (h >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> 16)


def _seed_state(entropy: list, m: int, words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(words)`` of m entropies at once,
    (words, m) uint32: each entropy word is an int or an (m,) uint32 column."""
    pool = np.zeros((4, m), dtype=np.uint32)
    for i, word in enumerate(entropy[:4]):
        pool[i] = word
    a = _HASH_A if len(entropy) <= 64 else _powers(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
    pool = _hashmix(pool, a[:4], a[1:5])
    for src in range(4):  # the other rows absorb row src
        dst, j = [d for d in range(4) if d != src], 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[j:j + 3], a[j + 1:j + 4]))
    for j in range(4, len(entropy)):  # every row absorbs entropy word j
        pool = _mix(pool, _hashmix(np.uint32(entropy[j]), a[4 * j:4 * j + 4],
                                   a[4 * j + 1:4 * j + 5]))
    return _hashmix(pool[np.arange(words) % 4], _HASH_B[:words], _HASH_B[1:words + 1])


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row k - start is ``SeedSequence(SeedSequence((seed, k)).generate_state(1)[0])
    .generate_state(4, np.uint64)`` for k in start..stop-1: the words
    ``default_rng`` of sample k's sub-seed seeds PCG64 with."""
    if start < 1 << 32 < stop:  # k gains a second entropy word at 2**32
        return np.concatenate([_seed_words(seed, start, 1 << 32),
                               _seed_words(seed, 1 << 32, stop)])
    seed, k = int(seed), np.arange(start, stop, dtype=np.uint64)
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [(k >> s & _MASK32).astype(np.uint32)
                for s in range(0, max((stop - 1).bit_length(), 1), 32)]
    sub = _seed_state(entropy, stop - start, 1)[0]
    state = _seed_state([sub], stop - start, 8)
    # As generate_state(4, np.uint64): little-endian pairs of uint32 words.
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _words_type() -> type:
    """A seed sequence that hands PCG64 one sample's precomputed words. Made on
    first use: ``import qinv`` leaves numpy.random unloaded for commands that
    never sample."""

    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words
    return Words


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    """Sample generators, made as consumed, from rows of ``_seed_words``."""
    words_type = _words_type()
    return (np.random.Generator(np.random.PCG64(words_type(w))) for w in words)


def _group(group: str) -> str:
    """``group`` upper-cased; it must name LU or SL."""
    kind = group.upper()
    if kind not in (LU_KIND, SL_KIND):
        raise ValueError(f"group must be LU or SL, got {group!r}")
    return kind


def verify_invariance(state: PureState, invariant: str, group: str,
                      samples: int, tol: float, seed: int) -> VerificationReport:
    """Sample a group orbit of ``state`` and measure how much the invariant moves.

    ``invariant`` names a row of ``invariants.invariant_table(n)``. Every
    deviation is |value - base|, complex (second-kind) rows compared as
    complex numbers. LU orbits hold it against ``tol``; their factors have
    determinant one, so C and Z are exact invariants of them. SL orbits test
    only the complex rows, on the raw (unnormalized) images, and the verdict
    uses the relative deviation: it divides by |base|, or, when |base| is at most
    2**-26 * ``raw_norm ** degree`` of an image (too small for float64 to
    resolve a relative change of 1e-7), by ``raw_norm ** degree`` (1 on LU).
    The base comes from the row's per-operation reference, the images' values
    from its batched evaluator: for I_{i} and I_{ij} two routes, so their
    disagreement shows up as a deviation; other references share the
    evaluator's kernels. ``tol`` must be finite and > 0, ``seed``
    a non-negative integer. Sample k's operator, whatever the row, is
    ``random_lu`` (without phases) or ``random_sl`` at the sub-seed
    ``SeedSequence((seed, k)).generate_state(1)[0]``; ``worst_sample`` names
    the k to replay.
    """
    return _campaign(state, [invariant], group, samples, tol, seed)[0]


def _campaign(state: PureState, names: Sequence[str], group: str, samples: int,
              tol: float, seed: int) -> list[VerificationReport]:
    """``verify_invariance`` of each of ``names``, from one campaign: per chunk,
    one stack of operators and one ``_evaluate`` call for every row."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    group = _group(group)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    n = state.n_qubits
    table = _inv.invariant_table(n)
    rows: dict[str, _inv.Invariant] = {}
    for name in names:
        row = table.get(name)
        if row is None:
            raise InvariantNotApplicableError(
                f"cannot parse selector {name!r}: the selectors of an n={n} "
                f"state are its report entry names")
        if group == SL_KIND and row.kind != "complex":
            raise InvariantNotApplicableError(
                f"{name} is a first-kind invariant; only complex (second-kind) "
                f"invariants are tested on SL orbits"
            )
        rows[name] = row
    base = {name: complex(row.reference(state)) for name, row in rows.items()}
    max_abs = dict.fromkeys(names, 0.0)
    max_rel = dict.fromkeys(names, 0.0)
    verdict_max = max_rel if group == SL_KIND else max_abs
    worst = dict.fromkeys(names, 0)  # sample of verdict_max
    per_chunk = max(1, _CHUNK_AMPLITUDES >> n)
    at, words = 0, np.empty((0, 4), dtype=np.uint64)  # seed words of samples at..
    for start in range(0, samples, per_chunk):
        stop = min(samples, start + per_chunk)
        if stop > at + len(words):
            at, words = start, _seed_words(
                seed, start, min(samples, start + max(per_chunk, _SEED_BLOCK)))
        rngs = _generators(words[start - at:stop - at])
        if group == LU_KIND:
            ops = _draw_lu(rngs, n)
        else:
            ops = _draw_sl(rngs, n, _SL_SPREAD, start)
        _check_ops(ops, group, start)
        images, raw_norm = _images(state.amplitudes, n, ops, group, start)
        for name, values in _inv._evaluate(images, n, rows, start).items():
            dev, base_mag = np.abs(values - base[name]), abs(base[name])
            unit = raw_norm ** rows[name].degree
            scale = np.where(base_mag > _ZERO_BASE * unit, base_mag, unit)
            rel, before = dev / scale, verdict_max[name]
            # ndarray.max, unlike max(), lets a NaN through to fail the verdict.
            max_abs[name] = float(dev.max(initial=max_abs[name]))
            max_rel[name] = float(rel.max(initial=max_rel[name]))
            if not (math.isnan(before) or verdict_max[name] <= before):
                # argmax: the chunk's first NaN, else its first maximum
                worst[name] = start + int((rel if group == SL_KIND else dev).argmax())
    metric = "rel" if group == SL_KIND else "abs"
    reports = [VerificationReport(name, group, samples, max_abs[name], max_rel[name], seed,
                                  tol, metric, passed=False, worst_sample=worst[name])
               for name in names]
    return [replace(r, passed=bool(r.deviation < tol)) for r in reports]


def applicable_invariants(n: int, group: str) -> list[str]:
    """Invariant selectors ``verify_invariance`` accepts for an n-qubit state."""
    group = _group(group)
    return [name for name, row in _inv.invariant_table(n).items()
            if group != SL_KIND or row.kind == "complex"]
