"""How many copies of a state vector each public path makes, and that the
paths which avoid copies give bit for bit what the copying forms give."""
import hashlib
import math

import numpy as np
import pytest

from qinv import (
    NonFiniteError,
    PureState,
    UnnormalizedError,
    ZeroVectorError,
    apply_local,
    apply_single_qubit,
    apply_string,
    conjugate,
    invariant_report,
    new_state,
    random_lu,
    random_sl,
    random_state,
)
from qinv.cli import dumps_state, load_state, write_state
from qinv.pauli import PAULI_X, PAULI_Y, PAULI_Z

from conftest import peak_states

N = 16
# tracemalloc also counts the few small Python objects of a call (about
# 0.003 states here), so every budget allows this much above its count.
SLACK = 0.01


@pytest.fixture(scope="module")
def big():
    return random_state(N, 5)


@pytest.fixture(scope="module")
def caller_array(big):
    return np.array(big.amplitudes)


# name: (budget in states, the call as (fn, *args) from the state and an array)
BUDGETS = {
    "random_state": (1.5, lambda s, a: (random_state, N, 3)),
    "apply_single_qubit 1": (1.0, lambda s, a: (apply_single_qubit, s, 1, PAULI_Y)),
    "apply_single_qubit 9": (1.0, lambda s, a: (apply_single_qubit, s, 9, PAULI_Y)),
    "apply_single_qubit 14": (1.0, lambda s, a: (apply_single_qubit, s, 14, PAULI_Y)),
    "apply_single_qubit 16": (1.0, lambda s, a: (apply_single_qubit, s, 16, PAULI_Y)),
    "conjugate": (1.0, lambda s, a: (conjugate, s)),
    "new_state": (1.0, lambda s, a: (new_state, N, a)),
    "new_state normalize": (1.0, lambda s, a: (
        lambda half: new_state(N, half, normalize=True), a * 0.5)),
    "PureState": (1.0, lambda s, a: (PureState, N, a)),
    "digest": (0.0, lambda s, a: (s.digest,)),
    # One transient copy per union reduction, plus its Gram products.
    "invariant_report": (1.41, lambda s, a: (invariant_report, s)),
    # The block products take one intermediate vector each.
    "apply_string": (2.01, lambda s, a: (apply_string, s, [PAULI_X, PAULI_Z] * (N // 2))),
    "apply_local LU": (2.01, lambda s, a: (apply_local, s, random_lu(N, 1))),
    "apply_local SL": (2.01, lambda s, a: (apply_local, s, random_sl(N, 1))),
}


@pytest.mark.parametrize("name", list(BUDGETS))
def test_copy_budget_at_n16(big, caller_array, name):
    budget, call = BUDGETS[name]
    fn, *args = call(big, caller_array)
    _, peak = peak_states(N, fn, *args)
    assert peak <= budget + SLACK, f"{name}: {peak:.4f} states, budget {budget}"


def test_states_do_not_share_a_callers_array(caller_array):
    arr, doubled = caller_array.copy(), 2.0 * caller_array
    kept = arr.tobytes(), doubled.tobytes()
    states = [PureState(N, arr), new_state(N, arr), new_state(N, doubled, normalize=True)]
    assert (arr.tobytes(), doubled.tobytes()) == kept  # new_state scales its own copy
    want = [s.amplitudes.tobytes() for s in states]
    arr[:] = doubled[:] = 0.0
    assert [s.amplitudes.tobytes() for s in states] == want


def _producers(tmp_path):
    s = random_state(4, 2)
    path = tmp_path / "s.json"
    write_state(s, str(path))
    return {
        "random_state": s,
        "PureState": PureState(4, np.array(s.amplitudes)),
        "new_state list": new_state(1, [1, 0]),
        "new_state array": new_state(4, np.array(s.amplitudes)),
        "new_state rescaled": new_state(4, 3.0 * s.amplitudes, normalize=True),
        "new_state scaled copy": new_state(2, [4.0, 0, 0, 4.0], normalize=True),
        "conjugate": conjugate(s),
        "apply_single_qubit": apply_single_qubit(s, 2, PAULI_Y),
        "apply_string": apply_string(s, [PAULI_X] * 4),
        "apply_string identity": apply_string(s, [np.eye(2)] * 4),
        "apply_local LU": apply_local(s, random_lu(4, 3))[0],
        "apply_local SL": apply_local(s, random_sl(4, 3))[0],
        "load_state": load_state(str(path)),
        "load_state normalize": load_state(str(path), normalize=True),
    }


def test_every_producer_returns_read_only_amplitudes(tmp_path):
    for name, s in _producers(tmp_path).items():
        assert not s.amplitudes.flags.writeable, name
        with pytest.raises(ValueError):
            s.amplitudes[0] = 1.0


# ---------------------------------------------------------------- bit identity

def _new_state_copying(n, amps, normalize):
    """``new_state``'s checks as they ran on copies: |parts|, then the norm
    of an ldexp-scaled copy, then a rescale by division."""
    vec = np.ascontiguousarray(amps, dtype=np.complex128)
    parts = vec.view(np.float64)
    exp = int(np.frexp(np.max(np.abs(parts)))[1])
    scaled = np.ldexp(parts, -exp).view(np.complex128)
    scaled_norm = float(np.linalg.norm(scaled))
    if not math.isfinite(scaled_norm):
        raise NonFiniteError(f"amplitudes must be finite; norm is {scaled_norm!r}")
    if scaled_norm == 0.0:
        raise ZeroVectorError("every amplitude is 0")
    with np.errstate(over="ignore"):
        norm = float(np.ldexp(scaled_norm, exp))
    if abs(norm * norm - 1.0) > 1e-10:
        if not normalize:
            raise UnnormalizedError(f"norm is {norm!r}, squared {norm * norm!r}; "
                                    f"pass normalize=True to rescale")
        vec = scaled / scaled_norm
    return vec


def _outcome(fn, *args):
    try:
        return fn(*args).view(np.uint64).tobytes()
    except Exception as exc:  # the outcome compared is the error raised
        return type(exc), str(exc)


def _extreme_vectors():
    rng = np.random.default_rng(41)
    unit = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    unit /= np.linalg.norm(unit)
    tiny = unit.copy()
    tiny[[3, 7, 11]] = [1e-310, 5e-324j, -2.5e-320 + 1e-200j]
    out = {f"unit*{s!r}": unit * s for s in
           (1.0, 2.0, 0.5, 0.999, 1e300, 1e-300, 1e308, 1e-308, 1e-320, 2.0 ** -40)}
    out.update({
        "tiny entries": tiny,
        "tiny entries*4": tiny * 4.0,
        "basis": np.eye(16)[5],
        "basis*-1j": -1j * np.eye(16)[5],
        "subnormals": np.full(16, 5e-324) * np.arange(16),
        "max 1 with subnormals": np.array([1.0] + [3 * 5e-324] * 15),
        "max 1.5 with subnormals": np.array([1.5] + [2.2250738585072014e-308 * 1.5] * 15),
        "mixed 1e300 and 1e-300": np.array([1e300, 1e-300] * 8),
        "overflowing norm": np.full(16, 1.7e308),
        "zeros": np.zeros(16),
        "negative zeros": np.full(16, -0.0),
        "nan": np.where(np.arange(16) == 4, np.nan, unit),
        "inf": np.where(np.arange(16) == 9, -np.inf, unit),
    })
    return out


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("label", list(_extreme_vectors()))
def test_new_state_matches_the_copying_form(label, normalize):
    amps = _extreme_vectors()[label]
    want = _outcome(_new_state_copying, 4, amps, normalize)
    got = _outcome(lambda: new_state(4, amps, normalize=normalize).amplitudes)
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_random_state_matches_the_drawn_sum(n):
    for seed in (0, 1, 99, 2**40):
        rng = np.random.default_rng(seed)
        want = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        want /= np.linalg.norm(want)
        got = random_state(n, seed).amplitudes
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_digest_hashes_the_amplitude_bytes():
    for s in (random_state(6, 1), new_state(1, [0, 1j]), random_state(N, 5)):
        assert s.digest() == hashlib.sha256(s.amplitudes.tobytes()).hexdigest()[:16]


def _dumps_line_by_line(state):
    """The state-file text, one formatted line per amplitude."""
    lines = ["{", f'  "n_qubits": {state.n_qubits},', '  "amplitudes": [']
    last = state.dim - 1
    for k, amp in enumerate(state.amplitudes):
        comma = "," if k != last else ""
        lines.append(f"    [{amp.real:.16e}, {amp.imag:.16e}]{comma}")
    lines += ["  ],", '  "normalized": true', "}", ""]
    return "\n".join(lines)


@pytest.mark.parametrize("n", [2, 14, 15])
def test_state_text_in_pieces_matches_line_by_line(tmp_path, n):
    # n = 14 is exactly one piece of text and n = 15 two.
    amps = np.array(random_state(n, n).amplitudes)
    amps[:4] = [-0.0, 5e-324j, -1e150 + 1e-300j, np.nextafter(1.0, 0) * 1j]
    state = PureState(n, amps, is_normalized=False)
    path = tmp_path / "state.json"
    write_state(state, str(path))
    want = _dumps_line_by_line(state)
    assert dumps_state(state) == want
    assert path.read_bytes() == want.encode("utf-8")
