"""Property tests: the invariant table's two routes, qubit-permutation
covariance of the report, and byte-stable state-file round trips."""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qinv import invariant_report, new_state
from qinv.cli import dumps_state, load_state
from qinv.invariants import invariant_table, pair_name, single_name

PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def states(draw, n):
    """Normalized n-qubit states from arbitrary real and imaginary parts in
    [-1, 1], so product states, zeros and repeated amplitudes come up too."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 << n, max_size=2 << n))
    amps = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    assume(np.linalg.norm(amps) > 1e-3)
    return new_state(n, amps, normalize=True)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(states(n), states(n))))
def test_batched_rows_match_their_references(pair):
    state, other = pair
    n = state.n_qubits
    stack = np.stack([state.amplitudes, other.amplitudes])
    for name, row in invariant_table(n).items():
        one = row.batched(state.amplitudes, None)
        both = row.batched(stack, 0)
        for got, s in ((one, state), (both[0], state), (both[1], other)):
            want = complex(row.reference(s))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, got, want)


@PROPERTY
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(states(n), st.permutations(range(n)))))
def test_permuting_qubits_permutes_single_and_pair_entries(case):
    state, perm = case
    n = state.n_qubits
    # New qubit a + 1 is old qubit perm[a] + 1.
    moved = state.amplitudes.reshape((2,) * n).transpose(perm).ravel()
    before = invariant_report(state).entries
    after = invariant_report(new_state(n, moved)).entries
    for i in range(1, n + 1):
        old = single_name(perm[i - 1] + 1)
        assert abs(after[single_name(i)].value - before[old].value) <= 1e-12
        for j in range(i + 1, n + 1):
            a, b = sorted((perm[i - 1] + 1, perm[j - 1] + 1))
            old = pair_name(a, b, n)
            assert abs(after[pair_name(i, j, n)].value - before[old].value) <= 1e-12


@PROPERTY
@given(st.integers(1, 4).flatmap(states))
def test_state_file_round_trip_is_byte_stable(state):
    text = dumps_state(state)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(text, encoding="utf-8")
        assert dumps_state(load_state(str(path))) == text
