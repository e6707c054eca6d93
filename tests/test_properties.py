"""Property tests: the invariant table's two routes, qubit-permutation
covariance of the report, byte-stable state-file round trips, campaign
seeding and orbit invariance."""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qinv import (applicable_invariants, invariant_report, new_state, random_lu, random_sl,
                  verify_invariance)
from qinv import orbit as _orbit
from qinv.cli import dumps_state, load_state
from qinv.invariants import invariant_table, pair_name, single_name

from oracles import subseed

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


@PROPERTY
@given(st.integers(0, 2**70), st.integers(0, 10**7), st.integers(1, 4), st.integers(1, 4),
       st.booleans())
def test_seed_blocks_draw_the_operators_of_the_oracle_subseeds(seed, start, count, n,
                                                               phase):
    words = _orbit._seed_words(seed, start, start + count)
    lu = _orbit._draw_lu(_orbit._generators(words), n, phase)
    sl = _orbit._draw_sl(_orbit._generators(words), n, _orbit._SL_SPREAD)
    for k, lu_ops, sl_ops in zip(range(start, start + count), lu, sl):
        sub = subseed(seed, k)
        assert np.array_equal(lu_ops, np.array(random_lu(n, sub, global_phase=phase).ops))
        assert np.array_equal(sl_ops, np.array(random_sl(n, sub).ops))


amplitudes = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def classed_states(draw, n):
    """Product, GHZ-class and W-class states, on which some invariants are
    exactly 0, as well as generic ones."""
    kind = draw(st.sampled_from(["generic", "product", "ghz", "w"]))
    if kind == "generic":
        return draw(states(n))
    if kind == "product":
        amps = np.ones(1)
        for _ in range(n):
            qubit = np.array(draw(st.lists(amplitudes, min_size=2, max_size=2)))
            assume(np.linalg.norm(qubit) > 1e-3)
            amps = np.kron(amps, qubit)
    else:
        amps = np.zeros(1 << n, dtype=complex)
        slots = [0, (1 << n) - 1] if kind == "ghz" else [1 << q for q in range(n)]
        amps[slots] = draw(st.lists(amplitudes, min_size=len(slots), max_size=len(slots)))
    assume(np.linalg.norm(amps) > 1e-3)
    return new_state(n, amps, normalize=True)


@PROPERTY
@given(st.integers(1, 4).flatmap(classed_states), st.integers(0, 2**70))
def test_orbit_campaigns_pass_on_drawn_states(state, seed):
    n = state.n_qubits
    for group, tol in (("LU", 1e-9), ("SL", 1e-7)):
        for name in applicable_invariants(n, group):
            report = verify_invariance(state, name, group, 8, tol, seed)
            assert report.passed, report
