import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qinv
import qinv.cli
from qinv import (
    InternalDisagreementError,
    InvariantNotApplicableError,
    LengthMismatchError,
    LocalOperator,
    NotUnitaryError,
    TooLargeError,
    adjoint_rotation,
    apply_local,
    applicable_invariants,
    random_lu,
    random_sl,
    random_state,
    verify_invariance,
)
from qinv import invariants as _inv
from qinv import orbit as _orbit
from qinv import pauli as _p
from qinv import state as _s

from oracles import expm_taylor


# ------------------------------------------------------------- random_state

def test_random_state_normalized_and_deterministic():
    a = random_state(1, 5)
    b = random_state(1, 5)
    assert abs(a.norm() - 1.0) < 1e-12
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_random_state_seeds_differ():
    a = random_state(3, 1)
    b = random_state(3, 2)
    overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
    assert overlap < 1.0 - 1e-6


def test_random_state_too_large():
    with pytest.raises(TooLargeError):
        random_state(25, 0)


# ---------------------------------------------------------------- random_lu

def test_random_lu_factors_are_special_unitary():
    g = random_lu(4, 17)
    for u in g.ops:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_random_lu_global_phase_keeps_unitarity():
    g = random_lu(3, 23, global_phase=True)
    for u in g.ops:
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_random_lu_angles_match_sequential_uniform(monkeypatch):
    # One rng.random((n, cols)) draw, scaled, must reproduce the scalar
    # rng.uniform calls in qubit order, phase column included, bit for bit.
    captured = []
    euler = _orbit._euler_unitary

    def spy(alpha, omega, beta):
        captured.append((alpha, omega, beta))
        return euler(alpha, omega, beta)

    monkeypatch.setattr(_orbit, "_euler_unitary", spy)
    for seed in range(100):
        for global_phase in (False, True):
            captured.clear()
            g = random_lu(5, seed, global_phase=global_phase)
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(5):
                want.append((rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi),
                             rng.uniform(0.0, 2.0 * np.pi)))
                if global_phase:
                    want[-1] += (rng.uniform(0.0, 2.0 * np.pi),)
            want = np.array(want)
            (alpha, omega, beta), = captured
            assert np.array_equal(np.stack([alpha, omega, beta], axis=1), want[:, :3])
            phase = np.exp(1j * want[:, 3]) if global_phase else np.ones(5)
            expected = phase[:, None, None] * euler(*want[:, :3].T)
            assert_allclose(np.array(g.ops), expected, rtol=0, atol=1e-15)


def test_lu_group_closure():
    for seed in range(20):
        u = random_lu(1, seed).ops[0]
        v = random_lu(1, seed + 100).ops[0]
        w = u @ v
        assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-12


def test_adjoint_of_sampled_factors_is_so3():
    for seed in range(50):
        rot = adjoint_rotation(random_lu(1, seed).ops[0])
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(rot) - 1.0) < 1e-9


# ---------------------------------------------------------------- random_sl

def test_random_sl_contract():
    g = random_sl(3, 29)
    for m in g.ops:
        assert abs(np.linalg.det(m) - 1.0) < 1e-10
        assert np.linalg.cond(m) <= 10.0


def test_random_sl_small_spread_is_near_identity():
    g = random_sl(2, 31, spread=1e-8)
    for m in g.ops:
        assert np.max(np.abs(m - np.eye(2))) < 1e-6


def _traceless(rng, count, spread):
    z = rng.standard_normal((count, 2, 2, 2))
    m = spread * (z[:, 0] + 1j * z[:, 1])
    half_trace = 0.5 * (m[:, 0, 0] + m[:, 1, 1])
    m[:, 0, 0] -= half_trace
    m[:, 1, 1] -= half_trace
    return m


def _assert_expm_matches_oracle(m):
    got = _orbit._expm_traceless(m)
    for mk, gk in zip(m, got):
        want = expm_taylor(mk)
        assert np.max(np.abs(gk - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("spread", [0.5, 3.0])
def test_expm_closed_form_matches_taylor_oracle(spread):
    _assert_expm_matches_oracle(_traceless(np.random.default_rng(1), 500, spread))


def test_expm_closed_form_nilpotent_and_series_cutover():
    nilpotent = np.array([[[0, 1], [0, 0]]], dtype=np.complex128)
    assert_allclose(_orbit._expm_traceless(nilpotent)[0], [[1, 1], [0, 1]], rtol=0, atol=0)
    # d^2 = m00^2 + m01 m10 placed just below and above the series cut-over.
    rng = np.random.default_rng(2)
    cut = _orbit._EXPM_SERIES_CUTOFF
    mats = []
    for factor in (1e-12, 0.5, 0.999, 1.001, 2.0, 100.0):
        for _ in range(50):
            d2 = factor * cut * np.exp(2j * np.pi * rng.random())
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a *= 0.5 * np.sqrt(abs(d2))
            mats.append([[a, b], [(d2 - a * a) / b, -a]])
    _assert_expm_matches_oracle(np.array(mats))


def test_closed_form_condition_number_matches_numpy():
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
    ref = np.linalg.cond(mats)
    assert np.max(np.abs(_orbit._cond2(mats) / ref - 1.0)) <= 1e-13
    # Near-singular: both routes lose about eps * cond relative accuracy.
    u, _, vh = np.linalg.svd(mats)
    sv = np.stack([np.ones(1000), 10.0 ** -rng.uniform(3.0, 10.0, 1000)], axis=-1)
    near = (u * sv[:, None, :]) @ vh
    ref = np.linalg.cond(near)
    assert np.all(np.abs(_orbit._cond2(near) / ref - 1.0) <= 1e-14 * ref)


def test_random_sl_rejects_bad_spread():
    with pytest.raises(ValueError):
        random_sl(1, 0, spread=0.0)


# ------------------------------------------------------------ LocalOperator

def test_local_operator_validates_lu_kind():
    with pytest.raises(NotUnitaryError):
        LocalOperator((np.array([[1.0, 0.1], [0.0, 1.0]]),), "LU")


def test_local_operator_validates_sl_kind():
    with pytest.raises(ValueError):
        LocalOperator((2.0 * np.eye(2),), "SL")
    with pytest.raises(ValueError):
        LocalOperator((np.eye(2),), "XX")


def test_local_operator_rejects_non_finite_factor():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NotUnitaryError, match="operator 2 "):
        LocalOperator((np.eye(2), nan), "LU")
    with pytest.raises(ValueError, match="operator 2 "):
        LocalOperator((np.eye(2), nan), "SL")


def test_local_operator_rejects_singular_sl_factor():
    with pytest.raises(ValueError, match="operator 1 has determinant"):
        LocalOperator((np.array([[1.0, 1.0], [1.0, 1.0]]),), "SL")


@pytest.mark.parametrize("kind, bad, error, message", [
    ("LU", np.array([[1.0, 0.1], [0.0, 1.0]]), NotUnitaryError, "not unitary"),
    ("SL", 2.0 * np.eye(2), ValueError, "determinant"),
    ("SL", np.diag([20.0, 0.05]), ValueError, "condition number"),
])
def test_local_operator_names_the_bad_factor(kind, bad, error, message):
    for k in (1, 3, 5):
        ops = [np.eye(2)] * 5
        ops[k - 1] = bad
        with pytest.raises(error, match=f"operator {k} .*{message}"):
            LocalOperator(tuple(ops), kind)


def test_import_leaves_scipy_unloaded():
    # Exit code, not assert, so the check also holds under python -O.
    script = ("import sys, qinv; "
              "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(qinv.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert proc.returncode == 0


# -------------------------------------------------------------- apply_local

def test_apply_local_identity(ghz3):
    g = LocalOperator((np.eye(2),) * 3, "LU")
    image, raw_norm = apply_local(ghz3, g)
    assert_allclose(image.amplitudes, ghz3.amplitudes)
    assert raw_norm == pytest.approx(1.0)


def test_apply_local_euler_bit_flip():
    # alpha = beta = 0, omega = pi/2 sends |0> to -|1>.
    from qinv import new_state
    from qinv.orbit import _euler_unitary
    u = _euler_unitary(0.0, np.pi / 2, 0.0)
    image, _ = apply_local(new_state(1, [1, 0]), LocalOperator((u,), "LU"))
    assert_allclose(image.amplitudes, [0.0, -1.0], atol=1e-15)


def test_apply_local_norm_for_lu():
    for seed in range(10):
        s = random_state(4, seed)
        image, raw_norm = apply_local(s, random_lu(4, seed))
        assert abs(image.norm() - 1.0) < 1e-10
        assert abs(raw_norm - 1.0) < 1e-10


def test_apply_local_reports_raw_norm_for_sl():
    s = random_state(3, 8)
    g = random_sl(3, 8)
    image, raw_norm = apply_local(s, g)
    assert abs(image.norm() - 1.0) < 1e-10
    dense = np.array([[1.0]])
    for m in g.ops:
        dense = np.kron(dense, m)
    assert raw_norm == pytest.approx(float(np.linalg.norm(dense @ s.amplitudes)))


def test_apply_local_length_mismatch(ghz3):
    with pytest.raises(LengthMismatchError):
        apply_local(ghz3, random_lu(2, 0))


def test_apply_local_composition_consistency():
    # Applying g then h matches applying the per-qubit products h @ g.
    for n in (2, 3, 5):
        s = random_state(n, n)
        g = random_lu(n, 50 + n)
        h = random_lu(n, 60 + n)
        step, _ = apply_local(s, g)
        two_step, _ = apply_local(step, h)
        combined = LocalOperator(
            tuple(hk @ gk for hk, gk in zip(h.ops, g.ops)), "LU")
        direct, _ = apply_local(s, combined)
        assert_allclose(two_step.amplitudes, direct.amplitudes, atol=1e-12)


# --------------------------------------------------------- verify_invariance

def test_verify_first_kind_on_ghz(ghz3):
    report = verify_invariance(ghz3, "I_{1}", "LU", 100, 1e-9, 42)
    assert report.passed
    assert report.max_abs_deviation < 1e-9
    assert report.metric == "abs"


def test_verify_modulus_kind_on_bell(bell):
    report = verify_invariance(bell, "C", "LU", 100, 1e-9, 42)
    assert report.passed
    assert report.max_abs_deviation < 1e-9


def test_verify_slocc_on_random_state():
    s = random_state(3, 77)
    report = verify_invariance(s, "Z", "SL", 50, 1e-7, 7)
    assert report.passed
    assert report.metric == "rel"
    assert report.max_rel_deviation < 1e-7


@pytest.mark.parametrize("fixture", ["w3", "zero3"])
def test_verify_slocc_on_null_state(fixture, request):
    # Z = 0 here; the deviation is scaled by raw_norm ** 4, not by |Z|.
    report = verify_invariance(request.getfixturevalue(fixture), "Z", "SL", 100, 1e-7, 7)
    assert report.passed
    assert report.max_rel_deviation < 1e-12


def test_verify_rejects_sample_count_below_one(ghz3):
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            verify_invariance(ghz3, "I_1", "LU", samples, 1e-9, 0)


def test_verify_is_deterministic():
    s = random_state(3, 5)
    a = verify_invariance(s, "I_{12}", "LU", 25, 1e-9, 11)
    b = verify_invariance(s, "I_{12}", "LU", 25, 1e-9, 11)
    assert a == b


def test_verify_suite_selectors(ghz3):
    for name in ("I_1", "I_2", "I_5", "I_6"):
        report = verify_invariance(ghz3, name, "LU", 10, 1e-9, 3)
        assert report.passed, name


def test_verify_selector_parsing():
    s10 = random_state(10, 1)
    report = verify_invariance(s10, "I_{10}", "LU", 2, 1e-9, 1)
    assert report.invariant == "I_{10}"
    report = verify_invariance(s10, "I_{1,2}", "LU", 2, 1e-9, 1)
    assert report.passed


def test_verify_not_applicable(ghz3, bell):
    with pytest.raises(InvariantNotApplicableError):
        verify_invariance(ghz3, "C", "LU", 5, 1e-9, 0)
    with pytest.raises(InvariantNotApplicableError):
        verify_invariance(bell, "Z", "LU", 5, 1e-9, 0)
    with pytest.raises(InvariantNotApplicableError):
        verify_invariance(bell, "I_{1}", "SL", 5, 1e-7, 0)
    with pytest.raises(InvariantNotApplicableError):
        verify_invariance(bell, "I_5", "LU", 5, 1e-9, 0)
    with pytest.raises(InvariantNotApplicableError):
        verify_invariance(bell, "bogus", "LU", 5, 1e-9, 0)


@pytest.mark.parametrize("name", ["I_{x}", "I_{1,x}", "I_{}", "I_{1,2,3}"])
def test_verify_malformed_selector(bell, name):
    with pytest.raises(InvariantNotApplicableError, match="cannot parse"):
        verify_invariance(bell, name, "LU", 5, 1e-9, 0)


def test_applicable_invariants_lists():
    assert applicable_invariants(2, "LU") == ["I_{1}", "I_{2}", "I_{12}", "C"]
    assert applicable_invariants(2, "SL") == ["C"]
    assert applicable_invariants(3, "SL") == ["Z"]
    names = applicable_invariants(3, "LU")
    assert names[:6] == ["I_1", "I_2", "I_3", "I_4", "I_5", "I_6"]
    assert names[-1] == "Z"


# ---------------------------------------------------- batched campaigns

def _spy_stacks(monkeypatch):
    """Record the operator stack of every chunk a campaign validates."""
    stacks = []
    check = _orbit._check_ops

    def spy(stack, *args):
        stacks.append(stack.copy())
        return check(stack, *args)

    monkeypatch.setattr(_orbit, "_check_ops", spy)
    return stacks


@pytest.mark.parametrize("group", ["LU", "SL"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_campaign_operators_match_single_draws(monkeypatch, n, group):
    # Sample k's operator is bit-for-bit random_lu / random_sl at its sub-seed.
    stacks = _spy_stacks(monkeypatch)
    state = random_state(n, 40 + n)
    for name in applicable_invariants(n, group):
        stacks.clear()
        verify_invariance(state, name, group, 7, 1.0, 13)
        (stack,) = stacks
        for k, ops in enumerate(stack):
            sub = _orbit._subseed(13, k)
            if group == "LU":
                single = random_lu(n, sub, global_phase=name in ("C", "Z"))
            else:
                single = random_sl(n, sub)
            assert np.array_equal(ops, np.array(single.ops)), (name, k)


def test_batched_sl_draw_redraws_rejected_rows_from_their_own_stream(monkeypatch):
    rejected = []
    cond2 = _orbit._cond2

    def spy(g):
        c = cond2(g)
        rejected.append(int(np.sum(~(c <= _orbit._SL_CONDITION_CAP))))
        return c

    monkeypatch.setattr(_orbit, "_cond2", spy)
    seeds = [_orbit._subseed(11, k) for k in range(60)]
    stack = _orbit._draw_sl(seeds, 8, _orbit._SL_SPREAD)
    assert rejected[0] > 0
    for seed, ops in zip(seeds, stack):
        assert np.array_equal(ops, np.array(random_sl(8, seed).ops))


@pytest.mark.parametrize("group", ["LU", "SL"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_values_match_per_operation_evaluators(n, group):
    state = random_state(n, 50 + n)
    seeds = [_orbit._subseed(17, k) for k in range(6)]
    for name in applicable_invariants(n, group):
        sel = _inv.invariant_table(n)[name]
        if group == "LU":
            ops = _orbit._draw_lu(seeds, n, name in ("C", "Z"))
        else:
            ops = _orbit._draw_sl(seeds, n, _orbit._SL_SPREAD)
        images, _ = _orbit._images(state.amplitudes, n, ops, group)
        got = sel.batched(images, 0)
        assert got.shape == (len(seeds),)
        for img, value in zip(images, got):
            image = qinv.PureState(n, img, is_normalized=group == "LU")
            want = complex(sel.reference(image))
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (name, value, want)


def test_chunk_boundaries_do_not_change_the_report(monkeypatch):
    s = random_state(3, 61)
    campaigns = [("I_5", "LU"), ("I_{12}", "LU"), ("Z", "LU"), ("Z", "SL")]

    def reports():
        one_row = [verify_invariance(s, name, group, 10, 1e-7, 5)
                   for name, group in campaigns]
        return one_row + _orbit._campaign(s, applicable_invariants(3, "LU"), "LU", 10, 1e-7, 5)

    whole = reports()
    # Chunks of 3 samples: 10 is not a multiple of the chunk.
    monkeypatch.setattr(_orbit, "_CHUNK_AMPLITUDES", 3 * 8)
    stacks = _spy_stacks(monkeypatch)
    assert reports() == whole
    # The all-row campaign validates one stack per family (2 on LU) per chunk.
    assert [len(st) for st in stacks] == ([3, 3, 3, 1] * len(campaigns)
                                          + [3, 3, 3, 3, 3, 3, 1, 1])


def test_one_sample_per_chunk_at_large_n(monkeypatch):
    stacks = _spy_stacks(monkeypatch)
    n = 12
    assert _orbit._CHUNK_AMPLITUDES >> n <= 1
    report = verify_invariance(random_state(n, 62), "I_{1,12}", "LU", 3, 1e-9, 8)
    assert report.passed
    campaign = list(stacks)
    assert [st.shape for st in campaign] == [(1, n, 2, 2)] * 3
    for k, stack in enumerate(campaign):
        single = random_lu(n, _orbit._subseed(8, k))
        assert np.array_equal(stack[0], np.array(single.ops))


def _tamper(draw, bad, sample=4, seed=0):
    """Wrap a campaign draw so that factor 2 of ``sample`` turns ``bad``."""
    target = _orbit._subseed(seed, sample)

    def tampered(seeds, *args):
        ops = draw(seeds, *args)
        if target in seeds:
            row = seeds.index(target)
            ops[row, 1] = bad(ops[row, 1])
        return ops
    return tampered


@pytest.mark.parametrize("group, bad, error, message", [
    ("LU", lambda m: np.full((2, 2), np.nan), NotUnitaryError, "not unitary"),
    ("LU", lambda m: 1.1 * m, NotUnitaryError, "not unitary"),
    ("SL", lambda m: np.full((2, 2), np.nan), ValueError, "determinant"),
    ("SL", lambda m: 2.0 * m, ValueError, "determinant"),
])
def test_bad_factor_in_a_campaign_stack_is_named(monkeypatch, group, bad, error, message):
    name = "_draw_lu" if group == "LU" else "_draw_sl"
    monkeypatch.setattr(_orbit, name, _tamper(getattr(_orbit, name), bad))
    with pytest.raises(error, match=f"sample 4: operator 2 .*{message}"):
        verify_invariance(random_state(3, 63), "Z", group, 10, 1e-7, 0)


@pytest.mark.parametrize("group", ["LU", "SL"])
def test_bad_factor_is_named_by_its_campaign_sample(monkeypatch, group):
    # Sample 4 sits in the second chunk of 3 samples, and at n = 12 every
    # chunk holds one sample: messages count samples from the campaign start.
    name = "_draw_lu" if group == "LU" else "_draw_sl"
    draw = getattr(_orbit, name)
    monkeypatch.setattr(_orbit, name, _tamper(draw, lambda m: 2.0 * m))
    monkeypatch.setattr(_orbit, "_CHUNK_AMPLITUDES", 3 * 8)
    with pytest.raises(ValueError, match="^sample 4: operator 2 "):
        verify_invariance(random_state(3, 66), "Z", group, 10, 1e-7, 0)
    monkeypatch.undo()
    monkeypatch.setattr(_orbit, name, _tamper(draw, lambda m: 2.0 * m, sample=2))
    with pytest.raises(ValueError, match="^sample 2: operator 2 "):
        verify_invariance(random_state(12, 67), "C", group, 4, 1e-7, 0)


@pytest.mark.parametrize("name, routes", [("I_5", "cubic invariant"),
                                          ("I_2", "purity of qubit 3")])
def test_tampered_route_fails_a_batched_campaign(monkeypatch, name, routes):
    # Shift the Pauli route of the batched evaluator only: the per-operation
    # base value (one vector) stays intact.
    one_point = _inv._one_point

    def shifted(amps, n, i):
        out = one_point(amps, n, i)
        return out + 1e-6 if amps.ndim > 1 else out

    monkeypatch.setattr(_inv, "_one_point", shifted)
    with pytest.raises(InternalDisagreementError, match=f"{routes} routes disagree"):
        verify_invariance(random_state(3, 64), name, "LU", 10, 1e-9, 0)
    # A chunk starting at sample 5 names its samples from 5 on.
    s = random_state(3, 64)
    ops = _orbit._draw_lu([_orbit._subseed(0, k) for k in range(5, 10)], 3, False)
    images, _ = _orbit._images(s.amplitudes, 3, ops, "LU", 5)
    with pytest.raises(InternalDisagreementError,
                       match=f"^sample 5: {routes} routes disagree"):
        _inv.invariant_table(3)[name].batched(images, 5)


def test_campaign_kernel_calls_do_not_grow_with_samples(monkeypatch):
    # Deterministic guard on the batching: applying the images costs one
    # _apply_2x2 call per qubit and chunk, whatever the sample count.
    calls = []
    apply_2x2 = _p._apply_2x2

    def counting(*args):
        calls.append(1)
        return apply_2x2(*args)

    monkeypatch.setattr(_p, "_apply_2x2", counting)
    s = random_state(3, 65)
    qinv.pair_invariant(s, 1, 2)
    base_calls = len(calls)
    calls.clear()
    verify_invariance(s, "I_{12}", "LU", 100, 1e-9, 0)
    chunks = -(-100 // max(1, _orbit._CHUNK_AMPLITUDES >> 3))
    assert len(calls) - base_calls <= 3 * chunks


def test_zero_base_lu_campaign_reports_finite_relative_deviation(zero3):
    # |000> has I_6 = I_{i} = I_{ij} = 0 exactly; the relative figure divides
    # by raw_norm ** degree (1 on LU images) instead of reading inf.
    for name in applicable_invariants(3, "LU"):
        report = verify_invariance(zero3, name, "LU", 20, 1e-9, 0)
        assert report.passed, name
        assert np.isfinite(report.max_rel_deviation), name
        assert report.max_rel_deviation < 1e-12, name


# ------------------------------------------- invariant table and verdicts

def test_near_zero_base_is_scaled_like_an_exact_zero(w3, ghz3):
    # Z of an LU image of W_3 is rounding noise (~6e-17), not 0; dividing by
    # it turned a 4.5e-15 deviation into max_rel 72 and an SL FAIL.
    image, _ = apply_local(w3, random_lu(3, 5))
    assert 0.0 < abs(qinv.odd_tangle(image)) <= 1e-12
    report = verify_invariance(image, "Z", "SL", 100, 1e-7, 0)
    assert report.passed
    assert report.max_rel_deviation < 1e-12
    # GHZ_3 I_{12} is 0 up to rounding; its LU max_rel read 3.75.
    report = verify_invariance(ghz3, "I_{12}", "LU", 100, 1e-9, 0)
    assert report.passed
    assert report.max_rel_deviation < 1e-12


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, 0.0])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(ghz3, tol):
    with pytest.raises(ValueError, match="tol"):
        verify_invariance(ghz3, "I_1", "LU", 5, tol, 0)


def test_sl_factor_above_the_sampler_condition_cap_is_rejected():
    # det 1 and condition number 50: above the cap of 10 that random_sl keeps.
    factor = np.diag([np.sqrt(50.0), 1.0 / np.sqrt(50.0)])
    with pytest.raises(ValueError, match="operator 1 exceeds condition number"):
        LocalOperator((factor,), "SL")


@pytest.mark.parametrize("n, name", [(3, "I_{21}"), (3, "I_{1,2}"), (9, "I_{1,2}"),
                                     (3, "I_{7}"), (3, "I_{0}"), (10, "I_{12}")])
def test_selectors_are_exactly_the_table_names(n, name):
    state = random_state(n, 68)
    with pytest.raises(InvariantNotApplicableError, match="cannot parse"):
        verify_invariance(state, name, "LU", 2, 1e-9, 0)


def test_batched_i6_runs_the_tangle_cross_check(monkeypatch):
    # Shift the bilinear route of stacked images only: the campaign's I_6
    # evaluator must notice, and name the sample.
    pair_tangle = _inv._pair_tangle

    def shifted(amps, slot):
        out = pair_tangle(amps, slot)
        return out + 1e-6 if amps.ndim > 1 else out

    monkeypatch.setattr(_inv, "_pair_tangle", shifted)
    with pytest.raises(InternalDisagreementError, match="^sample 0: I_6 routes disagree"):
        verify_invariance(random_state(3, 69), "I_6", "LU", 10, 1e-9, 0)


# ------------------------------------------- one campaign per state and group

def _ghz(n):
    amps = np.zeros(1 << n)
    amps[0] = amps[-1] = 2 ** -0.5
    return qinv.new_state(n, amps)


@pytest.mark.parametrize("group", ["LU", "SL"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_campaign_equals_the_one_row_campaigns(n, group):
    # One sample (and the last chunk of 33 at n = 7) puts one image in a
    # chunk: a row's value must not depend on how many rows share its stack.
    zero = qinv.new_state(n, np.eye(1, 1 << n)[0])
    names = applicable_invariants(n, group)
    for state, samples in itertools.product((random_state(n, 90 + n), zero, _ghz(n)),
                                            (1, 33)):
        reports = _orbit._campaign(state, names, group, samples, 1e-9, 6)
        assert reports == [verify_invariance(state, name, group, samples, 1e-9, 6)
                           for name in names]
        assert [r.passed for r in reports] == [r.deviation < r.tol for r in reports]


@pytest.mark.parametrize("n, samples, group, stacks_per_chunk",
                         [(3, 100, "lu", 2), (3, 100, "sl", 1),
                          (12, 3, "lu", 2), (12, 3, "sl", 1)])
def test_cli_verify_validates_one_stack_per_family_and_chunk(
        monkeypatch, tmp_path, capsys, n, samples, group, stacks_per_chunk):
    path = tmp_path / "state.json"
    qinv.cli.write_state(random_state(n, 91), str(path))
    stacks = _spy_stacks(monkeypatch)
    argv = ["verify", "-s", str(path), "--group", group, "--samples", str(samples)]
    assert qinv.cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(applicable_invariants(n, group))
    chunks = -(-samples // max(1, _orbit._CHUNK_AMPLITUDES >> n))
    assert len(stacks) == stacks_per_chunk * chunks


@pytest.mark.parametrize("group", ["bogus", "", "SLOCC"])
def test_group_must_be_lu_or_sl(ghz3, group):
    with pytest.raises(ValueError, match="group must be LU or SL"):
        applicable_invariants(3, group)
    with pytest.raises(ValueError, match="group must be LU or SL"):
        verify_invariance(ghz3, "I_1", group, 5, 1e-9, 0)


@pytest.mark.parametrize("group", ["lu", "LU", "sl", "Sl"])
def test_group_is_case_insensitive(ghz3, group):
    names = applicable_invariants(3, group)
    assert names == applicable_invariants(3, group.upper())
    assert verify_invariance(ghz3, names[-1], group, 5, 1e-7, 0).group == group.upper()


def test_stacked_density_check_names_the_row_and_sample(monkeypatch):
    # Break the trace of qubit pair (1, 3) from sample 2 on, in stacks of
    # images only: the stacked check of all I_{ij} rows names that row.
    reduced = _s._reduced

    def tampered(amps, n, kept):
        rho = reduced(amps, n, kept)
        if amps.ndim > 1 and tuple(kept) == (1, 3):
            rho[2:] *= 1.1
        return rho

    monkeypatch.setattr(_s, "_reduced", tampered)
    names = applicable_invariants(3, "LU")
    with pytest.raises(ValueError, match=r"^sample 2: I_\{13\}: density matrix trace"):
        _orbit._campaign(random_state(3, 92), names, "LU", 10, 1e-9, 0)


def test_stacked_residue_check_names_the_row_and_sample(monkeypatch):
    rows = dict(_inv._PAULI_ROWS)
    rows[2] = rows[2] * (1.0 + 1e-6j)
    monkeypatch.setattr(_inv, "_PAULI_ROWS", rows)
    with pytest.raises(qinv.HermitianViolationError,
                       match=r"^sample 0: I_\{12\}: 2-point correlators has imaginary"):
        _orbit._campaign(random_state(3, 93), applicable_invariants(3, "LU"),
                         "LU", 10, 1e-9, 0)
