import json

import numpy as np
import pytest

from qinv import (
    QinvError,
    StateFileError,
    UnnormalizedError,
    UnnormalizedInputError,
    apply_local,
    new_state,
    random_lu,
)
from qinv.cli import dumps_state, load_state, main, write_state
from qinv.state import MAX_QUBITS

S2 = 1.0 / np.sqrt(2.0)
GHZ_AMPS = [S2, 0, 0, 0, 0, 0, 0, S2]
S3 = 1.0 / np.sqrt(3.0)
W_AMPS = [0, S3, S3, 0, S3, 0, 0, 0]


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    write_state(new_state(3, GHZ_AMPS), str(path))
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    write_state(new_state(3, W_AMPS), str(path))
    return str(path)


# ----------------------------------------------------------------- file I/O

def test_round_trip_is_byte_stable(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert main(["random", "4", "--seed", "3", "--out", str(path_a)]) == 0
    state = load_state(str(path_a))
    write_state(state, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


def test_random_same_seed_byte_identical(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(["random", "3", "--seed", "42", "--out", str(one)]) == 0
    assert main(["random", "3", "--seed", "42", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    data = json.loads(one.read_text())
    assert data["n_qubits"] == 3
    assert len(data["amplitudes"]) == 8
    norm_sq = sum(re * re + im * im for re, im in data["amplitudes"])
    assert norm_sq == pytest.approx(1.0, abs=1e-12)


def test_random_too_large(capsys):
    assert main(["random", "25", "--out", "ignored.json"]) == 2
    assert "TooLarge" in capsys.readouterr().err


def test_random_unwritable_path(tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    assert main(["random", "2", "--seed", "0", "--out", str(target)]) == 5


def test_load_state_invalid_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n_qubits": 2,\n  "amplitudes": [[1, 0],]}')
    code = main(["compute", "-s", str(path)])
    assert code == 2


def test_load_state_wrong_length_names_expected(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text('{"n_qubits": 2, "amplitudes": [[1,0],[0,0],[0,0]]}')
    assert main(["compute", "-s", str(path)]) == 2
    assert "expected 4 amplitude pairs" in capsys.readouterr().err


def test_load_state_bad_pair_is_positional(tmp_path, capsys):
    path = tmp_path / "pair.json"
    # A non-number, and an integer beyond float64 range.
    for bad in ('["x",0]', f'[0,1{"0" * 400}]'):
        path.write_text(f'{{"n_qubits": 1, "amplitudes": [[1,0],{bad}]}}')
        assert main(["compute", "-s", str(path)]) == 2
        assert "amplitudes[1]" in capsys.readouterr().err


def test_load_state_cap_is_max_qubits(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(f'{{"n_qubits": {MAX_QUBITS + 1}, "amplitudes": []}}')
    assert main(["compute", "-s", str(path)]) == 2
    assert f"maximum of {MAX_QUBITS}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_compute_non_finite_amplitude_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "nan.json"
    path.write_text(f'{{"n_qubits": 1, "amplitudes": [[{bad}, 0], [0, 0]]}}')
    assert main(["compute", "-s", str(path)]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_missing_file_exits_2(tmp_path):
    assert main(["compute", "-s", str(tmp_path / "nope.json")]) == 2


# ------------------------------------------------------------------ compute

def test_compute_unnormalized_requires_flag(tmp_path, capsys):
    path = tmp_path / "unnorm.json"
    # A squared norm beyond float64 range, either way, is unnormalized too.
    for amps in ("[[1,0],[1,0]]", "[[1e200,0],[0,0]]", "[[1e-200,0],[0,0]]"):
        path.write_text('{"n_qubits": 1, "amplitudes": %s}' % amps)
        assert main(["compute", "-s", str(path)]) == 3
        capsys.readouterr()
        assert main(["compute", "-s", str(path), "--normalize"]) == 0
        assert capsys.readouterr().err == ""


def test_compute_ghz_json_schema(ghz_file, capsys):
    assert main(["compute", "-s", ghz_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"n", "invariants", "tolerances"}
    assert data["n"] == 3
    inv = data["invariants"]
    assert inv["I_6"]["kind"] == "real"
    assert inv["I_6"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert inv["Z"]["kind"] == "complex"
    z_re, z_im = inv["Z"]["value"]
    assert z_re == pytest.approx(1.0, abs=1e-9)
    assert z_im == pytest.approx(0.0, abs=1e-9)


def test_compute_basis_state_text(tmp_path, capsys):
    path = tmp_path / "zero.json"
    write_state(new_state(3, [1, 0, 0, 0, 0, 0, 0, 0]), str(path))
    assert main(["compute", "-s", str(path)]) == 0
    out = capsys.readouterr().out
    assert "n_qubits: 3" in out
    for line in out.splitlines():
        if line.startswith("I_{1}") or line.startswith("I_{2}") or line.startswith("I_{3}"):
            assert float(line.split()[-1]) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------------ compare

def test_compare_state_with_itself(ghz_file, capsys):
    assert main(["compare", ghz_file, ghz_file]) == 0
    assert "indistinguishable" in capsys.readouterr().out


def test_compare_ghz_vs_lu_image(ghz_file, tmp_path, capsys):
    state = load_state(ghz_file)
    image, _ = apply_local(state, random_lu(3, 1234, global_phase=True))
    image_file = tmp_path / "ghz_lu.json"
    write_state(image, str(image_file))
    assert main(["compare", ghz_file, str(image_file)]) == 0
    assert "indistinguishable" in capsys.readouterr().out


def test_compare_ghz_vs_w_distinguished_by_i6(ghz_file, w_file, capsys):
    assert main(["compare", ghz_file, w_file]) == 1
    assert "distinguished by I_6" in capsys.readouterr().out


def test_compare_qubit_count_mismatch(ghz_file, tmp_path, capsys):
    bell_file = tmp_path / "bell.json"
    write_state(new_state(2, [S2, 0, 0, S2]), str(bell_file))
    assert main(["compare", ghz_file, str(bell_file)]) == 4
    assert "mismatch" in capsys.readouterr().err


def test_compare_parse_error(ghz_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["compare", ghz_file, str(bad)]) == 2


# ------------------------------------------------------------------- verify

def test_verify_ghz_lu_passes(ghz_file, capsys):
    assert main(["verify", "-s", ghz_file, "--samples", "20", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "I_6" in out and "pass" in out


def test_verify_sl_group(tmp_path, capsys):
    path = tmp_path / "r4.json"
    assert main(["random", "4", "--seed", "5", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "-s", str(path), "--group", "sl",
                 "--samples", "10", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "C" in out


@pytest.mark.parametrize("amps", [W_AMPS, [1, 0, 0, 0, 0, 0, 0, 0]], ids=["w", "zero"])
def test_verify_sl_group_on_slocc_null_state(tmp_path, capsys, amps):
    # Z = 0 on both states; the relative verdict must not turn rounding into inf.
    path = tmp_path / "null.json"
    write_state(new_state(3, amps), str(path))
    assert main(["verify", "-s", str(path), "--group", "sl", "--seed", "5"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("pass")


def test_verify_impossible_tolerance_fails(ghz_file, capsys):
    code = main(["verify", "-s", ghz_file, "--samples", "10",
                 "--seed", "1", "--tol", "1e-16"])
    assert code == 1
    assert "worst offender" in capsys.readouterr().err


def test_verify_json_format(ghz_file, capsys):
    assert main(["verify", "-s", ghz_file, "--samples", "5", "--seed", "2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in payload)
    assert {r["invariant"] for r in payload} >= {"I_1", "I_{1}", "Z"}


def test_verify_json_is_strict_on_zero_base(tmp_path, capsys):
    # |000> has first-kind invariants that are exactly 0 (I_6, I_{1}, ...);
    # their relative deviation must not print as the non-JSON token Infinity.
    path = tmp_path / "zero.json"
    write_state(new_state(3, [1, 0, 0, 0, 0, 0, 0, 0]), str(path))
    assert main(["verify", "-s", str(path), "--samples", "10", "--format", "json"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert all(r["pass"] for r in payload)


def test_state_file_errors_are_qinv_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(StateFileError) as info:
        load_state(str(bad))
    assert isinstance(info.value, QinvError)
    unnormalized = tmp_path / "unnormalized.json"
    unnormalized.write_text('{"n_qubits": 1, "amplitudes": [[1, 0], [1, 0]]}',
                            encoding="utf-8")
    with pytest.raises(UnnormalizedInputError) as info:
        load_state(str(unnormalized))
    assert isinstance(info.value, UnnormalizedError)


def test_verify_deterministic_per_seed(ghz_file, capsys):
    main(["verify", "-s", ghz_file, "--samples", "10", "--seed", "3",
          "--format", "json"])
    first = capsys.readouterr().out
    main(["verify", "-s", ghz_file, "--samples", "10", "--seed", "3",
          "--format", "json"])
    assert capsys.readouterr().out == first


# ------------------------------------------------------------- seed handling

def test_env_seed_is_default(tmp_path, monkeypatch):
    monkeypatch.setenv("QINV_SEED", "42")
    from_env = tmp_path / "env.json"
    explicit = tmp_path / "flag.json"
    assert main(["random", "2", "--out", str(from_env)]) == 0
    assert main(["random", "2", "--seed", "42", "--out", str(explicit)]) == 0
    assert from_env.read_bytes() == explicit.read_bytes()


def test_explicit_seed_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QINV_SEED", "42")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["random", "2", "--seed", "7", "--out", str(a)]) == 0
    monkeypatch.delenv("QINV_SEED")
    assert main(["random", "2", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_sample_count_below_one(ghz_file, capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-s", ghz_file, "--samples", count])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "random"])
def test_negative_seed_flag_exits_2(ghz_file, capsys, command):
    argv = ["verify", "-s", ghz_file] if command == "verify" else ["random", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_negative_env_seed_exits_2(ghz_file, monkeypatch, capsys):
    monkeypatch.setenv("QINV_SEED", "-5")
    assert main(["verify", "-s", ghz_file]) == 2
    assert "QINV_SEED" in capsys.readouterr().err


def test_dumps_state_uses_17_significant_digits():
    text = dumps_state(new_state(1, [1, 0]))
    assert "1.0000000000000000e+00" in text


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "0", "abc"])
@pytest.mark.parametrize("command", ["verify", "compare"])
def test_tol_must_be_finite_and_positive(ghz_file, w_file, capsys, command, tol):
    # A NaN tol compares false with every deviation: compare would call GHZ
    # and W indistinguishable, and verify would fail to write strict JSON.
    argv = (["verify", "-s", ghz_file, "--format", "json"] if command == "verify"
            else ["compare", ghz_file, w_file])
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--tol={tol}"])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err
