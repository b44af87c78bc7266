import json
import subprocess
import sys

import numpy as np
import pytest

from pumplimit import (
    KrausChannel,
    apply_channel,
    canonical_pump,
    degree_of_polarization,
    embed_pump,
    load_matrix,
    matrix_from_json,
    random_mixed_unitary_channel,
    save_channel,
    save_matrix,
    save_params,
    validate_doubly_stochastic,
)
from pumplimit.cli import main
from pumplimit.scheme import SchemeParams
from pumplimit.sweep import CSV_HEADER
from oracles import bell_phi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_values(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, raw = line.partition(" = ")
            values[key] = raw
    return values


def test_concurrence_of_bell_state(capsys, tmp_path):
    path = tmp_path / "bell.json"
    save_matrix(path, bell_phi())
    code, out, _ = run_cli(capsys, "concurrence", "--in", str(path))
    assert code == 0
    values = parsed_values(out)
    assert float(values["concurrence"]) == pytest.approx(1.0, abs=1e-12)
    assert float(values["s1"]) == pytest.approx(1.0, abs=1e-9)
    for key in ("s2", "s3", "s4"):
        assert float(values[key]) == pytest.approx(0.0, abs=1e-9)


def test_all_printed_numbers_reparse(capsys, tmp_path):
    path = tmp_path / "state.json"
    save_matrix(path, 0.7 * bell_phi() + 0.3 * np.eye(4) / 4.0)
    code, out, _ = run_cli(capsys, "concurrence", "--in", str(path))
    assert code == 0
    for raw in parsed_values(out).values():
        float(raw)  # every value must be a parseable decimal


def test_pump_round_trip(capsys):
    code, out, _ = run_cli(capsys, "pump", "--p", "0.7")
    assert code == 0
    j = matrix_from_json(json.loads(out))
    assert abs(degree_of_polarization(j) - 0.7) <= 1e-15


def test_pump_writes_file(capsys, tmp_path):
    path = tmp_path / "j.json"
    code, out, _ = run_cli(capsys, "pump", "--p", "0.25", "--out", str(path))
    assert code == 0
    assert out == ""
    assert abs(degree_of_polarization(load_matrix(path)) - 0.25) <= 1e-15


def test_scheme_and_oracle_agree(capsys, tmp_path):
    params = SchemeParams(t=0.5, theta1=0.3, theta2=1.0, alpha1=0.2,
                          alpha2=2.2, mu=0.8, gamma0=0.4, pump_p=0.6)
    ppath = tmp_path / "params.json"
    save_params(ppath, params)
    out_a = tmp_path / "rho.json"
    out_b = tmp_path / "rho_oracle.json"
    assert run_cli(capsys, "scheme", "--params", str(ppath), "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "scheme", "--params", str(ppath), "--oracle", "--out", str(out_b))[0] == 0
    assert np.max(np.abs(load_matrix(out_a) - load_matrix(out_b))) <= 1e-12


def test_saturate_prints_params_and_value(capsys):
    code, out, _ = run_cli(capsys, "saturate", "--pump-p", "0.6")
    assert code == 0
    first, second = out.splitlines()
    params = json.loads(first)
    assert params["t"] == 0.5
    assert params["mu"] == 1.0
    assert params["pump_p"] == 0.6
    assert second.startswith("concurrence = ")
    assert float(second.split(" = ")[1]) == pytest.approx(0.8, abs=1e-9)


def test_sweep_then_verify_ok(capsys, tmp_path):
    path = tmp_path / "results.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--n", "400", "--seed", "7", "--mode", "general",
        "--out", str(path),
    )
    assert code == 0
    assert "400 samples" in err
    assert path.read_text().splitlines()[0] == CSV_HEADER
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 0
    values = parsed_values(out)
    assert values["violations"] == "0"
    assert float(values["worst_slack"]) >= -1e-9


def test_verify_flags_violations(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    row = [0, 0.5, 0.3, 0, 0, 0, 0, 1, 0, 0.9, 0.75, 0.5, 1, 0, 0, 0]
    path.write_text(CSV_HEADER + "\n" + ",".join(str(x) for x in row) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 2
    assert parsed_values(out)["violations"] == "1"


@pytest.mark.parametrize(
    "row",
    [
        [0, 0.5, 0.3, 0, 0, 0, 0, 1, 0, "nan", 0.75, 0.5, 1, 0, 0, 0],
        # the stored bound_general (2.0) is not (1 + P)/2 = 0.7
        [0, 0.4, 0.3, 0, 0, 0, 0, 1, 0, 1.5, 2.0, 0.4, 1, 0, 0, 0],
    ],
)
def test_verify_fails_rows_that_break_the_bound(capsys, tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + ",".join(str(x) for x in row) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--in", str(path))
    assert code == 2
    values = parsed_values(out)
    assert values["violations"] == "1"
    assert values["worst_slack"] != "inf"


@pytest.mark.parametrize(
    "row, problem",
    [
        ("0,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0", "line 3: expected 16 fields, got 15"),
        ("0,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,x", "line 3: not a number: 'x'"),
        (
            "1,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0\n1.7,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0",
            "line 3: sample_id 1 after 1: ids must strictly increase",
        ),
        ("1.7,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0", "line 3: sample_id 1.7 is not a nonnegative integer"),
    ],
)
def test_verify_malformed_row_is_input_error(capsys, tmp_path, row, problem):
    path = tmp_path / "malformed.csv"
    good = "1,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,1,0,0,0"
    path.write_text(CSV_HEADER + "\n" + good + "\n" + row + "\n")
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}, {problem}\n"


def test_verify_rejects_bad_spectrum(capsys, tmp_path):
    path = tmp_path / "bad_spectrum.csv"
    path.write_text(CSV_HEADER + "\n0,0.5,0.3,0,0,0,0,1,0,0.1,0.75,0.5,0.2,0.9,0.3,0.1\n")
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: sample_id=0: values are not sorted non-ascending\n"


def test_verify_of_blank_body_warns_nothing(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(CSV_HEADER + "\n\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pumplimit", "verify", "--in", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "records = 0" in proc.stdout
    assert proc.stderr == ""


def test_channel_verify_valid_channel(capsys, tmp_path):
    ch = random_mixed_unitary_channel(3, seed=11)
    sigma = embed_pump(canonical_pump(0.5)).sigma
    rho = apply_channel(ch, sigma)
    cpath, spath, tpath = (tmp_path / n for n in ("ch.json", "sigma.json", "rho.json"))
    save_channel(cpath, ch)
    save_matrix(spath, sigma)
    save_matrix(tpath, rho)

    code, out, _ = run_cli(capsys, "channel-verify", "--channel", str(cpath), "--source", str(spath))
    assert code == 0
    values = parsed_values(out)
    assert values["trace_preserving"] == "true"
    assert values["unital"] == "true"

    code, out, _ = run_cli(
        capsys, "channel-verify", "--channel", str(cpath), "--source", str(spath),
        "--target", str(tpath),
    )
    assert code == 0
    values = parsed_values(out)
    assert values["majorized"] == "true"
    assert values["bound_satisfied"] == "true"
    assert float(values["bound_general"]) == pytest.approx(0.75, abs=1e-12)


def test_channel_verify_rejects_non_unital(capsys, tmp_path):
    k0 = np.kron(np.array([[1.0, 0.0], [0.0, np.sqrt(0.5)]]), np.eye(2))
    k1 = np.kron(np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]]), np.eye(2))
    cpath, spath = tmp_path / "ch.json", tmp_path / "sigma.json"
    save_channel(cpath, KrausChannel(operators=(k0, k1)))
    save_matrix(spath, embed_pump(canonical_pump(0.5)).sigma)
    code, out, _ = run_cli(capsys, "channel-verify", "--channel", str(cpath), "--source", str(spath))
    assert code == 2
    values = parsed_values(out)
    assert values["trace_preserving"] == "true"
    assert values["unital"] == "false"


def test_channel_verify_detects_majorization_violation(capsys, tmp_path):
    ch = KrausChannel(operators=(np.eye(4),))
    sigma = embed_pump(canonical_pump(0.5)).sigma
    cpath, spath, tpath = (tmp_path / n for n in ("ch.json", "sigma.json", "rho.json"))
    save_channel(cpath, ch)
    save_matrix(spath, sigma)
    save_matrix(tpath, bell_phi())  # top eigenvalue 1 > 0.75: not majorized
    code, out, _ = run_cli(
        capsys, "channel-verify", "--channel", str(cpath), "--source", str(spath),
        "--target", str(tpath),
    )
    assert code == 2
    assert parsed_values(out)["majorized"] == "false"


def test_channel_verify_flags_a_channel_outside_the_premise(capsys, tmp_path):
    # M_i = |Phi+><i| is trace-preserving but not unital: it sends every state to a Bell state
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    ops = tuple(np.outer(phi, np.eye(4)[i]) for i in range(4))
    ch = KrausChannel(operators=ops)
    assert validate_doubly_stochastic(ch) == (True, False)
    sigma = embed_pump(canonical_pump(0.2)).sigma
    out = apply_channel(ch, sigma)
    np.testing.assert_allclose(out, bell_phi(), rtol=0.0, atol=1e-15)
    cpath, spath, tpath = (tmp_path / n for n in ("ch.json", "sigma.json", "rho.json"))
    save_channel(cpath, ch)
    save_matrix(spath, sigma)
    save_matrix(tpath, out)
    code, out, _ = run_cli(
        capsys, "channel-verify", "--channel", str(cpath), "--source", str(spath),
        "--target", str(tpath),
    )
    assert code == 2
    values = parsed_values(out)
    assert (values["trace_preserving"], values["unital"]) == ("true", "false")
    assert values["majorized"] == "false"
    assert float(values["concurrence"]) == pytest.approx(1.0, abs=1e-12)
    assert float(values["bound_general"]) == pytest.approx(0.6, abs=1e-12)
    assert values["bound_satisfied"] == "false"


def test_input_errors_exit_one(capsys, tmp_path):
    assert run_cli(capsys, "concurrence", "--in", str(tmp_path / "missing.json"))[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "concurrence", "--in", str(bad))[0] == 1
    assert run_cli(capsys, "pump", "--p", "1.5")[0] == 1


@pytest.mark.parametrize(
    "command,name,content,message",
    [
        ("verify", "rows.csv", CSV_HEADER.encode() + b"\n0,0.5\xff\n", "{path}: not an ASCII text file (byte 0xff)"),
        ("concurrence", "state.json", b'{"dim": 4, "re": "\xc3\xa9"}', "{path}: not an ASCII text file (byte 0xc3)"),
    ],
    ids=["csv", "json"],
)
def test_input_that_is_not_ascii_exits_one(capsys, tmp_path, command, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.format(path=path))
    assert "Traceback" not in err


def test_channel_verify_names_the_malformed_file(capsys, tmp_path):
    cpath, spath = tmp_path / "ch.json", tmp_path / "sigma.json"
    save_channel(cpath, KrausChannel(operators=(np.eye(4),)))
    spath.write_text('{"dim": 4,')
    code, out, err = run_cli(capsys, "channel-verify", "--channel", str(cpath), "--source", str(spath))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {spath}: not valid JSON: ")
    assert str(cpath) not in err and "Traceback" not in err


def test_sweep_into_a_missing_directory_names_the_requested_path(capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--n", "5", "--seed", "1", "--mode", "general", "--out", str(out))
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert ".tmp" not in err


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "sweep", "--n", "10")[0] == 1  # missing required flags


def test_seed_beyond_philox_key_is_input_error(tmp_path):
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "pumplimit", "sweep", "--n", "2", "--seed", str(2**128),
         "--mode", "general", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_version_names_the_rng(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "philox4x64-10" in out


def test_cli_subprocess_is_deterministic(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pumplimit", "sweep", "--n", "50", "--seed", "21",
             "--mode", "two_d", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
