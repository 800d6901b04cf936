import json

import numpy as np
import pytest

from kdvfreq import invariants
from kdvfreq.cli import _dump_json, _trajectory_lines, main
from kdvfreq.potentials import potential_to_json, single_mode


@pytest.fixture()
def pot_file(tmp_path):
    p = tmp_path / "onemode.json"
    p.write_text(potential_to_json(single_mode(1, 0.05)))
    return str(p)


@pytest.fixture()
def zero_file(tmp_path):
    p = tmp_path / "zero.json"
    p.write_text('{"mean": 0.0, "modes": []}')
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_zero_potential(capsys, zero_file):
    code, out = run(capsys, ["spectrum", "--potential", zero_file, "--N", "4",
                             "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("n,lambda_minus")
    import math
    vals = [float(v) for v in rows[1].split(",")]
    assert vals[1] == pytest.approx(math.pi ** 2, rel=1e-9)


def test_freq_csv_columns(capsys, pot_file):
    code, out = run(capsys, ["freq", "--potential", pot_file, "--n", "1..3",
                             "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["n", "I", "omega1", "omega1_star", "omega2",
                      "omega2_star", "tail"]
    assert len(out.strip().splitlines()) == 4


def test_freq_json_deterministic(capsys, pot_file):
    code1, out1 = run(capsys, ["freq", "--potential", pot_file, "--n", "1..2"])
    code2, out2 = run(capsys, ["freq", "--potential", pot_file, "--n", "1..2"])
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["mean"] == 0


def test_dump_moments(capsys, pot_file):
    code, out = run(capsys, ["freq", "--potential", pot_file, "--n", "1..2",
                             "--dump-moments"])
    assert code == 0
    obj = json.loads(out)
    assert "omega2_moments" in obj and "R" in obj


def test_dump_moments_come_from_the_report_psi_family(capsys, tmp_path, monkeypatch):
    pot_file = tmp_path / "dump.json"        # a potential no other test caches
    pot_file.write_text(potential_to_json(single_mode(1, 0.07)))
    solved = []
    psi_solve = invariants.psi_solve

    def spy(spec, n, **kwargs):
        solved.append(n)
        return psi_solve(spec, n, **kwargs)

    monkeypatch.setattr(invariants, "psi_solve", spy)
    code, out = run(capsys, ["freq", "--potential", str(pot_file), "--n", "1..2",
                             "--dump-moments"])
    assert code == 0
    assert "omega2_moments" in json.loads(out)
    assert sorted(solved) == [1, 2]


def test_actions_command(capsys, pot_file):
    code, out = run(capsys, ["actions", "--potential", pot_file, "--N", "2",
                             "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("n,I,ratio")


def test_bnf_command(capsys):
    code, out = run(capsys, ["bnf", "--I", "0.01", "--which", "kdv", "--N", "2"])
    assert code == 0
    obj = json.loads(out)
    import math
    assert obj["omega"][0] == pytest.approx((2 * math.pi) ** 3 - 0.06, rel=1e-12)


def test_resonance_certificate(capsys):
    code, out = run(capsys, ["resonance", "--A", "1,2", "--Kmax", "4",
                             "--window", "12"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"A": [1, 2], "c": 0, "Kmax": 4, "window": 12, "offenders": []}


def test_seqtest_command(capsys):
    code, out = run(capsys, ["seqtest", "--samples", "50", "--seed", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["inf_product_violations"] == 0
    assert obj["op_G_worst_ratio"] <= 4.0


def test_flow_exp_csv(capsys):
    code, out = run(capsys, ["flow-exp", "--which", "kdv", "--sigma", "0.125",
                             "--t", "1.0", "--delta", "0.8", "--m", "3..9"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,input_gap,output_gap,verdict"
    assert len(lines) == 8


def test_evolve_jsonl(capsys, pot_file):
    code, out = run(capsys, ["evolve", "--potential", pot_file, "--eq", "airy",
                             "--T", "0.001", "--dt", "1e-4", "--Mgrid", "32",
                             "--stride", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    first = json.loads(lines[0])
    assert first["t"] == 0
    assert len(first["modes"]) == 32


def test_trajectory_lines_match_dump_json():
    times = np.array([0.0, 1e-5, 2.5e-300])
    states = np.array([[0.1 + 0j, 1 / 3 - 2e-20j, -0.0 + 0j, np.nan + 1j],
                       [np.inf - 1j, 1e300 + np.nan * 1j, 0.5 - 0.25j, -7e-310 + 3j],
                       [0j, 0j, 0j, 0j]])
    want = "\n".join(_dump_json({"t": float(t),
                                 "modes": [[float(v.real), float(v.imag)] for v in row]})
                     for t, row in zip(times, states))
    assert _trajectory_lines(times, states) == want
    assert "null" in want


def test_crosscheck_report(capsys, pot_file):
    code, out = run(capsys, ["crosscheck", "--potential", pot_file, "--eq", "kdv",
                             "--n", "1", "--T", "0.02"])
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"eq", "n", "omega_formula", "omega_pde", "fit_residual",
                        "rel_difference"}
    assert obj["rel_difference"] < 1e-4


def test_missing_potential_exit_2(capsys):
    code, _ = run(capsys, ["spectrum", "--potential", "/no/such/file", "--N", "2"])
    assert code == 2


def test_malformed_potential_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"modes": [{"n": 0, "re": 1.0}]}')
    code, _ = run(capsys, ["spectrum", "--potential", str(p), "--N", "2"])
    assert code == 2


READS_POTENTIAL = {"spectrum", "actions", "freq", "hamiltonians", "evolve", "crosscheck"}
BAD_POTENTIALS = {
    "@list-modes": '{"mean": 0.0, "modes": [[1, 0.05, 0.0]]}',
    "@null-mean": '{"mean": null, "modes": []}',
}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--N", "0"],
    ["freq", "--n", "3..1"],
    ["bnf", "--I", "a"],
    ["resonance", "--A", "x"],
    ["seqtest", "--samples", "0"],
    ["evolve", "--eq", "airy", "--T", "-1"],
    ["evolve", "--eq", "airy", "--T", "0.001", "--dt", "-0.0001"],
    ["evolve", "--eq", "airy", "--T", "0.001", "--stride", "0"],
    ["actions", "--N", "2", "--nodes", "0"],
    ["freq", "--n", "1..2", "--nodes", "0"],
    ["evolve", "--eq", "airy", "--T", "0.001", "--Mgrid", "0"],
    ["spectrum", "--N", "2", "--potential", "@list-modes"],
    ["spectrum", "--N", "2", "--potential", "@null-mean"],
    ["freq", "--n", "2,-1"],
    ["freq", "--n", "0..2"],
    ["crosscheck", "--n", "-1"],
    ["freq", "--n", "1..2", "--K", "0"],
    ["hamiltonians", "--N", "2", "--K", "-1"],
    ["actions", "--N", "0"],
    ["freq", "--n", "1..2", "--N", "0"],
    ["hamiltonians", "--N", "0"],
    ["resonance", "--A", "0,3", "--Kmax", "1", "--window", "4"],
    ["resonance", "--A=-1,2"],
])
def test_bad_value_exit_2(capsys, tmp_path, pot_file, argv):
    for i, arg in enumerate(argv):
        if arg in BAD_POTENTIALS:
            path = tmp_path / "bad.json"
            path.write_text(BAD_POTENTIALS[arg])
            argv = argv[:i] + [str(path)] + argv[i + 1:]
    if argv[0] in READS_POTENTIAL and "--potential" not in argv:
        argv = argv + ["--potential", pot_file]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" not in captured.err


@pytest.mark.parametrize("argv", [
    ["resonance", "--longdouble"],
    ["evolve", "--eq", "airy", "--T", "0.001", "--format", "csv"],
    ["bnf", "--jobs", "7"],
    ["seqtest", "--potential", "q.json"],
    ["actions", "--n", "3"],          # a prefix of --nodes
    ["spectrum", "--tol", "1e-10"],
    ["freq", "--n", "1..2", "--jobs", "0"],
    ["freq", "--n", "1..2", "--jobs", "-3"],
    ["freq", "--n", "1..2", "--M", "40"],
    ["hamiltonians", "--N", "2", "--M", "40"],
])
def test_ignored_flag_exit_2(capsys, pot_file, argv):
    if argv[0] in READS_POTENTIAL:
        argv = argv + ["--potential", pot_file]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_spectral_command_needs_potential(capsys):
    code = main(["spectrum", "--N", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--potential" in captured.err


def test_unknown_flag_exit_2(capsys):
    code = main(["spectrum", "--nope"])
    assert code == 2


def test_output_file(tmp_path, pot_file, capsys):
    out_path = tmp_path / "out.json"
    code, _ = run(capsys, ["actions", "--potential", pot_file, "--N", "2",
                           "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())["N"] == 2


def test_freq_longdouble(capsys, pot_file):
    code, out = run(capsys, ["freq", "--potential", pot_file, "--n", "1..2",
                             "--format", "csv", "--longdouble"])
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "omega2_star" in header
