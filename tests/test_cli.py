import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kdvfreq
from kdvfreq import invariants, pde
from kdvfreq.cli import _dump_json, _trajectory_lines, main
from kdvfreq.potentials import cosine_sum, potential_from_json, potential_to_json, single_mode


def refuse(name):
    raise ValueError(f"{name} is not JSON")


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


def test_hamiltonians_solve_no_psi(capsys, pot_file, monkeypatch):
    from kdvfreq import roots
    solved = []
    for mod in (invariants, roots):
        def spy(spec, n, _solve=mod.psi_solve, **kwargs):
            solved.append(n)
            return _solve(spec, n, **kwargs)
        monkeypatch.setattr(mod, "psi_solve", spy)
    code, out = run(capsys, ["hamiltonians", "--potential", pot_file, "--N", "8"])
    assert code == 0
    assert json.loads(out)["H1_star"] != 0
    assert solved == []


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


@pytest.mark.parametrize("which, sigma, t, delta, lo, hi", [
    ("kdv", 0.125, 1.0, 0.8, 3, 9),
    ("kdv2-hs", 1.0, 1.0, 0.1, 5, 25),
    ("kdv2-level", 0.5, 0.005, 0.95, 1, 6),     # NaN rows at m = 1..3
])
def test_flow_exp_rows_match_library(capsys, which, sigma, t, delta, lo, hi):
    from kdvfreq import flow
    ms = range(lo, hi + 1)
    if which == "kdv":
        rows = flow.kdv_continuity_experiment(sigma, t, delta, ms)[0]
    else:
        variant = {"kdv2-hs": "hs", "kdv2-level": "level-set"}[which]
        rows = flow.kdv2_continuity_experiment(sigma, t, variant, delta, ms)[0]
    code, out = run(capsys, ["flow-exp", "--which", which, "--sigma", repr(sigma),
                             "--t", repr(t), "--delta", repr(delta), "--m", f"{lo}..{hi}"])
    assert code == 0
    want = ["m,input_gap,output_gap,verdict"] + [
        f"{r.m},{r.input_gap:.17g},{r.output_gap:.17g},{r.verdict}" for r in rows]
    assert out.splitlines() == want


@pytest.mark.parametrize("which, variant, sigma", [
    ("kdv2-hs", "hs", 1.0), ("kdv2-level", "level-set", 0.5)])
def test_flow_exp_default_sigma_per_variant(capsys, which, variant, sigma):
    # a single default of 0.125 lay outside both kdv2 ranges, so these exited 2
    from kdvfreq import flow
    rows = flow.kdv2_continuity_experiment(sigma, 1.0, variant, 0.5, range(1, 41))[0]
    code, out = run(capsys, ["flow-exp", "--which", which])
    assert code == 0
    want = ["m,input_gap,output_gap,verdict"] + [
        f"{r.m},{r.input_gap:.17g},{r.output_gap:.17g},{r.verdict}" for r in rows]
    assert out.splitlines() == want


def test_negative_exponent_float_parses_spaced(capsys):
    code_eq, out_eq = run(capsys, ["bnf", "--which", "kdv2", "--I", "0.01", "--c=-1e-2"])
    code_sp, out_sp = run(capsys, ["bnf", "--which", "kdv2", "--I", "0.01", "--c", "-1e-2"])
    assert code_eq == code_sp == 0
    assert out_sp == out_eq
    assert json.loads(out_sp)["c"] == -1e-2


def test_negative_exponent_step_rejected_by_evolve(capsys, pot_file):
    code = main(["evolve", "--potential", pot_file, "--eq", "airy", "--T", "0.001",
                 "--dt", "-1e-4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be" in captured.err
    assert "expected one argument" not in captured.err


def _sample_lines(traj):
    """The reference bytes of an evolve run: one _dump_json line per sample."""
    return "".join(_dump_json({"t": float(t),
                               "modes": [[float(v.real), float(v.imag)] for v in row]}) + "\n"
                   for t, row in zip(traj.times, traj.states))


def _check_evolve_output(capsys, tmp_path, argv, traj, code_want):
    """stdout of `argv` is the _dump_json line of each sample of `traj`, each
    line is strict JSON, and --out FILE writes the same bytes."""
    code, out = run(capsys, argv)
    assert code == code_want
    assert traj.aborted == (code_want == 3)
    assert out == _sample_lines(traj)
    for line in out.splitlines():
        json.loads(line, parse_constant=refuse)
    out_path = tmp_path / "traj.jsonl"
    code, stdout = run(capsys, argv + ["--out", str(out_path)])
    assert (code, stdout) == (code_want, "")
    assert out_path.read_bytes() == out.encode()
    return out


def test_evolve_jsonl(capsys, tmp_path, pot_file):
    argv = ["evolve", "--potential", pot_file, "--eq", "airy", "--T", "0.001",
            "--dt", "1e-4", "--Mgrid", "32", "--stride", "5"]
    traj = pde.evolve(single_mode(1, 0.05), 1e-3, "airy", dt=1e-4, M=32, stride=5)
    out = _check_evolve_output(capsys, tmp_path, argv, traj, 0)
    first = json.loads(out.splitlines()[0])
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
    assert "\n".join(_trajectory_lines(times, states)) == want
    assert "null" in want
    for line in want.splitlines():
        json.loads(line, parse_constant=refuse)


ONE_MODE = '{"mean": 0.0, "modes": [{"n": 1, "re": 0.05, "im": 0.0}]}'
HUGE = '{"mean": 0.0, "modes": [{"n": 1, "re": 1e200, "im": 0.0}]}'


@pytest.mark.parametrize("pot, flags, kw, code_want", [
    (ONE_MODE, ["--Mgrid", "32", "--T", "0.001", "--dt", "1e-4"],
     dict(T=1e-3, M=32, dt=1e-4), 0),
    (HUGE, ["--T", "0.001"], dict(T=1e-3), 3),
], ids=["kdv", "aborted"])
def test_evolve_stdout_and_out_file_match_samples(capsys, tmp_path, pot, flags, kw, code_want):
    path = tmp_path / "q.json"
    path.write_text(pot)
    traj = pde.evolve(potential_from_json(pot), **kw)
    _check_evolve_output(capsys, tmp_path, ["evolve", "--potential", str(path)] + flags,
                         traj, code_want)


class _Writes:
    """A stdout that records the text of every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_evolve_streams_one_line_at_a_time(tmp_path, monkeypatch):
    # the perfbench cli evolve: KdV at the default M = 256 to T = 0.01, 501 samples
    q = cosine_sum([(1, 0.1), (2, 0.06), (3, 0.04)])
    traj = pde.evolve(q, 0.01, "kdv")
    assert traj.states.shape == (501, 256) and not traj.aborted

    tracemalloc.start()
    try:
        for _ in _trajectory_lines(traj.times, traj.states):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20       # the whole output as one string is about 4.7 MB

    path = tmp_path / "q.json"
    path.write_text(ONE_MODE)
    stdout = _Writes()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["evolve", "--potential", str(path), "--Mgrid", "32", "--T", "0.001",
                 "--dt", "1e-4"]) == 0
    longest = max(map(len, "".join(stdout.writes).splitlines()))
    assert all(w.count("\n") <= 1 and len(w) <= longest + 1 for w in stdout.writes)


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
    # read as mode 1 before modes had to be integers
    "@half-mode": '{"mean": 0.0, "modes": [{"n": 1.5, "re": 0.05, "im": 0.0}]}',
    "@bool-mode": '{"mean": 0.0, "modes": [{"n": true, "re": 0.05, "im": 0.0}]}',
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
    ["evolve", "--eq", "airy", "--T", "0.001", "--Mgrid", "0"],
    ["spectrum", "--N", "2", "--potential", "@list-modes"],
    ["spectrum", "--N", "2", "--potential", "@null-mean"],
    ["freq", "--n", "2,-1"],
    ["freq", "--n", "0..2"],
    ["crosscheck", "--n", "-1"],
    ["actions", "--N", "0"],
    ["freq", "--n", "1..2", "--N", "0"],
    ["hamiltonians", "--N", "0"],
    ["resonance", "--A", "0,3", "--Kmax", "1", "--window", "4"],
    ["resonance", "--A=-1,2"],
    ["bnf", "--c", "inf"],
    ["bnf", "--I", "inf"],
    ["resonance", "--c", "inf", "--A", "1,2", "--Kmax", "1", "--window", "4"],
    ["evolve", "--eq", "airy", "--T", "inf"],
    ["flow-exp", "--t", "inf"],
    ["crosscheck", "--n", "1", "--T", "0"],
    ["crosscheck", "--n", "1", "--T", "-1"],
    ["flow-exp", "--sigma", "0.3"],
    ["flow-exp", "--which", "kdv2-hs", "--sigma", "0.5"],
    ["freq", "--n", "1..x"],
    ["resonance", "--A", "1,1", "--Kmax", "1", "--window", "3"],
    ["spectrum", "--N", "2", "--potential", "@half-mode"],
    ["spectrum", "--N", "2", "--potential", "@bool-mode"],
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
    ["spectrum", "--N", "2"],
    ["actions", "--N", "2"],
    ["freq", "--n", "1"],
    ["hamiltonians"],
])
def test_overflowing_potential_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text('{"mean": 0.0, "modes": [{"n": 1, "re": 1e200, "im": 0.0}]}')
    code = main(argv + ["--potential", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["resonance", "--longdouble"],
    ["evolve", "--eq", "airy", "--T", "0.001", "--format", "csv"],
    ["bnf", "--jobs", "7"],
    ["seqtest", "--potential", "q.json"],
    ["freq", "--n", "1", "--dump"],   # a prefix of --dump-moments
    ["spectrum", "--tol", "1e-10"],
    ["freq", "--n", "1..2", "--jobs", "0"],
    ["freq", "--n", "1..2", "--jobs", "-3"],
    ["freq", "--n", "1..2", "--M", "40"],
    ["hamiltonians", "--N", "2", "--M", "40"],
    ["hamiltonians", "--N", "2", "--K", "-1"],
    ["hamiltonians", "--K", "6"],
    ["actions", "--N", "2", "--nodes", "0"],
    ["freq", "--n", "1..2", "--nodes", "0"],
    ["freq", "--n", "1..2", "--K", "0"],
    ["freq", "--n", "1..2", "--K", "1"],
    ["crosscheck", "--n", "1", "--K", "2"],
    ["freq", "--n", "1..2", "--nodes", "1"],
    ["hamiltonians", "--nodes", "1"],
    ["crosscheck", "--n", "1", "--nodes", "8"],
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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--N", "2"],
    ["freq", "--n", "1"],
    ["evolve", "--eq", "airy", "--T", "0.001", "--Mgrid", "32"],
])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_out_exit_2(capsys, tmp_path, pot_file, argv, where):
    out_path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code = main(argv + ["--potential", pot_file, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cannot write output file" in captured.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--N", "0"],
    ["evolve", "--eq", "airy", "--T", "-1"],
])
def test_out_file_untouched_on_bad_input(capsys, tmp_path, pot_file, argv):
    out_path = tmp_path / "keep.txt"
    out_path.write_text("earlier output\n")
    code = main(argv + ["--potential", pot_file, "--out", str(out_path)])
    capsys.readouterr()
    assert code == 2
    assert out_path.read_text() == "earlier output\n"


def test_freq_longdouble(capsys, pot_file):
    code, out = run(capsys, ["freq", "--potential", pot_file, "--n", "1..2",
                             "--format", "csv", "--longdouble"])
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "omega2_star" in header


# ---------------------------------------------------------------------------
# import footprint: each fresh process loads only the modules its command calls

_PROBE = """
import contextlib, io, sys
{code}
print(" ".join(sorted(m[len("kdvfreq."):] for m in sys.modules
                      if m.startswith("kdvfreq."))), file=sys.stderr)
"""
_RUN = """
from kdvfreq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
"""
_CLI = {"cli", "errors", "potentials"}
_HILL = {"hill", "_dop853"}
_PIPELINE = _HILL | {"roots", "invariants"}


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The kdvfreq submodules that `code` leaves loaded in a fresh interpreter."""
    src = str(Path(kdvfreq.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(code=code), *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_import_package_loads_no_submodule():
    assert loaded_modules("import kdvfreq") == set()


def test_import_cli_loads_errors_and_potentials_only():
    assert loaded_modules("import kdvfreq.cli") == _CLI


# flags of each perfbench `cli` command, and the modules it adds to those of
# `kdvfreq.cli`
_COMMAND_LAYERS = {
    "spectrum": (["--N", "4", "--potential", "{pot}"], _HILL),
    "actions": (["--N", "4", "--potential", "{pot}"], _PIPELINE),
    "freq": (["--n", "1..4", "--potential", "{pot}"], _PIPELINE),
    "hamiltonians": (["--N", "4", "--potential", "{pot}"], _PIPELINE),
    "evolve": (["--eq", "kdv", "--T", "0.001", "--potential", "{pot}"], _HILL | {"pde"}),
    "resonance": (["--A", "1,2", "--Kmax", "2", "--window", "4"], {"bnf"}),
    "seqtest": (["--samples", "5", "--seed", "3"], {"seqspace"}),
    "flow-exp": (["--which", "kdv", "--m", "3..4"], {"flow"}),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_LAYERS))
def test_command_loads_only_its_layers(pot_file, command):
    flags, layers = _COMMAND_LAYERS[command]
    argv = [flag.format(pot=pot_file) for flag in flags]
    assert loaded_modules(_RUN, command, *argv) == _CLI | layers
