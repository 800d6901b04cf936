"""One workload in a fresh process: set-up, timed rounds, outputs.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --dir D
                                [--setup-only]

Set-up (importing kdvfreq and making the seeded inputs) is timed from before
the first import of NumPy. The timed phase then runs whole rounds while the
next round is predicted to end within T seconds (always at least one); a
traced run does exactly one round, so its counts repeat. The outputs of every
round, the per-round wall and CPU times and, with --trace 1, the per-layer
metrics are written to D/outputs.jsonl and D/result.json for run.py to check and
report.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its waited children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _ld(a):
    return [str(v) for v in a]


# ---------------------------------------------------------------------------
# workloads: prepare(round inputs) during set-up, then run(prepared round) in
# the timed phase, returning (failed operations, result) out of `ops`, then
# output(prepared round, result) after it

class DeepLd:
    """frequency_report at N=24 in long double, one perturbed potential per round."""
    ops = 1

    def __init__(self, kf, inputs, rundir):
        import numpy as np
        self.np, self.kf, self.I = np, kf, inputs

    def prepare(self, rnd):
        pot = [(n, complex(re, im)) for n, re, im in rnd["potential"]]
        return self.kf.make_potential(pot)

    def run(self, q):
        return 0, self.kf.invariants.frequency_report(
            q, self.I.DEEP_N, dtype=self.np.longdouble, psi_tol=self.I.DEEP_PSI_TOL)

    def output(self, q, rep):
        inv = self.kf.invariants
        if hasattr(inv, "spectrum_for"):     # the spectrum the report used
            spec = inv.spectrum_for(q, self.I.DEEP_N, dtype=self.np.longdouble)
        else:
            spec = self.kf.periodic_spectrum(q, rep.actions.N, dtype=self.np.longdouble)
        return {"N": int(spec.N), "n_report": int(rep.N),
                "lambda_minus": _ld(spec.lambda_minus), "lambda_plus": _ld(spec.lambda_plus),
                "gamma": _ld(spec.gamma), "gamma_rel_err": [float(v) for v in spec.gamma_rel_err],
                "I": [float(v) for v in rep.actions.I],
                "omega1_star": [float(v) for v in rep.omega1_star]}


class FamilyF64:
    """frequency_jacobian on A={1..6} at N=8: kdv, then kdv2 on the same family."""
    ops = 2

    def __init__(self, kf, inputs, rundir):
        self.kf, self.I = kf, inputs

    def prepare(self, rnd):
        return lambda eps: self.kf.make_potential(self.I.family_coeffs(rnd, eps))

    def run(self, family):
        jac = {}
        for which in ("kdv", "kdv2"):
            jac[which] = self.kf.invariants.frequency_jacobian(
                self.I.FAMILY_A, h=self.I.FAMILY_H, which=which, family=family,
                base_eps=self.I.FAMILY_BASE, N=self.I.FAMILY_N).jac
        return 0, jac

    def output(self, family, jac):
        return {k: v.tolist() for k, v in jac.items()}


class Pde:
    """pde.evolve for KdV (M=256) and KdV2 (M=128) from seeded potentials."""
    ops = 2

    def __init__(self, kf, inputs, rundir):
        self.kf, self.I = kf, inputs

    def prepare(self, rnd):
        return {eq: self.kf.make_potential([(n, complex(re, im)) for n, re, im in rnd[eq]])
                for eq in ("kdv", "kdv2")}

    def run(self, qs):
        I = self.I
        return 0, {
            "kdv": self.kf.pde.evolve(qs["kdv"], I.KDV_STEPS * I.KDV_DT, "kdv",
                                      dt=I.KDV_DT, M=I.KDV_M),
            "kdv2": self.kf.pde.evolve(qs["kdv2"], I.KDV2_STEPS * I.KDV2_DT, "kdv2",
                                       dt=I.KDV2_DT, M=I.KDV2_M)}

    def output(self, qs, trajs):
        out = {}
        for eq, tr in trajs.items():
            out[eq] = {"aborted": bool(tr.aborted),
                       "steps": int(round(float(tr.times[-1]) / tr.dt)),
                       "first": [[v.real, v.imag] for v in tr.states[0].tolist()],
                       "last": [[v.real, v.imag] for v in tr.states[-1].tolist()]}
        return out


class Cli:
    """The eight commands, each in a fresh `python -m kdvfreq.cli` process."""

    def __init__(self, kf, inputs, rundir):
        self.I, self.dir = inputs, Path(rundir)
        self.ops = len(inputs.CLI_COMMANDS)
        self.trace = False
        self.index = 0

    def prepare(self, rnd):
        I = self.I
        self.index += 1
        pot = self.dir / f"potential-{self.index}.json"
        pot.write_text(I.potential_json(rnd["potential"]))
        lo, hi = I.CLI_FLOW_M
        argv = {
            "spectrum": ["spectrum", "--potential", str(pot), "--N", str(I.CLI_N)],
            "actions": ["actions", "--potential", str(pot), "--N", str(I.CLI_N)],
            "freq": ["freq", "--potential", str(pot), "--n", f"1..{I.CLI_N}"],
            "hamiltonians": ["hamiltonians", "--potential", str(pot), "--N", str(I.CLI_N)],
            "evolve": ["evolve", "--potential", str(pot), "--eq", "kdv",
                       "--T", repr(I.CLI_EVOLVE_T)],
            "resonance": ["resonance", "--A", "1,2"],
            "seqtest": ["seqtest", "--samples", str(I.CLI_SEQ_SAMPLES),
                        "--seed", str(rnd["seqtest_seed"])],
            "flow-exp": ["flow-exp", "--which", "kdv", "--m", f"{lo}..{hi}"],
        }
        return self.index, argv

    def run(self, prepared):
        index, argvs = prepared
        codes = {}
        for name in self.I.CLI_COMMANDS:
            if self.trace:
                spans = self.dir / f"spans-{index}-{name}.json"
                cmd = [sys.executable, str(HERE / "clilaunch.py"), str(spans)]
            else:
                cmd = [sys.executable, "-m", "kdvfreq.cli"]
            with open(self.dir / f"out-{index}-{name}.txt", "wb") as out, \
                    open(self.dir / f"err-{index}-{name}.txt", "wb") as err:
                codes[name] = subprocess.run(cmd + argvs[name], stdout=out, stderr=err,
                                             cwd=ROOT, env=child_env()).returncode
        return sum(code != 0 for code in codes.values()), codes

    def output(self, prepared, codes):
        index, _ = prepared
        return {"codes": codes,
                "files": {name: str(self.dir / f"out-{index}-{name}.txt") for name in codes}}


WORKLOADS = {"deep-ld": DeepLd, "family-f64": FamilyF64, "pde": Pde, "cli": Cli}


def startup_probe() -> float:
    """Wall time of a command that does no numerical work."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "kdvfreq.cli", "bnf", "--N", "1"],
                   stdout=subprocess.DEVNULL, cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - t


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import kdvfreq
    import inputs
    rounds = inputs.make_inputs(args.workload, args.seed)
    work = WORKLOADS[args.workload](kdvfreq, inputs, args.dir)
    prepared = [work.prepare(r) for r in rounds]
    setup_s = time.perf_counter() - t0
    if Path(kdvfreq.__file__).resolve().parent != SRC / "kdvfreq":
        print(f"kdvfreq imported from {kdvfreq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rec = None
    if args.trace:
        import tracer
        if args.workload == "cli":
            work.trace = True
        else:
            rec = tracer.install()
    walls, cpus = [], []
    attempted = failed = 0
    # outputs go to disk as each round ends, so they add nothing to peak RSS
    outputs = open(Path(args.dir) / "outputs.jsonl", "w")
    start = time.perf_counter()
    for index, item in enumerate(prepared):
        if walls and (args.trace or time.perf_counter() - start + walls[-1] > args.seconds):
            break
        c0, w0 = cpu_now(), time.perf_counter()
        try:
            n_fail, res = work.run(item)
        except Exception:             # the round's operations count as failed
            traceback.print_exc()
            n_fail, res = work.ops, None
        walls.append(time.perf_counter() - w0)
        cpus.append(cpu_now() - c0)
        attempted += work.ops
        failed += n_fail
        if rec is not None:           # before output() calls into the package again
            result["trace"] = tracer.report([rec.export()])
        if res is not None:
            outputs.write(json.dumps({"round": index, "out": work.output(item, res)}) + "\n")
            outputs.flush()
        del res
    outputs.close()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(walls=walls, cpus=cpus, attempted=attempted, failed=failed,
                  peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0)
    if args.trace:
        if args.workload == "cli":
            result["trace"] = tracer.cli_trace(Path(args.dir), startup_probe())
        else:
            result["trace"].update(tracer.cli_metrics(startup_probe()))
    with open(Path(args.dir) / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
