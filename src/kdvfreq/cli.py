"""Command-line front end: batch pipelines with machine-readable output.

Output is deterministic: fixed field order, floats printed with 17
significant digits, so identical inputs give byte-identical files.
Exit codes: 0 success, 2 validation failure, 3 numerical failure.
Each command imports the package modules it calls, so a process loads only
the layers of the command it runs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .errors import NumericalError, ValidationError
from .potentials import potential_from_json

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_float(v: float) -> str:
    return format(v, ".17g") if math.isfinite(v) else "null"    # JSON has no nan, inf


def _dump_json(obj) -> str:
    """Recursive serializer with fixed ordering and 17-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_dump_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


@contextlib.contextmanager
def _output(out: str | None):
    """stdout, or the file `out` opened for writing. Commands open it only
    after their work is done, so a bad input never truncates the file."""
    if out is None or out == "-":
        yield sys.stdout
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out}: {exc}") from exc
    with fh:
        yield fh


def _write(out: str | None, text: str):
    with _output(out) as fh:
        fh.write(text + "\n")


def _csv(headers, rows) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines)


def _load_potential(path: str):
    try:
        with open(path) as fh:
            return potential_from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read potential file {path}: {exc}") from exc


def _spectral_potential(args):
    if args.N < 1:
        raise ValidationError(f"--N must be at least 1, got {args.N}")
    return _load_potential(args.potential)


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..")
        out = list(range(int(a), int(b) + 1))
    else:
        out = [int(v) for v in text.split(",") if v]
    if not out:
        raise ValidationError(f"empty index range {text!r}")
    return out


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):        # argparse reports it and exits 2
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


# Flags shared by several subcommands; each subcommand declares only the
# ones its handler reads.
_SHARED = {
    "potential": dict(required=True, help="potential JSON file"),
    "N": dict(type=int, default=8),
    "format": dict(choices=("json", "csv"), default="json"),
    "longdouble": dict(action="store_true", help="extended-precision spectral solves"),
    "c": dict(type=_finite, default=0.0),
}


def _dtype(args):
    return np.longdouble if args.longdouble else np.float64


def _cmd_spectrum(args):
    from .hill import periodic_spectrum
    q = _spectral_potential(args)
    spec = periodic_spectrum(q, args.N, dtype=_dtype(args))
    if args.format == "json":
        _write(args.out, spec.to_json())
    else:
        rows = [(n, float(spec.lambda_minus[n]), float(spec.lambda_plus[n]),
                 float(spec.mu[n]), float(spec.lambda_dot[n]),
                 float(spec.gamma[n]), float(spec.tau[n]))
                for n in range(1, args.N + 1)]
        _write(args.out, _csv(("n", "lambda_minus", "lambda_plus", "mu",
                               "lambda_dot", "gamma", "tau"), rows))
    return 0


def _cmd_actions(args):
    from . import invariants
    q = _spectral_potential(args)
    spec = invariants.spectrum_for(q.drop_mean(), args.N, dtype=_dtype(args))
    acts = invariants.action_vector(spec, N=args.N)
    rows = [(n, acts.I[n], acts.ratio[n], acts.err[n])
            for n in range(1, args.N + 1)]
    if args.format == "json":
        obj = {"N": args.N,
               "I": [r[1] for r in rows], "ratio": [r[2] for r in rows],
               "err": [r[3] for r in rows]}
        _write(args.out, _dump_json(obj))
    else:
        _write(args.out, _csv(("n", "I", "ratio_8npiI_gamma2", "err"), rows))
    return 0


def _cmd_freq(args):
    from . import invariants
    q = _spectral_potential(args)
    ns = _parse_range(args.n) if args.n else list(range(1, args.N + 1))
    if min(ns) < 1:
        raise ValidationError(f"gap indices start at 1, got {min(ns)}")
    N = max(ns)
    rep = invariants.frequency_report(q, N, dtype=_dtype(args))
    rows = [(n, rep.actions.I[n], rep.omega1[n], rep.omega1_star[n],
             rep.omega2[n], rep.omega2_star[n],
             max(rep.tail1[n], rep.tail2[n])) for n in ns]
    if args.format == "csv":
        _write(args.out, _csv(("n", "I", "omega1", "omega1_star", "omega2",
                               "omega2_star", "tail"), rows))
    else:
        obj = {"N": N, "K": rep.K, "mean": rep.mean, "H0": rep.H0,
               "rows": [list(r) for r in rows]}
        if args.dump_moments:
            mom = rep.moments
            obj["omega2_moments"] = [[float(v) for v in row] for row in mom.omega2]
            obj["omega4_moments"] = [[float(v) for v in row] for row in mom.omega4]
            obj["R"] = {f"{k},{m}": float(v) for (k, m), v in sorted(mom.R.items())}
        _write(args.out, _dump_json(obj))
    return 0


def _cmd_hamiltonians(args):
    from . import invariants
    u = _spectral_potential(args)
    spec = invariants.spectrum_for(u.drop_mean(), args.N, dtype=_dtype(args))
    h = invariants.hamiltonians(spec)
    obj = {"H0": h.H0, "H1": h.H1, "H2": h.H2,
           "H1_star": h.H1_star, "H1_star_subtraction": h.H1_star_subtraction,
           "H2_star": h.H2_star, "H2_star_subtraction": h.H2_star_subtraction,
           "route_gap_H1": h.route_gap_H1, "route_gap_H2": h.route_gap_H2,
           "flagged": h.flagged}
    _write(args.out, _dump_json(obj))
    return 0


def _cmd_bnf(args):
    from . import bnf
    I = {}
    if args.I:
        for i, v in enumerate(args.I.split(",")):
            if float(v) != 0.0:
                I[i + 1] = float(v)
    H, om = bnf.bnf_predict(I, args.c, args.which, nmax=args.N)
    obj = {"which": args.which, "c": args.c, "H": H,
           "omega": [float(v) for v in om[1:]]}
    _write(args.out, _dump_json(obj))
    return 0


def _cmd_resonance(args):
    from . import bnf
    A = _parse_range(args.A)
    offenders = bnf.resonance_scan(A, args.c, args.Kmax, args.window)
    obj = {"A": A, "c": args.c, "Kmax": args.Kmax, "window": args.window,
           "offenders": [{"k_A": list(o.k_A), "k_Z": [list(p) for p in o.k_Z]}
                         for o in offenders]}
    _write(args.out, _dump_json(obj))
    return 0


def _cmd_seqtest(args):
    from . import seqspace
    if args.samples < 1:
        raise ValidationError("--samples must be at least 1")
    rng = np.random.default_rng(args.seed)
    worst_g = 0.0
    for _ in range(args.samples):
        x = rng.standard_normal(64)
        for p in (1.0, 2.0, np.inf):
            nx = seqspace.weighted_norm(x, 0.0, p)
            if nx > 0:
                worst_g = max(worst_g, seqspace.weighted_norm(seqspace.op_G(x), 0.0, p) / nx)
    violations = 0
    worst_margin = np.inf
    for _ in range(args.samples):
        a = rng.standard_normal(32) * 0.3 / 32
        val, bound = seqspace.inf_product(a, "bound")
        margin = bound - abs(val - 1.0)
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            violations += 1
    sp = seqspace.sin_product(np.pi ** 2 / 4.0, 10_000)
    obj = {"samples": args.samples, "op_G_worst_ratio": worst_g,
           "inf_product_violations": violations,
           "inf_product_worst_margin": float(worst_margin),
           "sin_product_error": abs(sp - 2.0 / np.pi)}
    _write(args.out, _dump_json(obj))
    return 0


def _cmd_flow_exp(args):
    from . import flow
    ms = _parse_range(args.m)
    if args.which == "kdv":
        rows, du = flow.kdv_continuity_experiment(args.sigma, args.t, args.delta, ms)
        thresh = du / 2.0
    elif args.which == "kdv2-hs":
        rows, du, thresh = flow.kdv2_continuity_experiment(
            args.sigma, args.t, "hs", args.delta, ms)
    else:
        rows, du, thresh = flow.kdv2_continuity_experiment(
            args.sigma, args.t, "level-set", args.delta, ms)
    table = [(r.m, r.input_gap, r.output_gap, r.verdict) for r in rows]
    _write(args.out, _csv(("m", "input_gap", "output_gap", "verdict"), table))
    return 0


def _cmd_evolve(args):
    from . import pde
    q = _load_potential(args.potential)
    traj = pde.evolve(q, args.T, args.eq, dt=args.dt, M=args.Mgrid, stride=args.stride)
    with _output(args.out) as fh:
        for line in _trajectory_lines(traj.times, traj.states):
            fh.write(line + "\n")
    return 0 if not traj.aborted else 3


def _trajectory_lines(times, states):
    """Yield one JSON object {"t", "modes": [[re, im], ...]} per sample, the
    same bytes that _dump_json gives, without its per-value dispatch."""
    for t, row in zip(times.tolist(), np.ascontiguousarray(states).view(float)):
        row = row.tolist()      # one sample's floats at a time, not the whole run's
        modes = ", ".join(f"[{_json_float(re)}, {_json_float(im)}]"
                          for re, im in zip(row[::2], row[1::2]))
        yield f'{{"t": {_json_float(t)}, "modes": [{modes}]}}'


def _cmd_crosscheck(args):
    from . import invariants, pde
    q = _load_potential(args.potential)
    n = int(args.n)
    if n < 1:
        raise ValidationError(f"gap indices start at 1, got {n}")
    T = args.T if args.T is not None else (0.05 if args.eq == "kdv" else 0.002)
    traj = pde.evolve(q, T, args.eq)
    rep = invariants.frequency_report(q, n, dtype=_dtype(args))
    om_formula = rep.omega1[n] if args.eq == "kdv" else rep.omega2[n]
    om_pde, resid = pde.measure_mode_frequency(traj, n)
    rel = abs(om_pde - om_formula) / abs(om_formula)
    obj = {"eq": args.eq, "n": n, "omega_formula": float(om_formula),
           "omega_pde": float(om_pde), "fit_residual": float(resid),
           "rel_difference": float(rel)}
    _write(args.out, _dump_json(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kdvfreq",
                                 description="spectral frequencies of KdV / KdV2")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, func, help, *shared):
        # no prefix matching: `freq --n 1 --dump` must not quietly set --dump-moments
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in shared:
            p.add_argument("--" + flag, **_SHARED[flag])
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    spectral = ("potential", "N", "longdouble")
    command("spectrum", _cmd_spectrum, "periodic/Dirichlet/critical spectra",
            *spectral, "format")
    command("actions", _cmd_actions, "action variables", *spectral, "format")

    p = command("freq", _cmd_freq, "frequency tables (moment route)",
                *spectral, "format")
    p.add_argument("--n", default=None, help="index range like 1..8")
    p.add_argument("--dump-moments", action="store_true")

    command("hamiltonians", _cmd_hamiltonians, "direct and renormalized Hamiltonians",
            *spectral)

    p = command("bnf", _cmd_bnf, "normal-form prediction", "N", "c")
    p.add_argument("--I", default="", help="comma list I_1,I_2,...")
    p.add_argument("--which", choices=("kdv", "kdv2"), default="kdv")

    p = command("resonance", _cmd_resonance, "nondegeneracy certificate", "c")
    p.add_argument("--A", default="1,2")
    p.add_argument("--Kmax", type=int, default=6)
    p.add_argument("--window", type=int, default=40)

    p = command("seqtest", _cmd_seqtest, "sequence-space operator checks")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=12345)

    p = command("flow-exp", _cmd_flow_exp, "non-uniform-continuity experiment")
    p.add_argument("--which", choices=("kdv", "kdv2-hs", "kdv2-level"), default="kdv")
    p.add_argument("--sigma", type=_finite, default=0.125)
    p.add_argument("--t", type=_finite, default=1.0)
    p.add_argument("--delta", type=_finite, default=0.5)
    p.add_argument("--m", default="1..40")

    p = command("evolve", _cmd_evolve, "pseudo-spectral time integration", "potential")
    p.add_argument("--eq", choices=("airy", "kdv", "kdv2"), default="kdv")
    p.add_argument("--T", type=_finite, required=True)
    p.add_argument("--dt", type=_finite, default=None)
    p.add_argument("--Mgrid", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)

    p = command("crosscheck", _cmd_crosscheck, "moment-route vs PDE-route frequency",
                "potential", "longdouble")
    p.add_argument("--eq", choices=("kdv", "kdv2"), default="kdv")
    p.add_argument("--n", required=True)
    p.add_argument("--T", type=_finite, default=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:       # a ValidationError, or a bad value parsed late
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
