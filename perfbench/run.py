"""Benchmark of kdvfreq: one workload per call, timed from outside the package.

    python3 perfbench/run.py --workload {deep-ld,family-f64,pde,cli} --seed N
                             --seconds T --trace {0,1}

Run from the root of a checkout of the repository (src/kdvfreq must be
there). Each call starts the workload in a fresh worker process, checks every
output against computations made apart from the program, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("deep-ld", "family-f64", "pde", "cli")
SETUP_PROBES = 4          # set-up-only workers besides the timed one
WORKER_TIMEOUT = 150.0    # seconds; the whole call must end within 180


def _worker(args, rundir, *extra, timeout=WORKER_TIMEOUT):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(rundir), *extra]
    # a session of its own, so a timeout also stops the commands it started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _check(workload, seed, rundir):
    """(failures, wrong values the checks let through) over every round."""
    import checks
    from inputs import make_inputs
    rounds = make_inputs(workload, seed)
    fails, first = [], None
    for line in (rundir / "outputs.jsonl").read_text().splitlines():
        item = json.loads(line)
        rnd, out = rounds[item["round"]], item["out"]
        if workload == "cli":
            texts = {name: Path(path).read_text() for name, path in out["files"].items()}
            out = (out["codes"], checks.parse_cli(texts))
        fails += checks.run_check(workload, rnd, out)
        if first is None:
            first = (rnd, out)
    missed = checks.self_check(workload, *first) if first and not fails else []
    return fails, missed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kdvfreq" / "__init__.py").is_file():
        print(f"no kdvfreq sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    rundir = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    rundir.mkdir()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _worker(args, rundir, "--setup-only", timeout=30)
                setups.append(json.loads(probe.decode().splitlines()[-1])["setup_s"])
        _worker(args, rundir)
        result = json.loads((rundir / "result.json").read_text())
        fails, missed = _check(args.workload, args.seed, rundir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for what in missed:
        print(f"SELF-CHECK: a check accepted a wrong value ({what})", file=sys.stderr)
    walls, cpus = result["walls"], result["cpus"]
    print(f"{args.workload} seed {args.seed}: {len(walls)} round(s), "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"round wall {', '.join(f'{w:.3f}' for w in walls)} s", file=sys.stderr)
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units.get(k, "1")} for k, v in result["trace"].items()}
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"solve_s": statistics.median(walls),
                                          "metrics": result["trace"]}, indent=1))
    else:
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not fails and not missed, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
