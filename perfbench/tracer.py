"""Per-layer tracing of kdvfreq from outside the package.

``install()`` wraps the public functions of each layer at every module
attribute that binds them (``hill_endpoint_data`` is bound in both
``_dop853`` and ``hill``, ``periodic_spectrum`` in ``hill``, ``invariants``
and the package itself, and so on). Each wrapped call records a span (name,
start, end, parent span, attributes) in memory; ``report()`` turns the spans
into the per-layer metrics. A layer's self time is its span's duration minus
the part of it that its child spans cover. A function that no longer exists
is skipped, and every metric that needs it is left out of the report.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from inputs import CLI_COMMANDS



class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, **attrs) -> dict:
        st = self.stack()
        with self._lock:
            span = {"id": len(self.spans), "parent": st[-1]["id"] if st else None,
                    "name": name, "attrs": attrs}
            self.spans.append(span)
        st.append(span)
        span["t0"] = time.perf_counter()
        return span

    def end(self, span: dict):
        span["t1"] = time.perf_counter()
        self.stack().pop()

    def export(self) -> dict:
        return {"installed": sorted(self.installed), "spans": self.spans}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _hooks(rec: Recorder):
    """(module, attribute, span name, pre, post) for every wrapped function.

    pre(span, args, kwargs) may replace the arguments; post(span, args,
    kwargs, result) records attributes of the result."""
    import numpy as np

    def pre_shoot(span, args, kwargs):
        qfun, lams = _arg(args, kwargs, 0, "qfun"), _arg(args, kwargs, 1, "lams")
        lams = np.atleast_1d(lams)
        span["attrs"].update(width=int(lams.size),
                             max_lam=float(np.max(np.abs(lams))) if lams.size else 0.0)
        attrs = span["attrs"]
        attrs["q_evals"] = 0

        def counted(x):
            attrs["q_evals"] += 1
            return qfun(x)
        if "qfun" in kwargs:
            return args, {**kwargs, "qfun": counted}
        return (counted,) + tuple(args[1:]), kwargs

    def post_spectrum(span, args, kwargs, spec):
        opened = int(np.count_nonzero(spec.open_gap[1:]))
        span["attrs"].update(open=opened, collapsed=int(spec.N) - opened)

    def post_psi(span, args, kwargs, psi):
        span["attrs"].update(iterations=int(psi.iterations),
                             residual=max(psi.residuals.values(), default=0.0))

    def pre_jacobian(span, args, kwargs):
        span["attrs"]["which"] = _arg(args, kwargs, 2, "which", "kdv")
        return args, kwargs

    def pre_evolve(span, args, kwargs):
        span["attrs"]["eq"] = _arg(args, kwargs, 2, "eq", "kdv")
        return args, kwargs

    def post_evolve(span, args, kwargs, traj):
        span["attrs"]["steps"] = int(round(float(traj.times[-1]) / traj.dt))

    def pre_pool(span, args, kwargs):
        fn = _arg(args, kwargs, 0, "fn")
        span["attrs"]["jobs"] = int(_arg(args, kwargs, 2, "jobs", 1))

        def in_pool(item):                 # pool threads start under this span
            st = rec.stack()
            push = not st or st[-1] is not span
            if push:
                st.append(span)
            try:
                return fn(item)
            finally:
                if push:
                    st.pop()
        return (in_pool,) + tuple(args[1:]), kwargs

    P = "kdvfreq."
    hooks = [
        (P + "_dop853", "hill_endpoint_data", "dop853", pre_shoot, None),
        (P + "hill", "periodic_spectrum", "hill.spectrum", None, post_spectrum),
        (P + "roots", "psi_solve", "roots.psi", None, post_psi),
        (P + "roots", "gap_F_values", "roots.gap_F", None, None),
        (P + "invariants", "spectrum_for", "invariants.spectrum_for", None, None),
        (P + "invariants", "psi_for", "invariants.psi_for", None, None),
        (P + "invariants", "_F_table", "invariants.F_table", None, None),
        (P + "invariants", "moments", "invariants.moments", None, None),
        (P + "invariants", "action_vector", "invariants.action_vector", None, None),
        (P + "invariants", "frequency_report", "invariants.report", None, None),
        (P + "invariants", "frequency_jacobian", "invariants.jacobian", pre_jacobian, None),
        (P + "pde", "evolve", "pde.evolve", pre_evolve, post_evolve),
        (P + "_util", "parallel_map", "util.parallel_map", pre_pool, None),
        (P + "bnf", "resonance_scan", "bnf.resonance_scan", None, None),
        (P + "bnf", "bnf_predict", "bnf.bnf_predict", None, None),
        (P + "flow", "kdv_continuity_experiment", "flow.experiment", None, None),
        (P + "flow", "kdv2_continuity_experiment", "flow.experiment", None, None),
    ]
    for fn in ("inf_product", "sin_product", "weighted_norm", "op_A", "op_G",
               "schur_invertible"):
        span = "seqspace.inf_product" if fn == "inf_product" else "seqspace.other"
        hooks.append((P + "seqspace", fn, span, None, None))
    return hooks


def _wrap(rec, name, fn, pre, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        if pre is not None:
            args, kwargs = pre(span, args, kwargs)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if post is not None:
            post(span, args, kwargs, out)
        return out
    return wrapper


def install() -> Recorder:
    """Wrap every layer function of the loaded kdvfreq package."""
    import importlib
    rec = Recorder()
    for modname, attr, name, pre, post in _hooks(rec):
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            continue
        wrapper = _wrap(rec, name, orig, pre, post)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "kdvfreq":
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapper)
        rec.installed.add(f"{modname}.{attr}")
    return rec


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

def _covered(t0, t1, kids):
    """Length of [t0, t1] covered by the union of the kids' intervals."""
    total, end = 0.0, t0
    for a, b in sorted((max(k["t0"], t0), min(k["t1"], t1)) for k in kids):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _needs():
    P = "kdvfreq."
    shoot = P + "_dop853.hill_endpoint_data"
    spec = P + "hill.periodic_spectrum"
    inv = P + "invariants."
    seq = P + "seqspace.inf_product"
    return {
        "dop853": [shoot], "hill": [shoot, spec],
        "roots.psi": [P + "roots.psi_solve"],
        "roots.gap_F": [shoot, P + "roots.gap_F_values"],
        "invariants.report_calls": [inv + "frequency_report"],
        "invariants.jacobian_calls": [inv + "frequency_jacobian"],
        "invariants.kdv2_jacobian_shoot_calls": [shoot, inv + "frequency_jacobian"],
        "invariants.moments_self_s": [inv + "moments"],
        "invariants.action_vector_self_s": [inv + "action_vector"],
        "invariants.spectrum": [inv + "spectrum_for", spec],
        "invariants.psi": [inv + "psi_for", P + "roots.psi_solve"],
        "invariants.F": [inv + "_F_table", P + "roots.gap_F_values"],
        "pde": [P + "pde.evolve"],
        "bnf.resonance_scan_s": [P + "bnf.resonance_scan"],
        "bnf.bnf_predict_calls": [P + "bnf.bnf_predict"],
        "seqspace.inf_product_calls": [seq],
        "seqspace.self_s": [seq],
        "flow": [P + "flow.kdv_continuity_experiment"],
        "util": [P + "_util.parallel_map"],
    }


def report(traces: list[dict]) -> dict:
    """Per-layer metrics from the span records of one or more processes."""
    c = defaultdict(float)
    mx = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        kids = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        by_id = {s["id"]: s for s in spans}

        def in_kdv2_jacobian(s):
            while s["parent"] is not None:
                s = by_id[s["parent"]]
                if s["name"] == "invariants.jacobian" and s["attrs"]["which"] == "kdv2":
                    return True
            return False

        for s in spans:
            name, a = s["name"], s["attrs"]
            dur = s["t1"] - s["t0"]
            own = dur - _covered(s["t0"], s["t1"], kids[s["id"]])
            sub = kids[s["id"]]
            c[name + ".n"] += 1
            c[name + ".self"] += own
            c[name + ".wall"] += dur
            if name == "dop853":
                c["shoot.columns"] += a["width"]
                c["shoot.q_evals"] += a["q_evals"]
                c["shoot.stage_columns"] += a["width"] * a["q_evals"]
                mx["shoot.max_width"] = max(mx["shoot.max_width"], a["width"])
                mx["shoot.max_lam"] = max(mx["shoot.max_lam"], a["max_lam"])
                c["shoot.kdv2_jacobian"] += in_kdv2_jacobian(s)
            elif name == "hill.spectrum":
                shots = [k for k in sub if k["name"] == "dop853"]
                c["spec.shoots"] += len(shots)
                c["spec.scan"] += shots[0]["attrs"]["width"] if shots else 0
                c["spec.open"] += a["open"]
                c["spec.collapsed"] += a["collapsed"]
            elif name == "roots.psi":
                c["psi.iterations"] += a["iterations"]
                mx["psi.residual"] = max(mx["psi.residual"], a["residual"])
            elif name == "roots.gap_F":
                c["gapF.columns"] += sum(k["attrs"]["width"] for k in sub if k["name"] == "dop853")
            elif name in ("invariants.spectrum_for", "invariants.psi_for", "invariants.F_table"):
                child = {"invariants.spectrum_for": "hill.spectrum",
                         "invariants.psi_for": "roots.psi",
                         "invariants.F_table": "roots.gap_F"}[name]
                made = sum(k["name"] == child for k in sub)
                c[name + (".miss" if made else ".hit")] += 1
                if name == "invariants.spectrum_for":
                    c["spec.extensions"] += max(made - 1, 0)
            elif name == "pde.evolve":
                c[f"pde.{a['eq']}.steps"] += a["steps"]
                c[f"pde.{a['eq']}.wall"] += dur
            elif name == "util.parallel_map":
                mx["util.jobs"] = max(mx["util.jobs"], a["jobs"])

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    n_spec = c["hill.spectrum.n"]
    metrics = {
        "dop853.calls": c["dop853.n"], "dop853.columns": c["shoot.columns"],
        "dop853.max_width": mx["shoot.max_width"], "dop853.max_lam": mx["shoot.max_lam"],
        "dop853.q_evals": c["shoot.q_evals"], "dop853.stage_columns": c["shoot.stage_columns"],
        "dop853.self_s": c["dop853.self"],
        "dop853.us_per_q_eval": per(c["dop853.self"], c["shoot.q_evals"], 1e6),
        "hill.spectrum_calls": n_spec, "hill.shoot_calls": per(c["spec.shoots"], n_spec),
        "hill.scan_columns": per(c["spec.scan"], n_spec),
        "hill.open_gaps": c["spec.open"], "hill.collapsed_gaps": c["spec.collapsed"],
        "hill.self_s": c["hill.spectrum.self"],
        "roots.psi_calls": c["roots.psi.n"], "roots.psi_iterations": c["psi.iterations"],
        "roots.psi_max_residual": mx["psi.residual"], "roots.psi_self_s": c["roots.psi.self"],
        "roots.gap_F_calls": c["roots.gap_F.n"], "roots.gap_F_columns": c["gapF.columns"],
        "roots.gap_F_self_s": c["roots.gap_F.self"],
        "invariants.report_calls": c["invariants.report.n"],
        "invariants.jacobian_calls": c["invariants.jacobian.n"],
        "invariants.kdv2_jacobian_shoot_calls": c["shoot.kdv2_jacobian"],
        "invariants.moments_self_s": c["invariants.moments.self"],
        "invariants.action_vector_self_s": c["invariants.action_vector.self"],
        "invariants.spectrum_hits": c["invariants.spectrum_for.hit"],
        "invariants.spectrum_misses": c["invariants.spectrum_for.miss"],
        "invariants.psi_hits": c["invariants.psi_for.hit"],
        "invariants.psi_misses": c["invariants.psi_for.miss"],
        "invariants.F_hits": c["invariants.F_table.hit"],
        "invariants.F_misses": c["invariants.F_table.miss"],
        "invariants.spectrum_extensions": c["spec.extensions"],
        "pde.kdv_steps": c["pde.kdv.steps"], "pde.kdv2_steps": c["pde.kdv2.steps"],
        "pde.kdv_us_per_step": per(c["pde.kdv.wall"], c["pde.kdv.steps"], 1e6),
        "pde.kdv2_us_per_step": per(c["pde.kdv2.wall"], c["pde.kdv2.steps"], 1e6),
        "pde.self_s": c["pde.evolve.self"],
        "bnf.resonance_scan_s": c["bnf.resonance_scan.wall"],
        "bnf.bnf_predict_calls": c["bnf.bnf_predict.n"],
        "seqspace.inf_product_calls": c["seqspace.inf_product.n"],
        "seqspace.self_s": c["seqspace.inf_product.self"] + c["seqspace.other.self"],
        "flow.experiment_s": c["flow.experiment.wall"],
        "util.parallel_map_calls": c["util.parallel_map.n"],
        "util.max_jobs": mx["util.jobs"], "util.self_s": c["util.parallel_map.self"],
    }
    installed = set().union(*(t["installed"] for t in traces)) if traces else set()
    for prefix, needed in _needs().items():
        if not all(n in installed for n in needed):
            for key in [k for k in metrics if k == prefix or k.startswith(prefix + ".")
                        or k.startswith(prefix + "_")]:
                del metrics[key]
    return metrics


def cli_trace(rundir: Path, startup_s: float) -> dict:
    """Per-layer metrics of a traced cli round: the launchers' spans plus
    the command-level figures."""
    traces, walls = [], defaultdict(list)
    outputs = [json.loads(line)["out"]
               for line in (rundir / "outputs.jsonl").read_text().splitlines()]
    for out in outputs:
        for name, path in out["files"].items():
            index = Path(path).stem.split("-")[1]
            spans = rundir / f"spans-{index}-{name}.json"
            if spans.exists():
                trace = json.loads(spans.read_text())
                traces.append(trace)
                top = [s for s in trace["spans"] if s["name"] == "cli.main"]
                walls[name] += [s["t1"] - s["t0"] for s in top]
    metrics = report(traces)
    metrics.update(cli_metrics(startup_s, walls, outputs))
    return metrics


def cli_metrics(startup_s: float, walls=None, outputs=()) -> dict:
    """Command-level figures; every command reads 0 on a workload without them."""
    walls = walls or {}
    out = {"cli.commands": float(sum(len(o["codes"]) for o in outputs)),
           "cli.startup_s": startup_s}
    for name in CLI_COMMANDS:
        out[f"cli.{name}_s"] = statistics.median(walls[name]) if walls.get(name) else 0.0
    out["cli.stdout_bytes"] = float(sum(Path(p).stat().st_size for o in outputs
                                        for p in o["files"].values()))
    return out
