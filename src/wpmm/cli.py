"""Command-line entry point: experiment commands, config files, CSV/JSON
emission, and the certificate runner.

Exit codes: 0 success, 1 certificate failure, 2 configuration error,
3 solver error, 4 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .harness import (
    CmeConfig,
    build_cme_problem,
    build_maxcut_problem,
    gen_cme_instance,
    gen_er_graph,
    laplacian,
    load_gset,
    metrics_cme,
    metrics_maxcut,
)
from .model import (LinearMap, PrimalPoint, ProblemSpec, SmoothTerm,
                    _check_point)
from .oracles import (
    BoxIndicator,
    DiagOnesIndicator,
    L1BallIndicator,
    NuclearBallIndicator,
    NuclearNormReg,
    OracleError,
    PolytopeIndicator,
    PolytopeState,
    ProductComponent,
    SimplexIndicator,
    SpectrahedronIndicator,
    ZeroReg,
    hypercube_lmo,
    scaled_simplex_lmo,
)
from .solver import SolverConfig, SolverError, default_steps, run
from .certify import run_suites

EXIT_OK = 0
EXIT_CERT = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

CSV_HEADER = "trial,t,objective,feasibility,al_value,eta_used,elapsed_seconds,variant"

# Practical penalty values by variant and block count for the full-size
# covariance preset; the desk default is rho = 1.
CME_RHO_TABLE = {
    "last": {5: 25.0, 10: 5.0, 20: 1.0},
    "mean": {5: 5.0, 10: 5.0, 20: 1.0},
}

PRESETS = {
    # rho None = look it up per variant in CME_RHO_TABLE
    "paper-cme": {
        "d": 400, "r": 5, "iters": 2000, "trials": 20, "mu": 0.2, "rho": None,
        "step_policy": "line_search", "svd_tol": 0.01, "variant": "both",
    },
    "paper-maxcut": {
        "iters": 2000, "mu": 0.2, "eta": 0.2, "rho": 1.0,
        "step_policy": "fixed", "svd_tol": 0.01, "variant": "both",
    },
}

CME_DEFAULTS = {
    "d": 40, "r": 3, "noise_sigma": 0.6, "entry_threshold": 0.9,
    "iters": 200, "trials": 1, "mu": 0.2, "rho": 1.0, "eta": None,
    "step_policy": "line_search", "variant": "both", "rank": None,
    "svd_tol": 1e-9, "seed": 0, "jobs": 1, "outdir": "out",
    "preset": None,
}

MAXCUT_DEFAULTS = {
    "graph": None, "random_n": 30, "random_p": 0.2, "iters": 200,
    "trials": 1, "mu": 0.2, "rho": 1.0, "eta": 0.2,
    "step_policy": "fixed", "variant": "both", "rank": 5,
    "svd_tol": 1e-9, "seed": 0, "jobs": 1, "outdir": "out",
    "preset": None,
}

GENERIC_DEFAULTS = {
    "iters": 200, "rho": 1.0, "mu": None, "eta": None,
    "step_policy": None, "variant": "both", "outdir": "out",
}


class ConfigError(ValueError):
    pass


class GraphFileError(RuntimeError):
    pass


def _fmt(v):
    return f"{float(v):.17g}"


def _read_json(path, kind):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc


def _checked_layer(source, doc, keys, defaults):
    """Return ``doc`` after checking that every key is in ``keys`` and every
    value is one its flag accepts (an int also for a float flag, and null
    where ``defaults`` holds None)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: expected a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"{source}: unknown keys {unknown}")
    for k, v in doc.items():
        type_, choices, _ = PARAMS[k]
        want = (float, int) if type_ is float else (type_ or str,)
        bad = type(v) not in want or (choices and v not in choices)
        if bad and not (v is None and defaults[k] is None):
            allowed = choices or want[0].__name__
            raise ConfigError(f"{source}: {k!r} must be {allowed}, got {json.dumps(v)}")
    return doc


def _merge_params(defaults, preset_name, config_path, cli_values,
                  solver_section=None):
    """defaults < preset < a problem file's solver section < config file <
    explicit flags. Files set every parameter but the preset, a solver
    section not the output directory either; unknown or wrongly typed file
    values are rejected."""
    params = dict(defaults)
    if preset_name is not None:  # one of the command's own, by --preset
        params.update(PRESETS[preset_name])
    file_keys = set(defaults) - {"preset"}
    if solver_section is not None:
        params.update(_checked_layer("solver section", solver_section,
                                     file_keys - {"outdir"}, defaults))
    if config_path is not None:
        doc = _read_json(config_path, "config")
        params.update(_checked_layer(config_path, doc, file_keys, defaults))
    for k, v in cli_values.items():
        if v is not None:
            params[k] = v
    return params


def _write_csv(path, rows):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for trial, t, obj, feas, al, eta, elapsed, variant in rows:
            fh.write(
                f"{trial},{t},{_fmt(obj)},{_fmt(feas)},{_fmt(al)},"
                f"{_fmt(eta)},{_fmt(elapsed)},{variant}\n"
            )


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


PLOT_STUB = """\
# Plotting stub (generated): reads the trace CSV next to this file and plots
# the logged quantities per variant. Requires matplotlib; the solver package
# itself has no plotting dependency.
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

curves = defaultdict(lambda: defaultdict(list))
with open("trace.csv") as fh:
    for row in csv.DictReader(fh):
        key = (row["variant"], int(row["trial"]))
        curves[key]["t"].append(int(row["t"]))
        curves[key]["objective"].append(float(row["objective"]))
        curves[key]["feasibility"].append(float(row["feasibility"]))

fig, axes = plt.subplots(1, 2, figsize=(10, 4))
for (variant, trial), data in sorted(curves.items()):
    axes[0].plot(data["t"], data["objective"], label=f"{variant}/{trial}")
    axes[1].semilogy(data["t"], data["feasibility"], label=f"{variant}/{trial}")
axes[0].set_xlabel("iteration"); axes[0].set_ylabel("objective")
axes[1].set_xlabel("iteration"); axes[1].set_ylabel("feasibility")
axes[0].legend(fontsize=6)
fig.tight_layout()
fig.savefig("trace.png", dpi=150)
"""


def _emit_outputs(outdir, rows, summary):
    os.makedirs(outdir, exist_ok=True)
    _write_csv(os.path.join(outdir, "trace.csv"), rows)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    with open(os.path.join(outdir, "plot_stub.py"), "w", encoding="ascii") as fh:
        fh.write(PLOT_STUB)


def _variants(params):
    """The output variants a run reports, Mean first."""
    return ["mean", "last"] if params["variant"] == "both" else [params["variant"]]


def _logged(rec, variant):
    """(objective, feasibility, al_value) a record logs for ``variant``."""
    if variant == "mean":
        return rec.mean_objective, rec.mean_feasibility, rec.mean_al_value
    return rec.objective, rec.feasibility, rec.al_value


def _rows_from_log(log, trial, variants):
    return [(trial, rec.t, *_logged(rec, variant), rec.eta_used, rec.elapsed,
             variant)
            for variant in variants for rec in log.records]


def _mean_curves(rows):
    """Across-trial arithmetic-mean curves per variant, from the row tuples."""
    groups = {}
    for trial, t, obj, feas, al, _eta, _el, variant in rows:
        groups.setdefault(variant, {}).setdefault(t, []).append((obj, feas, al))
    curves = {}
    for variant, by_t in groups.items():
        ts = sorted(by_t)
        curves[variant] = {
            "t": ts,
            "objective": [float(np.mean([v[0] for v in by_t[t]])) for t in ts],
            "feasibility": [float(np.mean([v[1] for v in by_t[t]])) for t in ts],
            "al_value": [float(np.mean([v[2] for v in by_t[t]])) for t in ts],
        }
    return curves


def _trial_finals(log, variants, measure=None, **extra):
    """(variant, final metrics) pairs: ``measure`` applied to each variant's
    output point (by default the final record's objective and feasibility),
    plus ``extra`` and the run's wall time."""
    rec = log.records[-1]
    finals = []
    for variant in variants:
        point = log.mean_point if variant == "mean" else log.last_point
        obj, feas, _ = _logged(rec, variant)
        metrics = (asdict(measure(point)) if measure
                   else {"objective": obj, "feasibility": feas})
        finals.append((variant, {**extra, **metrics, "wall_time": rec.elapsed}))
    return finals


def _solve(problem, params, rho, variants):
    """Solve ``problem = (spec, q0, w0)`` with an experiment's solver
    settings, tracing the mean iterate when the Mean variant is wanted."""
    config = SolverConfig(
        rho=rho, mu=params["mu"], iters=params["iters"],
        step_policy=params["step_policy"], eta=params["eta"],
        variant="both" if len(variants) > 1 else variants[0],
        trace_mean="mean" in variants,
    )
    return run(*problem, config)


def _run_trials(command, fn, tasks, params, **extra):
    """Run one trial per task (in a process pool when jobs > 1), merge the
    ``(rows, finals)`` results and write the outputs: all trace rows in trial
    order, and per variant the per-trial final metrics with their
    across-trial means (a per-trial penalty rho is echoed, not averaged).
    ``extra`` entries are added to the summary."""
    if params["iters"] < 1:  # the outputs read the final record
        raise ConfigError("iters must be at least 1")
    if not tasks:  # the outputs average over the trials
        raise ConfigError("trials must be at least 1")
    jobs = params.get("jobs", 1)
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    if params.get("seed", 0) < 0:  # trial t draws from seed + t
        raise ConfigError(f"seed must be non-negative, got {params['seed']}")
    if jobs == 1 or len(tasks) <= 1:
        results = [fn(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(fn, tasks))
    rows, finals = [], {}
    for trial_rows, trial_finals in results:
        rows.extend(trial_rows)
        for variant, m in trial_finals:
            finals.setdefault(variant, []).append(m)
    final_metrics = {
        variant: {
            "per_trial": ms,
            "mean": {k: float(np.mean([m[k] for m in ms]))
                     for k in ms[0] if k != "rho"},
        }
        for variant, ms in finals.items()
    }
    summary = {
        "command": command,
        "config": params,
        "curves": _mean_curves(rows),
        "final_metrics": final_metrics,
        **extra,
    }
    _emit_outputs(params["outdir"], rows, summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# covariance-estimation command


def _cme_plan(params):
    """{rho: [variants]}: one run per penalty, reporting the variants that
    share it, Mean first. Without an explicit rho each variant's penalty is
    looked up in the tabulated ones (the full-size preset behavior)."""
    plan = {}
    for v in _variants(params):
        rho = params["rho"]
        if rho is None:
            rho = CME_RHO_TABLE[v].get(params["r"])
            if rho is None:
                raise ConfigError(f"no tabulated rho for r={params['r']}; "
                                  "pass --rho explicitly")
        plan.setdefault(rho, []).append(v)
    return plan


def _cme_trial(args):
    params, plan, trial = args
    cfg = CmeConfig(
        d=params["d"], r=params["r"], noise_sigma=params["noise_sigma"],
        entry_threshold=params["entry_threshold"],
        seed=params["seed"] + trial,
    )
    Sigma, SigmaHat, tau, s = gen_cme_instance(cfg)
    k_hat = params["rank"] if params["rank"] is not None else params["r"]
    # run copies the start point, so every penalty's run can share it
    problem = build_cme_problem(SigmaHat, tau, s, k_hat,
                                svd_tol=params["svd_tol"])
    rows, finals = [], []
    for rho, variants in plan.items():
        log = _solve(problem, params, rho, variants)
        rows.extend(_rows_from_log(log, trial, variants))
        d = params["d"]
        finals.extend(_trial_finals(
            log, variants,
            lambda pt: metrics_cme(pt.x.reshape(d, d), Sigma, SigmaHat, s),
            rho=rho))
    return rows, finals


def _check_rank(rank, n, bound):
    if not 1 <= rank <= n:
        raise ConfigError(f"rank must be between 1 and {n} ({bound}), got {rank}")


def cmd_cme(params):
    if params["rank"] is not None:
        _check_rank(params["rank"], params["d"], "d")
    plan = _cme_plan(params)
    tasks = [(params, plan, trial) for trial in range(params["trials"])]
    return _run_trials("cme", _cme_trial, tasks, params,
                       plan=[{"variant": v, "rho": r}
                             for r, vs in plan.items() for v in vs])


# ---------------------------------------------------------------------------
# max-cut command


def _resolve_graph_path(path):
    if os.path.exists(path):
        return path
    data_dir = os.environ.get("WPMM_DATA_DIR")
    if data_dir:
        candidate = os.path.join(data_dir, path)
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(f"graph file {path!r} not found "
                            "(also searched WPMM_DATA_DIR)")


def _maxcut_trial(args):
    params, graph, trial = args
    if graph is None:
        graph = gen_er_graph(params["random_n"], params["random_p"],
                             seed=params["seed"] + trial)
    C = laplacian(graph)
    d = graph.n
    variants = _variants(params)
    problem = build_maxcut_problem(C, params["rank"], svd_tol=params["svd_tol"])
    log = _solve(problem, params, params["rho"], variants)
    finals = _trial_finals(
        log, variants, lambda pt: metrics_maxcut(pt.x.reshape(d, d), C))
    return _rows_from_log(log, trial, variants), finals


def cmd_maxcut(params):
    graph = None
    if params["graph"] is not None:
        try:
            path = _resolve_graph_path(params["graph"])
            graph = load_gset(path)
        except (OSError, ValueError) as exc:
            raise GraphFileError(str(exc)) from exc
    elif params["random_n"] < 2:
        raise ConfigError(f"random_n must be at least 2, got {params['random_n']}")
    _check_rank(params["rank"], params["random_n"] if graph is None else graph.n,
                "the node count")
    tasks = [(params, graph, trial) for trial in range(params["trials"])]
    return _run_trials("maxcut", _maxcut_trial, tasks, params)


# ---------------------------------------------------------------------------
# declarative problems


_REQUIRED = object()


def _numeric(value):
    """Whether value is a finite JSON number or a (nested) array of them;
    NaN and Infinity, which Python's JSON reader accepts, are not."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        return False
    return arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())


class _Section(dict):
    """A JSON object of a problem file whose missing or wrongly typed keys
    are configuration errors naming the file, the section and the key.
    ``name`` None is the file's top level.

    The typed readers return ``default`` for an absent key, and None for a
    null one whose default is None; without a default the key is required.
    """

    def __init__(self, path, name, doc):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: section {name!r} must be a JSON object, "
                              f"got {json.dumps(doc)}")
        super().__init__(doc)
        self.path, self.name = path, name
        self.where = path if name is None else f"{path}: section {name!r}"

    def __missing__(self, key):
        raise ConfigError(f"{self.where} is missing required key {key!r}")

    def _typed(self, key, default, ok, what):
        value = self[key] if default is _REQUIRED else self.get(key, default)
        if value is None and default is None:
            return None
        if not ok(value):
            got = json.dumps(value)
            got = got if len(got) <= 60 else got[:57] + "..."
            raise ConfigError(f"{self.where}: {key!r} must be {what}, got {got}")
        return value

    def integer(self, key, default=_REQUIRED):
        return self._typed(key, default, lambda v: type(v) is int, "int")

    def number(self, key, default=_REQUIRED):
        value = self._typed(key, default, lambda v: type(v) is int or (
            type(v) is float and np.isfinite(v)), "a number")
        return None if value is None else float(value)

    def array(self, key, default=_REQUIRED):
        """A number or an array of numbers, as a float array."""
        value = self._typed(key, default, _numeric,
                            "a number or an array of numbers")
        return None if value is None else np.asarray(value, dtype=float)

    def parts(self):
        """The sections listed under the key ``parts``."""
        parts = self._typed("parts", _REQUIRED, lambda v: isinstance(v, list),
                            "a JSON array")
        return [_Section(self.path, f"{self.name}.parts[{i}]", p)
                for i, p in enumerate(parts)]


def _build_smooth(doc):
    kind = doc.get("kind")
    if kind == "quadratic":
        return SmoothTerm.quadratic(doc.array("Q"), doc.array("b", None),
                                    doc.number("c0", 0.0))
    if kind == "half_sq_distance":
        return SmoothTerm.half_sq_distance(doc.array("target"))
    if kind == "linear":
        return SmoothTerm.linear(doc.array("g"))
    if kind == "least_squares":
        # f(x) = 0.5 ||M x - b||^2 declared by its data
        M, b = doc.array("M"), doc.array("b")
        return SmoothTerm.quadratic(M.T @ M, -(M.T @ b), 0.5 * float(b @ b))
    raise ConfigError(f"unsupported smooth-term kind {kind!r}")


def _build_map(doc):
    kind = doc.get("kind")
    if kind == "identity":
        return LinearMap.identity(doc.integer("dim"))
    if kind == "dense":
        return LinearMap.from_dense(doc.array("entries"))
    if kind == "diagonal":
        return LinearMap.diagonal(doc.array("entries"))
    if kind == "stacked_identity":
        return LinearMap.stacked_identity(doc.integer("dim"),
                                          doc.integer("copies"))
    raise ConfigError(f"unsupported linear-map kind {kind!r}")


def _build_component(doc):
    """The regularizer of a section; a value it rejects is a configuration
    error naming the section."""
    try:
        return _component(doc)
    except ConfigError:  # names its section already
        raise
    except ValueError as exc:
        raise ConfigError(f"{doc.where}: {exc}") from exc


def _component(doc):
    kind = doc.get("kind")
    if kind == "zero":
        return ZeroReg(doc.integer("dim"))
    if kind == "l1_ball":
        return L1BallIndicator(doc.integer("dim"), doc.number("radius"))
    if kind == "simplex":
        return SimplexIndicator(doc.integer("dim"), doc.number("radius"))
    if kind == "box":
        return BoxIndicator(doc.integer("dim"), doc.array("lo", 0.0),
                            doc.array("hi", 1.0))
    if kind == "diag_ones":
        return DiagOnesIndicator(doc.integer("n"))
    if kind == "nuclear_reg":
        return NuclearNormReg((doc.integer("rows"), doc.integer("cols")),
                              doc.number("nu"), doc.integer("rank"),
                              svd_tol=doc.number("svd_tol", 1e-9))
    if kind == "nuclear_ball":
        return NuclearBallIndicator((doc.integer("rows"), doc.integer("cols")),
                                    doc.number("radius"), doc.integer("rank"),
                                    svd_tol=doc.number("svd_tol", 1e-9))
    if kind == "spectrahedron":
        return SpectrahedronIndicator(doc.integer("n"), doc.number("radius"),
                                      doc.integer("rank"),
                                      svd_tol=doc.number("svd_tol", 1e-9))
    if kind == "hypercube_polytope":
        dim = doc.integer("dim")
        lo, hi = doc.number("lo", 0.0), doc.number("hi", 1.0)
        box = BoxIndicator(dim, lo, hi)  # checks dim before it is used
        return PolytopeIndicator(
            dim, hypercube_lmo(lo, hi), PolytopeState.at_vertex(box.lo),
            lam=doc.number("lambda", None), dist_fn=box.distance,
        )
    if kind == "simplex_polytope":
        dim = doc.integer("dim")
        radius = doc.number("radius", 1.0)
        simplex = SimplexIndicator(dim, radius)  # checks dim before it is used
        start = np.zeros(dim)
        start[0] = radius
        return PolytopeIndicator(
            dim, scaled_simplex_lmo(radius, dim), PolytopeState.at_vertex(start),
            lam=doc.number("lambda", None), dist_fn=simplex.distance,
        )
    if kind == "product":
        return ProductComponent([_build_component(p) for p in doc.parts()])
    raise ConfigError(f"unsupported regularizer kind {kind!r}")


def _default_start(component):
    """A feasible starting block for each supported regularizer kind."""
    if isinstance(component, ProductComponent):
        return np.concatenate([_default_start(p) for p in component.parts])
    if isinstance(component, PolytopeIndicator):
        return component.state.point()
    if isinstance(component, BoxIndicator):
        return np.clip(np.zeros(component.dim), component.lo, component.hi)
    if isinstance(component, SimplexIndicator):
        return np.full(component.dim, component.radius / component.dim)
    if isinstance(component, DiagOnesIndicator):
        return np.eye(component.n).ravel()
    if isinstance(component, SpectrahedronIndicator):
        n = component.shape[0]
        return (component.tau / n * np.eye(n)).ravel()
    return np.zeros(component.dim)


def _load_problem(path):
    """((spec, q0, w0), solver section) of a problem file."""
    doc = _read_json(path, "problem")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in ("f", "A", "rx", "ry"):
        if key not in doc:
            raise ConfigError(f"{path}: missing required section {key!r}")
    sections = {key: _Section(path, key, doc[key])
                for key in ("f", "A", "rx", "ry", "solver") if key in doc}
    top = _Section(path, None, doc)
    f = _build_smooth(sections["f"])
    A = _build_map(sections["A"])
    rx = _build_component(sections["rx"])
    ry = _build_component(sections["ry"])
    spec = ProblemSpec(f=f, A=A, rx=rx, ry=ry,
                       pqg_alpha=top.number("pqg_alpha", None))
    x0, y0, w0 = (top.array(key, None) for key in ("x0", "y0", "w0"))
    # the given blocks, before the default y0 is formed from x0
    _check_point(spec, PrimalPoint(x0, y0), w0)
    if x0 is None:
        x0 = _default_start(rx)
    if y0 is None:
        if isinstance(ry, (PolytopeIndicator, ProductComponent)):
            y0 = _default_start(ry)
        else:
            # prox may write into its point, and A x0 may be x0 itself
            y0 = ry.prox(np.array(spec.A.apply(x0)), 1.0)
    if w0 is None:
        w0 = np.zeros(A.dim_out)
    return (spec, PrimalPoint(x0, y0), w0), sections.get("solver", {})


def _generic_trial(args):
    problem, params = args
    variants = _variants(params)
    log = _solve(problem, params, params["rho"], variants)
    return _rows_from_log(log, 0, variants), _trial_finals(log, variants)


def cmd_generic(params, problem, problem_path):
    """Solve ``problem = (spec, q0, w0)`` as one trial, with the step
    policy, mu and eta that are not set taken from ``default_steps``."""
    params["step_policy"], params["mu"], params["eta"] = default_steps(
        problem[0], params["rho"], params["step_policy"], params["mu"],
        params["eta"])
    return _run_trials("generic", _generic_trial, [(problem, params)], params,
                       problem=problem_path)


# ---------------------------------------------------------------------------
# certificate runner


def cmd_certify(suite, seed):
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    ok, certs = run_suites(suite, seed=seed)
    width = max(len(c.name) for c in certs)
    for c in certs:
        status = "PASS" if c.passed else ("N/A " if not c.applicable else "FAIL")
        print(f"{c.name:<{width}}  {status}  {c.details}")
    print(f"{'all':<{width}}  {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CERT


# ---------------------------------------------------------------------------
# argument parsing


# parameter -> (flag type, choices, help); type None reads a string
PARAMS = {
    "d": (int, None, "matrix dimension"),
    "r": (int, None, "ground-truth blocks"),
    "noise_sigma": (float, None, "observation noise level"),
    "entry_threshold": (float, None, "truth entries up to it are zeroed"),
    "graph": (None, None, "Gset-format graph file (WPMM_DATA_DIR searched)"),
    "random_n": (int, None, "random-graph node count when no file is given"),
    "random_p": (float, None, "random-graph edge probability"),
    "iters": (int, None, "iteration budget"),
    "trials": (int, None, "independent repetitions (seed + trial index)"),
    "mu": (float, None, "dual step size"),
    "rho": (float, None, "penalty parameter"),
    "eta": (float, None, "primal step (fixed policy / line-search base)"),
    "step_policy": (None, ["theoretical", "line_search", "fixed"],
                    "step-size rule"),
    "variant": (None, ["mean", "last", "both"], "output(s) to report"),
    "rank": (int, None, "oracle rank estimate"),
    "svd_tol": (float, None, "truncated decomposition tolerance"),
    "seed": (int, None, "instance seed of the first trial"),
    "jobs": (int, None, "worker processes for the trial loop"),
    "outdir": (None, None, "output directory"),
    "preset": (None, None, "named parameter bundle of the command"),
}

# command -> (help, defaults, its presets, handler); generic's handler also
# takes the loaded problem and its path
COMMANDS = {
    "cme": ("covariance-estimation experiment", CME_DEFAULTS, ["paper-cme"],
            cmd_cme),
    "maxcut": ("Max Cut SDP experiment", MAXCUT_DEFAULTS, ["paper-maxcut"],
               cmd_maxcut),
    "generic": ("solve a problem declared in JSON", GENERIC_DEFAULTS, [],
                cmd_generic),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wpmm",
        description="Projection-free augmented Lagrangian solver experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, defaults, presets, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        if name == "generic":
            sub.add_argument("problem", help="problem JSON file")
        sub.add_argument("--config", default=None,
                         help="JSON file with parameter overrides")
        # every flag defaults to None so explicit values can be told apart
        # from the defaults when merging with presets and config files
        for key in defaults:
            type_, choices, help_ = PARAMS[key]
            sub.add_argument("--" + key.replace("_", "-"), type=type_,
                             choices=presets if key == "preset" else choices,
                             default=None, help=help_)

    cert = subs.add_parser("certify", help="run convergence certificates")
    cert.add_argument("suite", nargs="?", default="all",
                      choices=["oracles", "decay", "ergodic", "all"])
    cert.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if ns.command == "certify":
            return cmd_certify(ns.suite, ns.seed)
        values = vars(ns)
        _, defaults, _, handler = COMMANDS[values.pop("command")]
        config, path = values.pop("config"), values.pop("problem", None)
        problem, section = _load_problem(path) if path else (None, None)
        params = _merge_params(defaults, values.get("preset"), config, values,
                               solver_section=section)
        return handler(params, problem, path) if path else handler(params)
    except ValueError as exc:  # ConfigError too
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GraphFileError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SolverError, OracleError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
