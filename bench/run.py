"""Whole-solve benchmark of wpmm.

    python3 bench/run.py --workload cme-d400 --seed 1 --seconds 55 --trace 0

Runs one workload (see workloads.py and README.md) for about ``--seconds``
seconds and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` every solve is untraced and the metrics are the
end-to-end ones: medians over the run's solves of the wall time of one
``solver.run`` call, per-iteration times, time to the accuracy target, set-up
time and the solve's peak traced memory. With ``--trace 1`` untraced and
traced solves alternate; the metrics are the per-layer split of the traced
solves plus the tracing overhead, and the spans are written to
``bench/out/`` when the run ends.

Every solve passes a correctness gate outside its timed region; a solve that
fails it, or raises ``SolverError``/``ConvergenceError``, counts as failed
and the run goes on. The program is imported from ``src/`` of the checkout
this file sits in; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# BLAS threads per workload (DEFAULT_BLAS_THREADS for the others), fixed so
# the work per run is the same on any host with that many cores and never
# more than the cores available. cme-d400's 400x400 calls run as fast on one
# thread, and a second one only adds straggler spikes to its iteration
# times; maxcut-er800's 800x800 dense eigh runs about 30% faster on two.
BLAS_THREADS = {"maxcut-er800": 2}
DEFAULT_BLAS_THREADS = 1
# Iterations of the two short solves before the timed ones: a warm-up, then
# one under tracemalloc that measures peak memory.
MEM_ITERS = 3
# Instances whose set-up is timed; solve i of a run gets instance i, and
# instances past these are generated when first needed, untimed.
INSTANCES = 4
# Set-up repeats until both counts are met (bounded by SETUP_MAX_REPS).
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 10000

END_TO_END_UNITS = {
    "solve_s": "s",
    "iter_ms_p50": "ms",
    "iter_ms_p90": "ms",
    "time_to_target_s": "s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}

PER_LAYER_UNITS = {
    "solver.self_ms_per_iter": "ms",
    "solver.line_search_ms_per_iter": "ms",
    "solver.line_search_fallbacks": "count",
    "solver.log_ms_per_iter": "ms",
    "solver.iters_to_target": "count",
    "oracles.x.compute_ms_per_call": "ms",
    "oracles.y.compute_ms_per_call": "ms",
    "oracles.distance_calls_per_iter": "count",
    "oracles.distance_ms_per_iter": "ms",
    "oracles.commit_ms_per_iter": "ms",
    "oracles.simplex_qp_ms_per_call": "ms",
    "oracles.simplex_qp_iters_per_call": "count",
    "oracles.active_set_size": "count",
    "oracles.lmo_calls_per_iter": "count",
    "linalg.truncated_eigh_ms_per_call": "ms",
    "linalg.truncated_eigh_sweeps_per_call": "count",
    "linalg.truncated_svd_ms_per_call": "ms",
    "linalg.truncated_svd_sweeps_per_call": "count",
    "linalg.truncated_svd_peak_mb": "MB",
    "linalg.truncated_eigh_vs_dense": "ratio",
    "linalg.truncated_svd_vs_dense": "ratio",
    "linalg.dense_decomp_calls_per_iter": "count",
    "linalg.dense_decomp_ms_per_iter": "ms",
    "linalg.projection_ms_per_iter": "ms",
    "model.smooth_ms_per_iter": "ms",
    "model.smooth_calls_per_iter": "count",
    "model.map_ms_per_iter": "ms",
    "harness.instance_s": "s",
    "harness.build_s": "s",
    "trace.overhead": "ratio",
}


def bootstrap(workload=None):
    """Pin the BLAS threads of ``workload`` and put the checkout's sources
    first on the path.

    Must run before numpy is imported. Returns ``(cores, blas_threads)``.
    """
    cores = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS.get(workload, DEFAULT_BLAS_THREADS), cores)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wpmm", "__init__.py")):
        raise SystemExit(f"bench: no wpmm sources under {src}")
    sys.path.insert(0, src)
    return cores, threads


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(cores, threads, seed, workload):
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads,
        "blas_threads_in_use": _blas_threads_in_use(),
        "seed": seed,
        "iters": workload.iters,
        "mem_iters": MEM_ITERS,
        "setup_instances": INSTANCES,
    }


@dataclass
class Instance:
    inputs: object
    problem: tuple  # (spec, q0, w0)
    thresholds: tuple  # target bounds (objective, feasibility)


@dataclass
class Outcome:
    wall: float = 0.0
    elapsed: list = field(default_factory=list)
    hit_time: float = None
    hit_iter: int = None
    fallbacks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ran(self):
        return bool(self.elapsed)


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds):
        from wpmm import solver
        from wpmm.linalg import ConvergenceError

        import tracing
        import workloads

        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.solver = solver
        self.errors = (solver.SolverError, ConvergenceError)
        self.tracing = tracing
        self.workloads = workloads
        self.outcomes = []
        self.attempted = 0
        self.failed = 0
        self.instances = []

    def _make(self, inputs, problem):
        spec, q0, _w0 = problem
        return Instance(inputs, problem, self.wl.thresholds(spec, q0))

    def instance(self, i):
        """The run's i-th instance, generated from (seed, i)."""
        while len(self.instances) <= i:
            inputs = self.wl.instance(
                self.workloads.instance_seed(self.seed, len(self.instances)))
            self.instances.append(self._make(inputs, self.wl.build(inputs)))
        return self.instances[i]

    def setup(self, tracer=None):
        """Generate and build the first instances, repeating the set-up so its
        median time is steady. Returns (setup_s, instance times, build times)."""
        gen_s, build_s = [], []
        begin = time.perf_counter()
        rep = 0
        while rep < INSTANCES or (time.perf_counter() - begin < SETUP_MIN_SECONDS
                                  and rep < SETUP_MAX_REPS):
            seed = self.workloads.instance_seed(self.seed, rep % INSTANCES)
            spans = tracer if rep < INSTANCES else None
            t0 = time.perf_counter()
            inputs = self._call(spans, "harness.instance", self.wl.instance, seed)
            t1 = time.perf_counter()
            problem = self._call(spans, "harness.build", self.wl.build, inputs)
            t2 = time.perf_counter()
            gen_s.append(t1 - t0)
            build_s.append(t2 - t1)
            if rep < INSTANCES:
                self.instances.append(self._make(inputs, problem))
            rep += 1
        setup_s = [g + b for g, b in zip(gen_s, build_s)]
        return statistics.median(setup_s), gen_s, build_s

    @staticmethod
    def _call(tracer, name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    def warm_up(self, inst):
        """Two short solves, the second under tracemalloc: peak memory in MB,
        or None if one raised (counted as a failed attempt). The first solve
        takes the process's one-time allocations out of the peak."""
        spec, q0, w0 = inst.problem
        config = self.wl.config(min(MEM_ITERS, self.wl.iters))
        try:
            self.solver.run(spec, q0, w0, config)
            tracemalloc.start()
            try:
                self.solver.run(spec, q0, w0, config)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        except self.errors:
            self.attempted += 1
            self.failed += 1
            return None

    def solve(self, inst, problem=None, tracer=None):
        """One timed solve with the budget of the workload, then the gate."""
        spec, q0, w0 = problem if problem is not None else inst.problem
        config = self.wl.config(self.wl.iters)
        out = Outcome()
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if tracer is None:
                log = self.solver.run(spec, q0, w0, config)
            else:
                with tracer.module_wrappers(self.wl.iters):
                    log = tracer.call("solver.run", self.solver.run,
                                      spec, q0, w0, config)
            out.wall = time.perf_counter() - t0
        except self.errors as exc:
            out.failures.append(f"{type(exc).__name__}: {exc}")
        else:
            out.elapsed = [r.elapsed for r in log.records]
            out.fallbacks = sum(r.eta_fallback for r in log.records)
            out.failures = self.workloads.audit(self.wl, inst.inputs, log)
            hit = self.workloads.target_index(inst.thresholds, log.records)
            if hit is None:
                out.failures.append("accuracy target not reached within budget")
            else:
                out.hit_time = log.records[hit].elapsed
                out.hit_iter = hit + 1
        if out.failures:
            self.failed += 1
        self.outcomes.append(out)
        return out

    def _until(self, deadline, step):
        """Call step() until the next call would likely end after deadline."""
        durations = []
        while True:
            t0 = time.perf_counter()
            step(len(durations))
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() + statistics.median(durations) > deadline:
                return

    def end_to_end(self):
        import numpy as np

        setup_s, _gen, _build = self.setup()
        peak = self.warm_up(self.instance(0))
        deadline = time.perf_counter() + self.seconds
        timed = []

        def step(i):
            timed.append(self.solve(self.instance(i)))

        self._until(deadline, step)
        ran = [o for o in timed if o.ran]
        samples = [1e3 * d for o in ran for d in np.diff([0.0] + o.elapsed)]
        hits = [o.hit_time for o in ran if o.hit_time is not None]
        metrics = {
            "solve_s": _median([o.wall for o in ran]),
            "iter_ms_p50": float(np.percentile(samples, 50)) if samples else 0.0,
            "iter_ms_p90": float(np.percentile(samples, 90)) if samples else 0.0,
            "time_to_target_s": _median(hits),
            "setup_s": setup_s,
            "peak_mem_mb": peak if peak is not None else 0.0,
        }
        notes = [f"timed solves {len(timed)}, iteration samples {len(samples)}",
                 "solve walls [s] " + " ".join(f"{o.wall:.3f}" for o in ran)]
        return metrics, notes

    def per_layer(self):
        tracer = self.tracing.Tracer()
        _setup, gen_s, build_s = self.setup(tracer)
        self.warm_up(self.instance(0))
        # leave time for the dense reference timings after the loop
        deadline = time.perf_counter() + 0.85 * self.seconds
        untraced, traced = [], []

        def step(i):
            inst = self.instance(i)
            untraced.append(self.solve(inst))
            problem = self.wl.build(inst.inputs)
            tracer.instrument(problem[0])
            tracer.solve = i
            try:
                traced.append(self.solve(inst, problem, tracer))
            finally:
                tracer.solve = None

        self._until(deadline, step)
        done = [o for o in traced if o.ran]
        metrics = self.tracing.layer_metrics(tracer, sum(len(o.elapsed) for o in done))
        reference = self.tracing.dense_reference(tracer.captured)
        metrics.update({
            "solver.line_search_fallbacks": _median([o.fallbacks for o in done]),
            "solver.iters_to_target": _median(
                [o.hit_iter for o in done if o.hit_iter is not None]),
            "linalg.truncated_svd_peak_mb": reference["svd"]["peak_mb"],
            "linalg.truncated_eigh_vs_dense": reference["eigh"]["vs_dense"],
            "linalg.truncated_svd_vs_dense": reference["svd"]["vs_dense"],
            "harness.instance_s": statistics.median(gen_s),
            "harness.build_s": statistics.median(build_s),
            "trace.overhead": _overhead(untraced, traced),
        })
        notes = [f"traced solves {len(traced)}, untraced solves {len(untraced)}",
                 "dense reference " + json.dumps(reference)]
        return metrics, notes, tracer, reference


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _overhead(untraced, traced):
    plain = _median([o.wall for o in untraced if o.ran])
    with_spans = _median([o.wall for o in traced if o.ran])
    return with_spans / plain - 1.0 if plain > 0 else 0.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, registry=None):
    """Run one workload and print its result; ``registry`` maps workload
    names to workloads (the paper-size set by default)."""
    args = parse_args(argv)
    cores, threads = bootstrap(args.workload)
    import workloads

    if registry is None:
        registry = workloads.paper_workloads()
    if args.workload not in registry:
        raise SystemExit(f"bench: unknown workload {args.workload!r}, "
                         f"choose from {', '.join(sorted(registry))}")
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    wl = registry[args.workload]
    env = environment(cores, threads, args.seed, wl)
    bench = Bench(wl, args.seed, args.seconds)
    if args.trace:
        metrics, notes, tracer, reference = bench.per_layer()
        units = PER_LAYER_UNITS
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.json")
        tracer.dump(path, {"workload": wl.name, "env": env, "metrics": metrics,
                           "dense_reference": reference})
        notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics, notes = bench.end_to_end()
        units = END_TO_END_UNITS

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    share = bench.failed / bench.attempted
    print(f"attempted {bench.attempted} failed {bench.failed} fail_share {share:.4g}")
    for note in notes:
        print(note)
    for outcome in bench.outcomes:
        for failure in outcome.failures:
            print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
