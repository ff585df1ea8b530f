"""Span tracing for the benchmark's traced run, and the per-layer metrics
derived from the spans.

Spans are recorded only by wrappers that this module installs from the
benchmark's side: on module attributes of ``wpmm`` and ``numpy.linalg``, on
the run-owned components returned by ``for_run``, on the LMO callbacks and on
the ``f``/``A`` callables. Nothing under ``src/`` is edited. Spans live in
memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc

import numpy as np

import wpmm.linalg
import wpmm.oracles
import wpmm.solver

# Calls made inside these spans are only counted on the span, neither
# recorded nor timed: simplex_qp makes up to 10^4 project_simplex calls per
# call, and its own self time is not reported.
COUNT_UNDER = ("oracles.simplex_qp",)

# Matrices passed to the truncated kernels that are kept for the dense
# reference timings, per kernel.
CAPTURE_PER_KERNEL = 4


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "counts")

    def __init__(self, name, start, parent, solve):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.solve = solve
        self.counts = {}  # name -> calls counted inside instead of recorded

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "solve": self.solve,
                "counts": self.counts}


class Tracer:
    """Records spans (name, start, end, parent span, solve id) in memory."""

    def __init__(self):
        self.spans = []
        self.solve = None
        self.active_set = 0
        self.captured = {"linalg.truncated_eigh": [], "linalg.truncated_svd": []}
        self._open = []
        self._kernel_calls = {}

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        if parent is not None and self.spans[parent].name in COUNT_UNDER:
            counts = self.spans[parent].counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), parent, self.solve)
        self.spans.append(span)
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _capturing(self, name, fn, stride):
        # keeps every stride-th input matrix of a truncated kernel
        def capture(*args, **kwargs):
            n = self._kernel_calls.get(name, 0)
            self._kernel_calls[name] = n + 1
            kept = self.captured[name]
            if n % stride == 0 and len(kept) < CAPTURE_PER_KERNEL:
                kept.append((np.array(args[0], dtype=float), args[1:], kwargs))
            return self.call(name, fn, *args, **kwargs)
        return capture

    @contextlib.contextmanager
    def module_wrappers(self, iters):
        """Wrap the solve-path module attributes for the duration of a solve."""
        stride = max(1, iters // CAPTURE_PER_KERNEL)
        targets = [
            (wpmm.solver, "line_search_eta", "solver.line_search"),
            (wpmm.oracles, "simplex_qp", "oracles.simplex_qp"),
            (wpmm.linalg, "project_simplex", "linalg.project_simplex"),
            (wpmm.linalg, "project_l1_ball", "linalg.project_l1_ball"),
            (np.linalg, "eigh", "numpy.eigh"),
            (np.linalg, "svd", "numpy.svd"),
        ]
        saved = []
        try:
            for obj, attr, name in targets:
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
            for attr in ("truncated_eigh", "truncated_svd"):
                name = "linalg." + attr
                saved.append((wpmm.linalg, attr, getattr(wpmm.linalg, attr)))
                setattr(wpmm.linalg, attr,
                        self._capturing(name, getattr(wpmm.linalg, attr), stride))
            yield
        finally:
            for obj, attr, orig in reversed(saved):
                setattr(obj, attr, orig)

    def instrument(self, spec):
        """Wrap the callables of a freshly built problem. The spec must not be
        reused untraced afterwards."""
        spec.f.value = self.wrap("model.smooth", spec.f.value)
        spec.f.gradient = self.wrap("model.smooth", spec.f.gradient)
        spec.A.apply = self.wrap("model.map", spec.A.apply)
        spec.A.adjoint = self.wrap("model.map", spec.A.adjoint)
        for block, comp in (("x", spec.rx), ("y", spec.ry)):
            comp.distance = self.wrap("oracles.distance", comp.distance)
            comp.logged_value = self.wrap("solver.log", comp.logged_value)
            if hasattr(comp, "lmo"):
                comp.lmo = self.wrap("oracles.lmo", comp.lmo)
            comp.for_run = self._run_owned(block, comp.for_run)

    def _run_owned(self, block, for_run):
        def traced_for_run(block0):
            owned = for_run(block0)
            owned.compute = self.wrap(f"oracles.{block}.compute", owned.compute)
            commit = owned.commit

            def traced_commit(eta):
                self.call("oracles.commit", commit, eta)
                state = getattr(owned, "state", None)
                if state is not None:
                    self.active_set = max(self.active_set, len(state.vertices))

            owned.commit = traced_commit
            return owned
        return traced_for_run

    def dump(self, path, extra):
        doc = dict(extra)
        doc["spans"] = [s.to_json() for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# per-layer metrics


def _has_ancestor(spans, span, names):
    p = span.parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def layer_metrics(tracer, iterations):
    """Per-layer figures of the traced solves, keyed by metric name."""
    spans = [s for s in tracer.spans if s.solve is not None]
    iters = max(iterations, 1)

    def named(name):
        return [s for s in spans if s.name == name]

    def total_ms(items):
        return 1e3 * sum(s.duration for s in items)

    def per_call_ms(items):
        return total_ms(items) / len(items) if items else 0.0

    covered = {}
    for s in tracer.spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration

    def self_ms(name):
        return 1e3 * sum(s.duration - covered.get(i, 0.0)
                         for i, s in enumerate(tracer.spans)
                         if s.name == name and s.solve is not None)

    def sweeps(kernel, decomposition):
        calls = named(kernel)
        inner = [s for s in named(decomposition)
                 if tracer.spans[s.parent].name == kernel]
        return len(inner) / len(calls) if calls else 0.0

    kernels = ("linalg.truncated_eigh", "linalg.truncated_svd")
    dense = [s for s in named("numpy.eigh") + named("numpy.svd")
             if not _has_ancestor(tracer.spans, s, kernels)]
    projections = ("linalg.project_simplex", "linalg.project_l1_ball")
    outer_projections = [s for s in spans if s.name in projections
                         and not _has_ancestor(tracer.spans, s, projections)]
    qp = named("oracles.simplex_qp")
    qp_steps = sum(s.counts.get("linalg.project_simplex", 0) for s in qp)

    return {
        "solver.self_ms_per_iter": self_ms("solver.run") / iters,
        "solver.line_search_ms_per_iter": total_ms(named("solver.line_search")) / iters,
        "solver.log_ms_per_iter": total_ms(named("solver.log")) / iters,
        "oracles.x.compute_ms_per_call": per_call_ms(named("oracles.x.compute")),
        "oracles.y.compute_ms_per_call": per_call_ms(named("oracles.y.compute")),
        "oracles.distance_calls_per_iter": len(named("oracles.distance")) / iters,
        "oracles.distance_ms_per_iter": total_ms(named("oracles.distance")) / iters,
        "oracles.commit_ms_per_iter": total_ms(named("oracles.commit")) / iters,
        "oracles.simplex_qp_ms_per_call": per_call_ms(qp),
        "oracles.simplex_qp_iters_per_call": qp_steps / len(qp) if qp else 0.0,
        "oracles.active_set_size": float(tracer.active_set),
        "oracles.lmo_calls_per_iter": len(named("oracles.lmo")) / iters,
        "linalg.truncated_eigh_ms_per_call": per_call_ms(named(kernels[0])),
        "linalg.truncated_eigh_sweeps_per_call": sweeps(kernels[0], "numpy.eigh"),
        "linalg.truncated_svd_ms_per_call": per_call_ms(named(kernels[1])),
        "linalg.truncated_svd_sweeps_per_call": sweeps(kernels[1], "numpy.svd"),
        "linalg.dense_decomp_calls_per_iter": len(dense) / iters,
        "linalg.dense_decomp_ms_per_iter": total_ms(dense) / iters,
        "linalg.projection_ms_per_iter": total_ms(outer_projections) / iters,
        "model.smooth_ms_per_iter": total_ms(named("model.smooth")) / iters,
        "model.smooth_calls_per_iter": len(named("model.smooth")) / iters,
        "model.map_ms_per_iter": total_ms(named("model.map")) / iters,
    }


# ---------------------------------------------------------------------------
# dense reference timings on captured kernel inputs


def _median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _scipy_reference(kind, M, k, tol):
    """scipy's eigsh/svds time on M; None when scipy is missing or ARPACK
    fails on M (a zero matrix, for one)."""
    try:
        from scipy.sparse import linalg as sla
    except ImportError:
        return None
    if kind == "eigh":
        fn = lambda: sla.eigsh(M, k=k, which="LA", tol=tol)  # noqa: E731
    else:
        fn = lambda: sla.svds(M, k=k, tol=tol)  # noqa: E731
    try:
        return _median_time(fn)
    except (sla.ArpackError, sla.ArpackNoConvergence):
        return None


def dense_reference(captured):
    """Kernel time over dense numpy time on the captured matrices, the
    kernel's peak traced memory, and scipy's times as a reference only."""
    out = {}
    plan = (("eigh", wpmm.linalg.truncated_eigh,
             lambda M: np.linalg.eigh(M)),
            ("svd", wpmm.linalg.truncated_svd,
             lambda M: np.linalg.svd(M, full_matrices=False)))
    for kind, kernel, dense in plan:
        cases = captured[f"linalg.truncated_{kind}"]
        kernel_s = dense_s = 0.0
        scipy_s, peak = [], 0
        for M, args, kwargs in cases:
            kernel_s += _median_time(lambda: kernel(M, *args, **kwargs))
            dense_s += _median_time(lambda: dense(M))
            ref = _scipy_reference(kind, M, args[0], args[1])
            if ref is not None:
                scipy_s.append(ref)
            tracemalloc.start()
            try:
                kernel(M, *args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        out[kind] = {
            "matrices": len(cases),
            "shape": list(cases[0][0].shape) if cases else None,
            "vs_dense": kernel_s / dense_s if cases else 0.0,
            "kernel_ms": 1e3 * kernel_s / max(len(cases), 1),
            "dense_ms": 1e3 * dense_s / max(len(cases), 1),
            "peak_mb": peak / 2**20,
            "scipy_reference_only_ms": (1e3 * float(np.mean(scipy_s))
                                        if scipy_s else None),
        }
    return out
