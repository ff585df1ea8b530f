"""The benchmark's workloads: seeded instance generators, problem builders,
solver settings, accuracy targets and the exact domain audit.

Each workload drives the public API the CLI uses: a generator produces the
inputs from a seed, a builder turns them into ``(spec, q0, w0)``, and
``wpmm.solver.run`` solves them with a fixed iteration budget. Why each
workload exists, and which layer it stresses, is recorded in README.md next
to this file and in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import wpmm.linalg
from wpmm import harness, model, oracles, solver

__all__ = ["Target", "Workload", "paper_workloads", "instance_seed", "audit",
           "target_index"]


@dataclass(frozen=True)
class Target:
    """Accuracy target met by the last iterate of one record.

    ``objective`` is a multiple of |f(x0)| the objective must not exceed;
    ``feasibility`` is a multiple of the workload's feasibility scale that
    the constraint residual ||A x - y|| must not exceed.
    """

    objective: float
    feasibility: float


@dataclass(frozen=True)
class Workload:
    name: str
    iters: int
    instance: Callable  # seed -> generated inputs
    build: Callable  # inputs -> (spec, q0, w0)
    config: Callable  # iters -> SolverConfig
    domain: Callable  # inputs -> (dist_x, dist_y); None means unconstrained
    feas_scale: Callable  # (spec, q0) -> positive scale of the residual
    target: Target

    def thresholds(self, spec, q0):
        """(objective, feasibility) bounds of the target for one instance."""
        return (self.target.objective * abs(float(spec.f.value(q0.x))),
                self.target.feasibility * self.feas_scale(spec, q0))


def instance_seed(seed, index):
    """Seed of the ``index``-th instance of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# exact distances for the audit, independent of the solver's own projections


def _simplex_projection(z, radius):
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - radius
    j = np.arange(1, z.size + 1)
    k = int(np.nonzero(u - css / j > 0)[0][-1]) + 1
    return np.maximum(z - css[k - 1] / k, 0.0)


def _l1_projection(z, radius):
    if float(np.abs(z).sum()) <= radius:
        return z
    return np.sign(z) * _simplex_projection(np.abs(z), radius)


def spectrahedron_distance(n, tau):
    def dist(v):
        M = v.reshape(n, n)
        lam, U = np.linalg.eigh(0.5 * (M + M.T))
        P = (U * _simplex_projection(lam, tau)) @ U.T
        return float(np.linalg.norm(M - P))
    return dist


def l1_ball_distance(radius):
    return lambda v: float(np.linalg.norm(v - _l1_projection(v, radius)))


def unit_diagonal_distance(n):
    return lambda v: float(np.linalg.norm(np.diag(v.reshape(n, n)) - 1.0))


def box_distance(lo, hi):
    return lambda v: float(np.linalg.norm(v - np.clip(v, lo, hi)))


def simplex_distance(radius):
    return lambda v: float(np.linalg.norm(v - _simplex_projection(v, radius)))


def nuclear_ball_distance(shape, tau):
    def dist(v):
        M = v.reshape(shape)
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        P = (U * _l1_projection(s, tau)) @ Vt
        return float(np.linalg.norm(M - P))
    return dist


def audit(workload, inputs, log):
    """Correctness gate of one solve; returns the list of failures.

    Checks the final last and mean iterates against the exact domains within
    ``indicator_tol``, that every record is finite and unflagged, and that the
    accuracy target was met within the budget.
    """
    failures = []
    dists = workload.domain(inputs)
    for label, point in (("last", log.last_point), ("mean", log.mean_point)):
        if point is None:
            failures.append(f"{label} iterate missing")
            continue
        for block, name, dist in ((point.x, "x", dists[0]), (point.y, "y", dists[1])):
            if dist is None:
                continue
            if not np.isfinite(block).all():
                failures.append(f"{label}.{name} has non-finite entries")
                continue
            d = dist(block)
            if not d <= model.indicator_tol(block):
                failures.append(f"{label}.{name} outside its domain (distance {d:.3e})")
    for rec in log.records:
        values = [rec.objective, rec.feasibility, rec.al_value, rec.eta_used,
                  rec.elapsed, rec.mean_objective, rec.mean_feasibility,
                  rec.mean_al_value]
        if not all(np.isfinite(v) for v in values if v is not None):
            failures.append(f"record t={rec.t} is not finite")
            break
        if rec.objective_flagged:
            failures.append(f"record t={rec.t} has objective_flagged")
            break
    return failures


def target_index(thresholds, records):
    """Index of the first record whose last iterate meets the target, or None."""
    obj_max, feas_max = thresholds
    for i, rec in enumerate(records):
        if rec.objective <= obj_max and rec.feasibility <= feas_max:
            return i
    return None


def _start_residual(spec, q0):
    return float(np.linalg.norm(model.k_apply(spec, q0)))


# ---------------------------------------------------------------------------
# workload factories. Sizes are parameters so the self-test can shrink them;
# a workload keeps its benchmark name at every size.


def cme(d=400, r=5, iters=30, target=Target(2.0, 0.30)):
    """Covariance estimation with the paper-cme settings at rho 25."""
    def build(inputs):
        _sigma, sigma_hat, tau, s = inputs
        return harness.build_cme_problem(sigma_hat, tau, s, r, svd_tol=1e-2)

    def domain(inputs):
        _sigma, _sigma_hat, tau, s = inputs
        return spectrahedron_distance(d, tau), l1_ball_distance(s)

    return Workload(
        name="cme-d400",
        iters=iters,
        instance=lambda seed: harness.gen_cme_instance(
            harness.CmeConfig(d=d, r=r, seed=seed)),
        build=build,
        config=lambda n: solver.SolverConfig(
            rho=25.0, mu=0.2, iters=n, step_policy="line_search",
            variant="both", trace_mean=True),
        domain=domain,
        feas_scale=_start_residual,
        target=target,
    )


def maxcut(n=800, p=0.06, rank=13, iters=15, target=Target(-1.35, 2.0)):
    """Max Cut relaxation with the paper-maxcut settings on an ER graph."""
    def build(graph):
        return harness.build_maxcut_problem(harness.laplacian(graph), rank,
                                            svd_tol=1e-2)

    def domain(graph):
        return spectrahedron_distance(n, float(n)), unit_diagonal_distance(n)

    return Workload(
        name="maxcut-er800",
        iters=iters,
        instance=lambda seed: harness.gen_er_graph(n, p, seed=seed),
        build=build,
        config=lambda k: solver.SolverConfig(
            rho=1.0, mu=0.2, eta=0.2, iters=k, step_policy="fixed",
            variant="both", trace_mean=True),
        domain=domain,
        feas_scale=lambda spec, q0: float(np.linalg.norm(q0.x)),
        target=target,
    )


def polytope(n=50, iters=15, target=Target(0.45, 0.34)):
    """Hypercube x-block and scaled-simplex y-block, both polytope oracles."""
    radius = n / 4.0

    def simplex_gap(v):
        # the distance function the CLI's generic builder attaches
        return float(np.linalg.norm(v - wpmm.linalg.project_simplex(v, radius)))

    def build(target_point):
        f = model.SmoothTerm.half_sq_distance(target_point)
        A = model.LinearMap.identity(n)
        x0 = np.zeros(n)
        y0 = np.zeros(n)
        y0[0] = radius
        rx = oracles.PolytopeIndicator(
            n, oracles.hypercube_lmo(0.0, 1.0), oracles.PolytopeState.at_vertex(x0),
            lam=4.0, dist_fn=box_distance(0.0, 1.0))
        ry = oracles.PolytopeIndicator(
            n, oracles.scaled_simplex_lmo(radius, n),
            oracles.PolytopeState.at_vertex(y0), lam=4.0, dist_fn=simplex_gap)
        spec = model.ProblemSpec(f=f, A=A, rx=rx, ry=ry)
        return spec, model.PrimalPoint(x0, y0), np.zeros(n)

    return Workload(
        name="polytope-n50",
        iters=iters,
        instance=lambda seed: np.random.default_rng(seed).uniform(0.0, 1.0, n),
        build=build,
        config=lambda k: solver.SolverConfig(
            rho=1.0, mu=0.1, eta=0.1, iters=k, step_policy="fixed",
            variant="both", trace_mean=True),
        domain=lambda _t: (box_distance(0.0, 1.0), simplex_distance(radius)),
        feas_scale=_start_residual,
        target=target,
    )


def nucball(m=6000, n=20, rank=3, iters=30, target=Target(1.0, 0.05)):
    """Tall nuclear-norm-ball y-block fitted to a noisy rank-3 target."""
    def instance(seed):
        rng = np.random.default_rng(seed)
        clean = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        clean /= np.sqrt(m)
        noisy = clean + 0.01 * rng.standard_normal((m, n))
        tau = 0.5 * float(np.linalg.svd(clean, compute_uv=False).sum())
        return noisy.ravel(), tau

    def build(inputs):
        target_point, tau = inputs
        dim = m * n
        spec = model.ProblemSpec(
            f=model.SmoothTerm.half_sq_distance(target_point),
            A=model.LinearMap.identity(dim),
            rx=oracles.ZeroReg(dim),
            ry=oracles.NuclearBallIndicator((m, n), tau, rank, svd_tol=1e-2))
        zero = np.zeros(dim)
        return spec, model.PrimalPoint(zero.copy(), zero.copy()), zero.copy()

    return Workload(
        name="nucball-tall",
        iters=iters,
        instance=instance,
        build=build,
        config=lambda k: solver.SolverConfig(
            rho=1.0, mu=0.2, eta=0.2, iters=k, step_policy="line_search",
            variant="both", trace_mean=True),
        domain=lambda inputs: (None, nuclear_ball_distance((m, n), inputs[1])),
        # the start is zero, so ||grad f(x0)|| is the norm of the target
        feas_scale=lambda spec, q0: float(np.linalg.norm(spec.f.gradient(q0.x))),
        target=target,
    )


def paper_workloads():
    """Every workload at the paper's sizes, by name. BENCHMARK.json lists the
    ones the benchmark command runs; README.md says why one is left out."""
    return {w.name: w for w in (cme(), maxcut(), polytope(), nucball())}
