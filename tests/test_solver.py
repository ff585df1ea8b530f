import math
import os
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import wpmm.linalg as linalg
from bruteforce import reference_run
from wpmm.certify import (check_linear_decay, check_obj_feas_split,
                          polytope_audit, run_suites)
from wpmm.cli import _load_problem
from wpmm.harness import (
    CmeConfig,
    build_box_toy,
    build_cme_problem,
    build_maxcut_problem,
    gen_cme_instance,
    gen_er_graph,
    laplacian,
)
from wpmm.model import (
    LinearMap,
    PrimalPoint,
    ProblemSpec,
    SmoothTerm,
    k_apply,
    smooth_grad_x,
    smooth_grad_y,
)
from wpmm.oracles import (
    BoxIndicator,
    L1BallIndicator,
    NuclearBallIndicator,
    NuclearNormReg,
    PolytopeIndicator,
    PolytopeState,
    ProductComponent,
    SimplexIndicator,
    SpectrahedronIndicator,
    WpoComponent,
    ZeroReg,
    hypercube_lmo,
)
from wpmm.solver import (
    SolverConfig,
    SolverError,
    StepConstants,
    iterate,
    line_search_eta,
    record_values,
    run,
    step_constants,
)


def q_of(x, y):
    return PrimalPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def blend(q, v, eta):
    """(1 - eta) * q + eta * v."""
    return q_of((1.0 - eta) * q.x + eta * v.x, (1.0 - eta) * q.y + eta * v.y)


def zero_smooth(dim):
    return SmoothTerm.linear(np.zeros(dim))


class FrozenOracle(WpoComponent):
    """Test double: always proposes the center (an oracle fixed point)."""

    constant_on_segments = True

    def compute(self, center, p, coeff):
        return np.asarray(center, dtype=float).copy()

    def value(self, v):
        return 0.0


class EscapingOracle(WpoComponent):
    """Test double breaking the oracle contract: proposes a point far outside
    its box domain."""

    is_indicator = True
    constant_on_segments = True

    def compute(self, center, p, coeff):
        return np.asarray(center, dtype=float) + 100.0

    def value(self, v):
        return 0.0

    def distance(self, v):
        return float(np.linalg.norm(v - np.clip(v, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# step-size formulas


def test_theoretical_eta_hand_value():
    mu = 0.000694
    val = StepConstants(1 / 3, 5.0, 1.0, 1.0).eta(mu)
    hand = (1 / 3) / (2.0 * 1.0 * (5.0 + 2.0 * mu * 4.0))
    assert val == pytest.approx(hand, rel=1e-12)
    assert val == pytest.approx(0.03330, abs=5e-5)


def test_theoretical_eta_small_mu_limit():
    base = StepConstants(0.4, 3.0, 1.0, 1.0).eta(1e-12)
    assert base == pytest.approx(0.4 / (2 * 3.0), rel=1e-9)


def test_theoretical_eta_lambda_homogeneity():
    a = StepConstants(0.3, 4.0, 1.0, 1.0).eta(0.01)
    b = StepConstants(0.3, 4.0, 1.0, 2.0).eta(0.01)
    # doubling lam both doubles the lam factor and leaves the bracket fixed
    assert b == pytest.approx(a / 2.0, rel=1e-12)


def test_theoretical_eta_rejects_inconsistent():
    with pytest.raises(ValueError):
        StepConstants(1000.0, 1.0, 0.0, 1.0).eta(0.01)
    with pytest.raises(ValueError):
        StepConstants(-1.0, 1.0, 1.0, 1.0)


def test_max_dual_step_hand_value():
    val = StepConstants(1 / 3, 5.0, 1.0, 1.0).mu_cap()
    hand = (math.sqrt(1 / 9 + 25.0) - 5.0) / 16.0
    assert val == pytest.approx(hand, rel=1e-12)
    # the admissible dual step is tiny in this regime
    assert val < 1e-3


def test_max_dual_step_vanishes_with_curvature():
    assert StepConstants(1e-9, 5.0, 1.0, 1.0).mu_cap() < 1e-10


def test_ergodic_bound_values():
    # beta = rho = ||A|| = 1: beta_s = 1 + 1 * 4 = 5
    consts = StepConstants(1 / 3, 5.0, 1.0, 1.0)
    assert consts.ergodic_bound(2.0, 0.0, -1.0, 0.5) == \
        pytest.approx(4.0, rel=1e-12)
    val = consts.ergodic_bound(2.0, 0.0, 1.0, 0.5)
    assert val == pytest.approx(4.0 + 2 * (1 + 2 * 4) / (1 / 3), rel=1e-12)
    assert val == pytest.approx(58.0, rel=1e-12)


def test_ergodic_bound_decreasing_in_alpha():
    lo = StepConstants(0.2, 5.0, 1.0, 1.0).ergodic_bound(1.0, 0.0, 1.0, 0.1)
    hi = StepConstants(0.4, 5.0, 1.0, 1.0).ergodic_bound(1.0, 0.0, 1.0, 0.1)
    assert hi < lo


# ---------------------------------------------------------------------------
# line search


def searched_eta(spec, q, v, grad, mu, rho):
    """line_search_eta along d = v - q, with lin = <grad, d> summed in the
    solver's order."""
    d = q_of(v.x - q.x, v.y - q.y)
    lin = float(grad[0] @ d.x) + float(grad[1] @ d.y)
    return line_search_eta(spec, d, lin, mu, rho)


def grad_pair(spec, q, w, rho):
    """The smooth-part gradient at q as an (x-part, y-part) pair."""
    gy = smooth_grad_y(spec, q, w, rho)
    return smooth_grad_x(spec, q.x, gy), gy


def box_problem(a, dim=2):
    return ProblemSpec(
        f=SmoothTerm.half_sq_distance(np.asarray(a, dtype=float)),
        A=LinearMap.identity(dim),
        rx=BoxIndicator(dim, 0.0, 1.0),
        ry=BoxIndicator(dim, 0.0, 1.0),
    )


def test_line_search_stationary_segment():
    spec = box_problem([0.5, 0.5])
    q = q_of([0.2, 0.2], [0.2, 0.2])
    grad = grad_pair(spec, q, np.zeros(2), 1.4)
    assert searched_eta(spec, q, q, grad, 0.2, 1.0) == 0.0


def test_line_search_matches_dense_grid():
    spec = box_problem([0.9, 0.1])
    q = q_of([0.1, 0.8], [0.3, 0.2])
    v = q_of([1.0, 0.0], [0.9, 0.1])
    w = np.array([0.3, -0.2])
    mu, rho = 0.2, 1.0
    eta = searched_eta(spec, q, v, grad_pair(spec, q, w, rho + 2 * mu),
                       mu, rho)

    grid = np.linspace(0.0, 1.0, 1_000_001)
    dx, dy = v.x - q.x, v.y - q.y
    kq = q.x - q.y
    kd = dx - dy

    def merit_vec(etas):
        ke0 = kq[None, :] + etas[:, None] * kd[None, :]
        xs = q.x[None, :] + etas[:, None] * dx[None, :]
        f = 0.5 * np.sum((xs - np.array([0.9, 0.1])) ** 2, axis=1)
        return (mu + rho / 2) * np.sum(ke0**2, axis=1) + f + ke0 @ w

    vals = merit_vec(grid)
    best = grid[int(np.argmin(vals))]
    assert abs(eta - best) <= 1e-5


def test_line_search_beats_endpoints():
    rng = np.random.default_rng(0)
    spec = box_problem([1.3, -0.4])
    for _ in range(10):
        q = q_of(rng.random(2), rng.random(2))
        v = q_of(rng.random(2), rng.random(2))
        w = rng.standard_normal(2)
        eta = searched_eta(spec, q, v, grad_pair(spec, q, w, 1.4), 0.2,
                           1.0)

        def merit(e):
            qe = blend(q, v, e)
            ke = k_apply(spec, qe)
            return 0.2 * ke @ ke + record_values(spec, qe, w, 1.0,
                                                 audit=True)[2]

        assert merit(eta) <= merit(0.0) + 1e-12
        assert merit(eta) <= merit(1.0) + 1e-12


def dense_quadratic_problem():
    """Non-identity Hessian and a dense 2x3 coupling, box domains."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 3))
    Q = M @ M.T + 0.5 * np.eye(3)
    b = rng.standard_normal(3)
    A = rng.standard_normal((2, 3))
    spec = ProblemSpec(f=SmoothTerm.quadratic(Q, b, 0.3),
                       A=LinearMap.from_dense(A),
                       rx=BoxIndicator(3, -1.0, 2.0), ry=BoxIndicator(2, -5.0, 5.0))
    q = q_of(rng.uniform(-1, 2, 3), rng.uniform(-5, 5, 2))
    v = q_of(rng.uniform(-1, 2, 3), rng.uniform(-5, 5, 2))
    return spec, (Q, b, A), q, v, rng.standard_normal(2)


def test_line_search_matches_dense_grid_with_hessian_and_dense_map():
    spec, (Q, b, A), q, v, w = dense_quadratic_problem()
    mu, rho = 0.2, 1.0
    eta = searched_eta(spec, q, v, grad_pair(spec, q, w, rho + 2 * mu),
                       mu, rho)

    grid = np.linspace(0.0, 1.0, 1_000_001)
    xs = q.x[None, :] + grid[:, None] * (v.x - q.x)[None, :]
    ys = q.y[None, :] + grid[:, None] * (v.y - q.y)[None, :]
    ke = xs @ A.T - ys
    vals = (0.5 * np.sum((xs @ Q) * xs, axis=1) + xs @ b + ke @ w
            + (mu + rho / 2) * np.sum(ke**2, axis=1))
    best = grid[int(np.argmin(vals))]
    assert 0.0 < best < 1.0  # the interior candidate is the one exercised
    assert abs(eta - best) <= 1e-5


def test_line_search_calls_no_smooth_term_and_one_map_product():
    spec, _, q, v, w = dense_quadratic_problem()
    px, py = grad_pair(spec, q, w, 1.4)
    d = q_of(v.x - q.x, v.y - q.y)
    lin = float(px @ d.x) + float(py @ d.y)
    calls = {"value": 0, "gradient": 0, "apply": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    spec.f.value = counted("value", spec.f.value)
    spec.f.gradient = counted("gradient", spec.f.gradient)
    spec.A.apply = counted("apply", spec.A.apply)
    d0 = d.copy()
    line_search_eta(spec, d, lin, 0.2, 1.0)
    assert np.array_equal(d.x, d0.x) and np.array_equal(d.y, d0.y)
    assert calls["value"] == 0 and calls["gradient"] == 0
    assert calls["apply"] <= 1


# ---------------------------------------------------------------------------
# stepping


def frozen_spec(dim=2):
    return ProblemSpec(f=zero_smooth(dim), A=LinearMap.identity(dim),
                       rx=FrozenOracle(dim), ry=FrozenOracle(dim))


def test_step_fixed_point_only_advances_counter():
    spec = frozen_spec()
    q0 = q_of([0.5, 0.5], [0.5, 0.5])  # feasible: Kq = 0
    config = SolverConfig(rho=1.0, mu=0.2, iters=1, step_policy="fixed", eta=0.3)
    state, _ = next(iterate(spec, q0, np.zeros(2), config))
    assert state.t == 1
    assert np.allclose(state.q.x, q0.x) and np.allclose(state.q.y, q0.y)
    assert np.allclose(state.w, 0.0)


def test_step_dual_update_arithmetic():
    spec = frozen_spec()
    q0 = q_of([1.0, 0.0], [0.0, 0.0])  # Kq stays (1, 0) under frozen oracles
    config = SolverConfig(rho=1.0, mu=0.2, iters=1, step_policy="fixed", eta=0.5)
    state, _ = next(iterate(spec, q0, np.zeros(2), config))
    assert np.allclose(state.w, [0.2, 0.0])


def test_step_convex_combination_stays_feasible():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    config = SolverConfig(rho=1.0, mu=1e-4, iters=40, step_policy="theoretical")
    log = run(spec, q0, w0, config, )
    # every logged iterate was produced by convex combinations of box points
    assert not any(r.objective_flagged for r in log.records)


def test_dual_update_identity_per_iteration():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    config = SolverConfig(rho=1.0, mu=1e-4, iters=25, step_policy="theoretical")
    w_prev = w0.copy()
    for state, step in iterate(spec, q0, w0, config):
        kq = k_apply(spec, state.q)
        assert np.array_equal(state.w, w_prev + config.mu * kq)
        assert step.k_norm == float(np.linalg.norm(kq))
        w_prev = state.w.copy()
    assert state.t == 25


def test_iterate_checks_inputs_before_stepping():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    with pytest.raises(ValueError, match="outside"):
        iterate(spec, q_of([5.0, 5.0], [5.0, 5.0]), w0,
                SolverConfig(rho=1.0, mu=1e-4, iters=3))
    with pytest.raises(ValueError, match="dual step bound"):
        iterate(spec, q0, w0, SolverConfig(rho=1.0, mu=0.2, iters=3))
    # the shapes are checked before the domains
    config = SolverConfig(rho=1.0, mu=1e-4, iters=3)
    with pytest.raises(ValueError, match=r"x has shape \(3,\), but the x-block"):
        iterate(spec, q_of([5.0, 5.0, 5.0], q0.y), w0, config)
    with pytest.raises(ValueError, match=r"w has shape \(1,\), but the constraint"):
        iterate(spec, q0, w0[:1], config)


def test_run_logs_what_iterate_yields():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    config = SolverConfig(rho=1.0, mu=0.2, iters=30, step_policy="line_search",
                          eta=0.5)
    steps = [(state.t, step) for state, step in iterate(spec, q0, w0, config)]
    log = run(spec, q0, w0, config)
    assert [(r.t, r.eta_used, r.eta_fallback, r.feasibility)
            for r in log.records] == [(t, *step) for t, step in steps]


def test_step_sizes_use_declared_lam():
    # two polytope blocks declaring lam = 4: the theoretical step is
    # alpha_s / (2 lam beta_hat) = (1/3) / (2 * 4 * 5.0008)
    a = np.array([0.8, 0.3, 0.6])

    def hypercube():
        return PolytopeIndicator(3, hypercube_lmo(0.0, 1.0),
                                 PolytopeState.at_vertex(np.zeros(3)), lam=4.0)

    spec = ProblemSpec(f=SmoothTerm.half_sq_distance(a),
                       A=LinearMap.identity(3), rx=hypercube(), ry=hypercube())
    assert step_constants(spec, 1.0).lam == 4.0
    log = run(spec, q_of(np.zeros(3), np.zeros(3)), np.zeros(3),
              SolverConfig(rho=1.0, mu=1e-4, iters=1))
    assert log.records[0].eta_used == pytest.approx(0.00833, abs=5e-6)
    assert log.records[0].eta_used == pytest.approx(
        (1 / 3) / (2 * 4.0 * (5.0 + 2e-4 * 4.0)), rel=1e-12)


def test_oracle_failure_wraps_iteration_index():
    class Boom(WpoComponent):
        def compute(self, center, p, coeff):
            raise RuntimeError("boom")

        def value(self, v):
            return 0.0

    spec = ProblemSpec(f=zero_smooth(2), A=LinearMap.identity(2),
                       rx=Boom(2), ry=ZeroReg(2))
    config = SolverConfig(rho=1.0, mu=0.1, iters=5, step_policy="fixed", eta=0.5)
    q0, w0 = q_of([0, 0], [0, 0]), np.zeros(2)
    with pytest.raises(SolverError) as exc:
        run(spec, q0, w0, config)
    assert exc.value.iteration == 0
    partial = exc.value.partial_log
    # the solver's own copies of the start, never the caller's arrays
    for got, given in ((partial.last_point.x, q0.x),
                       (partial.last_point.y, q0.y), (partial.w_final, w0)):
        assert np.array_equal(got, given)
        assert not np.may_share_memory(got, given)


def test_x_oracle_failure_after_the_y_step_logs_the_moved_y():
    # under fixed steps y moves before the x-oracle runs, and its old block
    # is gone: an x-oracle failing at t = 2 leaves (x_2, y_3) with w_2
    class FailsAtThirdCall(BoxIndicator):
        calls = 0

        def compute(self, center, p, coeff):
            self.calls += 1
            if self.calls == 3:
                raise RuntimeError("boom")
            return super().compute(center, p, coeff)

    spec, q0, w0 = build_box_toy([1.5, 0.7])
    config = SolverConfig(rho=1.0, mu=0.1, iters=5, step_policy="fixed",
                          eta=0.5)
    states = [(s.q.x.copy(), s.q.y.copy(), s.w.copy())
              for s, _ in iterate(spec, q0, w0, config)]
    (x2, y2, w2), (_x3, y3, _w3) = states[1], states[2]
    assert not np.array_equal(y3, y2)  # the y-step moves y
    spec.rx = FailsAtThirdCall(2, 0.0, 1.0)
    with pytest.raises(SolverError) as exc:
        run(spec, q0, w0, config)
    assert exc.value.iteration == 2
    partial = exc.value.partial_log
    assert [r.t for r in partial.records] == [1, 2]
    assert np.array_equal(partial.last_point.x, x2)
    assert np.array_equal(partial.last_point.y, y3)
    assert np.array_equal(partial.w_final, w2)


@pytest.mark.parametrize("problem", ["maxcut", "cme", "polytope2", "dense",
                                     "stacked"])
def test_run_is_bit_identical_to_the_plainly_ordered_reference(problem):
    # the step's order of work and its buffers change no logged bit: the
    # golden traces compare at rtol 1e-9 and would miss a reordered sum.
    # The last two cases take their gradient through a map other than the
    # identity and start from a nonzero multiplier
    rng = np.random.default_rng(3)
    if problem == "dense":
        B = rng.standard_normal((4, 4))
        spec = ProblemSpec(
            f=SmoothTerm.quadratic(B @ B.T, rng.standard_normal(4)),
            A=LinearMap.from_dense(rng.standard_normal((3, 4))),
            rx=BoxIndicator(4, -1.0, 1.0), ry=L1BallIndicator(3, 1.0))
        q0, w0 = q_of(np.zeros(4), np.zeros(3)), np.array([0.5, -1.0, 0.25])
        # a base step this small keeps most searched steps inside (0, 1)
        settings = dict(rho=1.0, mu=0.2, eta=0.1, step_policy="line_search")
    elif problem == "stacked":
        spec = ProblemSpec(
            f=SmoothTerm.half_sq_distance(rng.standard_normal(3)),
            A=LinearMap.stacked_identity(3, 2), rx=BoxIndicator(3, 0.0, 1.0),
            ry=ProductComponent([BoxIndicator(3, 0.0, 0.5),
                                 SimplexIndicator(3, 1.0)]))
        q0 = q_of(np.zeros(3), [0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        w0 = rng.standard_normal(6)
        settings = dict(rho=1.0, mu=0.2, eta=0.3, step_policy="fixed")
    elif problem == "maxcut":
        spec, q0, w0 = build_maxcut_problem(
            laplacian(gen_er_graph(30, 0.2, seed=0)), 5)
        settings = dict(rho=1.0, mu=0.2, eta=0.2, step_policy="fixed")
    elif problem == "cme":
        _sigma, sigma_hat, tau, s = gen_cme_instance(CmeConfig(d=12, r=3))
        spec, q0, w0 = build_cme_problem(sigma_hat, tau, s, 3)
        settings = dict(rho=1.0, mu=0.2, step_policy="line_search")
    else:
        (spec, q0, w0), solver = _load_problem(
            os.path.join(os.path.dirname(__file__), "data", "polytope2.json"))
        settings = solver
    config = SolverConfig(**{**settings, "iters": 20}, trace_mean=True)
    log = run(spec, q0, w0, config)
    records, last, mean, w = reference_run(spec, q0, w0, config)
    assert [astuple(r)[:7] + astuple(r)[8:] for r in log.records] == records
    for got, want in ((log.last_point, last), (log.mean_point, mean)):
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    assert np.array_equal(log.w_final, w)


# ---------------------------------------------------------------------------
# run


def test_run_empty_mean_is_error():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    with pytest.raises(ValueError):
        run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.1, iters=0,
                                       step_policy="fixed", eta=0.5,
                                       variant="mean"))
    log = run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.1, iters=0,
                                         step_policy="fixed", eta=0.5,
                                         variant="last"))
    for got, given in ((log.last_point.x, q0.x), (log.last_point.y, q0.y),
                       (log.w_final, w0)):
        assert np.array_equal(got, given)
        assert not np.may_share_memory(got, given)
    assert log.mean_point is None and log.records == []


def test_run_requires_feasible_start():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    bad = q_of([5.0, 5.0], [5.0, 5.0])
    with pytest.raises(ValueError):
        run(spec, bad, w0, SolverConfig(rho=1.0, mu=0.1, iters=3,
                                        step_policy="fixed", eta=0.5))


@pytest.mark.parametrize("name, value", [("x0", np.nan), ("y0", np.inf),
                                         ("w0", np.nan)])
def test_iterate_rejects_non_finite_start_by_name(name, value):
    # a zero-regularized x-block has distance 0 from anything, and a box
    # once held an infinite entry within its infinite tolerance
    spec = ProblemSpec(f=SmoothTerm.half_sq_distance(np.array([1.5, 0.7])),
                       A=LinearMap.identity(2), rx=ZeroReg(2),
                       ry=BoxIndicator(2, 0.0, 1.0))
    q0, w0 = q_of([0.0, 0.0], [0.0, 0.0]), np.zeros(2)
    {"x0": q0.x, "y0": q0.y, "w0": w0}[name][0] = value
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry"):
        run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.1, iters=3,
                                       step_policy="fixed", eta=0.5))


def _run_from_nan_start():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    q0.x[0] = np.nan
    run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.1, iters=3,
                                   step_policy="fixed", eta=0.5))


def _polytope(lam):
    return lambda: PolytopeIndicator(2, hypercube_lmo(0.0, 1.0),
                                     PolytopeState.at_vertex(np.zeros(2)),
                                     lam=lam)


@pytest.mark.parametrize("build", [
    pytest.param(_run_from_nan_start, id="nan-start"),
    pytest.param(lambda: BoxIndicator(2, np.nan, 1.0), id="box-lo"),
    pytest.param(lambda: BoxIndicator(2, 0.0, [1.0, np.nan]), id="box-hi"),
    pytest.param(lambda: L1BallIndicator(2, np.nan), id="l1-radius"),
    pytest.param(lambda: SimplexIndicator(2, np.nan), id="simplex-radius"),
    pytest.param(lambda: NuclearNormReg((2, 2), np.nan, 1), id="nuclear-nu"),
    pytest.param(lambda: NuclearBallIndicator((2, 2), np.nan, 1),
                 id="nuclear-ball-tau"),
    pytest.param(lambda: SpectrahedronIndicator(2, np.nan, 1),
                 id="spectrahedron-tau"),
    pytest.param(_polytope(np.nan), id="polytope-lam-nan"),
    pytest.param(_polytope(np.inf), id="polytope-lam-inf"),
    pytest.param(lambda: StepConstants(1.0, 1.0, np.nan, 1.0),
                 id="steps-norm-a"),
    pytest.param(lambda: StepConstants(1.0, 1.0, 0.0, np.nan),
                 id="steps-lam-nan"),
    pytest.param(lambda: StepConstants(1.0, 1.0, 0.0, np.inf),
                 id="steps-lam-inf"),
])
def test_nan_or_infinite_parameter_is_rejected(build):
    # a nan compares false both ways, so each check must be written to fail
    # on it; a weak oracle's lam must also be finite to reach the steps
    with pytest.raises(ValueError):
        build()


def test_run_deterministic_given_seed():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    config = SolverConfig(rho=1.0, mu=1e-4, iters=30, step_policy="theoretical")
    a = run(spec, q0, w0, config)
    b = run(spec, q0, w0, config)
    for ra, rb in zip(a.records, b.records):
        assert ra.objective == rb.objective
        assert ra.feasibility == rb.feasibility
        assert ra.al_value == rb.al_value
        assert ra.eta_used == rb.eta_used
    assert np.array_equal(a.last_point.x, b.last_point.x)
    assert np.array_equal(a.mean_point.x, b.mean_point.x)


def test_run_ergodic_identity():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    config = SolverConfig(rho=1.0, mu=1e-4, iters=60, step_policy="theoretical")
    log = run(spec, q0, w0, config)
    iterates = [state.q.copy() for state, _ in iterate(spec, q0, w0, config)]
    xs = np.mean([q.x for q in iterates], axis=0)
    ys = np.mean([q.y for q in iterates], axis=0)
    assert np.linalg.norm(xs - log.mean_point.x) <= 1e-12 * max(
        1.0, np.linalg.norm(xs))
    assert np.linalg.norm(ys - log.mean_point.y) <= 1e-12 * max(
        1.0, np.linalg.norm(ys))


def collected(spec, q0, w0, config):
    """Copies of the iterates and multipliers ``iterate`` yields."""
    return [(state.q.copy(), state.w.copy())
            for state, _ in iterate(spec, q0, w0, config)]


def mean_of(points):
    return q_of(np.mean([q.x for q in points], axis=0),
                np.mean([q.y for q in points], axis=0))


@pytest.mark.parametrize("ry", [L1BallIndicator(30, 4.0), ZeroReg(30)],
                         ids=["indicator-y", "zero-y"])
def test_traced_mean_values_are_record_values_at_the_mean(ry):
    # a nuclear-norm x-block has a value at every mean point, unaudited
    # records included; an indicator y-block contributes 0 there
    rng = np.random.default_rng(7)
    spec = ProblemSpec(f=SmoothTerm.half_sq_distance(rng.standard_normal(30)),
                       A=LinearMap.identity(30),
                       rx=NuclearNormReg((6, 5), 0.5, 2), ry=ry)
    q0, w0 = q_of(np.zeros(30), np.zeros(30)), 0.1 * rng.standard_normal(30)
    config = SolverConfig(rho=1.0, mu=0.2, eta=0.3, iters=12,
                          step_policy="fixed", trace_mean=True)
    log = run(spec, q0, w0, config)
    points = collected(spec, q0, w0, config)
    for rec in log.records:
        qs, w = [q for q, _ in points[:rec.t]], points[rec.t - 1][1]
        obj, flagged, al = record_values(spec, mean_of(qs), w, config.rho,
                                         audit=rec.t == config.iters)
        assert not flagged and not rec.objective_flagged
        assert rec.mean_objective == pytest.approx(obj, rel=1e-12, abs=0)
        assert rec.mean_al_value == pytest.approx(al, rel=1e-12, abs=0)
    # without its y-block a point is valued only for an unaudited indicator
    q = PrimalPoint(log.mean_point.x, None)
    kq = k_apply(spec, log.mean_point)
    for audit in (False, True):
        if audit or not ry.is_indicator:
            with pytest.raises(ValueError, match="q.y is needed"):
                record_values(spec, q, w0, config.rho, audit, kq=kq)
        else:
            assert record_values(spec, q, w0, config.rho, audit, kq=kq) == \
                record_values(spec, log.mean_point, w0, config.rho, kq=kq)


@pytest.mark.parametrize("w0_scale", [0.0, 1.0])
def test_dot_product_mean_values_are_record_values_at_the_mean(w0_scale):
    # two indicator blocks: the records before the final one take the mean's
    # values from dot products and the running sum, the final one from the
    # mean it forms; both agree with record_values at the averaged iterates
    rng = np.random.default_rng(8)
    B = rng.standard_normal((5, 5))
    spec = ProblemSpec(f=SmoothTerm.quadratic(B @ B.T, rng.standard_normal(5),
                                              0.7),
                       A=LinearMap.from_dense(rng.standard_normal((4, 5))),
                       rx=BoxIndicator(5, -1.0, 1.0),
                       ry=L1BallIndicator(4, 1.5))
    q0, w0 = q_of(np.zeros(5), np.zeros(4)), w0_scale * rng.standard_normal(4)
    config = SolverConfig(rho=1.0, mu=0.2, eta=0.3, iters=12,
                          step_policy="fixed", trace_mean=True)
    log = run(spec, q0, w0, config)
    points = collected(spec, q0, w0, config)
    for rec in log.records:
        qs, w = [q for q, _ in points[:rec.t]], points[rec.t - 1][1]
        mean = mean_of(qs)
        obj, flagged, al = record_values(spec, mean, w, config.rho,
                                         audit=rec.t == config.iters)
        assert not flagged and not rec.objective_flagged
        assert rec.mean_objective == pytest.approx(obj, rel=1e-12, abs=0)
        assert rec.mean_al_value == pytest.approx(al, rel=1e-12, abs=0)
        assert rec.mean_feasibility == pytest.approx(
            np.linalg.norm(k_apply(spec, mean)), rel=1e-12, abs=0)


@pytest.mark.parametrize("problem, tol", [
    ("maxcut", 1e-2), ("maxcut", 1e-9), ("cme", 1e-2), ("cme", 1e-9)])
def test_spectrahedron_blocks_stay_exactly_symmetric(monkeypatch, problem,
                                                     tol):
    # the oracle returns F F^T and every other update is elementwise, so the
    # x-iterates, the x-oracle's centers and gradients, and the other
    # blocks stay exactly symmetric, and the kernel refuses no center
    if problem == "maxcut":
        n = 40
        spec, q0, w0 = build_maxcut_problem(
            laplacian(gen_er_graph(n, 0.2, seed=2)), 4, svd_tol=tol)
        config = SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=15,
                              step_policy="fixed", trace_mean=True)
    else:
        n = 16
        _sigma, sigma_hat, tau, s = gen_cme_instance(CmeConfig(d=n, r=2))
        spec, q0, w0 = build_cme_problem(sigma_hat, tau, s, 3, svd_tol=tol)
        config = SolverConfig(rho=25.0, mu=0.2, iters=15,
                              step_policy="line_search", trace_mean=True)

    def symmetric(v):
        return np.array_equal(v.reshape(n, n), v.reshape(n, n).T)

    kernel, refused, calls = linalg.truncated_eigh, [], []

    def watched(M, *args, **kwargs):
        try:
            return kernel(M, *args, **kwargs)
        except linalg.NotSymmetricError:
            refused.append(True)
            raise

    monkeypatch.setattr(linalg, "truncated_eigh", watched)
    compute = spec.rx.compute

    def recorded(center, p, coeff):
        out = compute(center, p, coeff)
        calls.append(symmetric(center) and symmetric(p) and symmetric(out))
        return out

    spec.rx.compute = recorded
    assert symmetric(q0.x) and symmetric(q0.y)
    for state, _ in iterate(spec, q0, w0, config):
        assert symmetric(state.q.x) and symmetric(state.q.y)
        assert symmetric(state.w) and symmetric(state.kq)
    log = run(spec, q0, w0, config)
    assert symmetric(log.mean_point.x) and symmetric(log.mean_point.y)
    assert len(calls) == 2 * config.iters and all(calls)
    assert refused == []


@pytest.mark.parametrize("A", [
    LinearMap.from_dense(np.random.default_rng(3).standard_normal((4, 6))),
    LinearMap.stacked_identity(6, 3),
], ids=["dense", "stacked"])
def test_telescoped_mean_matches_the_average_of_the_iterates(A):
    # K qbar comes from the multiplier, (w_T - w_0) / (mu T), and the mean's
    # y-block from A xbar - K qbar: neither leans on an identity map or a
    # zero start
    rng = np.random.default_rng(4)
    spec = ProblemSpec(f=SmoothTerm.half_sq_distance(rng.standard_normal(6)),
                       A=A, rx=BoxIndicator(6, -1.0, 1.0),
                       ry=L1BallIndicator(A.dim_out, 2.0))
    q0 = q_of(np.zeros(6), np.zeros(A.dim_out))
    w0 = rng.standard_normal(A.dim_out)
    config = SolverConfig(rho=1.0, mu=0.2, eta=0.3, iters=15,
                          step_policy="fixed", trace_mean=True)
    log = run(spec, q0, w0, config)
    points = collected(spec, q0, w0, config)
    mean = mean_of([q for q, _ in points])
    for got, want in ((log.mean_point.x, mean.x), (log.mean_point.y, mean.y)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for rec in log.records:
        kq = k_apply(spec, mean_of([q for q, _ in points[:rec.t]]))
        assert rec.mean_feasibility == pytest.approx(np.linalg.norm(kq),
                                                     rel=1e-12, abs=0)
    assert not log.records[-1].objective_flagged


def test_run_record_times_nondecreasing():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    log = run(spec, q0, w0, SolverConfig(rho=1.0, mu=1e-4, iters=20,
                                         step_policy="theoretical"))
    times = [r.elapsed for r in log.records]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert [r.t for r in log.records] == list(range(1, 21))


# ---------------------------------------------------------------------------
# buffer ownership: each step writes into arrays it owns


class AliasingOracle(FrozenOracle):
    """Test double: proposes the center, returning the argument itself."""

    def compute(self, center, p, coeff):
        return center


@pytest.mark.parametrize("policy", ["fixed", "line_search"])
def test_yielded_arrays_are_never_modified(policy):
    spec, q0, w0 = build_maxcut_problem(
        laplacian(gen_er_graph(12, 0.3, seed=4)) / 4.0, 3)
    config = SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=5, step_policy=policy)
    kept = [(state.q.x, state.q.y, state.w,
             state.q.x.copy(), state.q.y.copy(), state.w.copy())
            for state, _ in iterate(spec, q0, w0, config)]
    assert len({id(a) for entry in kept for a in entry[:3]}) == 15
    for x, y, w, x_then, y_then, w_then in kept:
        assert np.array_equal(x, x_then)
        assert np.array_equal(y, y_then)
        assert np.array_equal(w, w_then)


def test_oracle_returning_its_center_matches_one_returning_a_copy():
    def records(oracle):
        spec = ProblemSpec(f=SmoothTerm.linear(np.array([1.0, -2.0])),
                           A=LinearMap.identity(2), rx=oracle(2), ry=oracle(2))
        q0 = q_of([1.0, 0.5], [0.0, 0.25])
        config = SolverConfig(rho=1.0, mu=0.2, eta=0.3, iters=6,
                              step_policy="fixed", trace_mean=True)
        log = run(spec, q0, np.zeros(2), config)
        assert np.array_equal(q0.x, [1.0, 0.5])
        return [(r.t, r.objective, r.feasibility, r.al_value, r.mean_objective,
                 r.mean_feasibility, r.mean_al_value) for r in log.records]

    assert records(AliasingOracle) == records(FrozenOracle)


def traced_peak_blocks(spec, q0, w0, config, n, solve=run):
    """Peak traced memory of one ``solve`` (by default ``run``), in blocks
    of n^2 floats."""
    solve(spec, q0, w0, config)  # one-time allocations out of the peak
    tracemalloc.start()
    try:
        solve(spec, q0, w0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * n * n)


def test_iterate_peak_memory_is_at_most_five_and_a_half_blocks():
    # iterate carries only the method: the iterate and the multiplier take
    # 3 blocks of n^2 floats, with no running sum. The y-oracle runs first
    # and a fixed step moves y before the x-oracle runs, so each oracle
    # holds its gradient block and its own center or output: 5; the rest is
    # the rank-k kernel's work space, kept small by a low rank and a loose
    # tolerance
    n = 500
    spec, q0, w0 = build_maxcut_problem(
        laplacian(gen_er_graph(n, 0.1, seed=5)), 5, svd_tol=1e-1)
    config = SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=3,
                          step_policy="fixed")

    def steps(*args):
        for _ in iterate(*args):
            pass

    assert traced_peak_blocks(spec, q0, w0, config, n, solve=steps) <= 5.5


def test_run_peak_memory_is_at_most_six_and_a_half_blocks():
    # the iterate, the multiplier and the running sum of the x-blocks take 4
    # blocks of n^2 floats; each oracle adds its gradient (the y-part, then
    # the x-part formed once the y-step is taken and the y-part is gone) and
    # its output: 6. A traced mean record holds the 4, the carried K q and
    # one block of its own, K qbar and then xbar. The rest is the rank-k
    # kernel's O(n x Krylov dimension) work space, kept small here by a low
    # rank and a loose tolerance
    n = 500
    spec, q0, w0 = build_maxcut_problem(
        laplacian(gen_er_graph(n, 0.06, seed=3)) / 4.0, 5, svd_tol=1e-1)
    config = SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=3,
                          step_policy="fixed", trace_mean=True)
    assert traced_peak_blocks(spec, q0, w0, config, n) <= 6.5


def test_line_search_run_peak_memory_is_at_most_eight_blocks():
    # line search holds 4 blocks of the iterate, the multiplier and the
    # running sum, the direction d (both oracle outputs, turned in place)
    # and A dx - dy: 7. The gradient blocks are gone by then, each freed
    # once its oracle has run and its part of <grad, d> is taken. The
    # x-oracle holds the 4, dy, the x-gradient and its output; the y-oracle
    # the 4, the y-gradient and the shifted center it projects in place,
    # plus that projection's sign mask and active sets; the final record's
    # mean audit holds the 4, the mean's y-block and the x-block's
    # symmetric part. The run peaks near 7.75 here
    d = 150
    _sigma, sigma_hat, tau, s = gen_cme_instance(CmeConfig(d=d, r=3, seed=1))
    spec, q0, w0 = build_cme_problem(sigma_hat, tau, s, 3, svd_tol=1e-2)
    config = SolverConfig(rho=25.0, mu=0.2, iters=3, step_policy="line_search",
                          trace_mean=True)
    assert traced_peak_blocks(spec, q0, w0, config, d) <= 8.0


def test_theoretical_policy_enforces_dual_cap():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    with pytest.raises(ValueError):
        run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.2, iters=5,
                                       step_policy="theoretical"))


def test_line_search_dominates_base_step():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    rho, mu = 1.0, 0.2
    norm_a = spec.A.norm_bound
    consts = step_constants(spec, rho)
    base = consts.eta(mu)

    state_q, w = q0.copy(), w0.copy()
    coeff = base * (consts.beta_s + 2 * mu * (norm_a + 1) ** 2)
    for _ in range(15):
        px, py = grad_pair(spec, state_q, w, rho + 2 * mu)
        v = PrimalPoint(spec.rx.compute(state_q.x, px, coeff),
                        spec.ry.compute(state_q.y, py, coeff))
        eta = searched_eta(spec, state_q, v, (px, py), mu, rho)

        def merit(e):
            qe = blend(state_q, v, e)
            ke = k_apply(spec, qe)
            return mu * ke @ ke + record_values(spec, qe, w, rho,
                                                audit=True)[2]

        assert merit(eta) <= merit(base) + 1e-12
        state_q = blend(state_q, v, eta)
        w = w + mu * k_apply(spec, state_q)


def test_line_search_fallback_flagged(monkeypatch):
    # the rule is decided once per run: a block not constant on segments
    # means every step takes the base step, and none line-searches
    import wpmm.solver as solver

    class CurvedOracle(FrozenOracle):
        constant_on_segments = False

    def no_search(*args, **kwargs):
        raise AssertionError("line search ran on a run that cannot search")

    monkeypatch.setattr(solver, "line_search_eta", no_search)
    spec = ProblemSpec(f=zero_smooth(2), A=LinearMap.identity(2),
                       rx=CurvedOracle(2), ry=BoxIndicator(2, 0.0, 1.0))
    config = SolverConfig(rho=1.0, mu=0.1, iters=2, step_policy="line_search",
                          eta=0.25)
    log = run(spec, q_of([0.5, 0.5], [0.5, 0.5]), np.zeros(2), config)
    assert len(log.records) == 2
    assert all(r.eta_fallback for r in log.records)
    assert all(r.eta_used == 0.25 for r in log.records)


def test_run_audits_final_record():
    # an oracle output outside its domain is not caught per step; the final
    # record's audit flags it with the distance as the objective
    spec = ProblemSpec(f=zero_smooth(2), A=LinearMap.identity(2),
                       rx=EscapingOracle(2), ry=BoxIndicator(2, 0.0, 1.0))
    config = SolverConfig(rho=1.0, mu=0.1, iters=2, step_policy="fixed",
                          eta=0.25)
    log = run(spec, q_of([0.5, 0.5], [0.5, 0.5]), np.zeros(2), config)
    first, final = log.records
    assert not first.objective_flagged and first.objective == 0.0
    assert final.objective_flagged
    assert final.objective == pytest.approx(
        spec.rx.distance(log.last_point.x), rel=1e-12)
    assert final.objective > 1.0
    assert final.al_value == math.inf


def test_run_audit_flags_mean_point_outside_domain():
    # the oracle escapes its box once and returns inside next time, so the
    # last point passes the final audit while the mean point fails it
    class EscapingOnce(EscapingOracle):
        calls = 0

        def compute(self, center, p, coeff):
            self.calls += 1
            if self.calls == 1:
                return np.asarray(center, dtype=float) + 5.0
            return np.clip(center, 0.0, 1.0)

    spec = ProblemSpec(f=zero_smooth(2), A=LinearMap.identity(2),
                       rx=EscapingOnce(2), ry=BoxIndicator(2, 0.0, 1.0))
    config = SolverConfig(rho=1.0, mu=0.1, iters=2, step_policy="fixed",
                          eta=1.0, trace_mean=True)
    log = run(spec, q_of([0.5, 0.5], [0.5, 0.5]), np.zeros(2), config)
    first, final = log.records
    assert not first.objective_flagged
    assert spec.rx.distance(log.last_point.x) == 0.0
    assert spec.rx.distance(log.mean_point.x) > 1.0
    assert final.mean_al_value == math.inf
    assert final.objective_flagged


def test_spectrahedron_audit_flags_output_outside_set():
    # an oracle output whose trace is one too large is not caught per step;
    # the final record's audit flags both points with their exact distances
    class TraceEscaping(SpectrahedronIndicator):
        def compute(self, center, p, coeff):
            out = super().compute(center, p, coeff)
            out[::self.shape[0] + 1] += 1.0 / self.shape[0]
            return out

    n = 12
    start = np.eye(n).ravel() / n
    spec = ProblemSpec(f=zero_smooth(n * n), A=LinearMap.identity(n * n),
                       rx=TraceEscaping(n, 1.0, 3), ry=ZeroReg(n * n))
    config = SolverConfig(rho=1.0, mu=0.1, iters=3, step_policy="fixed",
                          eta=0.5, trace_mean=True)
    log = run(spec, q_of(start, start), np.zeros(n * n), config)
    assert not any(r.objective_flagged for r in log.records[:-1])
    final = log.records[-1]
    assert final.objective_flagged and final.al_value == math.inf
    assert final.objective == spec.rx.distance(log.last_point.x) > 0.1
    assert final.mean_objective == spec.rx.distance(log.mean_point.x) > 0.1


def test_domain_distance_checked_only_at_start_and_end():
    def contains_calls(build, config):
        spec, q0, w0 = build()
        calls = []

        def counted(contains):
            def wrapped(v):
                calls.append(v.size)
                return contains(v)
            return wrapped

        # the indicator blocks, also those inside a product
        for comp in (spec.rx, spec.ry):
            for part in getattr(comp, "parts", [comp]):
                if part.is_indicator:
                    part.contains = counted(part.contains)
        log = run(spec, q0, w0, config)
        assert not any(r.objective_flagged for r in log.records)
        return len(calls)

    _, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=10, r=2, seed=3))
    C = laplacian(gen_er_graph(8, 0.4, seed=4))

    def build_mixed():
        # spectrahedron and zero blocks in one product on each side
        n, extra = 30, 5
        start = np.concatenate([np.eye(n).ravel() / n, np.zeros(extra)])
        target = np.random.default_rng(5).standard_normal(start.size)

        def mixed():
            return ProductComponent([SpectrahedronIndicator(n, 1.0, 3),
                                     ZeroReg(extra)])

        spec = ProblemSpec(f=SmoothTerm.half_sq_distance(target),
                           A=LinearMap.identity(start.size),
                           rx=mixed(), ry=mixed())
        return spec, q_of(start, start), np.zeros(start.size)

    cases = [
        # start check, then the last and the traced mean point at the end
        (lambda: build_cme_problem(SigmaHat, tau, s, k_hat=2),
         dict(step_policy="line_search", trace_mean=True), 6),
        (lambda: build_maxcut_problem(C, k_hat=3),
         dict(step_policy="fixed", eta=0.2, variant="last"), 4),
        (build_mixed, dict(step_policy="line_search", trace_mean=True), 6),
        (build_mixed, dict(step_policy="fixed", eta=0.2, variant="last"), 4),
    ]
    for build, kw, expected in cases:
        for iters in (5, 20):
            config = SolverConfig(rho=1.0, mu=0.2, iters=iters, **kw)
            assert contains_calls(build, config) == expected


# ---------------------------------------------------------------------------
# certificates


def test_check_linear_decay_constant_sequence():
    cert = check_linear_decay([1.0, 1.0, 1.0], 1.0, eta=0.1)
    assert cert.passed
    cert = check_linear_decay([2.0], 1.0, eta=0.1)
    assert cert.passed and cert.details == "fewer than two points"


def test_check_linear_decay_flags_increase():
    cert = check_linear_decay([2.0, 1.0, 5.0], 0.0, eta=0.5)
    assert not cert.passed
    assert cert.data["first_failure"] == 2


def test_check_linear_decay_on_toy():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    rho = 1.0
    consts = step_constants(spec, rho)  # alpha = beta = ||A|| = 1
    assert (consts.alpha_s, consts.beta_s) == (pytest.approx(1 / 3), 5.0)
    mu = consts.mu_cap()
    eta = consts.eta(mu)
    log = run(spec, q0, w0, SolverConfig(rho=rho, mu=mu, iters=120,
                                         step_policy="theoretical"))
    # h* = 0.125 in closed form, at x* = y* = (1, 0.7)
    cert = check_linear_decay([r.al_value for r in log.records], 0.125, eta)
    assert cert.passed


def test_check_obj_feas_split_cases():
    cert = check_obj_feas_split(0.0, 1.0, 1.0, 0.0, 0.0)
    assert cert.passed and cert.applicable
    cert = check_obj_feas_split(10.0, 1.0, 1.0, 0.0, 1.0)
    assert not cert.applicable
    # measured split from a toy run
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    log = run(spec, q0, w0, SolverConfig(rho=1.0, mu=1e-4, iters=200,
                                         step_policy="theoretical"))
    h, flagged, _ = record_values(spec, log.mean_point, log.w_final, 1.0,
                                  audit=True)
    assert not flagged
    h_gap = h - 0.125  # the closed-form optimum, with the multiplier w* = 0
    k_norm = float(np.linalg.norm(k_apply(spec, log.mean_point)))
    c = 0.1
    delta = max(h_gap + c * k_norm + 0.5 * k_norm**2, 0.0)
    cert = check_obj_feas_split(h_gap, c, 1.0, k_norm, delta)
    assert cert.passed and cert.applicable


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0, mu=0.1, iters=1)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0, mu=0.1, iters=1, step_policy="fixed")
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0, mu=0.1, iters=1, step_policy="warp")
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0, mu=0.1, iters=1, variant="median")


# curvature constants with and without alpha_s
_CONSTS = StepConstants(0.5, 5.0, 1.0, 1.0)
_FLAT = StepConstants(None, 5.0, 1.0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(rho=1.0, mu=0.1, iters=-1),
     "iters must be nonnegative"),
    (lambda: SolverConfig(rho=1.0, mu=0.1, iters=1, eta=0.0),
     "eta must lie in (0, 1]"),
    (lambda: SolverConfig(rho=1.0, mu=0.1, iters=1, eta=1.5),
     "eta must lie in (0, 1]"),
    (lambda: SolverConfig(rho=1.0, mu=0.1, iters=1, eta=0.3,
                          step_policy="theoretical"),
     "eta must be unset under the theoretical policy"),
    (lambda: StepConstants(None, 0.0, 1.0, 1.0), "beta_s must be positive"),
    (lambda: _FLAT.mu_cap(), "the step-size formulas need a curvature"),
    (lambda: _FLAT.eta(0.1), "the step-size formulas need a curvature"),
    (lambda: _FLAT.ergodic_bound(1.0, 0.0, 1.0, 0.1),
     "the step-size formulas need a curvature"),
    (lambda: _CONSTS.beta_hat(-1.0), "mu must be nonnegative"),
    (lambda: _CONSTS.eta(0.0), "mu must be positive"),
    (lambda: _CONSTS.ergodic_bound(0.0, 0.0, 1.0, 0.1),
     "c and mu must be positive"),
    (lambda: _CONSTS.ergodic_bound(1.0, 0.0, 1.0, 0.0),
     "c and mu must be positive"),
    (lambda: check_obj_feas_split(0.0, 0.0, 1.0, 0.0, 1.0),
     "c must be positive"),
    (lambda: check_obj_feas_split(0.0, 1.0, 1.0, 0.0, -1.0),
     "delta must be nonnegative"),
    (lambda: polytope_audit("cube"), "unknown polytope kind 'cube'"),
    (lambda: run_suites("nope"), "unknown suite 'nope'"),
], ids=["iters", "eta-zero", "eta-above-one", "eta-theoretical", "beta-s",
        "mu-cap-flat", "eta-flat", "ergodic-flat", "beta-hat-mu", "eta-mu",
        "ergodic-c", "ergodic-mu", "split-c", "split-delta", "polytope-kind",
        "suite"])
def test_solver_and_certificate_inputs_are_checked_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("rho, mu", [(math.inf, 0.1), (math.nan, 0.1),
                                     (1.0, math.inf), (1.0, math.nan)])
def test_solver_config_rejects_non_finite(rho, mu):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(rho=rho, mu=mu, iters=1)

