"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line (pytest -s shows them; any failure fails the suite)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from bruteforce import (
    jacobi_eigh,
    jacobi_svd,
    l1_project_bruteforce,
    simplex_project_bruteforce,
)
from wpmm.certify import (
    FRO_TOL,
    LAM_CAP,
    PHI_TOL,
    check_linear_decay,
    matrix_oracle_audit,
    polytope_audit,
)
from wpmm.harness import (
    CmeConfig,
    build_box_toy,
    build_maxcut_problem,
    build_cme_problem,
    gen_cme_instance,
    gen_er_graph,
    laplacian,
    metrics_cme,
    metrics_maxcut,
    reference_solution,
)
from wpmm.linalg import (
    project_l1_ball,
    project_simplex,
    truncated_eigh,
    truncated_svd,
)
from wpmm.model import LinearMap, ProblemSpec, SmoothTerm
from wpmm.oracles import ZeroReg
from wpmm.solver import (
    SolverConfig,
    StepConstants,
    iterate,
    run,
    step_constants,
)


def report(name, elapsed, detail=""):
    print(f"PASS {name} ({elapsed:.1f}s){' -- ' + detail if detail else ''}")


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def toy_run():
    """Strongly convex 2-D toy with theoretical steps, tracing the ergodic
    mean, plus its reference."""
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    rho = 1.0
    consts = step_constants(spec, rho)
    mu = consts.mu_cap()
    eta = consts.eta(mu)
    ref = reference_solution(spec, 1e-10, q0=q0, w0=w0)
    config = SolverConfig(rho=rho, mu=mu, iters=500,
                          step_policy="theoretical", trace_mean=True)
    log = run(spec, q0, w0, config)
    return dict(ref=ref, log=log, mu=mu, eta=eta, consts=consts)


# ---------------------------------------------------------------------------
# 1. rank-k oracles match the full prox when the optimum is low rank


def test_criterion_1_oracle_vs_prox_equivalence():
    start = time.time()
    details = []
    assert (FRO_TOL, PHI_TOL) == (1e-6, 1e-8)
    for kind, shape in (("nuclear_reg", (20, 15)),
                        ("nuclear_ball", (20, 15)),
                        ("spectrahedron", (20, 20))):
        cert = matrix_oracle_audit(kind, trials=100, shape=shape, seed=101)
        assert cert.passed, cert.details
        details.append(f"{kind}: {cert.data['worst_fro']:.1e}")
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("criterion 1 (oracle vs prox)", elapsed, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. polytope oracle condition with measured lambda


def test_criterion_2_polytope_wpo_condition():
    start = time.time()
    lams = []
    assert LAM_CAP == 10.0
    for kind in ("hypercube", "simplex"):
        cert = polytope_audit(kind, trials=50, seed=202)
        assert cert.passed, cert.details
        lams.append(f"{kind}: lam={cert.data['lam_measured']:.3f}")
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("criterion 2 (polytope oracle)", elapsed, "; ".join(lams))


def test_polytope_audit_fails_an_oracle_that_leaves_a_vertex_center(
        monkeypatch):
    # all weight on the LMO vertex: from a center at a vertex the output
    # costs more than the center itself, which no finite lam covers
    import wpmm.oracles as oracles

    monkeypatch.setattr(oracles, "simplex_qp",
                        lambda M, p, center, c, init=None:
                        np.eye(M.shape[1])[-1])
    cert = polytope_audit("hypercube", trials=25, seed=0)
    assert not cert.passed
    assert cert.data["lam_measured"] == np.inf


# ---------------------------------------------------------------------------
# 3. per-iteration linear decay of the AL gap


def test_criterion_3_linear_decay(toy_run):
    start = time.time()
    cert = check_linear_decay([r.al_value for r in toy_run["log"].records],
                              toy_run["ref"].h_value, toy_run["eta"])
    assert cert.data["checked"] == 499  # all 500 logged values audited
    assert cert.passed, cert.details
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("criterion 3 (linear decay)", elapsed,
           f"worst slack {cert.data['worst_slack']:.2e}")


# ---------------------------------------------------------------------------
# 4. ergodic O(1/T) bounds at every horizon


def test_criterion_4_ergodic_bounds(toy_run):
    start = time.time()
    ref, log = toy_run["ref"], toy_run["log"]
    c = 2.0 * float(np.linalg.norm(ref.w)) + 0.1
    d1 = log.records[0].al_value - ref.h_value
    bound = toy_run["consts"].ergodic_bound(c, 0.0, d1, toy_run["mu"])
    worst_h, worst_k = -np.inf, -np.inf
    for rec in log.records:
        # the final record audits the mean point's domain membership
        assert not rec.objective_flagged
        h_gap = rec.mean_objective - ref.h_value
        worst_h = max(worst_h, h_gap - bound / rec.t)
        worst_k = max(worst_k, rec.mean_feasibility - 2.0 * bound / (c * rec.t))
    assert rec.t == 500
    assert worst_h <= 1e-8
    assert worst_k <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("criterion 4 (ergodic bounds)", elapsed,
           f"B={bound:.3g}, worst slacks {worst_h:.2e}/{worst_k:.2e}")


# ---------------------------------------------------------------------------
# 5. desk-scale covariance estimation


def test_criterion_5_desk_scale_cme():
    start = time.time()
    d = 60
    # the rank estimate is left free by the protocol; under the pinned noise
    # level the true optimum is far from rank 3, and 10 keeps the low-rank
    # oracle character while making the optimum representable
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=d, r=3, seed=7))
    spec, q0, w0 = build_cme_problem(SigmaHat, tau, s, k_hat=10)
    ref = reference_solution(
        spec, 1e-6, q0=q0, w0=w0,
        config=SolverConfig(rho=1.0, mu=1.0, iters=200_000,
                            step_policy="line_search"))
    ref_nobj = metrics_cme(ref.q.x.reshape(d, d), Sigma, SigmaHat,
                           s).normalized_objective
    feas_target = 1e-3 * float(np.linalg.norm(SigmaHat))

    last_ok, mean_ok = False, False
    best = {}
    for rho in (0.2, 1.0, 5.0):
        config = SolverConfig(rho=rho, mu=0.2, iters=1000,
                              step_policy="line_search")
        log = run(spec, q0, w0, config)
        m_last = metrics_cme(log.last_point.x.reshape(d, d), Sigma,
                             SigmaHat, s)
        if (m_last.feasibility_distance <= feas_target
                and abs(m_last.normalized_objective - ref_nobj) <= 1e-3):
            last_ok = True
            best.setdefault("last", (rho, m_last.feasibility_distance))
        # mean trend measured on the running-average point in the l1 metric
        prefix = replace(config, iters=config.iters // 10)
        mean10 = np.mean([state.q.x
                          for state, _ in iterate(spec, q0, w0, prefix)],
                         axis=0)
        feas10 = float(np.linalg.norm(mean10 - project_l1_ball(mean10, s)))
        mean_x = log.mean_point.x
        feas_final = float(np.linalg.norm(mean_x - project_l1_ball(mean_x, s)))
        if feas_final <= feas10 / 3.0:
            mean_ok = True
            best.setdefault("mean", (rho, feas_final / feas10))
    assert last_ok, "no rho in {0.2, 1, 5} met the Last-variant targets"
    assert mean_ok, "no rho in {0.2, 1, 5} met the Mean-variant trend"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("criterion 5 (desk-scale covariance)", elapsed,
           f"last@rho={best['last'][0]} feas={best['last'][1]:.2e}, "
           f"mean ratio={best['mean'][1]:.3f}")


# ---------------------------------------------------------------------------
# 6. desk-scale Max Cut


def test_criterion_6_desk_scale_maxcut():
    start = time.time()
    g = gen_er_graph(40, 0.2, seed=3)
    C = laplacian(g)
    spec, q0, w0 = build_maxcut_problem(C, k_hat=10)
    ref = reference_solution(
        spec, 1e-7, q0=q0, w0=w0,
        config=SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=200_000,
                            step_policy="fixed"))
    ref_obj = metrics_maxcut(ref.q.x.reshape(40, 40), C).objective

    finals = {}
    for k_hat in (10, 15):
        spec_k, q0k, w0k = build_maxcut_problem(C, k_hat=k_hat)
        config = SolverConfig(rho=1.0, mu=0.2, iters=1000,
                              step_policy="fixed", eta=0.2)
        log = run(spec_k, q0k, w0k, config)
        m = metrics_maxcut(log.last_point.x.reshape(40, 40), C)
        finals[k_hat] = m
    m10 = finals[10]
    assert m10.diag_feasibility <= 1e-2
    assert abs(m10.objective - ref_obj) <= 1e-3 * abs(ref_obj)
    # overestimating the rank barely moves the objective
    drift = abs(finals[15].objective - m10.objective) / abs(m10.objective)
    assert drift <= 1e-3
    elapsed = time.time() - start
    assert elapsed < 120.0
    report("criterion 6 (desk-scale Max Cut)", elapsed,
           f"diag feas {m10.diag_feasibility:.2e}, rank drift {drift:.1e}")


# ---------------------------------------------------------------------------
# 7. constant formulas reproduce hand-derived values


def constants_at(beta, rho, norm_a, alpha=None):
    """step_constants at penalty rho of a one-coordinate problem whose f has
    smoothness beta and strong convexity alpha, with ||A|| = norm_a."""
    f = SmoothTerm(None, np.zeros(1), 0.0, beta=beta, alpha=alpha)
    return step_constants(ProblemSpec(f=f, A=LinearMap.diagonal([norm_a]),
                                      rx=ZeroReg(1), ry=ZeroReg(1)), rho)


def test_criterion_7_constant_formulas():
    start = time.time()
    # smoothness constant
    assert constants_at(1.0, 1.0, 1.0).beta_s == pytest.approx(5.0, rel=1e-12)
    assert constants_at(2.0, 3.0, 0.0).beta_s == pytest.approx(5.0, rel=1e-12)
    assert constants_at(7.25, 0.0, 3.0).beta_s == pytest.approx(7.25, rel=1e-12)
    # curvature constant
    assert constants_at(1.0, 1.0, 1.0, alpha=1.0).alpha_s == \
        pytest.approx(1 / 3, rel=1e-12)
    assert constants_at(1.0, 1.0, 1.0, alpha=2.0).alpha_s == \
        pytest.approx(0.5, rel=1e-12)
    # primal step and dual cap at the alpha = rho = ||A|| = 1 instance
    consts = StepConstants(1 / 3, 5.0, 1.0, 1.0)
    mu_cap = consts.mu_cap()
    assert mu_cap == pytest.approx((np.sqrt(1 / 9 + 25.0) - 5.0) / 16.0,
                                   rel=1e-12)
    eta = consts.eta(mu_cap)
    assert eta == pytest.approx((1 / 3) / (2 * (5.0 + 2 * mu_cap * 4.0)),
                                rel=1e-12)
    # ergodic constant
    assert consts.ergodic_bound(2.0, 0.0, 1.0, 0.5) == \
        pytest.approx(58.0, rel=1e-12)
    assert consts.ergodic_bound(2.0, 0.0, -3.0, 0.5) == \
        pytest.approx(4.0, rel=1e-12)
    # step size stays in (0, 1] whenever mu respects its cap
    rng = np.random.default_rng(707)
    for _ in range(500):
        b_s = float(10 ** rng.uniform(-2, 3))
        a_s = float(b_s * rng.uniform(1e-6, 1.0))
        lam = float(rng.uniform(1.0, 10.0))
        norm_a = float(10 ** rng.uniform(-3, 2))
        consts = StepConstants(a_s, b_s, norm_a, lam)
        cap = consts.mu_cap()
        assert cap > 0
        mu = float(cap * rng.uniform(1e-3, 1.0))
        eta = consts.eta(mu)
        assert 0.0 < eta <= 1.0
    elapsed = time.time() - start
    report("criterion 7 (constant formulas)", elapsed)


# ---------------------------------------------------------------------------
# 8. kernels against brute-force oracles


def test_criterion_8_kernel_bruteforce_suites():
    start = time.time()
    rng = np.random.default_rng(808)

    for _ in range(1000):
        n = int(rng.integers(1, 9))
        z = rng.standard_normal(n) * 3.0
        tau = float(rng.uniform(0.05, 5.0))
        assert np.linalg.norm(project_simplex(z, tau)
                              - simplex_project_bruteforce(z, tau)) <= 1e-9

    for _ in range(1000):
        n = int(rng.integers(1, 6))
        z = rng.standard_normal(n) * 2.0
        s = float(rng.uniform(0.05, 4.0))
        assert np.linalg.norm(project_l1_ball(z, s)
                              - l1_project_bruteforce(z, s)) <= 1e-9

    for _ in range(1000):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 9))
        M = rng.standard_normal((m, n))
        k = min(m, n)
        _, sigma, _ = truncated_svd(M, k, 1e-9, seed=int(rng.integers(1 << 16)))
        _, sig_ref, _ = jacobi_svd(M)
        assert np.abs(sigma - sig_ref[:k]).max() <= 1e-6 * max(1.0, sig_ref[0])

    for _ in range(1000):
        d = int(rng.integers(2, 11))
        M = rng.standard_normal((d, d))
        M = 0.5 * (M + M.T)
        U, lam = truncated_eigh(M, d, 1e-9, seed=int(rng.integers(1 << 16)))
        lam_ref, _ = jacobi_eigh(M)
        assert np.abs(lam - lam_ref).max() <= 1e-6 * max(1.0, abs(lam_ref[0]))

    elapsed = time.time() - start
    assert elapsed < 30.0
    report("criterion 8 (kernel brute-force suites)", elapsed)
