import numpy as np
import pytest

from bruteforce import er_graph_loop, laplacian_loop, write_gset
from wpmm.harness import (
    CmeConfig,
    GsetGraph,
    build_cme_problem,
    build_maxcut_problem,
    gen_cme_instance,
    gen_er_graph,
    laplacian,
    load_gset,
    metrics_cme,
    metrics_maxcut,
    reference_solution,
    build_box_toy,
)
from wpmm.linalg import project_l1_ball
from wpmm.model import LinearMap, PrimalPoint, ProblemSpec, SmoothTerm
from wpmm.oracles import BoxIndicator
from wpmm.solver import SolverConfig, iterate, record_values, run, step_constants


# ---------------------------------------------------------------------------
# instance generation


def test_cme_instance_rank_and_psd():
    cfg = CmeConfig(d=40, r=3, seed=0)
    Sigma, SigmaHat, tau, s = gen_cme_instance(cfg)
    assert np.linalg.matrix_rank(Sigma, tol=1e-10) <= 3
    assert np.linalg.eigvalsh(Sigma).min() >= -1e-10
    assert np.linalg.eigvalsh(SigmaHat).min() >= -1e-10
    assert np.allclose(SigmaHat, SigmaHat.T)
    assert tau == pytest.approx(np.trace(Sigma))
    assert s == pytest.approx(np.abs(Sigma).sum())


def test_cme_single_untruncated_block_is_rank_one():
    cfg = CmeConfig(d=12, r=1, entry_threshold=0.0, seed=1)
    Sigma, _, _, _ = gen_cme_instance(cfg)
    assert np.linalg.matrix_rank(Sigma, tol=1e-10) == 1


def test_cme_thresholding_increases_sparsity():
    dense = gen_cme_instance(CmeConfig(d=30, r=3, entry_threshold=0.0, seed=2))[0]
    sparse = gen_cme_instance(CmeConfig(d=30, r=3, entry_threshold=0.9, seed=2))[0]
    assert (sparse == 0).sum() > (dense == 0).sum()


def test_cme_instance_bit_reproducible():
    a = gen_cme_instance(CmeConfig(d=25, r=2, seed=3))
    b = gen_cme_instance(CmeConfig(d=25, r=2, seed=3))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2] and a[3] == b[3]


def test_cme_degenerate_block_errors():
    # no entry of U[-1, 1] exceeds a threshold of 1 or more
    with pytest.raises(ValueError, match="entry_threshold"):
        CmeConfig(d=10, r=1, entry_threshold=1.0, seed=4)
    # all 10 entries fall below 1 - 1e-9 in each of the 100 attempts
    with pytest.raises(ValueError, match="degenerate block"):
        gen_cme_instance(CmeConfig(d=10, r=1, entry_threshold=1 - 1e-9, seed=4))


def test_cme_config_validation():
    with pytest.raises(ValueError):
        CmeConfig(d=2, r=3)


# ---------------------------------------------------------------------------
# Gset parsing


def test_load_gset_minimal(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n1 2 1\n")
    g = load_gset(path)
    assert g.n == 2 and g.edges == [(1, 2, 1)]


def test_gset_roundtrip(tmp_path):
    g = gen_er_graph(15, 0.3, seed=5)
    path = tmp_path / "rt.txt"
    write_gset(g, path)
    g2 = load_gset(path)
    assert g2.n == g.n
    assert sorted(g2.edges) == sorted(g.edges)


def test_gset_self_loop_dropped(tmp_path):
    path = tmp_path / "loop.txt"
    path.write_text("3 2\n1 1 4\n1 2 1\n")
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_gset(path)
    assert g.edges == [(1, 2, 1)]


def test_gset_duplicate_edges_summed(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3 3\n1 2 1\n2 1 2\n2 3 1\n")
    with pytest.warns(UserWarning, match="duplicate"):
        g = load_gset(path)
    assert sorted(g.edges) == [(1, 2, 3), (2, 3, 1)]


def test_gset_parses_full_size_graph(tmp_path):
    # same node count as the standard benchmark graphs
    g = gen_er_graph(800, 0.005, seed=17)
    path = tmp_path / "g800.txt"
    write_gset(g, path)
    loaded = load_gset(path)
    assert loaded.n == 800
    assert sorted(loaded.edges) == sorted(g.edges)


def test_gset_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2 1\n1 two 1\n")
    with pytest.raises(ValueError, match=":3"):
        load_gset(path)


@pytest.mark.parametrize("text, where", [
    ("", "empty file"),
    ("3\n1 2 1\n", ":1: expected 'n m' header"),
    ("3 x\n1 2 1\n", ":1: malformed header"),
    ("3 1\n1 4 1\n", ":2: vertex out of range"),
], ids=["empty", "short-header", "non-integer-header", "vertex-range"])
def test_gset_errors_name_the_path_and_line(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_gset(path)
    assert str(exc.value).startswith(f"{path}") and where in str(exc.value)


def test_gset_edge_count_mismatch(tmp_path):
    path = tmp_path / "mismatch.txt"
    path.write_text("2 2\n1 2 1\n")
    with pytest.raises(ValueError, match="declares 2"):
        load_gset(path)


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_single_edge():
    g = GsetGraph(n=2, edges=[(1, 2, 1)])
    C = laplacian(g)
    assert np.array_equal(C, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_rows_sum_to_zero_and_psd():
    g = gen_er_graph(20, 0.3, seed=6)
    C = laplacian(g)
    assert np.abs(C.sum(axis=1)).max() <= 1e-12
    assert np.allclose(C, C.T)
    assert np.linalg.eigvalsh(C).min() >= -1e-9


@pytest.mark.parametrize("n,p,seed", [(0, 0.5, 0), (1, 0.5, 0), (2, 1.0, 3),
                                      (30, 0.2, 1), (57, 0.06, 7),
                                      (120, 0.5, 11), (200, 0.0, 2)])
def test_er_graph_matches_pairwise_loop(n, p, seed):
    g = gen_er_graph(n, p, seed=seed)
    assert g.n == n
    assert g.edges == er_graph_loop(n, p, seed=seed)
    assert all(type(x) is int for edge in g.edges for x in edge)


def test_laplacian_matches_edge_loop_bit_for_bit():
    # repeated edges in both orientations add up in edge order, with
    # negative and fractional weights; signed zeros match too
    rng = np.random.default_rng(9)
    edges = [(int(u), int(v), float(w)) for u, v, w in zip(
        rng.integers(1, 41, 400), rng.integers(1, 41, 400),
        rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, 400)) if u != v]
    graphs = [GsetGraph(n=40, edges=edges), GsetGraph(n=7, edges=[]),
              GsetGraph(n=3, edges=[(1, 2, 5), (2, 1, -5), (2, 3, -2),
                                    (3, 2, 1), (2, 3, 4)]),
              gen_er_graph(150, 0.1, seed=4)]
    for g in graphs:
        got, want = laplacian(g), laplacian_loop(g)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # a vertex out of range would land in another row of the flat index
    for edge in ((1, 4, 1), (0, 2, 1)):
        with pytest.raises(ValueError, match="outside 1..3"):
            laplacian(GsetGraph(n=3, edges=[(1, 2, 1), edge]))


def test_laplacian_quadratic_form():
    g = gen_er_graph(12, 0.4, seed=7)
    C = laplacian(g)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal(12)
        direct = sum(w * (x[u - 1] - x[v - 1]) ** 2 for u, v, w in g.edges)
        assert x @ C @ x == pytest.approx(direct, abs=1e-10 * max(1, abs(direct)))


# ---------------------------------------------------------------------------
# problem builders


def test_build_cme_problem_contract():
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=15, r=2, seed=9))
    spec, q0, w0 = build_cme_problem(SigmaHat, tau, s, k_hat=2)
    # gradient vanishes at the observation itself
    assert np.allclose(spec.f.gradient(SigmaHat.ravel()), 0.0)
    assert spec.f.alpha == 1.0 and spec.f.beta == 1.0
    assert step_constants(spec, 1.0).alpha_s == pytest.approx(1 / 3)
    # spectrahedron start: PSD with trace tau
    X0 = q0.x.reshape(15, 15)
    assert abs(np.trace(X0) - tau) <= 1e-8
    assert np.linalg.eigvalsh(X0).min() >= -1e-9
    # l1 start inside the ball
    assert np.abs(q0.y).sum() <= s + 1e-9
    assert np.array_equal(w0, np.zeros(15 * 15))


def test_build_maxcut_problem_contract():
    g = gen_er_graph(10, 0.4, seed=10)
    C = laplacian(g)
    spec, q0, w0 = build_maxcut_problem(C, k_hat=3)
    S0 = q0.x.reshape(10, 10)
    assert np.array_equal(S0, np.eye(10))
    assert np.trace(S0) == 10.0
    assert spec.pqg_alpha is None and spec.f.alpha is None
    assert spec.f.beta == pytest.approx(1e-6)
    # objective is linear: f(S) = -tr(CS)
    rng = np.random.default_rng(11)
    S = rng.standard_normal((10, 10))
    assert spec.f.value(S.ravel()) == pytest.approx(-np.trace(C @ S), rel=1e-10)


def test_build_maxcut_rejects_asymmetric():
    with pytest.raises(ValueError):
        build_maxcut_problem(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
    # the check runs a row panel at a time: a gap in any panel, across
    # panels or in the last partial one is found, relative to max |c_ij|
    C = laplacian(gen_er_graph(130, 0.2, seed=3))
    scale = np.abs(C).max()
    for i, j in ((0, 1), (5, 100), (100, 5), (129, 64), (128, 129)):
        bad = C.copy()
        bad[i, j] += 2e-10 * scale
        with pytest.raises(ValueError, match="symmetric"):
            build_maxcut_problem(bad, 1)
        bad[i, j] = C[i, j] + 0.5e-10 * scale
        build_maxcut_problem(bad, 1)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_cme_zero_cases():
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=10, r=2, seed=12))
    m = metrics_cme(SigmaHat, Sigma, SigmaHat, s)
    assert m.normalized_objective == 0.0
    m = metrics_cme(Sigma, Sigma, SigmaHat, s)
    assert m.recovery_error == 0.0
    assert m.feasibility_distance == 0.0  # Sigma has l1 norm exactly s
    inside = project_l1_ball(SigmaHat.ravel(), s).reshape(10, 10)
    assert metrics_cme(inside, Sigma, SigmaHat, s).feasibility_distance == \
        pytest.approx(0.0, abs=1e-12)


def test_metrics_maxcut_cases():
    g = gen_er_graph(8, 0.5, seed=13)
    C = laplacian(g)
    m = metrics_maxcut(np.eye(8), C)
    assert m.diag_feasibility == 0.0
    assert m.objective == pytest.approx(-np.trace(C))
    # linearity in S
    rng = np.random.default_rng(14)
    S1 = rng.standard_normal((8, 8))
    S2 = rng.standard_normal((8, 8))
    lhs = metrics_maxcut(0.3 * S1 + 0.7 * S2, C).objective
    rhs = 0.3 * metrics_maxcut(S1, C).objective + 0.7 * metrics_maxcut(S2, C).objective
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(rhs)))
    # the trace of the product, also for a non-symmetric S
    assert metrics_maxcut(S1, C).objective == pytest.approx(
        -np.trace(C @ S1), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# reference oracle


# line-search steps with a large dual step: much faster than the
# theoretical default on the covariance instances
FAST_REFERENCE = SolverConfig(rho=1.0, mu=1.0, iters=10**6,
                              step_policy="line_search")


def test_reference_on_cme_toy():
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=10, r=2, seed=15))
    spec, q0, w0 = build_cme_problem(SigmaHat, tau, s, k_hat=2)
    ref = reference_solution(spec, 1e-8, q0=q0, w0=w0, config=FAST_REFERENCE)
    assert ref.k_norm <= 1e-8
    # optimality audit: solver outputs cannot undercut the reference
    for rho in (0.5, 1.0):
        log = run(spec, q0, w0, SolverConfig(rho=rho, mu=0.2, iters=300,
                                             step_policy="line_search"))
        h, flagged, _ = record_values(spec, log.last_point, log.w_final, rho,
                                      audit=True)
        assert not flagged
        assert h >= ref.h_value - 1e-6


def test_reference_matches_dykstra_projection():
    # the covariance problem is exactly the projection of the observation
    # onto (spectrahedron) intersect (l1 ball); Dykstra's scheme computes
    # that projection by a completely different route
    from bruteforce import dykstra_two_sets

    d = 12
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=d, r=2, seed=18))
    spec, q0, w0 = build_cme_problem(SigmaHat, tau, s, k_hat=d)
    ref = reference_solution(spec, 1e-9, q0=q0, w0=w0, config=FAST_REFERENCE)
    star = dykstra_two_sets(SigmaHat.ravel(), spec.rx.project,
                            lambda v: project_l1_ball(v, s), iters=20000)
    h_star = 0.5 * float(np.linalg.norm(star - SigmaHat.ravel()) ** 2)
    assert abs(ref.h_value - h_star) <= 1e-6 * max(1.0, h_star)
    assert np.linalg.norm(ref.q.x - star) <= 1e-3


def test_reference_matches_analytic_toy_optimum():
    # a = (1.5, 0.7) over [0,1]^2 boxes: x* = (1, 0.7), h* = 0.125 exactly
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    ref = reference_solution(spec, 1e-10, q0=q0, w0=w0)
    assert abs(ref.h_value - 0.125) <= 1e-8
    assert np.linalg.norm(ref.q.x - np.array([1.0, 0.7])) <= 1e-5


def test_reference_stability_under_tighter_tol():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    tol = 1e-6
    a = reference_solution(spec, tol, q0=q0, w0=w0)
    b = reference_solution(spec, tol / 10, q0=q0, w0=w0)
    assert abs(a.h_value - b.h_value) <= 10 * tol


def test_reference_nonconvergence_raises():
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    with pytest.raises(RuntimeError, match="did not converge"):
        mu = step_constants(spec, 1.0).mu_cap()
        reference_solution(spec, 1e-12, q0=q0, w0=w0,
                           config=SolverConfig(rho=1.0, mu=mu, iters=10))


def test_reference_applies_the_map_once_per_step():
    # the values read the step's own K q; forming it again for each record
    # would apply A twice per step
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    apply, calls = spec.A.apply, []
    spec.A.apply = lambda v: calls.append(1) or apply(v)
    ref = reference_solution(spec, 1e-4, q0=q0, w0=w0)
    # one apply per step, plus K q0 for the first step and h at q0
    assert len(calls) <= ref.iterations + 2


def test_reference_saddle_value_consistency():
    # at the saddle the augmented Lagrangian equals the plain objective
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    ref = reference_solution(spec, 1e-9, q0=q0, w0=w0)
    assert ref.al_value == pytest.approx(ref.h_value, abs=1e-7)


def test_last_variant_feasibility_trend():
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=40, r=3, seed=16))
    spec, q0, w0 = build_cme_problem(SigmaHat, tau, s, k_hat=6)
    config = SolverConfig(rho=1.0, mu=0.2, iters=300,
                          step_policy="line_search")
    feas = [
        float(np.linalg.norm(state.q.x - project_l1_ball(state.q.x, s)))
        for state, _ in iterate(spec, q0, w0, config)
    ]
    head = min(feas[: len(feas) // 10])
    tail = min(feas[-len(feas) // 10:])
    assert tail <= head


def test_reference_default_is_theoretical_at_the_dual_step_cap():
    # the default steps equal a fixed step at the theoretical eta, bit for bit
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    consts = step_constants(spec, 1.0)
    fixed = SolverConfig(rho=1.0, mu=consts.mu_cap(), iters=10**6,
                         step_policy="fixed", eta=consts.eta(consts.mu_cap()))
    a = reference_solution(spec, 1e-9, q0=q0, w0=w0)
    b = reference_solution(spec, 1e-9, q0=q0, w0=w0, config=fixed)
    assert a.iterations == b.iterations
    assert np.array_equal(a.q.x, b.q.x) and np.array_equal(a.q.y, b.q.y)
    assert np.array_equal(a.w, b.w) and a.al_value == b.al_value


def test_reference_default_without_curvature_is_fixed_at_one_fifth():
    # a linear objective carries no curvature parameter: the default steps
    # are fixed, eta = mu = 0.2, bit for bit
    spec = ProblemSpec(f=SmoothTerm.linear(np.array([1.0, -1.0])),
                       A=LinearMap.identity(2), rx=BoxIndicator(2, 0.0, 1.0),
                       ry=BoxIndicator(2, 0.0, 1.0))
    q0, w0 = PrimalPoint(np.zeros(2), np.zeros(2)), np.zeros(2)
    fixed = SolverConfig(rho=1.0, mu=0.2, iters=10**6, step_policy="fixed",
                         eta=0.2)
    a = reference_solution(spec, 1e-9, q0=q0, w0=w0)
    b = reference_solution(spec, 1e-9, q0=q0, w0=w0, config=fixed)
    assert a.iterations == b.iterations
    assert np.array_equal(a.q.x, b.q.x) and np.array_equal(a.w, b.w)
    assert np.allclose(a.q.x, [0.0, 1.0], atol=1e-6)
