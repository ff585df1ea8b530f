import pickle
import re

import numpy as np
import pytest

import wpmm.linalg as linalg
from bruteforce import (
    cme_bracket,
    cme_reference,
    dykstra_two_sets,
    er_graph_loop,
    laplacian_loop,
    maxcut_bracket,
    maxcut_reference,
    write_gset,
)
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
    build_box_toy,
)
from wpmm.linalg import project_l1_ball
from wpmm.model import PrimalPoint
from wpmm.oracles import L1BallIndicator, SpectrahedronIndicator
from wpmm.solver import (SolverConfig, iterate, record_values, run,
                         step_constants)


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
    path.write_text("2 1\n\n1 2 1\n")  # a blank line is skipped
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
    ("-3 0\n", ":1: negative node count"),
    ("2 1\n1 2 99999999999999999999\n", ": an edge weight or vertex lies "
     "outside the int64 range"),
], ids=["empty", "short-header", "non-integer-header", "vertex-range",
        "negative-node-count", "weight-overflow"])
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


def test_graph_columns_keep_integer_weights(tmp_path):
    # the graph of test_gset_parses_full_size_graph
    g = gen_er_graph(800, 0.005, seed=17)
    path = tmp_path / "g800.txt"
    write_gset(g, path)
    loaded = load_gset(path)
    for graph in (g, loaded):
        assert [graph.u.dtype, graph.v.dtype, graph.w.dtype] == [np.int64] * 3
    assert laplacian(loaded).tobytes() == laplacian(g).tobytes()
    # one fractional weight makes the weight column float64
    g = GsetGraph(n=3, edges=[(1, 2, 2), (2, 3, 0.5)])
    assert [g.u.dtype, g.v.dtype, g.w.dtype] == [np.int64] * 2 + [np.float64]
    assert g.edges == [(1, 2, 2.0), (2, 3, 0.5)]
    assert GsetGraph(n=3, edges=[(1, 2, 2)]).w.dtype == np.int64


def test_er_graph_survives_pickling():
    # wpmm maxcut --jobs 2 sends a graph to its worker processes by pickle
    g = gen_er_graph(60, 0.2, seed=8)
    back = pickle.loads(pickle.dumps(g))
    assert back.n == g.n and back.edges == g.edges
    for col in "uvw":
        got, want = getattr(back, col), getattr(g, col)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert laplacian(back).tobytes() == laplacian(g).tobytes()


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


def test_build_maxcut_stores_a_nearly_symmetric_c_symmetrized(monkeypatch):
    # a C within the symmetry tolerance is stored as its symmetric part, so
    # the kernel refuses no x-oracle center; kept as it was, it left its
    # asymmetry in every center, and the kernel refused each one
    C = laplacian(gen_er_graph(120, 0.1, seed=11))
    noisy = C + 1e-13 * np.random.default_rng(0).standard_normal(C.shape)
    kernel, refused = linalg.truncated_eigh, []

    def watched(M, *args, **kwargs):
        try:
            return kernel(M, *args, **kwargs)
        except linalg.NotSymmetricError:
            refused.append(M.dtype)
            raise

    monkeypatch.setattr(linalg, "truncated_eigh", watched)
    spec, q0, w0 = build_maxcut_problem(noisy, 5, svd_tol=1e-2)
    stored = -spec.f.b.reshape(C.shape)
    assert np.array_equal(stored, 0.5 * (noisy + noisy.T))
    run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=10,
                                   step_policy="fixed", variant="last"))
    assert refused == []
    # an exactly symmetric C is stored as it is
    spec, _, _ = build_maxcut_problem(C, 5)
    assert np.array_equal(-spec.f.b, C.ravel())


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_build_maxcut_rejects_non_finite(entry):
    # a NaN compares false in the symmetry check and an infinite entry
    # leaves an infinite or NaN gap: both are refused by name, in either
    # triangle, on the diagonal or in a symmetric pair
    C = laplacian(gen_er_graph(130, 0.2, seed=3))
    for pair in (((0, 1),), ((129, 64),), ((128, 128),),
                 ((5, 100), (100, 5))):
        bad = C.copy()
        for i, j in pair:
            bad[i, j] = entry
        with pytest.raises(ValueError, match="C has a non-finite entry"):
            build_maxcut_problem(bad, 1)
    # a finite C whose asymmetry overflows the gap is asymmetric
    bad = C.copy()
    bad[5, 100], bad[100, 5] = 1e308, -1e308
    with pytest.raises(ValueError, match="C must be symmetric"):
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


@pytest.mark.parametrize("call, message", [
    (lambda: build_cme_problem(np.eye(2), 0.0, 1.0, 1),
     "need tau > 0, s > 0, k_hat >= 1"),
    (lambda: build_maxcut_problem(np.ones((2, 3)), 1), "C must be square"),
    (lambda: build_maxcut_problem(np.zeros((0, 0)), 1),
     "C must have at least one row"),
    (lambda: gen_er_graph(-3, 0.5), "node count must be nonnegative, got -3"),
    (lambda: GsetGraph(n=-3, edges=[]),
     "node count must be nonnegative, got -3"),
    (lambda: metrics_cme(np.eye(2), np.eye(3), np.eye(2), 1.0),
     "shape mismatch"),
    (lambda: metrics_cme(np.eye(2), np.zeros((2, 2)), np.eye(2), 1.0),
     "zero-norm reference matrix"),
    (lambda: metrics_maxcut(np.eye(2), np.eye(3)), "shape mismatch"),
], ids=["cme-tau", "maxcut-not-square", "maxcut-empty", "er-negative-n",
        "graph-negative-n", "cme-shape", "cme-zero-norm", "maxcut-shape"])
def test_harness_inputs_are_checked_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# ---------------------------------------------------------------------------
# certified references


def test_reference_matches_analytic_toy_optimum():
    # a = (1.5, 0.7) over [0,1]^2 boxes: x* = (1, 0.7), h* = 0.125 exactly,
    # the closed form the decay and ergodic checks read; a long run gets there
    spec, q0, w0 = build_box_toy([1.5, 0.7])
    log = run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.2, iters=300,
                                         step_policy="line_search"))
    h, flagged, _ = record_values(spec, log.last_point, log.w_final, 1.0,
                                  audit=True)
    assert not flagged and abs(h - 0.125) <= 1e-8
    assert np.linalg.norm(log.last_point.x - [1.0, 0.7]) <= 1e-6


def test_reference_saddle_value_consistency():
    # w* = 0 is a multiplier of the box toy: both blocks share one box, so
    # x* = y* minimizes f over it alone and the augmented Lagrangian at
    # (x*, y*, 0) is h* for every rho, with no smaller value in the box
    spec, _, _ = build_box_toy([1.5, 0.7])
    star = PrimalPoint(np.array([1.0, 0.7]), np.array([1.0, 0.7]))
    for rho in (0.0, 1.0, 10.0):
        h, flagged, al = record_values(spec, star, np.zeros(2), rho,
                                       audit=True)
        assert not flagged and h == al == pytest.approx(0.125, abs=1e-15)
    points = np.random.default_rng(5).random((200, 2))
    assert min(spec.f.value(x) for x in points) >= h


def test_reference_on_cme_toy():
    # optimality audit: solver outputs cannot undercut the certified lower
    # bound
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=10, r=2, seed=15))
    spec, q0, w0 = build_cme_problem(SigmaHat, tau, s, k_hat=2)
    lower, upper, _ = cme_reference(SigmaHat, tau, s, tol=1e-8)
    assert upper - lower <= 1e-8 * upper
    for rho in (0.5, 1.0):
        log = run(spec, q0, w0, SolverConfig(rho=rho, mu=0.2, iters=300,
                                             step_policy="line_search"))
        h, flagged, _ = record_values(spec, log.last_point, log.w_final, rho,
                                      audit=True)
        assert not flagged
        assert h >= lower - 1e-6


def cme_certifies(SigmaHat, tau, s, bracket, h_star, tol):
    """Whether a covariance bracket (lower, upper, X_u, X_theta) is within
    tol relative, holds h_star, and rests on a point X_theta of S and B
    whose value is the upper bound."""
    lower, upper, _, mixed = bracket
    d = SigmaHat.shape[0]
    z = SigmaHat.ravel()
    return (upper - lower <= tol * upper
            and lower <= h_star <= upper + 1e-12 * h_star
            and SpectrahedronIndicator(d, tau, 1).contains(mixed)
            and L1BallIndicator(d * d, s).contains(mixed)
            and upper == 0.5 * float((mixed - z) @ (mixed - z)))


def test_reference_matches_dykstra_projection():
    # the covariance problem is exactly the projection of the observation
    # onto (spectrahedron) intersect (l1 ball); the certified bracket holds
    # the value of a far tighter run of Dykstra's scheme. tau < s here, so
    # the upper bound's mixing toward (tau/d) I is exercised
    d = 12
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=d, r=2, seed=17))
    assert tau < s
    lower, upper, u = cme_reference(SigmaHat, tau, s, tol=1e-6)
    star = dykstra_two_sets(SigmaHat.ravel(),
                            SpectrahedronIndicator(d, tau, 1).project,
                            lambda v: project_l1_ball(v, s), iters=20000)
    h_star = 0.5 * float(np.linalg.norm(star - SigmaHat.ravel()) ** 2)
    bracket = cme_bracket(SigmaHat, u, tau, s)
    assert bracket[:2] == (lower, upper)
    assert cme_certifies(SigmaHat, tau, s, bracket, h_star, 1e-6)
    # the dual bound at the wrong sign of u is loose
    assert not cme_certifies(SigmaHat, tau, s,
                             cme_bracket(SigmaHat, -u, tau, s), h_star, 1e-6)
    # mixing toward a point of S outside B leaves B, at u and at 0, where
    # the bound would be tight but not certified
    outside = np.full(d * d, tau / d)  # (tau/d) 1 1^T: ||.||_1 = tau d > s
    for v in (u, 0.0 * u):
        assert not cme_certifies(SigmaHat, tau, s,
                                 cme_bracket(SigmaHat, v, tau, s,
                                             toward=outside), h_star, 1.0)


def test_cme_bracket_holds_the_optimum_at_any_multiplier():
    # weak duality: the bounds hold at every u, not only near the optimum
    d = 12
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=d, r=2, seed=17))
    lower, upper, _ = cme_reference(SigmaHat, tau, s, tol=1e-9)
    rng = np.random.default_rng(6)
    for scale in (0.0, 0.01, 0.1, 1.0):
        u = scale * rng.standard_normal(d * d)
        lo, up, _, mixed = cme_bracket(SigmaHat, u, tau, s)
        assert lo <= lower and up >= upper * (1 - 1e-12)
        assert L1BallIndicator(d * d, s).contains(mixed)


def test_maxcut_reference_reproduces_the_desk_optimum():
    # n=60, p=0.2, seed 1: the certified optimum -986.9953
    C = laplacian(gen_er_graph(60, 0.2, seed=1))
    lower, upper, V = maxcut_reference(C, tol=1e-9)
    assert lower <= upper <= lower + 1e-9 * abs(upper)
    assert abs(upper + 986.9953) <= 1e-6 * 986.9953
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0)
    assert V.shape[1] == 12  # ceil(sqrt(120)) + 1
    # the feasible point V V^T reads the upper bound
    X = V @ V.T
    assert metrics_maxcut(X, C).objective == pytest.approx(upper, rel=1e-12)
    assert metrics_maxcut(X, C).diag_feasibility <= 1e-12


def test_maxcut_bracket_holds_the_optimum_away_from_it():
    # at rows far from optimal the dual term n lambda_max carries the bound:
    # without it, or with its sign flipped, the lower bound would pass OPT
    C = laplacian(gen_er_graph(30, 0.3, seed=4))
    opt_lo, opt_up, _ = maxcut_reference(C, tol=1e-10)
    rng = np.random.default_rng(7)
    for _ in range(20):
        V = rng.standard_normal((30, 9))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        lower, upper = maxcut_bracket(C, V)
        assert lower <= opt_lo and upper >= opt_up
        assert upper - lower >= 1e-2 * abs(opt_up)  # far from optimal


def test_reference_stability_under_tighter_tol():
    # each bracket holds the optimum, so a bracket at tol and one at tol / 10
    # overlap, and the tighter one is within its own gap
    C = laplacian(gen_er_graph(40, 0.2, seed=3))
    lo_a, up_a, _ = maxcut_reference(C, tol=1e-6)
    lo_b, up_b, _ = maxcut_reference(C, tol=1e-7)
    assert max(lo_a, lo_b) <= min(up_a, up_b)
    assert up_b - lo_b <= 1e-7 * abs(up_b)
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=12, r=2, seed=17))
    lo_a, up_a, _ = cme_reference(SigmaHat, tau, s, tol=1e-5)
    lo_b, up_b, _ = cme_reference(SigmaHat, tau, s, tol=1e-6)
    assert max(lo_a, lo_b) <= min(up_a, up_b)


def test_reference_nonconvergence_raises():
    C = laplacian(gen_er_graph(40, 0.2, seed=3))
    with pytest.raises(RuntimeError, match="did not converge in 2 sweeps"):
        maxcut_reference(C, sweeps=2)
    Sigma, SigmaHat, tau, s = gen_cme_instance(CmeConfig(d=12, r=2, seed=17))
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        cme_reference(SigmaHat, tau, s, iters=3)


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
