import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bruteforce import (
    jacobi_eigh,
    jacobi_svd,
    l1_project_bruteforce,
    l1_project_sort,
    simplex_project_bruteforce,
    simplex_project_sort,
)
from wpmm.linalg import (
    ConvergenceError,
    _checked_symmetric,
    project_l1_ball,
    project_simplex,
    truncated_eigh,
    truncated_svd,
)
from wpmm.model import LinearMap


# ---------------------------------------------------------------------------
# truncated SVD


def test_svd_diagonal():
    _, sigma, _ = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2, 1e-10)
    assert np.allclose(sigma, [3.0, 2.0], atol=1e-10)


def test_svd_zero_matrix():
    _, sigma, _ = truncated_svd(np.zeros((5, 5)), 1, 1e-10)
    assert sigma[0] == pytest.approx(0.0, abs=1e-12)


def test_svd_matches_jacobi_oracle():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((10, 8))
    _, sigma, _ = truncated_svd(M, 8, 1e-9)
    _, sigma_ref, _ = jacobi_svd(M)
    assert np.abs(sigma - sigma_ref).max() <= 1e-6 * sigma_ref[0]


def test_svd_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    for m, n in ((7, 5), (20, 20), (50, 40)):
        M = rng.standard_normal((m, n))
        U, sigma, V = truncated_svd(M, min(m, n), 1e-9)
        rec = (U * sigma) @ V.T
        assert np.linalg.norm(rec - M) <= 1e-6 * np.linalg.norm(M)


def test_svd_orthonormal_factors():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((12, 9))
    U, sigma, V = truncated_svd(M, 4, 1e-9)
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-10)
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-10)
    assert np.all(np.diff(sigma) <= 1e-12)


def test_svd_tied_singular_values_subspace():
    # tied spectrum: only the values and the spanned subspaces are pinned
    # down, any orthonormal basis of the tied block is acceptable
    rng = np.random.default_rng(12)
    Q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    Q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    sigma = np.array([3.0, 3.0, 3.0, 1.0, 0.5, 0.25])
    M = Q1[:, :6] @ np.diag(sigma) @ Q2.T
    U, sigma, _ = truncated_svd(M, 3, 1e-10)
    assert np.allclose(sigma, [3.0, 3.0, 3.0], atol=1e-8)
    # projector onto the retained left subspace matches the constructed one
    P_got = U @ U.T
    P_ref = Q1[:, :3] @ Q1[:, :3].T
    assert np.linalg.norm(P_got - P_ref) <= 1e-7


def test_eigh_tied_eigenvalues_subspace():
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    lam = np.array([2.0, 2.0, 1.0, 0.3, 0.1, -0.5, -1.0])
    M = (Q * lam) @ Q.T
    U, got = truncated_eigh(M, 2, 1e-10)
    assert np.allclose(got, [2.0, 2.0], atol=1e-8)
    P_got = U @ U.T
    P_ref = Q[:, :2] @ Q[:, :2].T
    assert np.linalg.norm(P_got - P_ref) <= 1e-7


def test_svd_deterministic_given_seed():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((9, 6))
    a = truncated_svd(M, 3, 1e-9, seed=11)
    b = truncated_svd(M, 3, 1e-9, seed=11)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_svd_input_validation():
    M = np.eye(3)
    with pytest.raises(ValueError):
        truncated_svd(M, 0, 1e-8)
    with pytest.raises(ValueError):
        truncated_svd(M, 4, 1e-8)
    with pytest.raises(ValueError):
        truncated_svd(M, 1, 0.0)
    bad = M.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        truncated_svd(bad, 1, 1e-8)


@pytest.mark.parametrize("k, tol", [(1, 1e-4), (3, 1e-2), (5, 1e-2),
                                    (5, 1e-9)])
def test_svd_gaussian_meets_both_residuals(k, tol):
    # ||M.T u - s v|| stays unmet unless the Krylov space absorbs M.T u's
    # direction at every widening
    M = np.random.default_rng(0).standard_normal((200, 200))
    U, sigma, V = truncated_svd(M, k, tol)
    bound = tol * sigma[0] + 1e-13 * np.linalg.norm(M)
    assert np.linalg.norm(M @ V - U * sigma, axis=0).max() <= bound
    assert np.linalg.norm(M.T @ U - V * sigma, axis=0).max() <= bound
    ref = np.linalg.svd(M, compute_uv=False)
    # the value error is quadratic in the residual
    assert np.abs(sigma - ref[:k]).max() <= max(1e-6, tol**2) * ref[0]


def test_svd_nonconvergence_reports_residual():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((80, 80))
    with pytest.raises(ConvergenceError) as exc:
        truncated_svd(M, 1, 1e-14, max_sweeps=1)
    assert exc.value.residual is not None and exc.value.residual > 0


# ---------------------------------------------------------------------------
# truncated symmetric eigendecomposition


def test_eigh_diagonal():
    U, lam = truncated_eigh(np.diag([5.0, -1.0, 2.0]), 2, 1e-10)
    assert np.allclose(lam, [5.0, 2.0], atol=1e-10)


def test_eigh_identity():
    U, lam = truncated_eigh(np.eye(4), 1, 1e-10)
    assert lam[0] == pytest.approx(1.0, abs=1e-10)


def test_eigh_matches_jacobi_oracle():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((12, 12))
    M = 0.5 * (M + M.T)
    U, lam = truncated_eigh(M, 12, 1e-9)
    lam_ref, _ = jacobi_eigh(M)
    assert np.abs(lam - lam_ref).max() <= 1e-6 * max(1.0, abs(lam_ref[0]))


def test_eigh_rayleigh_dominance():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((10, 10))
    M = 0.5 * (M + M.T)
    _, lam = truncated_eigh(M, 1, 1e-10)
    for _ in range(50):
        x = rng.standard_normal(10)
        assert lam[0] >= (x @ M @ x) / (x @ x) - 1e-8


def test_eigh_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        truncated_eigh(M, 1, 1e-8)


def test_eigh_rejects_non_finite():
    for bad in (np.diag([1.0, np.nan]), np.array([[1.0, np.inf], [np.inf, 1.0]]),
                np.array([[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            truncated_eigh(bad, 1, 1e-8)
    with pytest.raises(ValueError, match="not symmetric"):
        truncated_eigh(np.array([[1.0, 1e-9], [0.0, 1.0]]), 1, 1e-8)
    # no tolerance, however large the entries
    with pytest.raises(ValueError, match="not symmetric"):
        truncated_eigh(np.array([[1e3, 1e-8], [0.0, 1.0]]), 1, 1e-8)


def test_eigh_rejects_one_ulp_of_asymmetry():
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    M[1, 0] = np.nextafter(M[0, 1], 1.0)
    with pytest.raises(ValueError, match="not symmetric"):
        truncated_eigh(M, 1, 1e-8)


def test_eigh_rejects_asymmetric_float32():
    M = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=np.float32)
    with pytest.raises(ValueError, match="not symmetric"):
        truncated_eigh(M, 1, 1e-2)
    with pytest.raises(ValueError, match="non-finite"):
        truncated_eigh(np.diag(np.float32([1.0, np.inf])), 1, 1e-2)


def test_eigh_keeps_float32_input():
    M = np.diag(np.float32([3.0, 2.0, 1.0]))
    S, fro = _checked_symmetric(M)
    assert S is M and fro == pytest.approx(np.sqrt(14.0))
    U, lam = truncated_eigh(M, 2, 1e-2)
    assert U.dtype == lam.dtype == np.float64
    assert np.allclose(lam, [3.0, 2.0])
    # a float32 sum of squares that overflows is taken again in float64
    big = np.diag(np.float32([3e19, 2e19]))
    assert _checked_symmetric(big)[1] == pytest.approx(np.sqrt(13.0) * 1e19)


@pytest.mark.parametrize("fro", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_eigh_float32_products_meet_tol_in_float64(fro, tol):
    # the pairs found with float32 products meet tol against the float64
    # matrix that was rounded to float32
    rng = np.random.default_rng(16)
    d = 300
    M = rng.standard_normal((d, d))
    M = M + M.T
    M *= fro / np.linalg.norm(M)
    U, lam = truncated_eigh(M.astype(np.float32), 8, tol)
    assert U.dtype == lam.dtype == np.float64
    resid = np.linalg.norm(M @ U - U * lam, axis=0)
    assert resid.max() <= tol * max(1.0, abs(lam[0]))
    assert np.allclose(U.T @ U, np.eye(8), atol=1e-10)


def test_eigh_k_out_of_range():
    with pytest.raises(ValueError):
        truncated_eigh(np.eye(3), 0, 1e-8)
    with pytest.raises(ValueError):
        truncated_eigh(np.eye(3), 4, 1e-8)


def test_eigh_nonconvergence():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((80, 80))
    M = 0.5 * (M + M.T)
    with pytest.raises(ConvergenceError):
        truncated_eigh(M, 1, 1e-14, max_sweeps=1)


# ---------------------------------------------------------------------------
# kernel memory: bases sized to the Krylov dimension, not to the input


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_svd_tall_memory_is_rank_sized():
    # an m x m left basis alone would be 275 MB
    rng = np.random.default_rng(14)
    M = rng.standard_normal((6000, 3)) @ rng.standard_normal((3, 20))
    M += 0.01 * rng.standard_normal(M.shape)
    assert traced_peak_mb(truncated_svd, M, 3, 1e-2) < 10.0


def test_eigh_memory_on_exactly_symmetric_input_is_krylov_bases():
    # an exactly symmetric input is used as it is: a 4.9 MB copy of it
    # would pass 3 MB
    rng = np.random.default_rng(15)
    d = 800
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.concatenate([1.0 + 1e-3 * np.arange(13.0)[::-1],
                          rng.uniform(-0.5, 0.9, d - 13)])
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    assert traced_peak_mb(truncated_eigh, M, 13, 1e-2) < 3.0


# ---------------------------------------------------------------------------
# projections


def test_simplex_examples():
    assert np.allclose(project_simplex(np.array([0.5, 0.5]), 1.0), [0.5, 0.5])
    assert np.allclose(project_simplex(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    assert np.allclose(project_simplex(np.array([1.0, 1.0]), 1.0), [0.5, 0.5])


def test_simplex_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        z = rng.standard_normal(n) * 3.0
        tau = float(rng.uniform(0.1, 4.0))
        v = project_simplex(z, tau)
        ref = simplex_project_bruteforce(z, tau)
        assert np.linalg.norm(v - ref) <= 1e-9


def test_simplex_optimality_against_competitors():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(12)
    tau = 2.0
    v = project_simplex(z, tau)
    assert v.min() >= 0.0
    assert abs(v.sum() - tau) <= 1e-12 * tau
    for _ in range(100):
        u = rng.dirichlet(np.ones(12)) * tau
        assert np.linalg.norm(v - z) <= np.linalg.norm(u - z) + 1e-12


def test_simplex_rejects_bad_inputs():
    with pytest.raises(ValueError):
        project_simplex(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError):
        project_simplex(np.array([np.inf, 0.0]), 1.0)


def test_l1_examples():
    z = np.array([0.3, -0.2])
    out = project_l1_ball(z, 1.0)
    assert np.array_equal(out, z)
    assert np.allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])
    assert np.allclose(project_l1_ball(np.array([-2.0, 0.0]), 1.0), [-1.0, 0.0])


def test_l1_matches_bruteforce():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        z = rng.standard_normal(n) * 2.0
        s = float(rng.uniform(0.1, 3.0))
        v = project_l1_ball(z, s)
        ref = l1_project_bruteforce(z, s)
        assert np.linalg.norm(v - ref) <= 1e-9


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.floats(min_value=0.01, max_value=20),
)
def test_simplex_output_properties(zs, tau):
    v = project_simplex(np.array(zs), tau)
    assert v.min() >= 0.0
    assert abs(v.sum() - tau) <= 1e-12 * max(1.0, tau)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
    st.floats(min_value=0.01, max_value=20),
)
def test_l1_idempotent(zs, s):
    z = np.array(zs)
    once = project_l1_ball(z, s)
    twice = project_l1_ball(once, s)
    assert np.abs(twice - once).max() <= 1e-14
    assert np.abs(once).sum() <= s + 1e-9 * max(1.0, s)


def test_l1_rejects_bad_radius():
    with pytest.raises(ValueError):
        project_l1_ball(np.array([1.0]), -1.0)


# exactness against the kept sort-based reference


def assert_matches_reference(got, ref, z):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, float(np.abs(z).max()))


# a few repeated values make ties, and whole vectors of one value occur
_entries = st.one_of(st.floats(min_value=-50, max_value=50),
                     st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0]))
_vectors = st.one_of(
    st.lists(_entries, min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, _entries, st.integers(1, 40)),
)


@given(_vectors, st.floats(min_value=0.01, max_value=20))
def test_simplex_matches_sort_reference(zs, tau):
    z = np.array(zs)
    assert_matches_reference(project_simplex(z, tau),
                             simplex_project_sort(z, tau), z)


@given(_vectors, st.floats(min_value=0.01, max_value=2.0))
def test_l1_matches_sort_reference(zs, frac):
    # radii up to twice ||z||_1 put some points inside the ball
    z = np.array(zs)
    s = max(frac * float(np.abs(z).sum()), 1e-3)
    assert_matches_reference(project_l1_ball(z, s), l1_project_sort(z, s), z)


def test_projections_match_sort_reference_at_covariance_size():
    # the covariance y-oracle projects d*d = 160,000 entries at d = 400
    z = np.random.default_rng(16).standard_normal(160_000)
    for radius in (1e-3, 1.0, 10.0, 1e3, 1e5, 2e5):
        assert_matches_reference(project_l1_ball(z, radius),
                                 l1_project_sort(z, radius), z)
        assert_matches_reference(project_simplex(z, radius),
                                 simplex_project_sort(z, radius), z)


@pytest.mark.parametrize("z, radius", [
    # the threshold rounds to the largest entry: the active set would empty
    (1e150 * (1.0 + np.random.default_rng(17).random(1000)), 1e-6),
    (np.full(160_000, 1.0), 1e-12),
])
def test_projections_of_degenerate_inputs(z, radius):
    for project, reference in ((project_l1_ball, l1_project_sort),
                               (project_simplex, simplex_project_sort)):
        got = project(z, radius)
        assert np.isfinite(got).all()
        assert_matches_reference(got, reference(z, radius), z)


def test_projections_when_sums_overflow():
    # finite entries whose sums overflow; 2**-1000 scales exactly
    z = np.array([1.7e308, -1.7e308, 1.7e308, 9e307, -4e307, 1.0])
    scale = 2.0**-1000
    for radius in (1.0, 1e300, 1.5e308):
        want = l1_project_sort(z * scale, radius * scale) / scale
        assert_matches_reference(project_l1_ball(z, radius), want, z)
        want = simplex_project_sort(z * scale, radius * scale) / scale
        assert_matches_reference(project_simplex(z, radius), want, z)
    for project in (project_l1_ball, project_simplex):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                project(np.array([1.0, bad, 1e308]), 1.0)


def test_projections_reject_nan_radius():
    for project, name in ((project_l1_ball, "s"), (project_simplex, "tau")):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            project(np.array([3.0, -1.0]), np.nan)


def test_l1_memory_is_a_few_input_sized_arrays():
    # the sort-based projection held about seven 160,000-entry arrays
    z = np.random.default_rng(18).standard_normal(160_000)
    assert traced_peak_mb(project_l1_ball, z, 10.0) < 3 * z.nbytes / 2**20


# ---------------------------------------------------------------------------
# operator norm bounds of the linear-map constructors


def test_opnorm_identity():
    val = LinearMap.identity(4).norm_bound
    assert 1.0 <= val <= 1.01 + 1e-12


def test_opnorm_diagonal():
    val = LinearMap.diagonal([3.0, 1.0]).norm_bound
    assert 3.0 * (1 - 1e-6) <= val <= 3.0 * 1.01 + 1e-12
