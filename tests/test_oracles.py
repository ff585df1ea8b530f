import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wpmm.linalg as linalg
from bruteforce import fd_gradient, symmetric_part
from wpmm.harness import build_maxcut_problem, gen_er_graph, laplacian
from wpmm.linalg import (_shrink, project_l1_ball, project_simplex,
                         truncated_eigh, truncated_svd)
from wpmm.model import (LinearMap, PrimalPoint, ProblemSpec, SmoothTerm,
                        indicator_tol, smooth_grad)
from wpmm.oracles import (
    PRUNE_TOL,
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
    WpoComponent,
    ZeroReg,
    _pruned_state,
    _single_holds,
    _symmetric_part,
    hypercube_lmo,
    phi_value,
    scaled_simplex_lmo,
    simplex_qp,
)
from wpmm.solver import SolverConfig, StepConstants, run


def q_of(x, y):
    return PrimalPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def zero_smooth(dim):
    return SmoothTerm.linear(np.zeros(dim))


def matrix_oracle(comp, center, p, c):
    """A matrix component's candidate for the (center, p, c) prox objective,
    with matrix-shaped input and output."""
    out = comp.compute(np.ravel(center), np.ravel(p), c)
    return out.reshape(np.shape(center))


def p_vectors(spec, q, w, mu, rho):
    """Linearization vectors the solver feeds the oracles: the smooth-part
    gradient at penalty rho + 2 mu."""
    return smooth_grad(spec, q, w, rho + 2.0 * mu)


def make_spec(dim=2, f=None, A=None):
    return ProblemSpec(
        f=f if f is not None else zero_smooth(dim),
        A=A if A is not None else LinearMap.identity(dim),
        rx=ZeroReg(dim),
        ry=ZeroReg(dim),
    )


# ---------------------------------------------------------------------------
# linearization vectors


def test_p_vectors_at_feasible_point():
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.zeros(2)))
    q = q_of([0.4, -0.1], [0.4, -0.1])
    w = np.array([1.0, 1.0])
    assert np.allclose(p_vectors(spec, q, np.zeros(2), 0.5, 1.0)[0], q.x)
    assert np.allclose(p_vectors(spec, q, w, 0.5, 1.0)[1], -w)


def test_p_vectors_direct_arithmetic():
    spec = make_spec()
    q = q_of([1, 0], [0, 0])
    px, py = p_vectors(spec, q, np.zeros(2), mu=0.5, rho=1.0)
    assert np.allclose(px, [2.0, 0.0])
    assert np.allclose(py, [-2.0, 0.0])


def test_p_vector_x_is_gradient_of_shifted_smooth_part():
    rng = np.random.default_rng(0)
    A = LinearMap.from_dense(rng.standard_normal((3, 4)))
    spec = ProblemSpec(
        f=SmoothTerm.quadratic(np.eye(4), rng.standard_normal(4)),
        A=A, rx=ZeroReg(4), ry=ZeroReg(3),
    )
    q = q_of(rng.standard_normal(4), rng.standard_normal(3))
    w = rng.standard_normal(3)
    mu, rho = 0.3, 0.8

    def shifted(v):
        kv = A.apply(v) - q.y
        return (spec.f.value(v) + w @ kv + 0.5 * rho * kv @ kv
                + mu * kv @ kv)

    px, _ = p_vectors(spec, q, w, mu, rho)
    assert np.linalg.norm(px - fd_gradient(shifted, q.x)) <= 1e-5 * max(
        1.0, np.linalg.norm(px))


# ---------------------------------------------------------------------------
# exact prox


def test_prox_exact_zero_regularizer():
    comp = ZeroReg(3)
    center = np.array([1.0, 2.0, 3.0])
    p = np.array([0.5, 0.0, -0.5])
    assert np.allclose(comp.compute(center, p, 2.0), center - p / 2.0)


def test_prox_exact_l1_ball_is_projection():
    comp = L1BallIndicator(3, 1.0)
    center = np.array([1.0, -2.0, 0.5])
    p = np.array([0.2, 0.2, 0.2])
    got = comp.compute(center, p, 4.0)
    assert np.allclose(got, project_l1_ball(center - p / 4.0, 1.0))


def test_prox_exact_fixed_point():
    comp = SimplexIndicator(3, 1.0)
    center = np.array([0.2, 0.3, 0.5])
    got = comp.compute(center, np.zeros(3), 1.0)
    assert np.allclose(got, center, atol=1e-12)


def test_prox_exact_requires_prox_routine():
    with pytest.raises(OracleError):
        WpoComponent(2).compute(np.zeros(2), np.zeros(2), 1.0)


def test_block_dimension_below_one_is_rejected():
    for build in (lambda: ZeroReg(0), lambda: L1BallIndicator(-3, 1.0),
                  lambda: DiagOnesIndicator(-3)):
        with pytest.raises(ValueError, match="is below 1"):
            build()


@pytest.mark.parametrize("call, error, message", [
    (lambda: ZeroReg(2).compute(np.zeros(2), np.zeros(2), 0.0), ValueError,
     "step coefficient must be positive"),
    (lambda: WpoComponent(2).value(np.zeros(2)), NotImplementedError, None),
    (lambda: NuclearNormReg((2, 3), nu=1.0, k=3), ValueError,
     "k=3 out of range for shape (2, 3)"),
    (lambda: ProductComponent([]), ValueError,
     "product needs at least one part"),
    (lambda: simplex_qp(np.ones(3), np.zeros(3), np.zeros(3), 1.0), ValueError,
     "vertex matrix must be 2-D with at least one column"),
    (lambda: simplex_qp(np.eye(2), np.zeros(2), np.zeros(2), 0.0), ValueError,
     "step coefficient must be positive"),
], ids=["coeff", "value", "rank", "empty-product", "qp-1d", "qp-coeff"])
def test_oracle_inputs_are_checked_by_name(call, error, message):
    with pytest.raises(error, match=message and re.escape(message)):
        call()


def test_prox_optimality_via_projection_characterization():
    rng = np.random.default_rng(1)
    for comp in (L1BallIndicator(5, 2.0), SimplexIndicator(5, 1.5)):
        center = rng.standard_normal(5)
        p = rng.standard_normal(5)
        c = 3.0
        v = comp.compute(center, p, c)
        assert np.allclose(v, comp.project(center - p / c), atol=1e-12)


def copysign_projection(z, r):
    """The l1-ball projection as a copy: z itself inside the ball, else the
    shrunk |z| with z's signs by np.copysign."""
    a = np.abs(z)
    total = a.sum()
    if total <= r:
        return z.copy()
    return np.copysign(_shrink(a, r, total), z)


def l1_cases():
    """(point, radius) pairs: inside and outside the ball, with signed
    zeros, and with entries near 1e307 whose sums overflow, so that the
    projection rescales them."""
    rng = np.random.default_rng(24)
    z = rng.standard_normal(1000)
    zeros = z.copy()
    zeros[::3], zeros[1::3] = -0.0, 0.0
    huge = 1e307 * rng.uniform(-1.7, 1.7, 50)
    return [(z, 2.0 * np.abs(z).sum()), (z, 10.0), (zeros, 1e3),
            (zeros, 1.0), (np.array([-0.0, 0.0, -0.0]), 1.0),
            (huge, 1.0), (huge, 1e300), (huge, 1.5e308)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_l1_prox_projects_in_place_bit_for_bit():
    for z, r in l1_cases():
        point = z.copy()
        got = L1BallIndicator(z.size, r).prox(point, 1.0)
        assert got is point
        for want in (project_l1_ball(z, r), copysign_projection(z, r)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    # a strided or float32 point is projected as a contiguous float64 copy
    z, r = l1_cases()[1]
    for point in (np.repeat(z, 2)[::2], z.astype(np.float32)):
        got = L1BallIndicator(z.size, r).prox(point, 1.0)
        assert np.array_equal(got, project_l1_ball(point, r))
        assert got.dtype == np.float64


def test_l1_prox_keeps_only_the_signs_aside():
    # inside the ball the in-place projection holds one boolean mask, an
    # eighth of its point; outside it adds the pivot iteration's active
    # sets, and still holds one point-sized array fewer than a copy
    z = np.random.default_rng(25).standard_normal(160_000)

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / z.nbytes
        finally:
            tracemalloc.stop()

    inside = L1BallIndicator(z.size, 2.0 * np.abs(z).sum())
    assert peak(inside.prox, z.copy(), 1.0) <= 0.2
    for r in (10.0, 1e5):
        outside = L1BallIndicator(z.size, r)
        assert (peak(outside.prox, z.copy(), 1.0)
                <= peak(project_l1_ball, z, r) - 0.95)


def near_l1_sphere(n, r, log_step, sign, rng):
    """A point (1 + sign 10**log_step) z r / ||z||_1 near the sphere of
    radius r, z standard normal with about a third of its entries zeroed."""
    z = rng.standard_normal(n)
    z[rng.random(n) < 1 / 3] = 0.0
    z[0] = 1.0  # not all zero
    return z * (r / np.abs(z).sum()) * (1.0 + sign * 10.0**log_step)


@given(st.integers(min_value=1, max_value=3000),
       st.floats(min_value=1e-3, max_value=1e4),
       st.floats(min_value=-17.0, max_value=-5.0),
       st.sampled_from([-1.0, 1.0]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_l1_contains_agrees_with_distance_near_the_sphere(n, r, log_step,
                                                          sign, seed):
    # steps from round-off level to far beyond the tolerance, into the ball
    # and out of it
    comp = L1BallIndicator(n, r)
    v = near_l1_sphere(n, r, log_step, sign, np.random.default_rng(seed))
    assert comp.contains(v) == (comp.distance(v) <= indicator_tol(v))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_l1_contains_rejects_non_finite_and_decides_huge_points():
    comp = L1BallIndicator(3, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        assert not comp.contains(np.array([0.1, bad, 0.0]))
    # the l1 norm overflows: the exact distance decides
    assert not comp.contains(np.array([1.7e308, -1.7e308, 0.0]))
    huge = L1BallIndicator(3, 1.7e308)
    v = np.array([1e308, -1e308, 0.0])
    assert huge.contains(v) == (huge.distance(v) <= indicator_tol(v))


def test_l1_contains_certifies_without_projecting(monkeypatch):
    # points inside the ball, projection outputs on its sphere, points a
    # round-off step outside and convex combinations of projection outputs
    # are decided by the bound alone
    def exact(self, v):
        raise AssertionError("exact distance taken")

    rng = np.random.default_rng(26)
    cases = []
    for n, r in ((1, 2.0), (5000, 3.0), (5000, 1e4)):
        on = project_l1_ball(rng.standard_normal(n), r)
        other = project_l1_ball(rng.standard_normal(n), r)
        cases += [(r, v) for v in (on, 0.5 * on, 0.3 * on + 0.7 * other,
                                   near_l1_sphere(n, r, -13.0, 1.0, rng))]
    monkeypatch.setattr(L1BallIndicator, "distance", exact)
    for r, v in cases:
        assert L1BallIndicator(v.size, r).contains(v)


# ---------------------------------------------------------------------------
# matrix oracles


def test_nuclear_reg_diagonal_soft_threshold():
    out = matrix_oracle(NuclearNormReg((2, 2), nu=0.5, k=1),
                        np.diag([3.0, 1.0]), np.zeros((2, 2)), c=1.0)
    assert np.allclose(out, np.diag([2.5, 0.0]), atol=1e-9)


def test_nuclear_reg_full_thresholding():
    M = np.diag([0.4, 0.2])
    out = matrix_oracle(NuclearNormReg((2, 2), nu=1.0, k=2), M,
                        np.zeros((2, 2)), c=1.0)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_nuclear_reg_full_k_matches_dense_prox():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((6, 4))
    p = rng.standard_normal((6, 4))
    c, nu = 2.0, 0.7
    out = matrix_oracle(NuclearNormReg((6, 4), nu, k=4), M, p, c)
    U, s, Vt = np.linalg.svd(M - p / c, full_matrices=False)
    ref = (U * np.maximum(s - nu / c, 0.0)) @ Vt
    assert np.linalg.norm(out - ref) <= 1e-8


def test_nuclear_ball_inside_unchanged():
    M = np.diag([0.2, 0.1])
    out = matrix_oracle(NuclearBallIndicator((2, 2), tau=1.0, k=2), M,
                        np.zeros((2, 2)), c=1.0)
    assert np.allclose(out, M, atol=1e-9)


def test_nuclear_ball_projection_case():
    out = matrix_oracle(NuclearBallIndicator((2, 2), tau=1.0, k=1),
                        np.diag([2.0, 0.0]), np.zeros((2, 2)), c=1.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-9)


def test_nuclear_ball_output_feasible():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = rng.standard_normal((5, 4))
        p = rng.standard_normal((5, 4))
        out = matrix_oracle(NuclearBallIndicator((5, 4), tau=2.0, k=3), M, p,
                            c=1.5)
        assert np.linalg.svd(out, compute_uv=False).sum() <= 2.0 + 1e-9


def test_spectrahedron_fixed_point():
    tau = 2.0
    M = np.zeros((3, 3))
    M[0, 0] = tau
    out = matrix_oracle(SpectrahedronIndicator(3, tau, k=1), M,
                        np.zeros((3, 3)), c=1.0)
    assert np.allclose(out, M, atol=1e-9)


def test_spectrahedron_projection_case():
    out = matrix_oracle(SpectrahedronIndicator(2, tau=1.0, k=2),
                        np.diag([2.0, 1.0]), np.zeros((2, 2)), c=1.0)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-9)


def test_spectrahedron_output_feasible():
    rng = np.random.default_rng(4)
    for _ in range(10):
        M = rng.standard_normal((5, 5))
        M = 0.5 * (M + M.T)
        p = rng.standard_normal((5, 5))
        p = 0.5 * (p + p.T)
        out = matrix_oracle(SpectrahedronIndicator(5, tau=1.5, k=3), M, p,
                            c=2.0)
        assert abs(np.trace(out) - 1.5) <= 1e-9
        assert np.linalg.eigvalsh(out).min() >= -1e-9


def test_matrix_indicator_distance_from_spectrum():
    # the spectrum-only distance is the Frobenius distance to the projection
    rng = np.random.default_rng(11)

    def check(comp, X):
        v = X.ravel()
        ref = np.linalg.norm(v - comp.project(v))
        assert abs(comp.distance(v) - ref) <= 1e-10 * (1.0 + np.linalg.norm(v))

    n, tau = 6, 2.0
    spect = SpectrahedronIndicator(n, tau, k=2)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    inside = (Q * rng.dirichlet(np.ones(n)) * tau) @ Q.T
    on = (Q[:, :2] * [0.75 * tau, 0.25 * tau]) @ Q[:, :2].T  # rank 2
    outside = rng.standard_normal((n, n))
    outside = outside + outside.T
    skew = rng.standard_normal((n, n))
    skew = skew - skew.T
    for X in (inside, on, outside, inside + 0.1 * skew, outside + skew):
        check(spect, X)
    assert spect.distance(inside.ravel()) <= 1e-12
    assert spect.distance((inside + 0.1 * skew).ravel()) > 0.0

    nuc = NuclearBallIndicator((5, 3), 2.0, k=2)
    U, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for s in ([0.5, 0.3, 0.1], [1.0, 0.6, 0.4], [3.0, 1.0, 0.2]):
        check(nuc, (U * s) @ V.T)  # inside, on and outside the ball
    check(nuc, 3.0 * rng.standard_normal((5, 3)))


def near_spectrahedron(kind, n, tau, r, rng):
    """An n x n matrix off a point X0 of {X PSD, tr X = tau} by a step of
    Frobenius norm r * indicator_tol(X0) that leaves the set (or a zero or
    non-finite one); X0 carries the round-off asymmetry of Q diag(lam) Q^T."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.dirichlet(np.ones(n)) * tau
    if kind == "rank":  # rank below n, unless n is 1
        lam[1:][rng.random(n - 1) < 0.5] = 0.0
        lam[0] += tau - lam.sum()
    size = r * indicator_tol(lam)
    if kind == "negative":  # one eigenvalue at -size, trace tau
        lam[0] = -size
        if n > 1:
            lam[1:] *= (tau - lam[0]) / lam[1:].sum()
    X = (Q * lam) @ Q.T
    if kind in ("trace", "rank"):  # trace tau +- size sqrt(n)
        X += rng.choice([-1.0, 1.0]) * size / np.sqrt(n) * np.eye(n)
    elif kind == "skew":
        K = rng.standard_normal((n, n))
        K -= K.T
        X += size / max(np.linalg.norm(K), 1e-300) * K
    elif kind == "zero":
        X[:] = 0.0
    elif kind == "nonfinite":
        X.flat[rng.integers(n * n)] = rng.choice([np.nan, np.inf, -np.inf])
    return X.ravel()


@given(st.sampled_from(["trace", "negative", "rank", "skew", "zero",
                        "nonfinite"]),
       st.integers(min_value=1, max_value=80),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=-4.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_spectrahedron_contains_only_points_within_tolerance(kind, n, tau,
                                                             log_r, seed):
    # steps from round-off level to ten tolerances off the set, on both
    # sides of its boundary and across several row panels
    comp = SpectrahedronIndicator(n, tau, k=1)
    v = near_spectrahedron(kind, n, tau, 10.0**log_r,
                           np.random.default_rng(seed))
    if kind == "nonfinite":
        assert not comp.contains(v)
    elif comp.contains(v):
        assert comp.distance(v) <= indicator_tol(v)


def test_indicator_tol_is_finite_on_huge_finite_points():
    # the sum of squares overflows, the norm does not
    assert indicator_tol([1.0, 1e300, 1e300, 1.0]) == pytest.approx(
        1e-9 * np.sqrt(2.0) * 1e300)
    assert indicator_tol([np.inf, 0.0]) == np.inf
    assert np.isnan(indicator_tol([np.nan, 0.0]))


def _huge_pair(n):
    X = 0.2 * np.eye(n)
    X[0, 1] = X[1, 0] = 1e300
    return X.ravel()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("comp, v, expected", [
    (SpectrahedronIndicator(5, 1.0, 1), _huge_pair(5), np.sqrt(2.0) * 1e300),
    (NuclearBallIndicator((5, 5), 1.0, 1), _huge_pair(5),
     np.sqrt(2.0) * 1e300),
    (DiagOnesIndicator(2), [1e300, 0.0, 0.0, 1.0], 1e300),
    (BoxIndicator(3, 0.0, 1.0), [1e300, 0.0, 0.0], 1e300),
    (L1BallIndicator(3, 1.0), [1e300, 0.0, 0.0], 1e300),
], ids=["spectrahedron", "nuclear-ball", "diag-ones", "box", "l1-ball"])
def test_distance_is_finite_on_huge_finite_points(comp, v, expected):
    # the sum of squares of the gap overflows, the distance does not
    assert comp.distance(np.array(v)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("comp, v", [
    (BoxIndicator(3, 0.0, 1.0), [np.inf, 0.0, 0.0]),
    (SimplexIndicator(2, 1.0), [-np.inf, 1.0]),
    (SpectrahedronIndicator(2, 2.0, 1), [1.0, 1e300, 1e300, 1.0]),
    (SpectrahedronIndicator(2, 2.0, 1), [1.0, np.inf, np.inf, 1.0]),
], ids=["box-inf", "simplex-inf", "spectrahedron-huge", "spectrahedron-inf"])
def test_contains_rejects_infinite_entries_and_huge_points(comp, v):
    assert not comp.contains(np.array(v))


def test_spectrahedron_contains_certifies_without_eigenvalues(monkeypatch):
    # diagonal points by Gershgorin's discs, the others by the Cholesky
    # bound: neither takes the exact distance
    def exact(self, v):
        raise AssertionError("exact distance taken")

    monkeypatch.setattr(SpectrahedronIndicator, "distance", exact)
    rng = np.random.default_rng(21)
    for n, tau in ((1, 2.0), (70, 70.0), (70, 0.3)):
        comp = SpectrahedronIndicator(n, tau, k=1)
        start = tau / n * np.eye(n)
        assert comp.contains(start.ravel())
        for kind in ("trace", "rank"):  # full rank, then rank-deficient
            X = near_spectrahedron(kind, n, tau, 0.0, rng)
            assert comp.contains(X)
            assert comp.contains(0.8 * start.ravel() + 0.2 * X)


def test_cholesky_fallback_without_numpys_private_module(monkeypatch):
    # with numpy.linalg._umath_linalg gone, the module still imports and
    # factors with np.linalg.cholesky, to the same contains verdicts
    import importlib.util
    import sys

    import numpy.linalg
    import wpmm.oracles as oracles

    with monkeypatch.context() as m:
        m.delattr(numpy.linalg, "_umath_linalg")
        m.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
        spec = importlib.util.spec_from_file_location(
            "wpmm._oracles_without_umath", oracles.__file__)
        fallback = importlib.util.module_from_spec(spec)
        m.setitem(sys.modules, spec.name, fallback)  # for its dataclasses
        spec.loader.exec_module(fallback)
    assert fallback._umath_linalg is None and oracles._umath_linalg is not None

    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda a: calls.append(1) or cholesky(a))
    rng = np.random.default_rng(27)
    verdicts = set()
    for n, tau in ((1, 2.0), (70, 70.0), (70, 0.3)):
        comp = oracles.SpectrahedronIndicator(n, tau, k=1)
        twin = fallback.SpectrahedronIndicator(n, tau, k=1)
        for kind, r in product(("trace", "rank", "negative"), (0.0, 0.3, 3.0)):
            X = near_spectrahedron(kind, n, tau, r, rng)
            verdict = comp.contains(X)
            assert twin.contains(X) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False} and calls

    # positive definite, semidefinite and indefinite matrices, directly
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    for lam in (rng.uniform(0.1, 1.0, 30), np.r_[np.zeros(5), np.ones(25)],
                np.r_[-1e-3, np.ones(29)]):
        A = (Q * lam) @ Q.T
        A = 0.5 * (A + A.T)
        for delta in (0.0, 1e-12, 1e-2):
            assert (fallback._cholesky_completes(A.copy(), delta)
                    == oracles._cholesky_completes(A.copy(), delta))


@pytest.mark.parametrize("tol", [
    1e-6,
    pytest.param(1e-2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="every residual meets tol, but two Ritz values come from the "
        "bulk below 0.9 instead of the cluster's last two")),
])
def test_truncated_eigh_clustered_spectrum(tol):
    # top eigenvalues 1e-3 apart in relative terms, as on Max Cut iterates,
    # over a bulk that reaches 0.9
    rng = np.random.default_rng(12)
    d, k = 200, 13
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.concatenate([1.0 + 1e-3 * np.arange(k)[::-1],
                          rng.uniform(-0.5, 0.9, d - k)])
    M = (Q * lam) @ Q.T
    M = 0.5 * (M + M.T)
    U, got = truncated_eigh(M, k, tol)
    bound = tol * max(1.0, abs(got[0]))
    assert np.linalg.norm(M @ U - U * got, axis=0).max() <= bound
    assert np.allclose(U.T @ U, np.eye(k), atol=1e-10)
    assert np.abs(got - np.linalg.eigh(M)[0][::-1][:k]).max() <= bound


@pytest.mark.parametrize("tol", [
    1e-6,
    pytest.param(1e-2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="every residual meets tol, but Ritz values come from the "
        "bulk below 0.9 instead of the cluster's last members")),
])
def test_truncated_svd_clustered_spectrum(tol):
    # the clustered spectrum above, as singular values: U diag(|lam|) V^T
    rng = np.random.default_rng(12)
    d, k = 200, 13
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.abs(np.concatenate([1.0 + 1e-3 * np.arange(k)[::-1],
                               rng.uniform(-0.5, 0.9, d - k)]))
    M = (U * s) @ V.T
    Uk, got, Vk = truncated_svd(M, k, tol)
    bound = tol * got[0] + 1e-13 * np.linalg.norm(M)
    assert np.linalg.norm(M @ Vk - Uk * got, axis=0).max() <= bound
    assert np.linalg.norm(M.T @ Uk - Vk * got, axis=0).max() <= bound
    assert np.abs(got - np.sort(s)[::-1][:k]).max() <= bound


def test_matrix_oracle_rank_bound():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((8, 6))
    p = rng.standard_normal((8, 6))
    for k in (1, 2, 3):
        out = matrix_oracle(NuclearBallIndicator((8, 6), tau=5.0, k=k), M, p,
                            c=1.0)
        s = np.linalg.svd(out, compute_uv=False)
        assert (s[k:] <= 1e-10 * max(1.0, s[0])).all()


def test_wpo_contract_against_full_prox():
    # where the full prox optimum has rank <= k, the rank-k oracle must match
    rng = np.random.default_rng(6)
    for _ in range(20):
        M = rng.standard_normal((9, 7))
        p = rng.standard_normal((9, 7))
        c = 1.0 + rng.random()
        s = np.linalg.svd(M - p / c, compute_uv=False)
        j = int(rng.integers(1, 4))
        nu = 0.5 * (s[j - 1] + s[j]) * c
        out = matrix_oracle(NuclearNormReg((9, 7), nu, k=j), M, p, c)
        U, sv, Vt = np.linalg.svd(M - p / c, full_matrices=False)
        full = (U * np.maximum(sv - nu / c, 0.0)) @ Vt
        assert np.linalg.norm(out - full) <= 1e-6 * max(1.0, np.linalg.norm(full))
        reg_out = nu * np.linalg.svd(out, compute_uv=False).sum()
        reg_full = nu * np.linalg.svd(full, compute_uv=False).sum()
        phi_out = phi_value(reg_out, out.ravel(), p.ravel(), M.ravel(), c)
        phi_full = phi_value(reg_full, full.ravel(), p.ravel(), M.ravel(), c)
        assert phi_out <= phi_full + 1e-8


# ---------------------------------------------------------------------------
# simplex QP and polytope oracle


def test_simplex_qp_singleton():
    gamma = simplex_qp(np.array([[1.0], [2.0]]), np.zeros(2), np.zeros(2), 1.0)
    assert np.allclose(gamma, [1.0])


def test_simplex_qp_center_in_hull():
    M = np.eye(2)
    gamma = simplex_qp(M, np.zeros(2), np.array([0.3, 0.7]), 1.0)
    assert np.allclose(gamma, [0.3, 0.7], atol=1e-8)


def test_simplex_qp_beats_random_competitors():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 5))
    p = rng.standard_normal(4)
    center = rng.standard_normal(4)
    c = 1.7

    def obj(g):
        r = M @ g
        return float(r @ p) + 0.5 * c * float((r - center) @ (r - center))

    gamma = simplex_qp(M, p, center, c)
    val = obj(gamma)
    for _ in range(1000):
        g = rng.dirichlet(np.ones(5))
        assert val <= obj(g) + 1e-10


def test_simplex_qp_grid_refinement_oracle():
    # 2-vertex case: exhaustive grid over gamma_1 in [0, 1], then refine
    M = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = np.array([0.3, -0.2])
    center = np.array([0.1, 0.4])
    c = 2.0

    def obj(g1):
        g = np.array([g1, 1.0 - g1])
        r = M @ g
        return float(r @ p) + 0.5 * c * float((r - center) @ (r - center))

    grid = np.linspace(0.0, 1.0, 10001)
    best = grid[int(np.argmin([obj(g) for g in grid]))]
    fine = np.linspace(max(best - 1e-3, 0), min(best + 1e-3, 1), 10001)
    best = fine[int(np.argmin([obj(g) for g in fine]))]
    gamma = simplex_qp(M, p, center, c)
    assert abs(gamma[0] - best) <= 1e-6


def test_wpo_polytope_lmo_fixed_point():
    dim = 3
    lmo = scaled_simplex_lmo(1.0, dim)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    comp = PolytopeIndicator(dim, lmo, PolytopeState.at_vertex(e1), lam=1.0)
    p = np.array([-5.0, 1.0, 1.0])  # strictly smallest at coordinate 1
    v = comp.compute(e1, p, 1.0)
    assert np.allclose(v, e1, atol=1e-10)


def test_wpo_polytope_hypercube_full_support_audit():
    # with the full vertex set in the support the QP ranges over the whole
    # hull, so the output must beat every vertex and every hull point
    rng = np.random.default_rng(8)
    vertices = [np.array(v, dtype=float) for v in product([0.0, 1.0], repeat=2)]
    lmo = hypercube_lmo(0.0, 1.0)
    for _ in range(10):
        wts = rng.dirichlet(np.ones(4))
        support = [v.copy() for v in vertices]
        center = sum(w * v for w, v in zip(wts, support))
        comp = PolytopeIndicator(2, lmo, PolytopeState(support, wts), lam=1.0)
        p = rng.standard_normal(2)
        c = float(10 ** rng.uniform(-1, 1))
        v = comp.compute(center, p, c)
        val = phi_value(0.0, v, p, center, c)
        for u in vertices:
            assert val <= phi_value(0.0, u, p, center, c) + 1e-9
        for _ in range(50):
            u = rng.random(2)
            assert val <= phi_value(0.0, u, p, center, c) + 1e-9


def test_wpo_polytope_sparse_support_weak_contract():
    # with a sparse support the oracle is genuinely weak: the guarantee is
    # Phi_1(output) <= Phi_lam(u) for a finite geometry-dependent lam
    rng = np.random.default_rng(88)
    vertices = [np.array(v, dtype=float) for v in product([0.0, 1.0], repeat=2)]
    lmo = hypercube_lmo(0.0, 1.0)
    lam_cap = 10.0
    for _ in range(25):
        wts = rng.dirichlet(np.ones(2))
        support = [vertices[0].copy(), vertices[3].copy()]
        center = wts[0] * support[0] + wts[1] * support[1]
        comp = PolytopeIndicator(2, lmo, PolytopeState(support, wts), lam=1.0)
        p = rng.standard_normal(2)
        c = float(10 ** rng.uniform(-1, 1))
        v = comp.compute(center, p, c)
        val = phi_value(0.0, v, p, center, c)
        for u in vertices:
            assert val <= phi_value(0.0, u, p, center, c, lam=lam_cap) + 1e-9


def test_wpo_polytope_prunes_zero_weights():
    verts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    weights = np.array([1.0 - 1e-13, 1e-13, 0.0])
    weights[2] = 1.0 - weights[:2].sum()
    weights = np.abs(weights)
    weights /= weights.sum()
    state = PolytopeState(verts, weights)
    center = state.point()
    p = np.array([1.0, 1.0])  # LMO returns the origin, already optimal-ish
    comp = PolytopeIndicator(2, hypercube_lmo(0.0, 1.0), state, lam=1.0)
    v = comp.compute(center, p, 1.0)
    comp.commit(1.0)  # the state becomes the output's, as compute left it
    assert all(w > 1e-12 for w in comp.state.weights)
    assert np.linalg.norm(comp.state.point() - v) <= 1e-10
    # with every weight at or below the tolerance the heaviest vertex stays
    pruned = _pruned_state(verts, np.array([0.2, 0.9, 0.0]) * PRUNE_TOL)
    assert len(pruned.vertices) == 1
    assert np.array_equal(pruned.vertices[0], verts[1])
    assert np.array_equal(pruned.weights, [1.0])


def test_wpo_polytope_state_center_mismatch():
    comp = PolytopeIndicator(2, hypercube_lmo(0.0, 1.0),
                             PolytopeState.at_vertex(np.array([1.0, 0.0])),
                             lam=1.0)
    with pytest.raises(OracleError):
        comp.compute(np.array([0.0, 5.0]), np.zeros(2), 1.0)


def test_polytope_for_run_rejects_a_start_its_state_does_not_represent():
    comp = PolytopeIndicator(2, hypercube_lmo(0.0, 1.0),
                             PolytopeState.at_vertex(np.zeros(2)), lam=1.0)
    with pytest.raises(OracleError, match="does not represent the starting"):
        comp.for_run(np.ones(2))


def test_polytope_lmo_failure_is_an_oracle_error():
    def lmo(p):
        raise RuntimeError("no vertex")

    comp = PolytopeIndicator(2, lmo, PolytopeState.at_vertex(np.zeros(2)),
                             lam=1.0)
    with pytest.raises(OracleError, match="LMO callback failed: no vertex"):
        comp.compute(np.zeros(2), np.ones(2), 1.0)


def test_polytope_lmo_of_the_wrong_shape_is_an_oracle_error():
    comp = PolytopeIndicator(2, lambda p: np.zeros(3),
                             PolytopeState.at_vertex(np.zeros(2)), lam=1.0)
    with pytest.raises(OracleError,
                       match=r"LMO returned shape \(3,\), expected \(2,\)"):
        comp.compute(np.zeros(2), np.ones(2), 1.0)


def test_polytope_component_warns_without_lam():
    state = PolytopeState.at_vertex(np.zeros(2))
    with pytest.warns(UserWarning):
        PolytopeIndicator(2, hypercube_lmo(0.0, 1.0), state)


def test_polytope_component_commit_blends_support():
    state = PolytopeState.at_vertex(np.zeros(2))
    comp = PolytopeIndicator(2, hypercube_lmo(0.0, 1.0), state, lam=4.0)
    run_comp = comp.for_run(np.zeros(2))
    start = run_comp.state
    run_comp.commit(0.25)  # no candidate yet: the state stays
    assert run_comp.state is start
    center = np.zeros(2)
    p = np.array([-1.0, -1.0])  # pulls toward (1, 1)
    v = run_comp.compute(center, p, 1.0)
    run_comp.commit(0.25)
    blended = run_comp.state.point()
    assert np.allclose(blended, 0.75 * center + 0.25 * v, atol=1e-10)
    assert len(run_comp.state.vertices) <= 2


# ---------------------------------------------------------------------------
# composition and misc


def test_wpo_compose_max_rule():
    # composing block oracles: the composed parameter is the largest lam
    def poly(lam):
        return PolytopeIndicator(1, hypercube_lmo(0.0, 1.0),
                                 PolytopeState.at_vertex(np.zeros(1)), lam=lam)

    assert ProductComponent([poly(1.0), BoxIndicator(1, 0.0, 1.0)]).lam == 1.0
    assert ProductComponent([poly(1.0), poly(4.0)]).lam == 4.0
    with pytest.raises(ValueError):
        poly(0.5)


def test_prox_diag_ones():
    def prox_diag_ones(M):
        n = M.shape[0]
        return DiagOnesIndicator(n).project(M.ravel()).reshape(n, n)

    M = np.array([[1.0, 0.3], [0.3, 1.0]])
    assert np.array_equal(prox_diag_ones(M), M)
    assert np.array_equal(prox_diag_ones(np.zeros((3, 3))), np.eye(3))
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 4))
    before = X.copy()
    out = prox_diag_ones(X)
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(out[off], X[off])
    assert np.array_equal(X, before)  # the input is not overwritten
    with pytest.raises(ValueError):
        prox_diag_ones(np.zeros((2, 3)))


def test_beta_hat_dominates_beta_s():
    consts = StepConstants(None, 5.0, 1.0, 1.0)
    assert consts.beta_hat(0.2) == pytest.approx(5.0 + 2 * 0.2 * 4, rel=1e-12)
    assert consts.beta_hat(0.0) == 5.0


def test_product_component_concatenates():
    comp = ProductComponent([BoxIndicator(2, 0.0, 1.0),
                             SimplexIndicator(3, 1.0)])
    assert comp.dim == 5
    assert comp.lam == 1.0
    center = np.array([0.5, 0.5, 0.2, 0.3, 0.5])
    p = np.zeros(5)
    out = comp.compute(center, p, 1.0)
    assert np.allclose(out[:2], np.clip(center[:2], 0, 1))
    assert np.allclose(out[2:], project_simplex(center[2:], 1.0))
    assert comp.logged_value(out) == (0.0, False)
    assert comp.distance(np.array([2.0, 0.5, 0.2, 0.3, 0.5])) > 0.9


def test_component_logged_value_indicator():
    comp = BoxIndicator(2, 0.0, 1.0)
    val, flagged = comp.logged_value(np.array([0.5, 0.5]))
    assert val == 0.0 and not flagged
    val, flagged = comp.logged_value(np.array([3.0, 0.5]))
    assert flagged and val == pytest.approx(2.0)


def test_exact_clones():
    # the exact views of the rank-k components compute the full prox
    rng = np.random.default_rng(10)
    center, p = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    center, p = center + center.T, p + p.T
    spect = SpectrahedronIndicator(4, 1.0, k=1)
    exact = spect.exact()
    assert np.allclose(matrix_oracle(exact, center, p, 2.0).ravel(),
                       spect.project((center - p / 2.0).ravel()), atol=1e-12)
    assert exact.for_run(center.ravel()) is exact
    nuc = NuclearNormReg((3, 5), 0.5, k=2)
    center, p = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    U, s, Vt = np.linalg.svd(center - p / 2.0, full_matrices=False)
    full = (U * np.maximum(s - 0.5 / 2.0, 0.0)) @ Vt
    assert np.allclose(matrix_oracle(nuc.exact(), center, p, 2.0), full,
                       atol=1e-12)
    box = BoxIndicator(2, 0.0, 1.0)
    assert box.exact() is box
    state = PolytopeState.at_vertex(np.zeros(2))
    poly = PolytopeIndicator(2, hypercube_lmo(0.0, 1.0), state, lam=2.0)
    with pytest.raises(OracleError):
        poly.exact()


def test_polytope_state_invariants():
    state = PolytopeState([np.zeros(2), np.ones(2)], np.array([0.4, 0.6]))
    state.validate()
    assert np.allclose(state.point(), [0.6, 0.6])
    with pytest.raises(ValueError):
        PolytopeState([np.zeros(2)], np.array([0.5, 0.5])).validate()
    with pytest.raises(ValueError):
        PolytopeState([np.zeros(2), np.ones(2)],
                      np.array([0.7, 0.6])).validate()
    with pytest.raises(ValueError):
        PolytopeState([np.zeros(2), np.ones(2)],
                      np.array([-0.1, 1.1])).validate()


def test_diag_ones_component():
    comp = DiagOnesIndicator(3)
    v = np.eye(3).ravel()
    assert comp.distance(v) == 0.0
    bad = np.zeros(9)
    assert comp.distance(bad) == pytest.approx(np.sqrt(3.0))


INDICATORS = {
    "l1_ball": lambda: L1BallIndicator(9, 2.0),
    "simplex": lambda: SimplexIndicator(9, 2.0),
    "box": lambda: BoxIndicator(9, -0.5, 0.5),
    "diag_ones": lambda: DiagOnesIndicator(3),
    "nuclear_ball": lambda: NuclearBallIndicator((3, 3), 1.0, k=2),
    "spectrahedron": lambda: SpectrahedronIndicator(3, 1.0, k=2),
}


@pytest.mark.parametrize("kind", INDICATORS)
def test_project_leaves_input_unchanged(kind):
    # prox may overwrite its point; project works on a copy of its argument
    comp = INDICATORS[kind]()
    v = np.random.default_rng(23).standard_normal(9)
    before = v.copy()
    out = comp.project(v)
    assert np.array_equal(v, before)
    assert not np.array_equal(out, v) and not np.shares_memory(out, v)
    assert np.array_equal(out, comp.prox(v.copy(), 1.0))


def test_diag_ones_oracle_allocates_one_block():
    # the answer is written into the shifted center compute forms, so the
    # oracle's peak is one n x n block, not two
    n = 300
    comp = DiagOnesIndicator(n)
    rng = np.random.default_rng(0)
    center, p = rng.standard_normal(n * n), rng.standard_normal(n * n)
    c0, p0 = center.copy(), p.copy()
    tracemalloc.start()
    try:
        out = comp.compute(center, p, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * n * n * 8
    assert np.array_equal(center, c0) and np.array_equal(p, p0)
    assert np.array_equal(out, comp.project(center - p / 2.0))


def test_symmetric_part_holds_one_panel_at_a_time():
    # each row panel is freed before the next one is formed: the peak over
    # the d x d answer is one panel plus NumPy's transpose buffer (0.35
    # blocks at d=300), not two panels (0.56)
    d = 300
    M = np.random.default_rng(0).standard_normal((d, d))
    M0 = M.copy()
    tracemalloc.start()
    try:
        out = _symmetric_part(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * d * d * 8
    assert np.array_equal(out, 0.5 * (M0 + M0.T))
    assert np.array_equal(M, M0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
def test_symmetric_part_is_the_dense_formula_bit_for_bit(d, dtype):
    # panel edges at multiples of 64 rows; float64 symmetrizes in place
    rng = np.random.default_rng(d)
    C, P = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    C0, P0 = C.copy(), P.copy()
    m = C - P / 3.0
    for out, want in ((_symmetric_part(C, P, 3.0, dtype), 0.5 * (m + m.T)),
                      (_symmetric_part(C, dtype=dtype), 0.5 * (C + C.T))):
        assert out.dtype == dtype
        assert np.array_equal(out, want.astype(dtype))
    assert np.array_equal(C, C0) and np.array_equal(P, P0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_symmetric_part_of_a_symmetric_m_is_m_bit_for_bit(dtype):
    # m is returned as it is when it equals its transpose: two equal float64
    # values average to themselves, and two float64 values that round to
    # one float32 value have a float64 mean that rounds to it too
    rng = np.random.default_rng(5)
    d = 130
    C, P = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    C, P = C + C.T, P + P.T
    m = C - P / 3.0
    assert np.array_equal(m, m.T)
    assert np.array_equal(_symmetric_part(C, P, 3.0, dtype),
                          symmetric_part(C, P, 3.0, dtype))
    assert np.array_equal(m.astype(dtype), symmetric_part(m, dtype=dtype))
    # one float64 ulp up below the diagonal: not symmetric in float64, but
    # every pair still rounds to one float32 value
    skewed = np.where(np.tri(d, k=-1, dtype=bool), np.nextafter(m, np.inf), m)
    single = skewed.astype(np.float32)
    assert not np.array_equal(skewed, skewed.T)
    assert np.array_equal(single, single.T)
    assert np.array_equal(single, symmetric_part(skewed, dtype=np.float32))
    assert np.array_equal(_symmetric_part(skewed, dtype=dtype),
                          symmetric_part(skewed, dtype=dtype))


@pytest.mark.parametrize("tol, dtype", [(1e-2, np.float32),
                                        (1e-6, np.float64)])
def test_spectrahedron_oracle_symmetrizes_only_a_refused_center(
        monkeypatch, tol, dtype):
    # the kernel's check is the only one: a center it refuses is symmetrized
    # to the bits of the dense formula; a symmetric one goes through as is
    rng = np.random.default_rng(25)
    d = 90
    C = rng.standard_normal((d, d))
    C = C + C.T + 60.0 * np.eye(d)
    P = rng.standard_normal((d, d))
    kernel, refused = linalg.truncated_eigh, []

    def watched(M, *args, **kwargs):
        try:
            return kernel(M, *args, **kwargs)
        except linalg.NotSymmetricError:
            refused.append(M.dtype)
            raise

    monkeypatch.setattr(linalg, "truncated_eigh", watched)
    comp = SpectrahedronIndicator(d, 2.0, 4, svd_tol=tol)
    for grad, refusals in ((P, [dtype]), (P + P.T, [])):
        refused.clear()
        out = comp.compute(C.ravel(), grad.ravel(), 2.0)
        assert refused == refusals
        assert np.array_equal(out, spectrahedron_oracle(
            comp, C.ravel(), grad.ravel(), 2.0, dtype))
        assert np.array_equal(out.reshape(d, d), out.reshape(d, d).T)


def test_float64_symmetric_part_peaks_near_its_answer():
    # m is written into the answer and symmetrized there: the peak is the
    # answer plus a row panel and its transpose buffer
    d = 1000
    rng = np.random.default_rng(1)
    C, P = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    for args in ((C,), (C, P, 2.0)):
        tracemalloc.start()
        try:
            _symmetric_part(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * d * d * 8


# ---------------------------------------------------------------------------
# spectrahedron oracle: float32 Lanczos products at loose tolerances


def spectrahedron_oracle(comp, center, p, c, dtype=float):
    """The spectrahedron oracle step for step: the symmetric part of the
    shifted center, formed densely in dtype, its top eigenpairs, and the
    answer F F^T over the positive simplex weights."""
    M = symmetric_part(comp._mat(center), comp._mat(p), c, dtype)
    U, lam = truncated_eigh(M, comp.k, comp.svd_tol)
    w = project_simplex(lam, comp.tau)
    F = U[:, w > 0] * np.sqrt(w[w > 0])
    return (F @ F.T).ravel()



def test_single_shifted_is_the_rounded_symmetric_part():
    rng = np.random.default_rng(20)
    d = 150
    C, P = rng.standard_normal((d, d)), rng.standard_normal((d, d))
    M = _symmetric_part(C + 10.0 * np.eye(d), P, 2.0, np.float32)
    S = (C + 10.0 * np.eye(d)) - P / 2.0
    assert M.dtype == np.float32 and _single_holds(M, 1e-2)
    assert np.array_equal(M, (0.5 * (S + S.T)).astype(np.float32))
    assert np.array_equal(_symmetric_part(C + 10.0 * np.eye(d), P, 2.0),
                          0.5 * (S + S.T))
    # below the float32 threshold the oracle keeps its float64 path
    comp = SpectrahedronIndicator(d, 1.0, 3, svd_tol=1e-5)
    center, p = C.ravel(), P.ravel()
    assert np.array_equal(comp.compute(center, p, 2.0),
                          spectrahedron_oracle(comp, center, p, 2.0))


def test_spectrahedron_float32_path_meets_tol_on_maxcut_center():
    # the x-oracle input of the third step of an n=800 Max Cut solve with
    # the paper's tolerance: the pairs found from the float32 center meet
    # tol against the float64 one
    spec, q0, w0 = build_maxcut_problem(
        laplacian(gen_er_graph(800, 0.06, seed=11)), 13, svd_tol=1e-2)
    rx, calls = spec.rx, []
    compute = rx.compute

    def capture(center, p, coeff):
        calls[:] = [(center.copy(), p.copy(), coeff)]
        return compute(center, p, coeff)

    rx.compute = capture
    run(spec, q0, w0, SolverConfig(rho=1.0, mu=0.2, eta=0.2, iters=3,
                                   step_policy="fixed", variant="last"))
    center, p, c = calls[0]
    S = center.reshape(800, 800) - p.reshape(800, 800) / c
    S = 0.5 * (S + S.T)
    M = rx._shifted(center, p, c)
    assert M.dtype == np.float32
    U, lam = truncated_eigh(M, rx.k, rx.svd_tol)
    resid = np.linalg.norm(S @ U - U * lam, axis=0)
    assert resid.max() <= rx.svd_tol * max(1.0, abs(lam[0]))


def test_spectrahedron_takes_float64_when_float32_cannot_hold_tol():
    rng = np.random.default_rng(21)
    d = 120
    C = rng.standard_normal((d, d))
    P = rng.standard_normal((d, d))
    # an entry beyond the float32 range
    big = C + np.diag(np.full(d, 50.0))
    big[0, 1] = big[1, 0] = 1e39
    # a nearly traceless shifted center whose allowance, (d + 2) * 2**-24 *
    # ||M||_F = 6.9e-4, passes half of tol * max(1, tr / d) = 5e-5
    traceless = C - np.diag(np.diag(C))
    for center, tol in ((big, 1e-2), (traceless, 1e-4)):
        assert not _single_holds(
            _symmetric_part(center, P, 2.0, np.float32), tol)
        comp = SpectrahedronIndicator(d, 1.0, 4, svd_tol=tol)
        out = comp.compute(center.ravel(), P.ravel(), 2.0)
        assert np.array_equal(out, spectrahedron_oracle(
            comp, center.ravel(), P.ravel(), 2.0))


def test_product_exact_is_the_product_of_exact_parts():
    rng = np.random.default_rng(24)
    box, spec = BoxIndicator(2, 0.0, 1.0), SpectrahedronIndicator(3, 1.0, 1)
    exact = ProductComponent([box, spec]).exact()
    center, p = rng.standard_normal(11), rng.standard_normal(11)
    out = exact.compute(center, p, 2.0)
    assert np.array_equal(out[:2], box.compute(center[:2], p[:2], 2.0))
    assert np.array_equal(out[2:],
                          spec.exact().compute(center[2:], p[2:], 2.0))


def test_spectrahedron_takes_float64_past_float32_range_on_diagonal():
    # an infinite float32 trace must not hide the infinite norm
    rng = np.random.default_rng(23)
    d = 60
    C = rng.standard_normal((d, d)) + 50.0 * np.eye(d)
    C[0, 0] = 1e39
    P = rng.standard_normal((d, d))
    assert not _single_holds(_symmetric_part(C, P, 2.0, np.float32), 1e-2)
    comp = SpectrahedronIndicator(d, 1.0, 3, svd_tol=1e-2)
    out = comp.compute(C.ravel(), P.ravel(), 2.0)
    assert np.array_equal(out, spectrahedron_oracle(
        comp, C.ravel(), P.ravel(), 2.0))


def test_spectrahedron_float32_oracle_peak_is_its_answer():
    # the float32 center (half a block) is freed before the answer (one
    # block) is formed; the float64 path peaks at 1.18 blocks here
    n = 500
    comp = SpectrahedronIndicator(n, n, 5, svd_tol=1e-1)
    rng = np.random.default_rng(22)
    center = rng.standard_normal((n, n))
    center = (center + center.T + 40.0 * np.eye(n)).ravel()
    p = rng.standard_normal(n * n)
    tracemalloc.start()
    try:
        comp.compute(center, p, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * n * 8
