import re

import numpy as np
import pytest

from bruteforce import fd_gradient, smooth_part
from wpmm.cli import _Section, _build_smooth
from wpmm.model import (
    LinearMap,
    PrimalPoint,
    ProblemSpec,
    SmoothTerm,
    k_apply,
    smooth_grad,
    smooth_grad_y,
)
from wpmm.oracles import BoxIndicator, NuclearNormReg, ZeroReg
from wpmm.solver import (
    SolverConfig,
    StepConstants,
    record_values,
    run,
    step_constants,
)


def zero_smooth(dim):
    return SmoothTerm.linear(np.zeros(dim))


def make_spec(dim=2, f=None, A=None, rx=None, ry=None, **kw):
    return ProblemSpec(
        f=f if f is not None else SmoothTerm.half_sq_distance(np.zeros(dim)),
        A=A if A is not None else LinearMap.identity(dim),
        rx=rx if rx is not None else ZeroReg(dim),
        ry=ry if ry is not None else ZeroReg(dim),
        **kw,
    )


def q_of(x, y):
    return PrimalPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def audited_al(spec, q, w, rho):
    """The audited augmented-Lagrangian value of a point inside its domains."""
    _, flagged, al = record_values(spec, q, w, rho, audit=True)
    assert not flagged
    return al


def k_adjoint(spec, w):
    """K^T w = (A^T w, -w), read off the smooth-part gradient of f = 0 at
    rho = 0."""
    flat = ProblemSpec(f=zero_smooth(spec.A.dim_in), A=spec.A, rx=spec.rx,
                       ry=spec.ry)
    zero = q_of(np.zeros(spec.A.dim_in), np.zeros(spec.A.dim_out))
    return smooth_grad(flat, zero, np.asarray(w, dtype=float), 0.0)


# ---------------------------------------------------------------------------
# constraint map


def test_k_apply_feasible_point():
    spec = make_spec()
    assert np.allclose(k_apply(spec, q_of([0.3, 0.4], [0.3, 0.4])), 0.0)


def test_k_apply_direct():
    spec = make_spec()
    assert np.allclose(k_apply(spec, q_of([1, 0], [0, 0])), [1.0, 0.0])


def test_k_apply_diagonal_map():
    spec = make_spec(A=LinearMap.diagonal([2.0, 1.0]))
    assert np.allclose(k_apply(spec, q_of([1, 1], [2, 1])), 0.0)


def test_k_adjoint_zero_and_identity():
    spec = make_spec()
    gx, gy = k_adjoint(spec, np.zeros(2))
    assert np.allclose(gx, 0) and np.allclose(gy, 0)
    gx, gy = k_adjoint(spec, np.array([1.0, 2.0]))
    assert np.allclose(gx, [1, 2]) and np.allclose(gy, [-1, -2])


def test_adjoint_identity_random_probes():
    rng = np.random.default_rng(0)
    A = LinearMap.from_dense(rng.standard_normal((4, 3)))
    spec = make_spec(
        f=SmoothTerm.half_sq_distance(np.zeros(3)),
        A=A, rx=ZeroReg(3), ry=ZeroReg(4),
    )
    for _ in range(100):
        q = q_of(rng.standard_normal(3), rng.standard_normal(4))
        w = rng.standard_normal(4)
        lhs = float(k_apply(spec, q) @ w)
        gx, gy = k_adjoint(spec, w)
        rhs = float(q.x @ gx + q.y @ gy)
        scale = 1.0 + np.sqrt(q.x @ q.x + q.y @ q.y) * np.linalg.norm(w)
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_k_apply_dimension_mismatch():
    spec = make_spec()
    with pytest.raises(ValueError):
        k_apply(spec, q_of([1.0, 2.0, 3.0], [0.0, 0.0]))


# ---------------------------------------------------------------------------
# augmented Lagrangian values and gradients


def test_al_value_feasible_reduces_to_objective():
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.array([1.0, 1.0])))
    q = q_of([0.5, 0.5], [0.5, 0.5])
    assert audited_al(spec, q, np.array([3.0, -2.0]), 2.0) == pytest.approx(0.25)


def test_al_value_direct_arithmetic():
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.zeros(2)))
    q = q_of([1, 0], [0, 0])
    w = np.array([1.0, 1.0])
    # 0.5 + <w, Kq> + (rho/2)||Kq||^2 = 0.5 + 1 + 1
    assert audited_al(spec, q, w, 2.0) == pytest.approx(2.5)


def test_al_value_indicator_violation_is_inf():
    spec = make_spec(rx=BoxIndicator(2, 0.0, 1.0), ry=ZeroReg(2))
    q = q_of([2.0, 0.0], [2.0, 0.0])
    _, flagged, al = record_values(spec, q, np.zeros(2), 1.0, audit=True)
    assert flagged and al == np.inf


def test_smooth_value_examples():
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.zeros(2)))
    q = q_of([1, 0], [0, 0])
    # R = 0 on both blocks, so the AL value is its smooth part
    assert audited_al(spec, q, np.array([1.0, 1.0]), 2.0) == pytest.approx(2.5)
    q_feas = q_of([1, 0], [1, 0])
    assert audited_al(spec, q_feas, np.zeros(2), 0.0) == pytest.approx(0.5)


def test_smooth_grad_simple_cases():
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.zeros(2)))
    q = q_of([0.7, -0.2], [0.7, -0.2])
    gx, gy = smooth_grad(spec, q, np.zeros(2), 1.0)
    assert np.allclose(gx, q.x) and np.allclose(gy, 0.0)

    spec0 = make_spec(f=zero_smooth(2))
    gx, gy = smooth_grad(spec0, q_of([1, 0], [0, 0]), np.zeros(2), 1.0)
    assert np.allclose(gx, [1, 0]) and np.allclose(gy, [-1, 0])


def test_smooth_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    A = LinearMap.from_dense(rng.standard_normal((3, 4)))
    Q = rng.standard_normal((4, 4))
    spec = make_spec(
        f=SmoothTerm.quadratic(Q @ Q.T + np.eye(4), rng.standard_normal(4)),
        A=A, rx=ZeroReg(4), ry=ZeroReg(3),
    )
    w = rng.standard_normal(3)
    rho = 0.7
    for _ in range(5):
        q = q_of(rng.standard_normal(4), rng.standard_normal(3))
        gx, gy = smooth_grad(spec, q, w, rho)
        fx = fd_gradient(
            lambda x: smooth_part(spec, q_of(x, q.y), w, rho), q.x)
        fy = fd_gradient(
            lambda y: smooth_part(spec, q_of(q.x, y), w, rho), q.y)
        scale = max(1.0, np.linalg.norm(np.concatenate([gx, gy])))
        assert np.linalg.norm(gx - fx) <= 1e-5 * scale
        assert np.linalg.norm(gy - fy) <= 1e-5 * scale


SMOOTH_KINDS = {
    "quadratic": {"kind": "quadratic", "Q": [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2],
                                             [0.0, 0.2, 0.7]],
                  "b": [0.3, -1.0, 0.5], "c0": 1.5},
    "least_squares": {"kind": "least_squares",
                      "M": [[1.0, 2.0, 0.0], [0.0, -1.0, 3.0],
                            [0.5, 0.0, 1.0], [2.0, 1.0, -1.0]],
                      "b": [1.0, 0.0, -2.0, 0.5]},
    "half_sq_distance": {"kind": "half_sq_distance", "target": [0.4, -1.2, 2.0]},
    "linear": {"kind": "linear", "g": [1.0, -0.5, 2.5]},
}


@pytest.mark.parametrize("kind", sorted(SMOOTH_KINDS))
def test_smooth_term_value_gradient_hessian_agree(kind):
    # central differences are exact for quadratics, so a unit step is fine
    f = _build_smooth(_Section("problem", "f", SMOOTH_KINDS[kind]))
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, d = rng.standard_normal(3), rng.standard_normal(3)
        slope = 0.5 * (f.value(x + d) - f.value(x - d))
        assert slope == pytest.approx(float(f.gradient(x) @ d), abs=1e-8)
        second = f.value(x + d) - 2.0 * f.value(x) + f.value(x - d)
        assert second == pytest.approx(f.curvature(d), abs=1e-8)
        hd = 0.5 * (f.gradient(x + d) - f.gradient(x - d))
        want = np.zeros(3) if f.hess is None else f.hess(d)
        np.testing.assert_allclose(hd, want, rtol=0.0, atol=1e-8)


def test_al_decomposition_exact():
    spec = make_spec(
        f=SmoothTerm.half_sq_distance(np.zeros(4)),
        A=LinearMap.identity(4),
        rx=NuclearNormReg((2, 2), nu=0.5, k=2),
        ry=ZeroReg(4),
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = q_of(rng.standard_normal(4), rng.standard_normal(4))
        w = rng.standard_normal(4)
        total = audited_al(spec, q, w, 1.5)
        parts = (smooth_part(spec, q, w, 1.5)
                 + spec.rx.value(q.x) + spec.ry.value(q.y))
        assert total == parts


def test_descent_lemma_bound():
    rng = np.random.default_rng(3)
    A = LinearMap.from_dense(rng.standard_normal((3, 3)))
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.zeros(3)), A=A,
                     rx=ZeroReg(3), ry=ZeroReg(3))
    rho = 1.3
    bs = step_constants(spec, rho).beta_s
    w = rng.standard_normal(3)
    for _ in range(50):
        q = q_of(rng.standard_normal(3), rng.standard_normal(3))
        qp = q_of(rng.standard_normal(3), rng.standard_normal(3))
        gx, gy = smooth_grad(spec, q, w, rho)
        dx, dy = qp.x - q.x, qp.y - q.y
        lin = smooth_part(spec, q, w, rho) + gx @ dx + gy @ dy
        quad = 0.5 * bs * (dx @ dx + dy @ dy)
        lhs = smooth_part(spec, qp, w, rho)
        assert lhs <= lin + quad + 1e-9 * max(1.0, abs(lhs))


def test_saddle_inequality_analytic_instance():
    # 1-D box toy with a = 1.5: q* = (1, 1), and w* = 0.25 satisfies the
    # stationarity conditions on both blocks
    spec = make_spec(
        dim=1,
        f=SmoothTerm.half_sq_distance(np.array([1.5])),
        A=LinearMap.identity(1),
        rx=BoxIndicator(1, 0.0, 1.0),
        ry=BoxIndicator(1, 0.0, 1.0),
    )
    qstar = q_of([1.0], [1.0])
    wstar = np.array([0.25])
    rho = 1.0
    lstar = audited_al(spec, qstar, wstar, rho)
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = rng.standard_normal(1) * 3
        assert audited_al(spec, qstar, w, rho) <= lstar + 1e-12
        q = q_of(rng.uniform(0, 1, 1), rng.uniform(0, 1, 1))
        assert audited_al(spec, q, wstar, rho) >= lstar - 1e-12


# ---------------------------------------------------------------------------
# constants


def constants_at(beta, rho, norm_a, alpha=None):
    """step_constants at penalty rho of a one-coordinate problem whose f has
    smoothness beta and strong convexity alpha, with ||A|| = norm_a."""
    f = SmoothTerm(None, np.zeros(1), 0.0, beta=beta, alpha=alpha)
    return step_constants(make_spec(dim=1, f=f, A=LinearMap.diagonal([norm_a])),
                          rho)


def test_beta_S_values():
    assert constants_at(1.0, 1.0, 1.0).beta_s == pytest.approx(5.0, rel=1e-12)
    assert constants_at(2.5, 0.0, 7.0).beta_s == pytest.approx(2.5, rel=1e-12)
    assert constants_at(2.0, 3.0, 0.0).beta_s == pytest.approx(5.0, rel=1e-12)


def test_alpha_S_values():
    assert constants_at(1.0, 1.0, 1.0, alpha=1.0).alpha_s == \
        pytest.approx(1 / 3, rel=1e-12)
    assert constants_at(1.0, 1.0, 1.0, alpha=2.0).alpha_s == \
        pytest.approx(0.5, rel=1e-12)
    # with no coupling norm the curvature caps at alpha/2 once rho >= alpha/2
    assert constants_at(1.0, 1.0, 0.0, alpha=1.0).alpha_s == \
        pytest.approx(0.5, rel=1e-12)


def test_constants_reject_bad_inputs():
    with pytest.raises(ValueError):
        constants_at(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        StepConstants(-1.0, 5.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        constants_at(1.0, 0.0, 1.0, alpha=1.0)


# ---------------------------------------------------------------------------
# objective


def audited_h(spec, q):
    """(h, flagged) at q as the audited record reads them."""
    h, flagged, _ = record_values(spec, q, np.zeros(spec.A.dim_out), 1.0,
                                  audit=True)
    return h, flagged


def test_objective_h_cases():
    spec = make_spec(f=SmoothTerm.half_sq_distance(np.zeros(2)),
                     rx=BoxIndicator(2, -1.0, 1.0), ry=ZeroReg(2))
    h, flagged = audited_h(spec, q_of([0.5, 0], [0, 0]))
    assert h == pytest.approx(0.125) and not flagged
    assert audited_h(spec, q_of([2.0, 0], [0, 0]))[1]

    nuc = make_spec(
        dim=4,
        f=zero_smooth(4),
        rx=NuclearNormReg((2, 2), nu=1.0, k=2),
        ry=ZeroReg(4),
    )
    q = q_of(np.diag([2.0, 3.0]).ravel(), np.zeros(4))
    h, flagged = audited_h(nuc, q)
    assert h == pytest.approx(5.0, rel=1e-10) and not flagged


def test_objective_h_logged_substitutes_distance():
    # the logged objective of an iterate outside an indicator domain is the
    # distance to the set, flagged, instead of +inf
    class JumpTo(BoxIndicator):
        def __init__(self, target):
            super().__init__(2, 0.0, 1.0)
            self.target = np.asarray(target, dtype=float)

        def compute(self, center, p, coeff):
            return self.target.copy()

    config = SolverConfig(rho=1.0, mu=0.1, iters=1, step_policy="fixed",
                          eta=1.0)
    q0 = q_of([0.5, 0.5], [0.5, 0.5])
    for target, flagged, val in (([2.0, 0.5], True, 1.0),
                                 ([0.5, 0.5], False, 0.0)):
        spec = make_spec(rx=JumpTo(target), ry=ZeroReg(2), f=zero_smooth(2))
        rec = run(spec, q0, np.zeros(2), config).records[0]
        assert rec.objective_flagged == flagged
        assert rec.objective == pytest.approx(val)


def test_linear_map_norm_bound_is_upper_bound():
    def dense(A):
        return np.column_stack([A.apply(e) for e in np.eye(A.dim_in)])

    rng = np.random.default_rng(5)
    maps = [LinearMap.identity(4), LinearMap.diagonal([3.0, -1.0, 0.5]),
            LinearMap.stacked_identity(3, 4)]
    maps += [LinearMap.from_dense(rng.standard_normal((5, 7)))
             for _ in range(5)]
    for A in maps:
        assert A.norm_bound >= np.linalg.norm(dense(A), 2)
    # a spectral gap of 3% that power iteration underestimates
    A = LinearMap.diagonal(np.r_[1.0, np.full(2999, 0.97)])
    assert A.norm_bound >= 1.0


def test_problem_spec_validates_dimensions():
    with pytest.raises(ValueError):
        ProblemSpec(f=zero_smooth(2), A=LinearMap.identity(2),
                    rx=ZeroReg(3), ry=ZeroReg(2))
    with pytest.raises(ValueError, match="f's linear term has 3 entries"):
        ProblemSpec(f=zero_smooth(3), A=LinearMap.identity(2),
                    rx=ZeroReg(2), ry=ZeroReg(2))


@pytest.mark.parametrize("call, message", [
    (lambda: ProblemSpec(f=zero_smooth(2), A=LinearMap.identity(2),
                         rx=ZeroReg(2), ry=ZeroReg(3)),
     "y-block dimension 3 != A.dim_out 2"),
    (lambda: make_spec(pqg_alpha=0.0),
     "pqg_alpha must be positive when supplied"),
    (lambda: LinearMap.from_dense([1.0, 2.0]), "dense map needs a 2-D array"),
    (lambda: LinearMap.stacked_identity(3, 0), "copies must be >= 1"),
    (lambda: SmoothTerm.quadratic([[1.0, 0.0], [0.0, -1.0]]),
     "quadratic form is not positive semidefinite"),
    (lambda: smooth_grad_y(make_spec(), q_of([0.0, 0.0], [0.0, 0.0]),
                           np.zeros(2), -1.0),
     "rho must be nonnegative"),
], ids=["y-block", "pqg-alpha", "dense-1d", "no-copies", "not-psd", "rho"])
def test_model_inputs_are_checked_by_name(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
