"""Problem model: smooth-plus-composite objective with an affine coupling.

The problem is  min f(x) + R_x(x) + R_y(y)  subject to  A x = y,  over a pair
of flat real vectors (matrix variables are vectorized with explicit shape
metadata carried by their regularizer components). The constraint map is
K q = A x - y for q = (x, y); this module provides K and the gradient of
the smooth part of the augmented Lagrangian. The step-size constants built
from f's smoothness and curvature and from ||A|| live in
``solver.StepConstants``; the objective and the augmented Lagrangian are
evaluated in one place, ``solver.record_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "INDICATOR_RTOL",
    "indicator_tol",
    "LinearMap",
    "SmoothTerm",
    "PrimalPoint",
    "ProblemSpec",
    "k_apply",
    "smooth_grad",
]

# A point counts as inside an indicator set when its distance to the set is
# at most INDICATOR_RTOL * (1 + ||point||); convex-combination steps produce
# iterates that drift from exact membership at roundoff level.
INDICATOR_RTOL = 1e-9


def _norm(v):
    """The Euclidean norm of v, Frobenius for a matrix, as np.linalg.norm
    gives it; when the sum of squares of a finite v overflows, it is taken
    from v / max|v| instead."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
        if norm == math.inf and np.isfinite(v).all():  # squares overflowed
            scale = float(np.abs(v).max())
            norm = scale * float(np.linalg.norm(v / scale))
    return norm


def indicator_tol(v):
    """INDICATOR_RTOL * (1 + ||v||), with ||v|| from ``_norm``; a v with a
    non-finite entry gets an infinite or nan tolerance."""
    return INDICATOR_RTOL * (1.0 + _norm(v))


@dataclass
class LinearMap:
    """Linear operator with its adjoint and a certified upper bound on its norm.

    ``norm_bound`` must satisfy norm_bound >= ||A||; step-size formulas rely
    on it being an upper bound, never an estimate from below.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dim_in: int
    dim_out: int
    norm_bound: float

    @classmethod
    def identity(cls, dim):
        return cls(lambda v: v, lambda w: w, dim, dim, 1.0)

    @classmethod
    def diagonal(cls, diag):
        diag = np.asarray(diag, dtype=float)
        n = diag.size
        bound = float(np.abs(diag).max()) if n else 0.0
        return cls(lambda v: diag * v, lambda w: diag * w, n, n, bound)

    @classmethod
    def from_dense(cls, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError("dense map needs a 2-D array")
        bound = float(np.linalg.norm(arr, 2)) * (1.0 + 1e-10) if arr.size else 0.0
        return cls(
            lambda v, a=arr: a @ v,
            lambda w, a=arr: a.T @ w,
            arr.shape[1],
            arr.shape[0],
            bound,
        )

    @classmethod
    def stacked_identity(cls, dim, copies):
        """Maps v -> (v, v, ..., v); adjoint sums the blocks."""
        if copies < 1:
            raise ValueError("copies must be >= 1")

        def apply(v):
            return np.tile(v, copies)

        def adjoint(w):
            return w.reshape(copies, dim).sum(axis=0)

        return cls(apply, adjoint, dim, dim * copies, float(np.sqrt(copies)))


@dataclass
class SmoothTerm:
    """Convex quadratic smooth part f(x) = 0.5 <x, H x> + <b, x> + c0.

    ``hess`` applies the positive semidefinite Hessian H (None when H = 0,
    i.e. f is linear). beta is a smoothness (gradient Lipschitz) constant,
    alpha an optional strong-convexity constant.
    """

    hess: Optional[Callable[[np.ndarray], np.ndarray]]
    b: np.ndarray
    c0: float
    beta: float
    alpha: Optional[float] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.c0 = float(self.c0)

    def curvature(self, d):
        """<d, H d>: f changes by <grad f(x), d> + curvature(d)/2 along d."""
        return 0.0 if self.hess is None else float(d @ self.hess(d))

    def value(self, x):
        return 0.5 * self.curvature(x) + float(self.b @ x) + self.c0

    def gradient(self, x):
        """grad f(x) = H x + b, as a new array."""
        return self.b.copy() if self.hess is None else self.hess(x) + self.b

    @classmethod
    def half_sq_distance(cls, target):
        """f(x) = 0.5 ||x - target||^2; alpha = beta = 1."""
        target = np.asarray(target, dtype=float).ravel()
        return cls(lambda x: x, -target, 0.5 * float(target @ target),
                   beta=1.0, alpha=1.0)

    @classmethod
    def linear(cls, g):
        """f(x) = <g, x>. beta has no meaning for a linear map; a small
        positive floor keeps the smoothness-based formulas finite."""
        return cls(None, g, 0.0, beta=1e-6)

    @classmethod
    def quadratic(cls, Q, b=None, c0=0.0):
        """f(x) = 0.5 x^T Q x + <b, x> + c0 for symmetric PSD Q."""
        Q = np.asarray(Q, dtype=float)
        n = Q.shape[0]
        b = np.zeros(n) if b is None else b
        Qs = 0.5 * (Q + Q.T)
        evals = np.linalg.eigvalsh(Qs)
        if evals[0] < -1e-10 * max(1.0, abs(evals[-1])):
            raise ValueError("quadratic form is not positive semidefinite")
        beta = max(float(evals[-1]) * (1 + 1e-12), 1e-12)
        alpha = float(evals[0]) if evals[0] > 1e-12 * max(1.0, evals[-1]) else None
        return cls(lambda x: Qs @ x, b, c0, beta=beta, alpha=alpha)


@dataclass
class PrimalPoint:
    """The primal pair q = (x, y) as flat float arrays."""

    x: np.ndarray
    y: np.ndarray

    def copy(self):
        return PrimalPoint(self.x.copy(), self.y.copy())


@dataclass
class ProblemSpec:
    """The full problem: smooth term, constraint map, two oracle blocks.

    ``pqg_alpha`` is the primal-quadratic-gap curvature parameter. When it is
    absent and f carries a strong-convexity constant, ``solver.step_constants``
    derives it at the solver's penalty value. For polytope problems the
    underlying Hoffman-type constant is not computable in general, so it must
    be supplied by the user here (or step sizes must be fixed).
    """

    f: SmoothTerm
    A: LinearMap
    rx: "object"
    ry: "object"
    pqg_alpha: Optional[float] = None

    def __post_init__(self):
        if self.f.b.size != self.A.dim_in:
            raise ValueError(
                f"f's linear term has {self.f.b.size} entries != A.dim_in "
                f"{self.A.dim_in}"
            )
        if self.rx.dim != self.A.dim_in:
            raise ValueError(
                f"x-block dimension {self.rx.dim} != A.dim_in {self.A.dim_in}"
            )
        if self.ry.dim != self.A.dim_out:
            raise ValueError(
                f"y-block dimension {self.ry.dim} != A.dim_out {self.A.dim_out}"
            )
        if self.pqg_alpha is not None and self.pqg_alpha <= 0:
            raise ValueError("pqg_alpha must be positive when supplied")


def _check_point(spec, q, w=None):
    """Raise ValueError unless q, and the multiplier w when given, have the
    problem's shapes."""
    for name, v, what, dim in (("x", q.x, "x-block", spec.A.dim_in),
                               ("y", q.y, "y-block", spec.A.dim_out),
                               ("w", w, "constraint", spec.A.dim_out)):
        if v is not None and np.shape(v) != (dim,):
            raise ValueError(f"{name} has shape {np.shape(v)}, but the "
                             f"{what} has dimension {dim}")


def k_apply(spec, q):
    """Constraint map K q = A x - y (zero exactly on feasible points), as a
    new array."""
    _check_point(spec, q)
    return spec.A.apply(q.x) - q.y


def smooth_grad(spec, q, w, rho):
    """Gradient w.r.t. q of the augmented Lagrangian's smooth part
    f(x) + <w, Kq> + (rho/2) ||Kq||^2, as an (x-part, y-part) pair:
    (grad f(x) + A^T (w + rho Kq), -(w + rho Kq))."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    # r, then -r, in the one new array K q returns
    r = k_apply(spec, q)
    r *= rho
    r += w
    gx = spec.f.gradient(q.x)
    gx += spec.A.adjoint(r)
    return gx, np.negative(r, out=r)

