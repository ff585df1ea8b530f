"""Weak proximal oracle constructions.

Every regularizer block is a WpoComponent: given a linearization vector p, a
center and a step coefficient c, it returns a candidate v aiming at

    Phi_1(v) = R(v) + <v, p> + (c/2) ||v - center||^2.

An exact prox minimizes Phi_1 (declared parameter lam = 1); the low-rank
matrix oracles reach the same minimizer whenever the minimizer's rank is at
most their budget k; the polytope oracle trades exactness for a single LMO
call plus a small simplex QP, with a geometry-dependent lam.

Each component's ``compute`` is its one oracle entry point: an exact-prox
component supplies ``prox`` to the default one; the polytope oracle holds its
output's vertex representation until ``commit``.

The spectrahedron's oracle and prox return F F^T, exactly symmetric. The
solver updates that block, its gradient and the oracle's center elementwise,
so on a problem whose data is symmetric (the Max Cut and covariance
builders) they stay exactly symmetric through a run. The oracle hands its
center to ``linalg.truncated_eigh`` as it is: the kernel's symmetry check is
the only one, and a center the kernel refuses is symmetrized first, to the
bits the symmetrization always gave.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

try:  # a private module, for a Cholesky factor in place
    from numpy.linalg import _umath_linalg
except ImportError:  # np.linalg.cholesky then, into a second array
    _umath_linalg = None

from . import linalg
from .linalg import _CHUNK, _PANEL, _exactly_symmetric, _norm
from .model import indicator_tol

__all__ = [
    "OracleError",
    "WpoComponent",
    "ZeroReg",
    "L1BallIndicator",
    "SimplexIndicator",
    "BoxIndicator",
    "DiagOnesIndicator",
    "NuclearNormReg",
    "NuclearBallIndicator",
    "SpectrahedronIndicator",
    "PolytopeState",
    "PolytopeIndicator",
    "ProductComponent",
    "simplex_qp",
    "phi_value",
    "hypercube_lmo",
    "scaled_simplex_lmo",
]


class OracleError(RuntimeError):
    """An oracle could not produce a candidate block."""


# ---------------------------------------------------------------------------
# shared helpers


def phi_value(reg_value, v, p, center, c, lam=1.0):
    """Prox-style objective R(v) + <v, p> + lam*(c/2)*||v - center||^2,
    given the regularizer value at v."""
    d = v - center
    return reg_value + float(v @ p) + 0.5 * lam * c * float(d @ d)


# ---------------------------------------------------------------------------
# component base class


class WpoComponent:
    """One regularizer block together with its weak proximal oracle.

    Attributes
    ----------
    dim : flat dimension of the block.
    lam : declared oracle parameter (>= 1; 1 means exact-prox quality).
    is_indicator : True when R is a set indicator (value 0 / +inf). Then
        ``compute`` must return a point of the set, as the built-in ones do by
        construction; the solver relies on it unchecked.
    constant_on_segments : True when R is constant along segments inside its
        domain (indicators and the zero regularizer); required by line search.
    """

    lam = 1.0
    is_indicator = False
    constant_on_segments = False

    def __init__(self, dim):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"block dimension {dim} is below 1")

    def compute(self, center, p, coeff):
        """Return a candidate block for the objective Phi_1 at this center;
        by default the exact minimizer prox_{R/c}(center - p/c) of a
        component that has a ``prox`` routine (declared lam = 1). The caller
        owns the returned array: the solver writes the next iterate into it,
        so it must be a new array, sharing memory with neither argument nor
        with anything the component keeps (one that shares memory with
        ``center`` or ``p`` is copied first)."""
        if coeff <= 0:
            raise ValueError("step coefficient must be positive")
        prox = getattr(self, "prox", None)
        if prox is None:
            raise OracleError(f"{type(self).__name__} has no exact prox routine")
        # the shifted center in one new buffer, which prox may overwrite
        point = np.divide(p, coeff)
        np.subtract(center, point, out=point)
        return prox(point, coeff)

    def value(self, v):
        """Regularizer value at v, for a component that is not an indicator
        (an indicator is read through ``distance`` and ``logged_value``)."""
        raise NotImplementedError

    def distance(self, v):
        """Euclidean distance from v to the regularizer's domain."""
        return 0.0

    def contains(self, v):
        """Whether v lies within ``indicator_tol(v)`` of the regularizer's
        domain: by default ``distance(v)`` compared with it, False when the
        distance is nan or the tolerance is not finite (v has a non-finite
        entry). A component may decide it from a cheaper upper bound on the
        distance and fall back on this."""
        tol = indicator_tol(v)
        return math.isfinite(tol) and self.distance(v) <= tol

    def logged_value(self, v, audit=True):
        """(value, flagged) for logging: an indicator contributes 0 unchecked
        unless ``audit``; audited, one that does not ``contain`` v contributes
        its distance to the set instead of +inf, with flagged = True."""
        if self.is_indicator:
            if not audit or self.contains(v):
                return 0.0, False
            return self.distance(v), True
        return self.value(v), False

    def commit(self, eta):
        """Hook called after the solver commits a primal step of size eta."""

    def for_run(self, block0):
        """Per-run instance; stateful components return a fresh copy."""
        return self


class _IndicatorComponent(WpoComponent):
    """Indicator of a set with an exactly computable projection. A subclass
    supplies ``prox(point, scale)``, the projection of point for any scale,
    which may overwrite point; ``project(v)`` never changes its argument."""

    is_indicator = True
    constant_on_segments = True

    def project(self, v):
        """The projection of v onto the set, as a new array."""
        return self.prox(np.array(v, dtype=float), 1.0)

    def distance(self, v):
        return _norm(v - self.project(v))


class ZeroReg(WpoComponent):
    """R = 0: the prox is the identity on the shifted center."""

    constant_on_segments = True

    def prox(self, point, scale):
        return np.asarray(point, dtype=float)

    def value(self, v):
        return 0.0


class _RadiusIndicator(_IndicatorComponent):
    def __init__(self, dim, radius):
        super().__init__(dim)
        if not radius > 0:  # nan too
            raise ValueError("radius must be positive")
        self.radius = float(radius)


class L1BallIndicator(_RadiusIndicator):
    """Indicator of the l1 ball {v : ||v||_1 <= radius}. ``prox`` projects
    its point in place. ``contains`` needs no projection when a certified
    bound settles it, as ``SpectrahedronIndicator``'s does."""

    def prox(self, point, scale):
        # point itself when it is a contiguous float64 array, as the shifted
        # center of ``compute`` is
        return linalg._l1_ball_in_place(
            np.ascontiguousarray(point, dtype=float), self.radius)

    def contains(self, v):
        """Whether v is within ``indicator_tol(v)`` of the ball. Accepted
        without a projection when ||v||_1, rounded up, is at most the radius
        r, or when the distance ||v||_2 (1 - r / ||v||_1) to the ball's point
        (r / ||v||_1) v, at that rounded-up norm, is at most half of the
        tolerance; the other half covers the rounding of the norms. Any
        other point is decided by ``distance``."""
        v = np.asarray(v, dtype=float)
        tol = indicator_tol(v)
        if not math.isfinite(tol):
            return False
        with np.errstate(over="ignore"):  # an overflowed sum settles nothing
            # a sum of n nonnegative terms in any order is within gamma_{n-1}
            # of the exact one; gamma_{n+1} also covers the product's rounding
            l1 = _abs_sum(v) * (1.0 + _gamma(v.size + 1))
        if l1 <= self.radius:
            return True
        if (math.isfinite(l1)
                and _norm(v) * (1.0 - self.radius / l1) <= 0.5 * tol):
            return True
        return super().contains(v)


class SimplexIndicator(_RadiusIndicator):
    def prox(self, point, scale):
        return linalg.project_simplex(point, self.radius)


class BoxIndicator(_IndicatorComponent):
    def __init__(self, dim, lo, hi):
        super().__init__(dim)
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
        if not np.all(self.lo <= self.hi):  # nan too
            raise ValueError("box bounds must satisfy lo <= hi")

    def prox(self, point, scale):
        return np.clip(point, self.lo, self.hi)


class DiagOnesIndicator(_IndicatorComponent):
    """Indicator of the affine set of square matrices with unit diagonal."""

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"matrix order {n} is below 1")
        super().__init__(n * n)
        self.n = int(n)

    def prox(self, point, scale):
        out = point.reshape(self.n, self.n)
        np.fill_diagonal(out, 1.0)
        return out.ravel()

    def distance(self, v):
        return _norm(np.diag(v.reshape(self.n, self.n)) - 1.0)


# ---------------------------------------------------------------------------
# matrix oracles (rank-truncated decompositions)


class _MatrixComponent(WpoComponent):
    """Shared plumbing for the rank-truncated matrix oracles. A regularizer
    supplies ``_spectral(s, c)``, its prox on the spectrum of the shifted
    center at coefficient c; the oracle applies it to the top-k part of the
    decomposition and the exact prox to the full one."""

    def __init__(self, shape, k, svd_tol=1e-9):
        rows, cols = shape
        super().__init__(rows * cols)
        if not 1 <= k <= min(rows, cols):
            raise ValueError(f"k={k} out of range for shape {shape}")
        if not 0.0 < svd_tol < np.inf:
            raise ValueError("svd_tol must be positive and finite")
        self.shape = (int(rows), int(cols))
        self.k = int(k)
        self.svd_tol = float(svd_tol)

    def _mat(self, v):
        return np.asarray(v, dtype=float).reshape(self.shape)

    def _shifted(self, center, p, coeff):
        """The shifted center ``center - p / coeff`` in one new buffer."""
        M = self._mat(p) / coeff
        np.subtract(self._mat(center), M, out=M)
        return M

    def compute(self, center, p, coeff):
        # the shifted center is freed when the kernel returns, before the
        # answer is formed
        U, s, V = linalg.truncated_svd(self._shifted(center, p, coeff),
                                       self.k, self.svd_tol)
        return ((U * self._spectral(s, coeff)) @ V.T).ravel()

    def prox(self, point, scale):
        U, s, Vt = np.linalg.svd(self._mat(point), full_matrices=False)
        return ((U * self._spectral(s, scale)) @ Vt).ravel()


class NuclearNormReg(_MatrixComponent):
    """nu * ||X||_nuc with a rank-k weak proximal oracle."""

    def __init__(self, shape, nu, k, svd_tol=1e-9):
        super().__init__(shape, k, svd_tol)
        if not nu > 0:
            raise ValueError("nu must be positive")
        self.nu = float(nu)

    def _spectral(self, s, c):
        return np.maximum(s - self.nu / c, 0.0)

    def value(self, v):
        s = np.linalg.svd(self._mat(v), compute_uv=False)
        return self.nu * float(s.sum())


class NuclearBallIndicator(_MatrixComponent, _IndicatorComponent):
    """Indicator of {X : ||X||_nuc <= tau} with a rank-k oracle. The
    distance to the ball is taken from the singular values alone."""

    def __init__(self, shape, tau, k, svd_tol=1e-9):
        super().__init__(shape, k, svd_tol)
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)

    def _spectral(self, s, c):
        return linalg.project_l1_ball(s, self.tau)

    def distance(self, v):
        # X - project(X) = U diag(s - P(s)) V^T, whose norm is ||s - P(s)||
        s = np.linalg.svd(self._mat(v), compute_uv=False)
        return _norm(s - self._spectral(s, 1.0))


class SpectrahedronIndicator(_MatrixComponent, _IndicatorComponent):
    """Indicator of {X PSD, tr X = tau} with a rank-k oracle. Both
    decompositions see only the symmetric part of their input, which is all
    the prox over symmetric matrices depends on. Both return ``_gram``'s
    exactly symmetric F F^T, so a run whose other updates are elementwise
    keeps its centers exactly symmetric, and the center goes to the kernel
    without a symmetrizing pass. The distance to the set is taken from the
    eigenvalues of the symmetric part and the norm of the skew part alone.
    ``contains`` needs no eigenvalues when an upper bound on the distance,
    from a certified lower bound on the least eigenvalue, settles it, from
    one symmetric part factored in place; it falls back on ``distance``
    otherwise."""

    def __init__(self, n, tau, k, svd_tol=1e-9):
        super().__init__((n, n), k, svd_tol)
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)

    def _shifted(self, center, p, coeff, form=None):
        """The shifted center in one new buffer, as ``form(C, P, coeff,
        dtype)`` (default ``_symmetric_part``) forms it from the center C
        and the gradient P: in float32 at loose tolerances, where float32
        round-off keeps it within tol, else in float64."""
        form = form or _symmetric_part
        C, P = self._mat(center), self._mat(p)
        if self.svd_tol >= linalg._SINGLE_TOL:
            M = form(C, P, coeff, np.float32)
            if linalg._single_holds(M, self.svd_tol):
                return M
            del M  # freed before the float64 one is formed
        return form(C, P, coeff)

    def compute(self, center, p, coeff):
        # the kernel's symmetry check is the only one: m = center - p / coeff
        # goes to it as it is, and only an m it refuses is symmetrized, after
        # the refused buffer is freed with the exception
        try:
            return self._answer(center, p, coeff, _difference)
        except linalg.NotSymmetricError:
            pass
        return self._answer(center, p, coeff, _symmetric_part)

    def _answer(self, center, p, coeff, form):
        # the shifted center is freed when the kernel returns, before the
        # answer is formed
        U, lam = linalg.truncated_eigh(self._shifted(center, p, coeff, form),
                                       self.k, self.svd_tol)
        return _gram(U, self._spectral(lam, coeff))

    def prox(self, point, scale):
        lam, U = np.linalg.eigh(_symmetric_part(self._mat(point)))
        return _gram(U, self._spectral(lam, scale))

    def _spectral(self, lam, c):
        return linalg.project_simplex(lam, self.tau)

    def distance(self, v):
        # X - project(X) is the skew part plus U diag(lam - P(lam)) U^T, and
        # the two are orthogonal; one buffer holds the symmetric part and
        # then the skew part
        M = self._mat(v)
        S = _symmetric_part(M)
        lam = np.linalg.eigvalsh(S)
        skew = _norm(np.subtract(M, S, out=S))
        return float(np.hypot(_norm(lam - self._spectral(lam, 1.0)), skew))

    def contains(self, v):
        """Whether v is within ``indicator_tol(v)`` of the set. Accepted
        without eigenvalues when ``_distance_bound`` at a certified lower
        bound on lambda_min(S), S the symmetric part, is at most half of the
        tolerance: first Gershgorin's bound, then the one a completed
        Cholesky factorization of S + delta I certifies. Any other point is
        decided by ``distance``."""
        # S is freed when _certified returns, before distance forms its own
        return (self._certified(self._mat(v), indicator_tol(v))
                or super().contains(v))

    def _certified(self, M, tol):
        n, S = len(M), _symmetric_part(M)  # the one S, factored in place
        radii = np.empty(n)  # row sums of |S|, diagonal included
        skew = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for i in range(0, n, _PANEL):
                rows = slice(i, i + _PANEL)
                panel = M[rows] - S[rows]
                skew += float(np.vdot(panel, panel))
                radii[rows] = np.abs(S[rows], out=panel).sum(axis=1)
                del panel  # freed before the next panel is formed
            sym, skew = math.sqrt(float(np.vdot(S, S))), math.sqrt(skew)
            diag, trace = np.diagonal(S), float(np.trace(S))
            # Gershgorin's min_i (s_ii - sum_{j != i} |s_ij|), less
            # gamma_{n+3} max_i sum_j |s_ij| for the rounding of the row sums
            low = (float((diag + np.abs(diag) - radii).min())
                   - _gamma(n + 3) * float(radii.max()))
        if not math.isfinite(sym + skew + low + trace + tol):
            return False
        # the half of tol held back covers the rounding of the sums and of
        # the bound itself: ||S||_F and the skew norm are dot products of at
        # most n^2 terms, within a factor 1 +- gamma_{n^2} (1e-8 at
        # n = 10^4) that scales the bound by as much
        budget = 0.5 * tol
        if _distance_bound(self.tau, n, trace, sym, skew, low) <= budget:
            return True
        # delta spends about a quarter of tol: to first order the bound grows
        # by delta (n ||S|| / tau + sqrt(n)). A float64 Cholesky
        # factorization of A = S + delta I that runs to completion certifies
        # lambda_min(A) >= -gamma_{n+1} tr A / (1 - gamma_{n+1}) (Demmel;
        # Higham, Accuracy and Stability of Numerical Algorithms, ch. 10;
        # Rump, BIT 2006). With the rounding of a_ii = s_ii + delta and of
        # the sum, that is at most gamma_{n+3} (sum |s_ii| + n delta) for any
        # n whose n x n matrix fits in memory; u max |a_ii| covers a_ii's
        # rounding in S's eigenvalues. A is factored only when that bound
        # would pass.
        delta = 0.25 * tol / (n * sym / self.tau + math.sqrt(n))
        diag = np.abs(diag)
        low = (-delta - _gamma(n + 3) * (float(diag.sum()) + n * delta)
               - _U * (float(diag.max()) + delta))
        return (_distance_bound(self.tau, n, trace, sym, skew, low) <= budget
                and _cholesky_completes(S, delta))


def _difference(C, P=None, coeff=1.0, dtype=float):
    """m = C - P / coeff (a copy of C when P is None) in one new array of
    dtype: each entry computed in float64 and rounded once to dtype, a row
    panel at a time for float32, so that no second d x d array is made."""
    d = len(C)
    m = np.empty((d, d), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        if P is None:
            m[...] = C
        elif m.dtype == np.float64:
            np.subtract(C, np.divide(P, coeff, out=m), out=m)
        else:
            for i in range(0, d, _PANEL):
                rows = slice(i, i + _PANEL)
                np.subtract(C[rows], np.divide(P[rows], coeff), out=m[rows])
    return m


def _symmetric_part(C, P=None, coeff=1.0, dtype=float):
    """The symmetric part ``0.5 * (m_ij + m_ji)`` of the square matrix
    m = C - P / coeff (m = C when P is None), computed in float64 and
    rounded once to dtype in one new, exactly symmetric array. m is written
    into the answer first (``_difference``) and returned as it is when it
    equals its transpose: the same bits, since two equal float64 values
    average to themselves, and two float64 values that round to the same
    float32 value have a float64 mean that rounds to it too, rounding being
    monotone. Only an entry of magnitude 2**1023 or more, whose doubled
    float64 sum would overflow, keeps its finite value. Any other m is
    symmetrized a row panel of the upper triangle at a time, so that no
    second d x d array is made: in place in float64, where panel i reads
    only rows and columns >= i, which no earlier panel wrote; from C and P
    in float32. Overflow is left for the caller to find."""
    S = _difference(C, P, coeff, dtype)
    if _exactly_symmetric(S):
        return S
    d = len(C)
    with np.errstate(over="ignore", invalid="ignore"):
        if S.dtype == np.float64:  # symmetrized in place, see above
            C, P = S, None
        for i in range(0, d, _PANEL):
            rows = slice(i, i + _PANEL)
            if P is None:
                s = C[rows, i:] + C[i:, rows].T
            else:
                s = np.divide(P[rows, i:], -coeff)
                s += C[rows, i:]
                t = np.divide(P[i:, rows].T, -coeff)
                t += C[i:, rows].T
                s += t
                del t
            s *= 0.5
            S[rows, i:] = s
            S[i:, rows] = s.T
            del s  # freed before the next panel is formed
    return S


def _gram(U, w):
    """``U diag(w) U^T`` for weights w >= 0, flattened, as F F^T with
    F = U[:, w > 0] sqrt(w[w > 0]): only the columns of positive weight
    enter, and NumPy forms ``F @ F.T`` as a symmetric rank-r update, which
    mirrors its triangle, so the answer is exactly symmetric."""
    keep = w > 0
    F = U[:, keep]
    F *= np.sqrt(w[keep])
    return (F @ F.T).ravel()


_U = 2.0 ** -53  # unit roundoff of float64


def _abs_sum(v):
    """sum |v_i| over the flat array v, a chunk at a time, so that no second
    array of v's size is made."""
    v, total = v.ravel(), 0.0
    for i in range(0, v.size, _CHUNK):
        total += float(np.abs(v[i:i + _CHUNK]).sum())
    return total


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), the relative error bound of k
    float64 operations in a row."""
    return k * _U / (1.0 - k * _U)


def _distance_bound(tau, n, trace, sym, skew, low):
    """Upper bound on the distance from an n x n matrix M to {X PSD,
    tr X = tau}, given tr M, the Frobenius norms sym of its symmetric part S
    and skew of its skew part, and a lower bound low on lambda_min(S). For
    l = min(low, 0) and c = tau / (tr M - n l) the point c (S - l I) lies in
    the set, within hypot(|1 - c| sym + c |l| sqrt(n), skew) of M; inf when
    tr M - n l <= 0."""
    shift = min(low, 0.0)
    room = trace - n * shift
    if not room > 0.0:
        return math.inf
    c = tau / room
    return math.hypot(abs(1.0 - c) * sym - c * shift * math.sqrt(n), skew)


def _cholesky_completes(A, delta):
    """Whether the float64 Cholesky factorization of A + delta I, A a
    symmetric float64 matrix, runs to completion. The factor overwrites A:
    ``np.linalg.cholesky``, used only where NumPy's private
    ``_umath_linalg`` is missing, returns it in a second n x n array."""
    A.flat[::len(A) + 1] += delta
    if _umath_linalg is None:
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return False
        return True
    # a factorization that stops raises the invalid flag, as in numpy.linalg
    with np.errstate(invalid="raise", over="ignore", divide="ignore",
                     under="ignore"):
        try:
            _umath_linalg.cholesky_lo(A, signature="d->d", out=A)
        except FloatingPointError:
            return False
    return True


# ---------------------------------------------------------------------------
# polytope oracle: one LMO call plus a convex QP over the simplex


@dataclass
class PolytopeState:
    """Explicit convex-combination representation of a polytope point."""

    vertices: list = field(default_factory=list)
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def point(self):
        M = np.column_stack(self.vertices)
        return M @ self.weights

    def copy(self):
        return PolytopeState([v.copy() for v in self.vertices],
                             np.array(self.weights, dtype=float))

    def validate(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.vertices) != w.size or w.size == 0:
            raise ValueError("state needs matching, nonempty vertices/weights")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a point of the unit simplex")

    @classmethod
    def at_vertex(cls, vertex):
        return cls([np.asarray(vertex, dtype=float)], np.array([1.0]))


def simplex_qp(M, p, center, c, init=None):
    """Minimize <M g, p> + (c/2) ||M g - center||^2 over the unit simplex.

    Accelerated projected gradient with step 1/L for L = c*||M||^2, stopped
    when the Frank-Wolfe gap drops below ``1e-12 * max(1, |objective|)`` or
    after 10^4 iterations. Columns of M are polytope vertices.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] == 0:
        raise ValueError("vertex matrix must be 2-D with at least one column")
    if c <= 0:
        raise ValueError("step coefficient must be positive")
    t1 = M.shape[1]
    if t1 == 1:
        return np.array([1.0])

    Mp = M.T @ np.asarray(p, dtype=float)
    G = M.T @ M
    Mc = M.T @ np.asarray(center, dtype=float)
    cc = 0.5 * c * float(center @ center)
    L = max(c * float(np.linalg.norm(M, 2)) ** 2, 1e-30)

    def grad(g):
        return Mp + c * (G @ g - Mc)

    def objective(g):
        return float(g @ Mp) + 0.5 * c * float(g @ (G @ g)) - c * float(g @ Mc) + cc

    if init is not None:
        gamma = linalg.project_simplex(np.asarray(init, dtype=float), 1.0)
    else:
        gamma = np.full(t1, 1.0 / t1)
    prev = gamma
    tk = 1.0
    for _ in range(10000):
        gr = grad(gamma)
        gap = float(gr @ gamma) - float(gr.min())
        if gap <= 1e-12 * max(1.0, abs(objective(gamma))):
            break
        tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        mom = (tk - 1.0) / tk_next
        y = gamma + mom * (gamma - prev)
        prev = gamma
        gamma = linalg.project_simplex(y - grad(y) / L, 1.0)
        tk = tk_next
    return gamma


PRUNE_TOL = 1e-12


def _pruned_state(vertices, weights):
    """State over the vertices whose weight exceeds PRUNE_TOL (the heaviest
    one if none does), with the kept weights renormalized."""
    keep = weights > PRUNE_TOL
    if not keep.any():
        keep[int(np.argmax(weights))] = True
    kept = weights[keep]
    return PolytopeState([v for v, k in zip(vertices, keep) if k],
                         kept / kept.sum())


class PolytopeIndicator(WpoComponent):
    """Indicator of a compact polytope accessed through an LMO callback.

    The LMO must return one vertex minimizing the given linear objective,
    breaking ties deterministically. ``lam`` is the geometry constant of the
    oracle guarantee; it is instance-dependent and must be configured -- the
    default of 1.0 is used with a warning otherwise. ``dist_fn`` optionally
    supplies the distance to the polytope for the solver's start check and
    final audit (without it the component reports distance 0, which is
    correct for points maintained as convex combinations by the solver).
    """

    is_indicator = True
    constant_on_segments = True

    def __init__(self, dim, lmo, state0, lam=None, dist_fn=None):
        super().__init__(dim)
        if lam is None:
            warnings.warn(
                "polytope oracle used without a configured lam; defaulting to "
                "1.0, which is only valid for especially well-conditioned "
                "geometries",
                stacklevel=2,
            )
            lam = 1.0
        if not 1 <= lam < np.inf:
            raise ValueError("lam must be >= 1 and finite")
        self.lam = float(lam)
        self.lmo = lmo
        state0.validate()
        self._state0 = state0.copy()
        self.state = state0.copy()
        self.dist_fn = dist_fn
        self._pending = None

    def for_run(self, block0):
        clone = PolytopeIndicator(self.dim, self.lmo, self._state0,
                                  lam=self.lam, dist_fn=self.dist_fn)
        rep = clone.state.point()
        if np.linalg.norm(rep - block0) > 1e-9 * (1.0 + np.linalg.norm(block0)):
            raise OracleError(
                "polytope initial state does not represent the starting block"
            )
        return clone

    def compute(self, center, p, coeff):
        """Weak proximal oracle: one LMO call plus a simplex QP.

        ``state`` must represent ``center`` as an explicit convex combination
        of polytope vertices. The vertex returned by ``lmo(p)`` is appended,
        the QP over the enlarged support is solved, and the candidate
        M @ gamma* is returned; the state representing it, pruned of weights
        below PRUNE_TOL, waits for ``commit``. The support grows by at most
        one vertex per call.
        """
        state = self.state
        state.validate()
        center = np.asarray(center, dtype=float)
        rep = state.point()
        if np.linalg.norm(rep - center) > 1e-9 * (1.0 + np.linalg.norm(center)):
            raise OracleError("polytope state does not represent the center")
        try:
            z = np.asarray(self.lmo(p), dtype=float)
        except Exception as exc:  # noqa: BLE001 - report LMO failures uniformly
            raise OracleError(f"LMO callback failed: {exc}") from exc
        if z.shape != center.shape:
            raise OracleError(f"LMO returned shape {z.shape}, expected {center.shape}")

        vertices = state.vertices + [z]
        M = np.column_stack(vertices)
        gamma = simplex_qp(M, p, center, coeff,
                           init=np.append(state.weights, 0.0))
        self._pending = _pruned_state(vertices, gamma)
        return M @ gamma

    def commit(self, eta):
        if self._pending is None:
            return
        merged = {}
        for state, scale in ((self.state, 1.0 - eta), (self._pending, eta)):
            for vert, w in zip(state.vertices, state.weights):
                merged.setdefault(vert.tobytes(), [vert, 0.0])[1] += scale * w
        self.state = _pruned_state([vert for vert, _ in merged.values()],
                                   np.array([w for _, w in merged.values()]))
        self._pending = None

    def distance(self, v):
        if self.dist_fn is not None:
            return float(self.dist_fn(v))
        return 0.0


def hypercube_lmo(lo, hi):
    """LMO of the box [lo, hi]^d: picks lo where the objective is positive,
    hi elsewhere (deterministic tie-breaking toward hi)."""
    def lmo(p):
        p = np.asarray(p, dtype=float)
        return np.where(p > 0.0, lo, hi).astype(float)

    return lmo


def scaled_simplex_lmo(radius, dim):
    """LMO of {v >= 0, sum v = radius}: radius * e_i at the smallest
    objective entry, lowest index on ties."""
    def lmo(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(dim)
        out[int(np.argmin(p))] = radius
        return out

    return lmo


# ---------------------------------------------------------------------------
# block composition


class ProductComponent(WpoComponent):
    """Cartesian product of blocks, each with its own component.

    The prox objective separates across the blocks, so the product oracle is
    the concatenation of the per-block oracles with lam = max over parts.
    """

    def __init__(self, parts):
        if not parts:
            raise ValueError("product needs at least one part")
        super().__init__(sum(p.dim for p in parts))
        self.parts = list(parts)
        offs = np.cumsum([0] + [p.dim for p in parts])
        self.slices = [slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]
        self.lam = max(p.lam for p in parts)
        self.is_indicator = all(p.is_indicator for p in parts)
        self.constant_on_segments = all(p.constant_on_segments for p in parts)

    def compute(self, center, p, coeff):
        return np.concatenate(
            [part.compute(center[s], p[s], coeff)
             for part, s in zip(self.parts, self.slices)]
        )

    def distance(self, v):
        return float(np.sqrt(sum(part.distance(v[s]) ** 2
                                 for part, s in zip(self.parts, self.slices))))

    def contains(self, v):
        # each part within its own tolerance, the rule of the audit below
        return all(part.contains(v[s])
                   for part, s in zip(self.parts, self.slices))

    def logged_value(self, v, audit=True):
        total, flagged = 0.0, False
        for part, s in zip(self.parts, self.slices):
            val, fl = part.logged_value(v[s], audit)
            total += val
            flagged = flagged or fl
        return total, flagged

    def commit(self, eta):
        for part in self.parts:
            part.commit(eta)

    def for_run(self, block0):
        clones = [part.for_run(block0[s]) for part, s in zip(self.parts, self.slices)]
        if all(c is p for c, p in zip(clones, self.parts)):
            return self
        return ProductComponent(clones)
