"""Dense and operator linear-algebra kernels.

Truncated singular-value and symmetric eigenvalue decompositions via Lanczos
(Golub-Kahan style) iterations with full reorthogonalization, and exact
projections onto the scaled simplex and the l1 ball, which find their
threshold by Michelot's pivot iteration in linear time per pass.

The Lanczos kernels multiply by their input once per basis vector: each
vector is stored next to its product, and the Rayleigh-Ritz matrices and
residuals are assembled from the stored products. Their bases grow with the
Krylov dimension, so memory is proportional to the rank sought, not to the
square of the input's dimensions.

``truncated_eigh`` takes only a square matrix that equals its transpose
entry for entry, and raises ValueError on any other; it never copies it. It
keeps a float32 input in float32 and takes every other input as float64. On
a float32 input only the products are single precision
(``M @ q.astype(float32)``); the basis, the Rayleigh-Ritz step, the
acceptance test and the returned pairs are float64, and a pair is accepted
only when its residual plus a float32 round-off allowance,
(d + 2) * 2**-24 * ||M||_F, is within tolerance.

All routines are pure functions of their inputs and deterministic for a fixed
seed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "truncated_svd",
    "truncated_eigh",
    "project_simplex",
    "project_l1_ball",
]


class ConvergenceError(RuntimeError):
    """An iterative kernel hit its iteration cap before meeting the tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _check_matrix(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def _reorthogonalize(w, basis, count):
    # two Gram-Schmidt passes keep loss of orthogonality at machine precision
    if count:
        B = basis[:count]
        for _ in range(2):
            w = w - B.T @ (B @ w)
    return w


def _fresh_direction(rng, basis, count, dim):
    # replacement vector after a Lanczos breakdown (invariant subspace hit)
    for _ in range(64):
        w = rng.standard_normal(dim)
        w = _reorthogonalize(w, basis, count)
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            return w / nw
    raise ConvergenceError("could not generate a new orthogonal direction")


class _Basis:
    """Orthonormal Krylov vectors, one per row, each stored next to the
    operator's product with it, in buffers that grow with the basis.

    A product is formed when its vector is appended and reused by the
    recurrence and the Rayleigh-Ritz extraction.
    """

    def __init__(self, apply, dim, out_dim, rows, first=None):
        self.apply = apply
        self.vecs = np.empty((rows, dim))
        self.prods = np.empty((rows, out_dim))
        self.count = 0
        if first is not None:
            self._store(first)

    def reserve(self, rows):
        """Make room for ``rows`` vectors, keeping the stored ones."""
        if rows > len(self.vecs):
            self.vecs = _regrown(self.vecs, rows, self.count)
            self.prods = _regrown(self.prods, rows, self.count)

    def rows(self):
        return self.vecs[:self.count]

    def products(self):
        """The operator applied to each vector, row for row."""
        return self.prods[:self.count]

    def append(self, w, rng, breakdown_tol):
        """Reorthogonalize w against the basis and append it, replacing it
        with a fresh random direction on breakdown."""
        w = _reorthogonalize(w, self.vecs, self.count)
        nw = np.linalg.norm(w)
        if nw <= breakdown_tol:
            w = _fresh_direction(rng, self.vecs, self.count, w.size)
        else:
            w = w / nw
        self._store(w)

    def _store(self, v):
        self.vecs[self.count] = v
        self.prods[self.count] = self.apply(self.vecs[self.count])
        self.count += 1


def _regrown(buf, rows, keep):
    out = np.empty((rows, buf.shape[1]))
    out[:keep] = buf[:keep]
    return out


def truncated_svd(M, k, tol, seed=0, max_sweeps=None):
    """Top-k singular triplets of a dense matrix.

    Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization of
    both bases; Rayleigh-Ritz extraction on the projected matrix after each
    sweep. Every basis vector keeps the product (``M v`` or ``M.T u``) that
    the recurrence forms with it, and the projected matrix and the residuals
    are assembled from those, so a sweep multiplies by M only for the vectors
    it adds; the bases take O((m + n) * Krylov dimension) memory. A triplet
    is accepted once both residuals ``||M v - s u||`` and ``||M.T u - s v||``
    fall below ``tol * sigma_1`` (plus a tiny absolute guard for numerically
    zero matrices).

    Parameters
    ----------
    M : (m, n) array_like
        Dense input matrix; all entries must be finite.
    k : int
        Number of triplets, 1 <= k <= min(m, n).
    tol : float
        Relative residual tolerance, > 0.
    seed : int
        Seed for the starting vector; fixes the result bit-for-bit.
    max_sweeps : int, optional
        Cap on Rayleigh-Ritz sweeps; defaults to max(4k, 30).

    Returns
    -------
    (U, sigma, V)
        ``(U * sigma) @ V.T`` approximates M: U (m, k) and V (n, k) have
        orthonormal columns, sigma is nonnegative and nonincreasing.

    Raises
    ------
    ValueError
        If k is out of range, tol <= 0, or M has non-finite entries.
    ConvergenceError
        If the residual target is not met within the sweep cap; carries the
        attained residual.
    """
    M = _check_matrix(M)
    m, n = M.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} out of range for a {m}x{n} matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps is None:
        max_sweeps = max(4 * k, 30)

    rng = np.random.default_rng(seed)
    fro = float(np.linalg.norm(M))
    atol = 1e-13 * max(1.0, fro)
    breakdown = 1e-13 * max(1.0, fro)

    # a side stops growing once it spans its whole space (the start vector is
    # random, so the right basis can carry components outside the row space)
    target = min(max(m, n), max(2 * k + 6, 12))
    v0 = rng.standard_normal(n)
    V = _Basis(lambda v: M @ v, n, m, min(target, n), v0 / np.linalg.norm(v0))
    U = _Basis(lambda u: M.T @ u, m, n, min(target, m))

    resid = np.inf
    for _ in range(max_sweeps):
        U.reserve(min(target, m))
        V.reserve(min(target, n))
        while True:
            grew = False
            if U.count < min(target, m):
                U.append(V.products()[-1], rng, breakdown)
                grew = True
            if V.count < min(target, n):
                V.append(U.products()[-1], rng, breakdown)
                grew = True
            if not grew:
                break

        MV, MTU = V.products(), U.products()
        Pu, ps, Pvt = np.linalg.svd(U.rows() @ MV.T)
        sigma = ps[:k]
        Yu, Yv = Pu[:, :k], Pvt[:k].T
        Uk = U.rows().T @ Yu
        Vk = V.rows().T @ Yv
        r1 = np.linalg.norm(MV.T @ Yv - Uk * sigma, axis=0)
        r2 = np.linalg.norm(MTU.T @ Yu - Vk * sigma, axis=0)
        resid = float(max(r1.max(), r2.max()))
        if resid <= tol * sigma[0] + atol:
            return Uk, sigma, Vk
        target = min(max(m, n), target + max(k, 6))

    raise ConvergenceError(
        f"truncated_svd did not reach tol={tol:g} within {max_sweeps} sweeps "
        f"(attained residual {resid:.3e})",
        residual=resid,
    )


_PANEL = 64  # rows per panel of the symmetry checks and symmetrizations


def _exactly_symmetric(M):
    """Whether the square matrix M equals its transpose entry for entry,
    compared a row panel of the upper triangle at a time, so no d x d array
    is made. A NaN entry compares unequal."""
    return all(np.array_equal(M[i:i + _PANEL, i:], M[i:, i:i + _PANEL].T)
               for i in range(0, len(M), _PANEL))


def _checked_symmetric(M):
    """``(M, ||M||_F)`` for a finite square matrix M that equals its
    transpose entry for entry, as float32 for a float32 M and float64 for
    any other; M itself is returned, not a copy. Raises ValueError
    otherwise."""
    M = np.asarray(M)
    if M.dtype != np.float32:
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        _check_matrix(M)
        raise ValueError(f"expected a square matrix, got {M.shape}")
    if not _exactly_symmetric(M):  # a NaN entry too
        _check_matrix(M)
        raise ValueError("matrix is not symmetric")
    with np.errstate(over="ignore"):  # an overflowed sum is taken below
        fro = float(np.linalg.norm(M))
    if not math.isfinite(fro):  # an infinite entry, or an overflowed sum
        _check_matrix(M)
        if M.dtype == np.float32:  # a float32 sum of squares overflowed
            fro = math.sqrt(np.einsum("ij,ij->", M, M, dtype=float))
    return M, fro


def _single_allowance(d, fro):
    """Round-off allowance of ``truncated_eigh`` on a float32 d x d matrix
    of Frobenius norm fro (see there)."""
    return (d + 2) * 2.0**-24 * fro


def truncated_eigh(M, k, tol, seed=0, max_sweeps=None):
    """Top-k algebraically largest eigenpairs of a symmetric matrix.

    Lanczos iteration with full reorthogonalization and Rayleigh-Ritz
    extraction. Every basis vector keeps its product with M, formed once by
    the recurrence; the projected matrix and the residuals are assembled
    from those products, so a sweep multiplies by M only for the vectors it
    adds, and the basis takes O(d * Krylov dimension) memory. M must equal
    its transpose entry for entry; it is used as it is, with no d x d copy,
    and any other matrix raises ValueError. A pair is accepted once
    ``||M u - lam u|| + allowance <= tol * max(1, |lam_1|)``.

    A float32 M keeps its dtype; any other input is taken as float64, with
    allowance 0. On a float32 M each product is ``M @ q.astype(float32)``,
    stored in float64; the basis, the Rayleigh-Ritz step and the residuals
    stay float64. To first order in u = 2**-24, such a product with a unit
    vector q differs from the exact product with q of any float64 matrix
    that rounds to M by at most (d + 2) * u * ||M||_F: d * u * ||M||_F from
    the float32 inner products of length d, and u * ||M||_F each from
    rounding q and from rounding the float64 matrix to M. That is the
    allowance. A residual combines the m products of the Krylov basis with
    a unit coefficient vector, so its round-off stays within the allowance
    unless the errors of the m products add up in one direction, in which
    case it is at most sqrt(m) times the allowance.

    Returns ``(U, lam)`` with U of shape (d, k) orthonormal and lam sorted
    algebraically largest first, both float64.
    """
    M, fro = _checked_symmetric(M)
    d = len(M)
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for dimension {d}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps is None:
        max_sweeps = max(4 * k, 30)

    rng = np.random.default_rng(seed)
    breakdown = 1e-13 * max(1.0, fro)

    single = M.dtype == np.float32
    allowance = _single_allowance(d, fro) if single else 0.0

    target = min(d, max(2 * k + 6, 12))
    q0 = rng.standard_normal(d)
    Q = _Basis(lambda q: M @ (q.astype(np.float32) if single else q),
               d, d, target, q0 / np.linalg.norm(q0))

    resid = np.inf
    for _ in range(max_sweeps):
        Q.reserve(target)
        while Q.count < target:
            Q.append(Q.products()[-1], rng, breakdown)

        B, MB = Q.rows(), Q.products()
        H = B @ MB.T
        H = 0.5 * (H + H.T)
        theta, Y = np.linalg.eigh(H)
        idx = np.argsort(theta)[::-1][:k]
        lam, Yk = theta[idx], Y[:, idx]
        Uk = B.T @ Yk
        resid = float(np.linalg.norm(MB.T @ Yk - Uk * lam, axis=0).max())
        if resid + allowance <= tol * max(1.0, abs(lam[0])):
            return Uk, lam
        target = min(d, target + max(k, 6))

    raise ConvergenceError(
        f"truncated_eigh did not reach tol={tol:g} within {max_sweeps} sweeps "
        f"(attained residual {resid:.3e})",
        residual=resid,
    )


def _threshold(a, tau, total):
    """The theta with ``sum(max(a - theta, 0)) == tau``, for tau > 0 and any
    finite real a summing to ``total``.

    Michelot's pivot iteration (Michelot 1986; Condat 2016): theta is the
    mean of the active entries shifted by tau over their count; entries at
    or below it leave the active set, and theta is recomputed over the rest
    until the set stops shrinking. The set never empties in exact
    arithmetic; when roundoff would empty it, the last non-empty set's theta
    is kept. A non-finite theta means a sum overflowed.
    """
    active, theta = a, (total - tau) / a.size
    while True:
        kept = np.compress(active > theta, active)
        n = kept.size
        if n == active.size or not n:
            return theta
        active = kept
        theta = (kept.sum() - tau) / n


def _shrink(a, tau, total):
    """Overwrite a with ``max(a - theta, 0)``, theta from ``_threshold``."""
    theta = _threshold(a, tau, total)
    e = 0
    if not math.isfinite(theta):
        # finite entries whose sums overflow: the projection commutes with
        # the exact scaling by 2**-e that puts every entry below 1
        e = int(np.frexp(np.abs(a).max())[1])
        np.ldexp(a, -e, out=a)
        theta = _threshold(a, math.ldexp(tau, -e), a.sum())
    a -= theta
    np.maximum(a, 0.0, out=a)
    if e:
        np.ldexp(a, e, out=a)
    return a


def project_simplex(z, tau):
    """Euclidean projection onto the scaled simplex {v >= 0, sum(v) = tau}.

    Exact threshold by Michelot's pivot iteration, linear time per pass; no
    tolerance involved.
    """
    a = np.array(z, dtype=float)
    # _shrink rescales sums that overflow
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
        # only a sum that is not finite can hide a non-finite entry
        if not math.isfinite(total) and not np.isfinite(a).all():
            raise ValueError("input has non-finite entries")
        if not tau > 0:
            raise ValueError("tau must be positive")
        return _shrink(a, tau, total)


def project_l1_ball(z, s):
    """Euclidean projection onto the l1 ball {v : ||v||_1 <= s}.

    Returns a copy of z when it is already inside the ball, otherwise
    soft-thresholds z with the exact simplex threshold of |z|.
    """
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    with np.errstate(over="ignore"):  # _shrink rescales sums that overflow
        total = a.sum()
        if not math.isfinite(total) and not np.isfinite(z).all():
            raise ValueError("input has non-finite entries")
        if not s > 0:
            raise ValueError("s must be positive")
        if total <= s:
            return z.copy()
        return np.copysign(_shrink(a, s, total), z, out=a)
