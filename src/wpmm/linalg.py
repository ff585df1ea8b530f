"""Dense and operator linear-algebra kernels.

Truncated singular-value and symmetric eigenvalue decompositions via Lanczos
(Golub-Kahan style) iterations with full reorthogonalization, exact sort-based
projections onto the scaled simplex and the l1 ball.

All routines are pure functions of their inputs and deterministic for a fixed
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "TruncatedFactors",
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


@dataclass
class TruncatedFactors:
    """Rank-k triplet: ``U @ np.diag(sigma) @ V.T`` approximates the input.

    U has orthonormal columns (m, k), sigma is nonincreasing and nonnegative
    of length k, V has orthonormal columns (n, k).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


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
        B = basis[:, :count]
        for _ in range(2):
            w = w - B @ (B.T @ w)
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


def _append(basis, count, w, rng, dim, breakdown_tol):
    """Reorthogonalize w against the basis and append it, replacing it with a
    fresh random direction on breakdown. Returns the new column count."""
    w = _reorthogonalize(w, basis, count)
    nw = np.linalg.norm(w)
    if nw <= breakdown_tol:
        w = _fresh_direction(rng, basis, count, dim)
    else:
        w = w / nw
    basis[:, count] = w
    return count + 1


def truncated_svd(M, k, tol, seed=0, max_sweeps=None):
    """Top-k singular triplets of a dense matrix.

    Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization of
    both bases; Rayleigh-Ritz extraction on the projected matrix after each
    sweep. A triplet is accepted once both residuals ``||M v - s u||`` and
    ``||M.T u - s v||`` fall below ``tol * sigma_1`` (plus a tiny absolute
    guard for numerically zero matrices).

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
    TruncatedFactors

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

    # each side may need to span its full space (the start vector is random,
    # so the right basis can carry components outside the row space)
    U = np.zeros((m, m))
    V = np.zeros((n, n))
    v0 = rng.standard_normal(n)
    V[:, 0] = v0 / np.linalg.norm(v0)
    nu, nv = 0, 1

    target = min(max(m, n), max(2 * k + 6, 12))
    resid = np.inf
    for _ in range(max_sweeps):
        while True:
            grew = False
            if nu < min(target, m):
                nu = _append(U, nu, M @ V[:, nv - 1], rng, m, breakdown)
                grew = True
            if nv < min(target, n):
                nv = _append(V, nv, M.T @ U[:, nu - 1], rng, n, breakdown)
                grew = True
            if not grew:
                break

        P = U[:, :nu].T @ (M @ V[:, :nv])
        Pu, ps, Pvt = np.linalg.svd(P)
        sigma = ps[:k]
        Uk = U[:, :nu] @ Pu[:, :k]
        Vk = V[:, :nv] @ Pvt[:k].T
        MV = M @ Vk
        MTU = M.T @ Uk
        r1 = np.linalg.norm(MV - Uk * sigma, axis=0)
        r2 = np.linalg.norm(MTU - Vk * sigma, axis=0)
        resid = float(max(r1.max(), r2.max()))
        if resid <= tol * sigma[0] + atol:
            return TruncatedFactors(Uk, sigma, Vk)
        target = min(max(m, n), target + max(k, 6))

    raise ConvergenceError(
        f"truncated_svd did not reach tol={tol:g} within {max_sweeps} sweeps "
        f"(attained residual {resid:.3e})",
        residual=resid,
    )


def truncated_eigh(M, k, tol, seed=0, max_sweeps=None):
    """Top-k algebraically largest eigenpairs of a symmetric matrix.

    Lanczos iteration with full reorthogonalization and Rayleigh-Ritz
    extraction; a pair is accepted once ``||M u - lam u|| <= tol * max(1,
    |lam_1|)``.

    Returns ``(U, lam)`` with U of shape (d, k) orthonormal and lam sorted
    algebraically largest first.
    """
    M = _check_matrix(M)
    d, d2 = M.shape
    if d != d2:
        raise ValueError(f"expected a square matrix, got {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric to tolerance")
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for dimension {d}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps is None:
        max_sweeps = max(4 * k, 30)

    Ms = 0.5 * (M + M.T)
    rng = np.random.default_rng(seed)
    breakdown = 1e-13 * max(1.0, float(np.linalg.norm(Ms)))

    Q = np.zeros((d, d))
    q0 = rng.standard_normal(d)
    Q[:, 0] = q0 / np.linalg.norm(q0)
    nq = 1

    target = min(d, max(2 * k + 6, 12))
    resid = np.inf
    for _ in range(max_sweeps):
        while nq < target:
            nq = _append(Q, nq, Ms @ Q[:, nq - 1], rng, d, breakdown)

        B = Q[:, :nq]
        H = B.T @ (Ms @ B)
        H = 0.5 * (H + H.T)
        theta, Y = np.linalg.eigh(H)
        idx = np.argsort(theta)[::-1][:k]
        lam = theta[idx]
        Uk = B @ Y[:, idx]
        resid = float(np.linalg.norm(Ms @ Uk - Uk * lam, axis=0).max())
        if resid <= tol * max(1.0, abs(lam[0])):
            return Uk, lam
        target = min(d, target + max(k, 6))

    raise ConvergenceError(
        f"truncated_eigh did not reach tol={tol:g} within {max_sweeps} sweeps "
        f"(attained residual {resid:.3e})",
        residual=resid,
    )


def project_simplex(z, tau):
    """Euclidean projection onto the scaled simplex {v >= 0, sum(v) = tau}.

    Exact O(n log n) sort-and-threshold algorithm; no tolerance involved.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("input has non-finite entries")
    if tau <= 0:
        raise ValueError("tau must be positive")
    u = np.sort(z)[::-1]
    shifted = np.cumsum(u) - tau
    j = np.arange(1, z.size + 1)
    rho = int(np.nonzero(u - shifted / j > 0)[0][-1]) + 1
    theta = shifted[rho - 1] / rho
    return np.maximum(z - theta, 0.0)


def project_l1_ball(z, s):
    """Euclidean projection onto the l1 ball {v : ||v||_1 <= s}.

    Returns z unchanged when it is already inside the ball, otherwise
    soft-thresholds with the exact threshold from the simplex projection of
    |z|.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("input has non-finite entries")
    if s <= 0:
        raise ValueError("s must be positive")
    if float(np.abs(z).sum()) <= s:
        return z.copy()
    return np.sign(z) * project_simplex(np.abs(z), s)

