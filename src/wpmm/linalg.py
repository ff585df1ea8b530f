"""Dense and operator linear-algebra kernels.

Truncated singular-value and symmetric eigenvalue decompositions, which share
one Lanczos loop with full reorthogonalization in one Krylov basis, and exact
projections onto the scaled simplex and the l1 ball, which find their
threshold by Michelot's pivot iteration in linear time per pass.

Each decomposition adds to the loop only its input checks and its
Rayleigh-Ritz extraction, which, like the residuals, is assembled from the
products with the input M stored next to the basis vectors. ``truncated_svd``
keeps its basis on the smaller side of M, for M.T @ M. The basis grows with
the Krylov dimension, so memory is proportional to the rank sought, not to
the square of the input's dimensions.

``truncated_eigh`` takes only a square matrix that equals its transpose
entry for entry, and raises ValueError on any other (``NotSymmetricError``
on a finite square one); it never copies it. It
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
    "NotSymmetricError",
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


class NotSymmetricError(ValueError):
    """A finite square matrix that ``truncated_eigh`` was given differs from
    its transpose."""


def _check_matrix(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def _check_finite(M):
    """Raise ValueError unless every entry of the non-empty array M is
    finite. A NaN or an infinity shows in M's least or greatest entry, so
    no array of M's size is made."""
    if not (math.isfinite(M.min()) and math.isfinite(M.max())):
        raise ValueError("matrix has non-finite entries")


def _reorthogonalize(w, B):
    # two Gram-Schmidt passes keep loss of orthogonality at machine precision
    for _ in range(2):
        w = w - B.T @ (B @ w)
    return w


def _fresh_direction(rng, B):
    # replacement vector after a Lanczos breakdown (invariant subspace hit)
    for _ in range(64):
        w = _reorthogonalize(rng.standard_normal(B.shape[1]), B)
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            return w / nw
    raise ConvergenceError("could not generate a new orthogonal direction")


def _lanczos(kernel, apply, advance, dim, out_dim, k, tol, seed, max_sweeps,
             breakdown, extract):
    """The Lanczos loop of both spectral kernels.

    Basis vectors (length dim) are kept as rows next to their products
    ``apply(v)`` (length out_dim), in buffers grown to the Krylov dimension:
    min(dim, max(2k + 6, 12)), then max(k, 6) more per sweep. The start is
    seeded; each later vector is ``advance`` of the last product,
    reorthogonalized, or a random direction if its norm is <= ``breakdown``.
    Each sweep ends in ``extract(vectors, products)``, which gives
    ``(result, residual, accepted)``; the first accepted result is returned.
    ConvergenceError, naming ``kernel`` and carrying the residual, follows
    ``max_sweeps`` (default max(4k, 30)) rejected sweeps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps is None:
        max_sweeps = max(4 * k, 30)

    rng = np.random.default_rng(seed)
    target = min(dim, max(2 * k + 6, 12))
    vecs = np.empty((0, dim))
    prods = np.empty((0, out_dim))
    w = rng.standard_normal(dim)
    w = w / np.linalg.norm(w)  # the start vector takes no breakdown test
    count = 0
    resid = np.inf
    for _ in range(max_sweeps):
        if target > count:  # room for the new rows, keeping the stored ones
            vecs = np.concatenate((vecs, np.empty((target - count, dim))))
            prods = np.concatenate(
                (prods, np.empty((target - count, out_dim))))
        while count < target:
            if count:
                B = vecs[:count]
                w = _reorthogonalize(advance(prods[count - 1]), B)
                nw = np.linalg.norm(w)
                w = _fresh_direction(rng, B) if nw <= breakdown else w / nw
            vecs[count] = w
            prods[count] = apply(vecs[count])
            count += 1

        result, resid, accepted = extract(vecs[:count], prods[:count])
        if accepted:
            return result
        target = min(dim, target + max(k, 6))

    raise ConvergenceError(
        f"{kernel} did not reach tol={tol:g} within {max_sweeps} sweeps "
        f"(attained residual {resid:.3e})",
        residual=resid,
    )


def truncated_svd(M, k, tol, seed=0, max_sweeps=None):
    """Top-k singular triplets of a dense matrix.

    Lanczos iteration on M.T @ M with full reorthogonalization, in one basis
    on the smaller side of M (M.T's when M is wide), and one-sided
    Rayleigh-Ritz extraction after each sweep: with the basis V as rows and
    ``M @ V.T = P R`` a thin QR, the SVD ``R = W diag(s) Q.T`` gives
    ``v_i = V.T @ q_i``, and ``u_i`` is ``M @ v_i`` orthonormalized, a
    sign-fixed QR of those k columns. Each basis vector keeps its product
    ``M v``; the next direction is M.T times the last one. A triplet is
    accepted once both residuals ``||M v - s u||`` and ``||M.T u - s v||``
    fall below ``tol * sigma_1`` (plus a tiny absolute guard for
    numerically zero matrices).

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
    wide = m < n
    A = M.T if wide else M
    fro = float(np.linalg.norm(M))
    atol = 1e-13 * max(1.0, fro)

    def extract(V, AV):
        # sigma and Q from the j x j triangle of AV.T = P R, and the left
        # vectors from a sign-fixed QR of AV.T @ Y_k, so no m x j factor P
        # is formed
        _, s, Qt = np.linalg.svd(np.linalg.qr(AV.T, mode="r"))
        sigma, Yk = s[:k], Qt[:k].T
        AY = AV.T @ Yk
        Uk, R = np.linalg.qr(AY)
        Uk *= np.where(np.diagonal(R) < 0.0, -1.0, 1.0)
        Vk = V.T @ Yk
        r1 = np.linalg.norm(AY - Uk * sigma, axis=0)
        r2 = np.linalg.norm(A.T @ Uk - Vk * sigma, axis=0)
        resid = float(max(r1.max(), r2.max()))
        accepted = resid <= tol * sigma[0] + atol
        return ((Vk, sigma, Uk) if wide else (Uk, sigma, Vk)), resid, accepted

    # M.T @ M has scale fro**2, so the breakdown test scales by fro
    return _lanczos("truncated_svd", lambda v: A @ v, lambda p: A.T @ p,
                    min(m, n), max(m, n), k, tol, seed, max_sweeps,
                    atol * fro, extract)


_PANEL = 64  # rows per panel of the symmetry checks and symmetrizations
_CHUNK = 4096  # entries per chunk of a pass over a flat array


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
    otherwise, NotSymmetricError when M is finite, square and not
    symmetric."""
    M = np.asarray(M)
    if M.dtype != np.float32:
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        _check_matrix(M)
        raise ValueError(f"expected a square matrix, got {M.shape}")
    if not _exactly_symmetric(M):  # a NaN entry too
        _check_finite(M)
        raise NotSymmetricError("matrix is not symmetric")
    with np.errstate(over="ignore"):  # an overflowed sum is taken below
        fro = float(np.linalg.norm(M))
    if not math.isfinite(fro):  # an infinite entry, or an overflowed sum
        _check_finite(M)
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
    and any other matrix raises ValueError, a finite square one
    ``NotSymmetricError``. A pair is accepted once
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
    single = M.dtype == np.float32
    allowance = _single_allowance(d, fro) if single else 0.0

    def extract(B, MB):
        H = B @ MB.T
        H = 0.5 * (H + H.T)
        theta, Y = np.linalg.eigh(H)
        idx = np.argsort(theta)[::-1][:k]
        lam, Yk = theta[idx], Y[:, idx]
        Uk = B.T @ Yk
        resid = float(np.linalg.norm(MB.T @ Yk - Uk * lam, axis=0).max())
        accepted = resid + allowance <= tol * max(1.0, abs(lam[0]))
        return (Uk, lam), resid, accepted

    return _lanczos("truncated_eigh",
                    lambda q: M @ (q.astype(np.float32) if single else q),
                    lambda p: p, d, d, k, tol, seed, max_sweeps,
                    1e-13 * max(1.0, fro), extract)


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
    """Euclidean projection onto the l1 ball {v : ||v||_1 <= s}, as a new
    array: ``_l1_ball_in_place`` on a copy of z."""
    return _l1_ball_in_place(np.array(z, dtype=float), s)


def _l1_ball_in_place(a, s):
    """Overwrite the flat, contiguous float64 array a with its projection onto
    the l1 ball {v : ||v||_1 <= s} and return it: a keeps its values when
    already inside the ball, otherwise it is soft-thresholded with the exact
    simplex threshold of |a|. The signs wait in a boolean mask while a holds
    |a|, so the work space is an eighth of a plus the pivot iteration's.
    """
    neg = np.signbit(a)
    np.abs(a, out=a)
    with np.errstate(over="ignore"):  # _shrink rescales sums that overflow
        total = a.sum()
        if not math.isfinite(total) and not np.isfinite(a).all():
            raise ValueError("input has non-finite entries")
        if not s > 0:
            raise ValueError("s must be positive")
        if total > s:
            _shrink(a, s, total)
    # each entry's sign back, zeros included, as copysign would: every
    # entry is now >= +0, so setting the sign bit where neg is set negates
    # it exactly; a chunk at a time (a masked ufunc, with where=neg, is
    # several times slower)
    bits = a.view(np.uint64)
    for i in range(0, a.size, _CHUNK):
        sign = neg[i:i + _CHUNK].astype(np.uint64)
        sign <<= 63
        bits[i:i + _CHUNK] |= sign
    return a
