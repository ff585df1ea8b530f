"""Independent reference oracles for the test suite.

Everything here deliberately avoids the code paths under test: dense
decompositions use Jacobi rotations instead of Lanczos, projections use
exhaustive active-set / sign-pattern enumeration or sorting instead of a
pivot iteration, gradients use central finite differences, and the
augmented Lagrangian's smooth part is summed term by term from the problem's
callables. Two exceptions: ``reference_run`` shares the oracles and the step
rule with the solver, writes its gradient out, and checks only the order of
its work; the certified optima of the two paper problems,
``maxcut_reference`` and ``cme_reference``, take their projections from the
library's exact ones, and each stops on a two-sided bound that does not
depend on how its point was found.
"""

import math

import numpy as np

from wpmm.linalg import project_l1_ball
from wpmm.model import PrimalPoint, k_apply
from wpmm.oracles import SpectrahedronIndicator
from wpmm.solver import _base_step, line_search_eta, record_values


def jacobi_eigh(M, sweeps=100, tol=1e-13):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi
    rotations. Returns (eigenvalues desc, eigenvectors as columns)."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    V = np.eye(n)
    scale = max(1.0, float(np.abs(A).max()))
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rot = np.array([[c, s], [-s, c]])
                A[[p, q], :] = rot.T @ A[[p, q], :]
                A[:, [p, q]] = A[:, [p, q]] @ rot
                V[:, [p, q]] = V[:, [p, q]] @ rot
    lam = np.diag(A).copy()
    order = np.argsort(lam)[::-1]
    return lam[order], V[:, order]


def jacobi_svd(M, sweeps=60, tol=1e-14):
    """Full SVD by one-sided Jacobi column orthogonalization.
    Returns (U, sigma desc, V)."""
    A = np.array(M, dtype=float)
    transposed = A.shape[0] < A.shape[1]
    if transposed:
        A = A.T
    m, n = A.shape
    V = np.eye(n)
    for _ in range(sweeps):
        converged = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(A[:, p] @ A[:, q])
                app = float(A[:, p] @ A[:, p])
                aqq = float(A[:, q] @ A[:, q])
                denom = np.sqrt(app * aqq)
                if denom <= 1e-300 or abs(apq) <= tol * denom:
                    continue
                converged = False
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                Ap = A[:, p].copy()
                A[:, p] = c * Ap - s * A[:, q]
                A[:, q] = s * Ap + c * A[:, q]
                Vp = V[:, p].copy()
                V[:, p] = c * Vp - s * V[:, q]
                V[:, q] = s * Vp + c * V[:, q]
        if converged:
            break
    sigma = np.linalg.norm(A, axis=0)
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    A = A[:, order]
    V = V[:, order]
    U = np.zeros((m, n))
    rng = np.random.default_rng(12345)
    for j in range(n):
        if sigma[j] > 1e-300:
            U[:, j] = A[:, j] / sigma[j]
        else:
            w = rng.standard_normal(m)
            w -= U[:, :j] @ (U[:, :j].T @ w)
            U[:, j] = w / np.linalg.norm(w)
    if transposed:
        return V, sigma, U
    return U, sigma, V


def simplex_project_bruteforce(z, tau):
    """Projection onto {v >= 0, sum v = tau} by enumerating active sets."""
    z = np.asarray(z, dtype=float)
    n = z.size
    best, best_d = None, np.inf
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        theta = (z[idx].sum() - tau) / len(idx)
        v = np.zeros(n)
        v[idx] = z[idx] - theta
        if v[idx].min() < -1e-12:
            continue
        v = np.maximum(v, 0.0)
        v *= tau / v.sum()
        d = float(np.linalg.norm(v - z))
        if d < best_d:
            best, best_d = v, d
    return best


def l1_project_bruteforce(z, s):
    """Projection onto the l1 ball by enumerating sign patterns, each
    resolved through the brute-force simplex projection."""
    z = np.asarray(z, dtype=float)
    if np.abs(z).sum() <= s:
        return z.copy()
    n = z.size
    best, best_d = None, np.inf
    for mask in range(1 << n):
        sgn = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(n)])
        v = sgn * simplex_project_bruteforce(sgn * z, s)
        d = float(np.linalg.norm(v - z))
        if d < best_d:
            best, best_d = v, d
    return best


def simplex_project_sort(z, tau):
    """Projection onto {v >= 0, sum v = tau} by sorting: the threshold is
    (sum of the rho largest entries - tau) / rho for the largest rho whose
    rho-th largest entry lies above it."""
    z = np.asarray(z, dtype=float)
    u = np.sort(z)[::-1]
    shifted = np.cumsum(u) - tau
    j = np.arange(1, z.size + 1)
    above = np.flatnonzero(u - shifted / j > 0)
    # rho = 1 always qualifies in exact arithmetic; roundoff can hide it
    rho = int(above[-1]) + 1 if above.size else 1
    theta = shifted[rho - 1] / rho
    return np.maximum(z - theta, 0.0)


def l1_project_sort(z, s):
    """Projection onto the l1 ball by soft-thresholding with the sorted
    simplex threshold of |z|."""
    z = np.asarray(z, dtype=float)
    if np.abs(z).sum() <= s:
        return z.copy()
    return np.sign(z) * simplex_project_sort(np.abs(z), s)


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def dykstra_two_sets(z, project_a, project_b, iters=5000, tol=1e-12):
    """Projection onto the intersection of two convex sets by Dykstra's
    alternating scheme with correction terms."""
    x = np.asarray(z, dtype=float).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = project_a(x + p)
        p = x + p - y
        x_new = project_b(y + q)
        q = y + q - x_new
        if np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x)):
            x = x_new
            break
        x = x_new
    return x


def maxcut_bracket(C, V):
    """Bounds on the Max Cut relaxation's optimum OPT = min -<C, X> over
    {X PSD, diag X = 1}, from V with unit rows: -<C, V V^T> is attained by
    the feasible V V^T, and weak duality gives <C, X> <= sum u + n max(0,
    lambda_max(C - Diag u)) on the feasible set for any u; here u_i =
    v_i . (C V)_i, with a dense ``eigvalsh`` for lambda_max (a Lanczos value
    lies below it and would not bound). Returns (lower, upper)."""
    CV = C @ V
    u = np.einsum("ij,ij->i", V, CV)
    lam = float(np.linalg.eigvalsh(C - np.diag(u))[-1])
    total = float(u.sum())  # <C, V V^T>
    return -(total + C.shape[0] * max(0.0, lam)), -total


def maxcut_reference(C, tol=1e-9, sweeps=10_000, seed=0):
    """Certified Max Cut optimum by the mixing method (Wang, Chang & Kolter,
    arXiv 1706.00476): X = V V^T with unit rows v_i at rank r =
    ceil(sqrt(2n)) + 1, each sweep setting v_i to the unit vector along
    sum_{j != i} c_ij v_j. Stops once ``maxcut_bracket`` is within tol
    relative. Returns (lower, upper, V); raises RuntimeError when ``sweeps``
    run out."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    V = np.random.default_rng(seed).standard_normal(
        (n, math.ceil(math.sqrt(2 * n)) + 1))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    for _ in range(sweeps):
        for i in range(n):
            g = C[i] @ V - C[i, i] * V[i]
            norm = np.linalg.norm(g)
            if norm > 0.0:  # else v_i has no neighbour to follow
                V[i] = g / norm
        lower, upper = maxcut_bracket(C, V)
        if upper - lower <= tol * abs(upper):
            return lower, upper, V
    raise RuntimeError(f"mixing method did not converge in {sweeps} sweeps "
                       f"(gap {upper - lower:.3e})")


def cme_bracket(Z, u, tau, s, toward=None):
    """Bounds on the covariance optimum OPT = min (1/2)||X - Z||^2 over
    S intersect B, S = {X PSD, tr X = tau} and B = {||X||_1 <= s}, from a
    multiplier u of the split X = Y (arrays flattened, d x d matrices).

    Lower: the dual function at u, (1/2)||X_u - Z||^2 + <u, X_u> - s
    max |u_ij| with X_u = P_S(Z - u), a bound for every u. Upper: X_u lies
    in S; it is mixed toward ``toward`` (default (tau/d) I, which lies in S
    with ||.||_1 = tau <= s) by theta = (g0 - s) / (g0 - g1), g0 and g1 the
    two points' l1 norms, clipped to [0, 1]. The l1 norm is convex along the
    segment, so from a point of S intersect B that theta brings X_theta into
    B, and (1/2)||X_theta - Z||^2 >= OPT. Returns (lower, upper, X_u,
    X_theta).
    """
    z, u = np.ravel(Z), np.ravel(u)
    d = math.isqrt(z.size)
    if toward is None:
        toward = np.diag(np.full(d, tau / d)).ravel()
    X = SpectrahedronIndicator(d, tau, 1).project(z - u)
    lower = (0.5 * float((X - z) @ (X - z)) + float(u @ X)
             - s * float(np.abs(u).max()))
    g0, g1 = float(np.abs(X).sum()), float(np.abs(toward).sum())
    theta = 0.0 if g0 <= s else min(max((g0 - s) / (g0 - g1), 0.0), 1.0)
    mixed = X + theta * (toward - X)
    return lower, 0.5 * float((mixed - z) @ (mixed - z)), X, mixed


def cme_reference(Z, tau, s, tol=1e-6, iters=100_000):
    """Certified covariance optimum by Dykstra's projections onto S and B
    (Boyle & Dykstra 1986): from q = 0, y = P_S(Z - q), x = P_B(y + q) and
    q <- y + q - x, the l1-side increment. Stops once ``cme_bracket`` at
    u = q, whose X_u is the step's y, is within tol relative. Returns
    (lower, upper, u); raises RuntimeError when ``iters`` run out."""
    z = np.ravel(Z)
    q = np.zeros_like(z)
    for _ in range(iters):
        lower, upper, y, _ = cme_bracket(z, q, tau, s)
        if upper - lower <= tol * abs(upper):
            return lower, upper, q
        q += y
        q -= project_l1_ball(q, s)  # y + q - P_B(y + q)
    raise RuntimeError(f"Dykstra's method did not converge in {iters} steps "
                       f"(gap {upper - lower:.3e})")


def symmetric_part(C, P=None, coeff=1.0, dtype=float):
    """The symmetric part 0.5 (m + m^T) of m = C - P / coeff (m = C when P
    is None), formed densely in float64 and rounded once to dtype."""
    m = np.array(C, dtype=float) if P is None else C - P / coeff
    return (0.5 * (m + m.T)).astype(dtype)


def smooth_part(spec, q, w, rho):
    """The augmented Lagrangian's smooth part f(x) + <w, Kq> + (rho/2)||Kq||^2
    with K q = A x - y."""
    kq = spec.A.apply(q.x) - q.y
    return float(spec.f.value(q.x)) + float(w @ kq) + 0.5 * rho * float(kq @ kq)


def er_graph_loop(n, p, seed=0):
    """Erdos-Renyi G(n, p) edge list drawn pair by pair: one scalar uniform
    draw per vertex pair u < v in row-major order, 1-based vertices, unit
    weights."""
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                edges.append((u, v, 1))
    return edges


def laplacian_loop(graph):
    """Combinatorial Laplacian D - W, W filled edge by edge."""
    n = graph.n
    W = np.zeros((n, n))
    for u, v, w in graph.edges:
        W[u - 1, v - 1] += w
        W[v - 1, u - 1] += w
    return np.diag(W.sum(axis=1)) - W


def write_gset(graph, path):
    """Write a graph in the Gset text format: 'n m', then 'u v w' lines."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.n} {len(graph.edges)}\n")
        for u, v, w in graph.edges:
            fh.write(f"{u} {v} {int(w)}\n")


def reference_run(spec, q0, w0, config):
    """What ``solver.run`` logs, from steps taken in the plain order and on
    whole new arrays: both oracles at q (x first), then line search,
    q + eta (v - q) and w + mu K q. A traced mean record before the final
    one of two indicator blocks is read from dot products with
    dw = w - w0 = mu t K qbar: ||dw|| / (mu t), <w, dw> / (mu t) and
    f(xbar) = <S, H S> / (2 t^2) + <b, S> / t + c0 for the sum S of the
    x-blocks; every other one from xbar and K qbar at once. Returns
    (records, last point, mean point, multiplier), a record being the tuple
    of a ``RunRecord``'s fields but ``elapsed``."""
    eta0, coeff, search = _base_step(spec, config)
    fallback = config.step_policy == "line_search" and not search
    rx, ry = spec.rx.for_run(q0.x), spec.ry.for_run(q0.y)
    q, w = q0.copy(), np.array(w0, dtype=float)
    total, records, mean = np.zeros_like(q.x), [], None
    dots = spec.rx.is_indicator and spec.ry.is_indicator
    for t in range(1, config.iters + 1):
        r = w + (config.rho + 2.0 * config.mu) * (spec.A.apply(q.x) - q.y)
        px, py = spec.f.gradient(q.x) + spec.A.adjoint(r), -r
        d = PrimalPoint(np.array(rx.compute(q.x, px, coeff), dtype=float) - q.x,
                        np.array(ry.compute(q.y, py, coeff), dtype=float) - q.y)
        eta = eta0
        if search:
            eta = line_search_eta(spec, d, float(px @ d.x) + float(py @ d.y),
                                  config.mu, config.rho)
        rx.commit(eta)
        ry.commit(eta)
        q = PrimalPoint(q.x + eta * d.x, q.y + eta * d.y)
        kq = k_apply(spec, q)
        w = w + config.mu * kq
        total += q.x
        final = t == config.iters
        obj, flagged, al = record_values(spec, q, w, config.rho, final, kq=kq)
        means = (None, None, None)
        if config.trace_mean and dots and not final:
            dw, scale, f = w - w0, config.mu * t, spec.f
            dd = float(dw @ dw)
            fval = (0.5 * f.curvature(total) / t**2 + float(f.b @ total) / t
                    + f.c0)
            mal = fval + float(w @ dw) / scale + 0.5 * config.rho * (
                dd / scale**2)
            means = (fval, math.sqrt(dd) / scale, mal)
        elif final or config.trace_mean:
            kqb = (w - w0) / (config.mu * t)
            xb = total / t
            mean = PrimalPoint(xb, spec.A.apply(xb) - kqb)
            if config.trace_mean:
                mobj, mflag, mal = record_values(spec, mean, w, config.rho,
                                                 final, kq=kqb)
                flagged |= mflag
                means = (mobj, float(np.linalg.norm(kqb)), mal)
        records.append((t, obj, flagged, float(np.linalg.norm(kq)), al, eta,
                        fallback, *means))
    return records, q, mean, w
