"""Experiment harness: instance generation, problem builders, metrics, and a
high-accuracy reference-solution oracle.

Covers two desk-scale studies: covariance estimation over the spectrahedron
intersected with an l1 ball (synthetic low-rank + sparse ground truth), and
the Max Cut semidefinite relaxation over Gset-format graphs or random
Erdos-Renyi substitutes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import _PANEL, project_l1_ball
from .model import LinearMap, PrimalPoint, ProblemSpec, SmoothTerm
from .oracles import (
    BoxIndicator,
    DiagOnesIndicator,
    L1BallIndicator,
    SpectrahedronIndicator,
)
from .solver import SolverConfig, default_steps, iterate, record_values

__all__ = [
    "CmeConfig",
    "GsetGraph",
    "CmeMetrics",
    "MaxcutMetrics",
    "ReferenceSolution",
    "gen_cme_instance",
    "load_gset",
    "gen_er_graph",
    "laplacian",
    "build_cme_problem",
    "build_maxcut_problem",
    "build_box_toy",
    "metrics_cme",
    "metrics_maxcut",
    "reference_solution",
]


@dataclass
class CmeConfig:
    """Covariance-estimation instance parameters. Defaults follow the
    original experimental protocol; tests use smaller d and r."""

    d: int = 400
    r: int = 5
    noise_sigma: float = 0.6
    entry_threshold: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not self.d >= self.r >= 1:
            raise ValueError("need d >= r >= 1")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be nonnegative and finite")
        if not np.isfinite(self.entry_threshold):
            raise ValueError("entry_threshold must be finite")
        if self.entry_threshold >= 1:  # no U[-1, 1] entry exceeds it
            raise ValueError("entry_threshold must be below 1")


@dataclass
class GsetGraph:
    """Weighted undirected graph in Gset conventions (1-based vertices)."""

    n: int
    edges: list  # (u, v, weight) tuples, u <= v, no self-loops


@dataclass
class CmeMetrics:
    normalized_objective: float
    feasibility_distance: float
    recovery_error: float


@dataclass
class MaxcutMetrics:
    objective: float
    diag_feasibility: float


@dataclass
class ReferenceSolution:
    q: PrimalPoint
    w: np.ndarray
    h_value: float
    al_value: float
    iterations: int
    k_norm: float


# ---------------------------------------------------------------------------
# instance generation


def gen_cme_instance(cfg):
    """Synthetic covariance instance.

    The ground truth is block diagonal with r rank-one blocks u u^T where u
    is uniform on [-1, 1] and entries with |u_i| below the threshold are
    zeroed before the outer product (no renormalization). Observations are
    Gaussian draws from the truth plus entrywise noise; the empirical
    second-moment matrix, the trace radius and the entrywise-l1 radius of the
    truth are returned alongside it.

    Returns ``(Sigma, SigmaHat, tau, s)``.
    """
    rng = np.random.default_rng(cfg.seed)
    d, r = cfg.d, cfg.r
    sizes = [d // r + (1 if i < d % r else 0) for i in range(r)]
    Sigma = np.zeros((d, d))
    pos = 0
    for bs in sizes:
        u = None
        for _ in range(100):
            cand = rng.uniform(-1.0, 1.0, size=bs)
            cand = np.where(np.abs(cand) > cfg.entry_threshold, cand, 0.0)
            if np.any(cand != 0.0):
                u = cand
                break
        if u is None:
            raise ValueError(
                "degenerate block: all entries thresholded away in 100 attempts"
            )
        Sigma[pos:pos + bs, pos:pos + bs] = np.outer(u, u)
        pos += bs

    # jitter makes the factorization well-posed; Sigma is rank deficient
    L = np.linalg.cholesky(Sigma + 1e-12 * np.eye(d))
    Z = L @ rng.standard_normal((d, d))
    Z += cfg.noise_sigma * rng.standard_normal((d, d))
    SigmaHat = (Z @ Z.T) / d
    SigmaHat = 0.5 * (SigmaHat + SigmaHat.T)

    tau = float(np.trace(Sigma))  # nuclear norm of a PSD matrix
    s = float(np.abs(Sigma).sum())
    return Sigma, SigmaHat, tau, s


def load_gset(path):
    """Parse a Gset-format graph file: first line ``n m``, then m lines
    ``u v w`` with 1-based vertices and integer weights. Self-loops are
    dropped with a warning, duplicate edges are summed with a warning."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"{path}:1: malformed header {lines[0]!r}") from exc

    acc = {}
    parsed = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'u v w', got {raw!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed edge {raw!r}") from exc
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"{path}:{lineno}: vertex out of range in {raw!r}")
        parsed += 1
        if u == v:
            warnings.warn(f"{path}:{lineno}: dropping self-loop on vertex {u}")
            continue
        key = (min(u, v), max(u, v))
        if key in acc:
            warnings.warn(f"{path}:{lineno}: duplicate edge {key}, weights summed")
            acc[key] += w
        else:
            acc[key] = w
    if parsed != m:
        raise ValueError(f"{path}: header declares {m} edges, found {parsed}")
    edges = [(u, v, w) for (u, v), w in acc.items()]
    return GsetGraph(n=n, edges=edges)


def gen_er_graph(n, p, seed=0):
    """Erdos-Renyi G(n, p) with unit edge weights: one uniform draw per
    vertex pair u < v, pairs taken in row-major order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p:g} outside [0, 1]")
    rng = np.random.default_rng(seed)
    us, vs = np.triu_indices(n, 1)
    keep = rng.random(us.size) < p
    edges = [(u + 1, v + 1, 1)
             for u, v in zip(us[keep].tolist(), vs[keep].tolist())]
    return GsetGraph(n=n, edges=edges)


def laplacian(graph):
    """Combinatorial Laplacian D - W; symmetric with zero row sums. Repeated
    edges add up, in the order of ``graph.edges``."""
    n = graph.n
    W = np.zeros(n * n)
    if graph.edges:
        u, v, w = (np.asarray(col) for col in zip(*graph.edges))
        if min(u.min(), v.min()) < 1 or max(u.max(), v.max()) > n:
            raise ValueError(f"an edge vertex lies outside 1..{n}")
        # w_uv into (u, v) and (v, u), edge by edge: bincount adds its
        # weights in input order, as a loop over the edges would
        cells = np.stack([(u - 1) * n + (v - 1), (v - 1) * n + (u - 1)], 1)
        W = np.bincount(cells.ravel(), weights=np.repeat(w, 2),
                        minlength=n * n)
    W = W.reshape(n, n)
    degree = W.sum(axis=1)
    L = np.subtract(0.0, W, out=W)  # 0 - w_ij, +0.0 where W is zero
    L.flat[::n + 1] += degree
    return L


# ---------------------------------------------------------------------------
# problem builders


def build_cme_problem(SigmaHat, tau, s, k_hat, svd_tol=1e-9):
    """Covariance estimation: least squares to the noisy observation over
    {PSD, trace tau} for x, intersected through the identity coupling with
    the entrywise l1 ball of radius s for y.

    x starts at the spectrahedron projection of the observation, y at its l1
    projection, the multiplier at zero. Returns ``(spec, q0, w0)``.
    """
    SigmaHat = np.asarray(SigmaHat, dtype=float)
    d = SigmaHat.shape[0]
    if tau <= 0 or s <= 0 or k_hat < 1:
        raise ValueError("need tau > 0, s > 0, k_hat >= 1")
    target = SigmaHat.ravel()
    f = SmoothTerm.half_sq_distance(target)
    A = LinearMap.identity(d * d)
    rx = SpectrahedronIndicator(d, tau, k_hat, svd_tol=svd_tol)
    ry = L1BallIndicator(d * d, s)
    spec = ProblemSpec(f=f, A=A, rx=rx, ry=ry)
    x0 = rx.project(target)
    y0 = project_l1_ball(target, s)
    return spec, PrimalPoint(x0, y0), np.zeros(d * d)


def build_maxcut_problem(C, k_hat, svd_tol=1e-9):
    """Max Cut semidefinite relaxation: minimize -<C, S> over {PSD, trace d}
    for x coupled through the identity with the unit-diagonal affine set for
    y. The objective is linear, so no curvature parameter is available and
    the solver must be driven with fixed or line-search steps.

    Starts at the identity matrix with a zero multiplier.
    """
    C = np.asarray(C, dtype=float)
    d = C.shape[0]
    if C.shape != (d, d):
        raise ValueError("C must be square")
    # a row panel of the upper triangle at a time: no d x d temporary
    gaps, sizes = [], []
    for i in range(0, d, _PANEL):
        rows = slice(i, i + _PANEL)
        gaps.append(np.abs(C[rows, i:] - C[i:, rows].T).max())
        sizes.append(np.abs(C[rows]).max())
    if float(np.max(gaps)) > 1e-10 * max(1.0, float(np.max(sizes))):
        raise ValueError("C must be symmetric")
    f = SmoothTerm.linear(-C.ravel())
    A = LinearMap.identity(d * d)
    rx = SpectrahedronIndicator(d, float(d), k_hat, svd_tol=svd_tol)
    ry = DiagOnesIndicator(d)
    spec = ProblemSpec(f=f, A=A, rx=rx, ry=ry)
    x0 = np.eye(d).ravel()
    return spec, PrimalPoint(x0.copy(), x0.copy()), np.zeros(d * d)


def build_box_toy(a, lo=0.0, hi=1.0):
    """Strongly convex toy: f = 0.5 ||x - a||^2, identity coupling, box
    indicators on both blocks. Starts at the lower corner (the box
    projection of a would already be optimal)."""
    a = np.asarray(a, dtype=float).ravel()
    n = a.size
    f = SmoothTerm.half_sq_distance(a)
    A = LinearMap.identity(n)
    rx = BoxIndicator(n, lo, hi)
    ry = BoxIndicator(n, lo, hi)
    spec = ProblemSpec(f=f, A=A, rx=rx, ry=ry)
    return spec, PrimalPoint(rx.lo.copy(), rx.lo.copy()), np.zeros(n)


# ---------------------------------------------------------------------------
# metrics


def metrics_cme(S, Sigma, SigmaHat, s):
    """Normalized objective, l1-feasibility distance and recovery error."""
    S = np.asarray(S, dtype=float)
    if S.shape != SigmaHat.shape or S.shape != Sigma.shape:
        raise ValueError("shape mismatch")
    nhat = float(np.linalg.norm(SigmaHat)) ** 2
    ntrue = float(np.linalg.norm(Sigma)) ** 2
    if nhat == 0.0 or ntrue == 0.0:
        raise ValueError("zero-norm reference matrix")
    feas = float(np.linalg.norm(S.ravel() - project_l1_ball(S.ravel(), s)))
    return CmeMetrics(
        normalized_objective=float(np.linalg.norm(S - SigmaHat)) ** 2 / (2 * nhat),
        feasibility_distance=feas,
        recovery_error=float(np.linalg.norm(S - Sigma)) ** 2 / (2 * ntrue),
    )


def metrics_maxcut(S, C):
    """Objective -tr(C S) and the diagonal feasibility gap ||diag(S) - 1||."""
    S = np.asarray(S, dtype=float)
    C = np.asarray(C, dtype=float)
    if S.shape != C.shape:
        raise ValueError("shape mismatch")
    return MaxcutMetrics(
        objective=-float(np.einsum("ij,ji->", C, S)),  # tr(C S), no C @ S
        diag_feasibility=float(np.linalg.norm(np.diag(S) - 1.0)),
    )


# ---------------------------------------------------------------------------
# reference oracle


def reference_solution(spec, tol, *, q0, w0, config=None):
    """High-accuracy reference point via the same solver loop with exact
    full-decomposition prox oracles (lam = 1).

    Runs ``config``, whose ``iters`` is the budget; by default the steps of
    ``default_steps`` at rho = 1 for 10^6 iterations. A line-search config
    with a larger mu converges much faster on larger instances. Stops once
    the constraint residual and the successive objective change both drop
    below ``tol``; raises when the budget is spent. Each value reads the
    step's own K q, so a step applies A once.

    Returns a ReferenceSolution carrying the point and the converged
    multiplier, the solver's own arrays (no step writes them again), and h
    (+inf outside the domains) and the augmented-Lagrangian value at the
    pair, from one audited ``record_values``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    spec_e = ProblemSpec(f=spec.f, A=spec.A, rx=spec.rx.exact(),
                         ry=spec.ry.exact(), pqg_alpha=spec.pqg_alpha)
    if config is None:
        policy, mu, eta = default_steps(spec_e, 1.0)
        config = SolverConfig(rho=1.0, mu=mu, iters=10**6,
                              step_policy=policy, eta=eta)
    rho = config.rho

    h_prev = record_values(spec_e, q0, w0, rho)[0]
    k_norm = np.inf
    for state, step in iterate(spec_e, q0, w0, config):
        k_norm = step.k_norm
        h_cur = record_values(spec_e, state.q, state.w, rho, kq=state.kq)[0]
        if k_norm <= tol and abs(h_cur - h_prev) <= tol:
            h, flagged, al = record_values(spec_e, state.q, state.w, rho,
                                           audit=True, kq=state.kq)
            return ReferenceSolution(
                q=state.q,
                w=state.w,
                h_value=float("inf") if flagged else h,
                al_value=al,
                iterations=state.t,
                k_norm=k_norm,
            )
        h_prev = h_cur
    raise RuntimeError(
        f"reference solve did not converge in {config.iters} iterations "
        f"(constraint residual {k_norm:.3e})"
    )
