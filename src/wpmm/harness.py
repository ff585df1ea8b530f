"""Experiment harness: instance generation, problem builders and metrics.

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

__all__ = [
    "CmeConfig",
    "GsetGraph",
    "CmeMetrics",
    "MaxcutMetrics",
    "gen_cme_instance",
    "load_gset",
    "gen_er_graph",
    "laplacian",
    "build_cme_problem",
    "build_maxcut_problem",
    "build_box_toy",
    "metrics_cme",
    "metrics_maxcut",
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


def _check_node_count(n):
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")


class GsetGraph:
    """Weighted undirected graph in Gset conventions, held as columns: int64
    vertex columns ``u`` and ``v`` (1-based) and a weight column ``w``, int64
    when every weight is an integer and float64 otherwise.

    ``GsetGraph(n, edges)`` reads (u, v, weight) tuples; ``from_columns``
    takes the columns as they are. ``edges`` lists the tuples back, with
    Python ints for int64 weights.
    """

    def __init__(self, n, edges=()):
        u, v, w = tuple(zip(*edges)) or ((), (), ())
        self._set(n, u, v, w)

    @classmethod
    def from_columns(cls, n, u, v, w):
        graph = cls.__new__(cls)
        graph._set(n, u, v, w)
        return graph

    def _set(self, n, u, v, w):
        _check_node_count(n)
        w = np.asarray(w)
        self.n = n
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.w = w.astype(np.int64 if w.dtype.kind in "iu" or not w.size
                          else np.float64, copy=False)

    @property
    def edges(self):
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))


@dataclass
class CmeMetrics:
    normalized_objective: float
    feasibility_distance: float
    recovery_error: float


@dataclass
class MaxcutMetrics:
    objective: float
    diag_feasibility: float


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
    if n < 0:
        raise ValueError(f"{path}:1: negative node count in {lines[0]!r}")

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
    try:
        uv = np.array(list(acc), dtype=np.int64).reshape(-1, 2)
        w = np.fromiter(acc.values(), dtype=np.int64, count=len(acc))
    except OverflowError as exc:
        raise ValueError(f"{path}: an edge weight or vertex lies outside "
                         "the int64 range") from exc
    return GsetGraph.from_columns(n, uv[:, 0], uv[:, 1], w)


def gen_er_graph(n, p, seed=0):
    """Erdos-Renyi G(n, p) with unit edge weights: one uniform draw per
    vertex pair u < v, pairs taken in row-major order."""
    _check_node_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p:g} outside [0, 1]")
    rng = np.random.default_rng(seed)
    # row u (0-based) of the strict upper triangle holds pairs starts[u] ..
    # starts[u + 1] - 1 of the flat order, (u, u + 1) first
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    kept = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    u = np.searchsorted(starts, kept, side="right") - 1
    v = kept - starts[u] + u + 1
    return GsetGraph.from_columns(n, u + 1, v + 1,
                                  np.ones(kept.size, dtype=np.int64))


def laplacian(graph):
    """Combinatorial Laplacian D - W; symmetric with zero row sums. Repeated
    edges add up, in the order of ``graph.edges``."""
    n, u, v = graph.n, graph.u, graph.v
    if not u.size:
        W = np.zeros(n * n)
    else:
        if min(u.min(), v.min()) < 1 or max(u.max(), v.max()) > n:
            raise ValueError(f"an edge vertex lies outside 1..{n}")
        # w_uv into (u, v) and (v, u), edge by edge: bincount adds its
        # weights in input order, as a loop over the edges would
        cells = np.stack([(u - 1) * n + (v - 1), (v - 1) * n + (u - 1)], 1)
        W = np.bincount(cells.ravel(), weights=np.repeat(graph.w, 2),
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
    if d == 0:
        raise ValueError("C must have at least one row")
    # a row panel of the upper triangle at a time: no d x d temporary. The
    # gap is non-finite when C is, or when an asymmetry overflows
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.max([np.abs(C[i:i + _PANEL, i:] - C[i:, i:i + _PANEL].T).max()
                      for i in range(0, d, _PANEL)])
    if not np.isfinite(gap) and not np.isfinite(C).all():
        raise ValueError("C has a non-finite entry")
    # the tolerance is 1e-10 max(1, max |c_ij|), so the scale is read only
    # for a gap above 1e-10
    if gap > 1e-10 and gap > 1e-10 * max(C.max(), -C.min()):
        raise ValueError("C must be symmetric")
    f = SmoothTerm.linear(-C.ravel())
    A = LinearMap.identity(d * d)
    rx = SpectrahedronIndicator(d, float(d), k_hat, svd_tol=svd_tol)
    ry = DiagOnesIndicator(d)
    spec = ProblemSpec(f=f, A=A, rx=rx, ry=ry)
    return (spec, PrimalPoint(np.eye(d).ravel(), np.eye(d).ravel()),
            np.zeros(d * d))


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
