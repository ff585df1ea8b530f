"""Primal-dual solver loop with weak proximal oracle primal updates.

One iteration: query both block oracles (y's first) at the current point
with the linearization vectors and the step coefficient eta * beta_hat(mu),
move the primal point q to q + eta (v - q) toward the oracle output v, then
ascend the multiplier along the constraint residual. The step rule is
decided once per run: the curvature-based formula, a fixed user value, or
an exact line search over eta, closed-form on the step's own gradient since
the smooth term is quadratic. Line search needs both blocks constant on
segments; a run with any other block takes the base step every iteration
and flags each step as a fallback. A step writes the direction v - q and
then the new iterate into the oracle outputs' buffers and frees each
gradient block once its oracle has run. A step whose eta is known in
advance moves y before the x-oracle runs, so each oracle runs beside the
iterate, the multiplier, its gradient block and its own output: 5
block-sized arrays, 6 with ``run``'s running sum. A line-search step holds
6: the iterate's two, the multiplier, the direction's two and A dx - dy;
``run``'s running sum makes 7.

``iterate(spec, q0, w0, config)`` is that loop: it yields the live
``IterateState`` (q, w and t, all the method carries, and K q, formed once
per point) and a ``Step`` record (eta used, line-search fallback, constraint
residual norm) after each of ``config.iters`` steps. ``run`` drives it, logs
every iteration and forms the ergodic mean, whose constraint residual it
reads off the multiplier; the reference solver in ``harness`` drives it with
exact oracles and its own stopping rule; both read the objective h and the
augmented Lagrangian from ``record_values``, their one evaluator.
``StepConstants`` is the step-size rule: ``step_constants`` builds it from
the problem's curvature constants, and it gives the primal step, the dual-step
cap, the oracle coefficient beta_hat(mu) = beta_S + 2 mu (||A||+1)^2 and the
constant of the ergodic O(1/T) bound.
The iterate stays in its indicator domains: ``iterate`` checks the start
point and every step mixes it with an oracle output, a member by the oracle
contract. Line search and logging assume this; ``run`` audits it once, on
its final record. Both checks ask the components' ``contains`` and take the
exact ``distance`` only of a point it rejects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import (PrimalPoint, _check_point, k_apply, smooth_grad_x,
                    smooth_grad_y)

__all__ = [
    "SolverError",
    "SolverConfig",
    "IterateState",
    "RunRecord",
    "RunLog",
    "Step",
    "StepConstants",
    "step_constants",
    "default_steps",
    "line_search_eta",
    "iterate",
    "record_values",
    "run",
]


class SolverError(RuntimeError):
    """A solver step failed; carries the iteration index, the
    ``IterateState`` the failed step left (``state``) and, when raised from
    ``run``, the partial log accumulated so far. A step whose x-oracle fails
    under a fixed or theoretical step has already moved y, since the y-oracle
    runs first: the state then holds (x_t, y_{t+1}) with w_t, and K q is
    gone."""

    def __init__(self, message, iteration=None, partial_log=None, state=None):
        super().__init__(message)
        self.iteration = iteration
        self.partial_log = partial_log
        self.state = state


# ---------------------------------------------------------------------------
# configuration and state


@dataclass
class SolverConfig:
    """Run parameters.

    step_policy is one of "theoretical" (eta from the curvature formula, so
    eta unset, and mu checked against ``StepConstants.mu_cap``), "fixed"
    (eta required), or
    "line_search" (the oracle still receives the base eta -- the configured
    value, else the theoretical one -- and the combination parameter is then
    optimized exactly over [0, 1]). The curvature-based steps assume the
    oracle parameter max(1, rx.lam, ry.lam) the components declare.
    """

    rho: float
    mu: float
    iters: int
    step_policy: str = "theoretical"
    eta: Optional[float] = None
    variant: str = "both"  # mean | last | both
    trace_mean: bool = False

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")
        if self.iters < 0:
            raise ValueError("iters must be nonnegative")
        if self.step_policy not in ("theoretical", "line_search", "fixed"):
            raise ValueError(f"unknown step policy {self.step_policy!r}")
        if self.step_policy == "fixed" and self.eta is None:
            raise ValueError("fixed policy needs eta in (0, 1]")
        if self.eta is not None and not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.step_policy == "theoretical" and self.eta is not None:
            raise ValueError("eta must be unset under the theoretical "
                             "policy, whose step is the curvature-based one")
        if self.variant not in ("mean", "last", "both"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class IterateState:
    """Mutable per-run state: the current pair, the multiplier, the
    iteration counter, ``kq``, K q at q, and ``kq_sq``, ||K q||^2 once a
    step has taken it. The next step consumes ``kq`` in place as its
    gradient residual and sets it to None until it has formed K q at the
    new point."""

    q: PrimalPoint
    w: np.ndarray
    t: int = 0
    kq: Optional[np.ndarray] = None
    kq_sq: Optional[float] = None


@dataclass
class RunRecord:
    t: int
    objective: float
    objective_flagged: bool
    feasibility: float
    al_value: float
    eta_used: float
    eta_fallback: bool
    elapsed: float
    mean_objective: Optional[float] = None
    mean_feasibility: Optional[float] = None
    mean_al_value: Optional[float] = None


@dataclass
class RunLog:
    """Per-iteration trace plus the final Mean/Last outputs. After steps,
    ``last_point``, ``mean_point`` and ``w_final`` are the arrays the solver
    formed, not copies of them. A traced mean record before the final one
    of a problem whose two blocks are indicators is read from dot products
    (see ``run``), so it matches ``record_values`` at the mean point to
    rounding, not bit for bit."""

    records: list
    last_point: PrimalPoint
    mean_point: Optional[PrimalPoint]
    w_final: np.ndarray
    config: SolverConfig


# ---------------------------------------------------------------------------
# step machinery


@dataclass(frozen=True)
class StepConstants:
    """The step-size rule for one problem at one penalty value: its
    curvature constants, checked when built, and the formulas the rate
    guarantee draws from them. ``alpha_s`` is None when the problem carries
    no curvature parameter; ``lam`` is the oracle parameter the steps
    assume."""

    alpha_s: Optional[float]
    beta_s: float
    norm_a: float
    lam: float

    def __post_init__(self):
        if self.alpha_s is not None and not self.alpha_s > 0:
            raise ValueError("alpha_s must be positive")
        if not self.beta_s > 0:
            raise ValueError("beta_s must be positive")
        if not self.norm_a >= 0:
            raise ValueError("norm_a must be nonnegative")
        if not 1 <= self.lam < math.inf:
            raise ValueError("lam must be >= 1 and finite")

    @property
    def _k_sq(self):
        # (norm_a + 1)^2, the cheap upper bound on ||K||^2; using it keeps
        # every formula conservative
        return (self.norm_a + 1.0) ** 2

    def _alpha(self):
        if self.alpha_s is None:
            raise ValueError("the step-size formulas need a curvature "
                             "parameter (pqg_alpha or a strongly convex f)")
        return self.alpha_s

    def beta_hat(self, mu):
        """Oracle curvature coefficient beta_s + 2 mu (norm_a + 1)^2."""
        if mu < 0:
            raise ValueError("mu must be nonnegative")
        return self.beta_s + 2.0 * mu * self._k_sq

    def mu_cap(self):
        """Largest dual step admitted by the rate guarantee:
        (sqrt(lam alpha_s^2 + lam^2 beta_s^2) - lam beta_s)
        / (4 lam (norm_a + 1)^2)."""
        a, b, lam = self._alpha(), self.beta_s, self.lam
        root = math.sqrt(lam * a**2 + lam**2 * b**2)
        # rationalized form: avoids the cancellation that would round the
        # bound down to zero when alpha_s << beta_s
        return lam * a**2 / ((root + lam * b) * 4.0 * lam * self._k_sq)

    def eta(self, mu):
        """Curvature-based primal step alpha_s / (2 lam beta_hat(mu)) for
        dual step mu, guaranteed in (0, 1]."""
        if mu <= 0:
            raise ValueError("mu must be positive")
        eta = self._alpha() / (2.0 * self.lam * self.beta_hat(mu))
        if eta > 1.0:
            raise ValueError(
                f"step size {eta:g} > 1 signals inconsistent curvature constants"
            )
        return eta

    def ergodic_bound(self, c, w0_norm, d1, mu):
        """Constant of the O(1/T) ergodic guarantee:
        (c + ||w0||)^2 / (2 mu) + max{0, 2 d1 beta_hat(mu) / alpha_s}
        for any c >= twice the norm of a dual optimum."""
        if c <= 0 or mu <= 0:
            raise ValueError("c and mu must be positive")
        head = (c + w0_norm) ** 2 / (2.0 * mu)
        return head + max(0.0, 2.0 * d1 * self.beta_hat(mu) / self._alpha())


def step_constants(spec, rho):
    """Step constants of ``spec`` at penalty rho. beta_s = beta + rho
    (norm_a + 1)^2 is the smoothness constant of the augmented Lagrangian's
    smooth part. alpha_s is ``pqg_alpha`` when given, else, for an
    alpha-strongly convex f, min(alpha/2, alpha rho / (alpha + 2 rho
    norm_a^2)). The oracle parameter is the larger of the two components'
    declared ``lam`` (each at least 1), so a weak oracle always gets the
    smaller steps its guarantee needs."""
    f, norm_a = spec.f, spec.A.norm_bound
    if f.beta <= 0:
        raise ValueError("beta must be positive")
    if not rho >= 0:  # nan too
        raise ValueError("rho must be nonnegative")
    alpha_s = spec.pqg_alpha
    if alpha_s is None and f.alpha is not None and f.alpha > 0:
        if rho == 0:
            raise ValueError("rho must be positive")
        alpha_s = min(0.5 * f.alpha,
                      f.alpha * rho / (f.alpha + 2.0 * rho * norm_a**2))
    return StepConstants(alpha_s, f.beta + rho * (norm_a + 1.0) ** 2, norm_a,
                         max(1.0, spec.rx.lam, spec.ry.lam))


def default_steps(spec, rho, step_policy=None, mu=None, eta=None):
    """(step_policy, mu, eta) at penalty rho, each None one set to its
    default for a problem without configured steps: the theoretical policy
    when the problem has a curvature parameter, else fixed steps; mu the
    theoretical policy's cap under it, else 0.2; eta 0.2 under the fixed
    policy."""
    consts = step_constants(spec, rho)
    if step_policy is None:
        step_policy = "theoretical" if consts.alpha_s is not None else "fixed"
    if mu is None:
        mu = consts.mu_cap() if step_policy == "theoretical" else 0.2
    if step_policy == "fixed" and eta is None:
        eta = 0.2
    return step_policy, mu, eta


def _base_step(spec, config):
    """(eta, coeff, search): the run's step rule, decided once. eta is the
    policy's base primal step -- the configured one, else the
    curvature-based one, whose mu the theoretical policy checks against its
    cap -- and coeff = eta * beta_hat(mu) the oracle coefficient. search is
    whether each step line-searches instead: the policy asks for it and
    both blocks are constant on segments."""
    consts = step_constants(spec, config.rho)
    policy = config.step_policy
    if policy == "theoretical":
        mu_cap = consts.mu_cap()
        if config.mu > mu_cap * (1.0 + 1e-12):
            raise ValueError(
                f"mu={config.mu:g} exceeds the dual step bound {mu_cap:g} "
                "required by the theoretical policy"
            )
    base = consts.eta(config.mu) if config.eta is None else config.eta
    search = policy == "line_search" and all(
        comp.constant_on_segments for comp in (spec.rx, spec.ry))
    return base, base * consts.beta_hat(config.mu), search


def line_search_eta(spec, d, lin, mu, rho):
    """Exact step along the direction d = v - q from the iterate q to an
    oracle output v, for the merit mu ||K q(eta)||^2 + L_rho(q(eta), w) at
    q(eta) = q + eta d, eta in [0, 1].

    ``lin`` is <grad, d>, grad the merit's gradient at q: the ``smooth_grad``
    pair at penalty rho + 2 mu. Assumes, without checking, both endpoints
    inside every indicator domain (true of the iterate and an oracle output)
    and both regularizers constant on segments, so they drop out. f is
    quadratic, so the merit moves by exactly lin*eta + curv*eta^2 along the
    segment, with curv = <dx, H dx>/2 + (mu + rho/2) ||A dx - dy||^2 >= 0:
    the endpoints and the clipped stationary point hold its minimizer. The
    one array formed is A dx - dy; d is not changed.
    """
    kd = np.subtract(spec.A.apply(d.x), d.y)
    curv = 0.5 * spec.f.curvature(d.x) + (mu + 0.5 * rho) * float(kd @ kd)

    candidates = [0.0, 1.0]
    if curv > 0.0:
        candidates.append(min(1.0, max(0.0, -lin / (2.0 * curv))))
    return min(sorted(candidates), key=lambda eta: lin * eta + curv * eta * eta)


class Step(NamedTuple):
    """What one iteration did: the primal step taken, whether it is the base
    step of a line-search run that cannot search (a block not constant on
    segments), and ||K q|| at the new point."""

    eta: float
    fallback: bool
    k_norm: float


def _owned(v, *inputs):
    """The oracle output v as a float array the step may overwrite: v itself
    unless it is read-only or may share memory with one of the oracle's
    inputs, a copy then."""
    out = np.asarray(v, dtype=float)
    if not out.flags.writeable or any(np.may_share_memory(out, a)
                                      for a in inputs):
        out = out.copy()
    return out


def _direction(comp, center, p, coeff, state):
    """The direction v - center to the oracle output v of ``comp`` at
    (center, p, coeff), in a buffer the step owns. A failure raises
    SolverError with ``state``, the iterate the step has left so far."""
    try:
        d = _owned(comp.compute(center, p, coeff), center, p)
        d -= center
    except Exception as exc:
        raise SolverError(f"oracle failure at iteration {state.t}: {exc}",
                          iteration=state.t, state=state) from exc
    return d


def _moved(comp, d, center, eta):
    """center + eta d, written into d's buffer; ``comp`` commits the step."""
    d *= eta
    d += center
    comp.commit(eta)
    return d


def _step(spec, state, rx, ry, config, eta, coeff, search):
    # a plain function, not inlined into the generator: its block-sized
    # temporaries are freed before the caller sees the new state. Each new
    # block value goes into an array the step owns: the y-gradient
    # -(w + rho' K q) into the carried K q's buffer, each oracle output into
    # the direction d = v - q and then the new iterate q + eta d. The
    # y-oracle runs first; unless the step line-searches, y then moves and
    # its old block is freed before the x-gradient is formed from the
    # y-gradient, so each oracle runs beside the iterate, the multiplier,
    # its own gradient and its output. Line search holds y and dy through
    # the x-oracle, then the iterate, the multiplier, d and A dx - dy. The
    # old iterate and multiplier are let go as soon as their successors
    # exist. Returns the step taken and ||K q|| at the new point, the square
    # root of ``state.kq_sq`` as np.linalg.norm takes it.
    q, w = state.q, state.w
    py = smooth_grad_y(spec, q, w, config.rho + 2.0 * config.mu, kq=state.kq)
    state.kq = None  # consumed: the y-gradient is its buffer
    dy = _direction(ry, q.y, py, coeff, state)
    if search:
        lin = float(py @ dy)
    else:  # the old y is freed here unless the caller holds it
        state.q = q = PrimalPoint(q.x, _moved(ry, dy, q.y, eta))
        dy = None
    px = smooth_grad_x(spec, q.x, py)
    py = None  # read by no one else, freed before the x-oracle runs
    dx = _direction(rx, q.x, px, coeff, state)
    if search:
        lin += float(px @ dx)
        px = None  # freed before line search forms A dx - dy
        eta = line_search_eta(spec, PrimalPoint(dx, dy), lin, config.mu,
                              config.rho)
        q = PrimalPoint(q.x, _moved(ry, dy, q.y, eta))
    del px, dy
    state.q = PrimalPoint(_moved(rx, dx, q.x, eta), q.y)
    del q  # the old iterate, freed here unless the caller holds it
    kq = spec.A.apply(state.q.x) - state.q.y
    # w + mu K q
    state.w = np.multiply(kq, config.mu)
    state.w += w
    del w
    state.kq = kq
    state.t += 1
    state.kq_sq = float(kq @ kq)
    return eta, math.sqrt(state.kq_sq)


def iterate(spec, q0, w0, config):
    """Step the solver ``config.iters`` times from (q0, w0), yielding
    ``(state, step)`` after each iteration. The start point (finite, of the
    problem's shapes and within the regularizer domains) and the step sizes
    are checked before this returns. ``state`` is advanced in place by the
    next step, which rebinds ``state.q`` and ``state.w`` to new arrays: the
    arrays of ``state.q.x``, ``state.q.y`` and ``state.w`` yielded once are
    never modified afterwards. ``state.kq`` is K q at ``state.q``; the next
    step overwrites it, so a caller that keeps it past that step copies it.
    Oracle failures raise SolverError."""
    _check_point(spec, q0, w0)
    for name, v in (("x0", q0.x), ("y0", q0.y), ("w0", w0)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} has a non-finite entry")
    for comp, block, name in ((spec.rx, q0.x, "x0"), (spec.ry, q0.y, "y0")):
        if not comp.contains(block):
            raise ValueError(f"{name} lies outside the regularizer domain "
                             f"(distance {comp.distance(block):g})")
    state = IterateState(q=q0.copy(), w=np.asarray(w0, dtype=float).copy(),
                         kq=k_apply(spec, q0))
    rx, ry = spec.rx.for_run(q0.x), spec.ry.for_run(q0.y)
    rule = _base_step(spec, config)  # (eta, coeff, search)
    fallback = config.step_policy == "line_search" and not rule[2]

    def steps():
        for _ in range(config.iters):
            eta, k_norm = _step(spec, state, rx, ry, config, *rule)
            yield state, Step(eta, fallback, k_norm)

    return steps()


def _coupling(w, kq):
    """(<w, K q>, ||K q||^2): all that the augmented Lagrangian reads of
    K q."""
    return float(w @ kq), float(kq @ kq)


def record_values(spec, q, w, rho, audit=False, kq=None, fval=None):
    """(objective, flagged, al_value) at q as a run record logs them, from
    each block's ``logged_value``: unless ``audit``, q lies in its indicator
    domains (also inside a product), which contribute 0 unchecked; an audit
    that finds a violation flags the objective and the AL value is +inf.
    ``kq`` is K q when the caller has already formed it, or the pair
    ``_coupling(w, K q)`` when the caller has taken that and let K q go;
    ``fval`` is f(q.x) when the caller has taken it. A block of q may be
    None when its component is an indicator and nothing is audited: ``q.y``
    given ``kq``, ``q.x`` given ``kq`` and ``fval``."""
    values = []
    for name, comp, block, given in (
            ("x", spec.rx, q.x, kq is not None and fval is not None),
            ("y", spec.ry, q.y, kq is not None)):
        if block is not None:
            values.append(comp.logged_value(block, audit))
        elif audit or not given or not comp.is_indicator:
            raise ValueError(f"q.{name} is needed to audit or to value the "
                             f"{name}-block")
        else:  # the unaudited indicator's 0 needs no point
            values.append((0.0, False))
    (vx, fx), (vy, fy) = values
    if fval is None:
        fval = float(spec.f.value(q.x))
    if fx or fy:
        return fval + vx + vy, True, float("inf")
    if kq is None:
        kq = k_apply(spec, q)
    wkq, kq_sq = kq if isinstance(kq, tuple) else _coupling(w, kq)
    al = fval + wkq + 0.5 * rho * kq_sq + vx + vy
    return fval + vx + vy, False, al


def _mean_from_dots(spec, w, dw, total, t, config):
    """(||K qbar||, ``record_values`` at the mean qbar) for a mean record
    of two indicator blocks, no block of the mean formed: given
    dw = w - w0 = mu t K qbar, ||K qbar|| = ||dw|| / (mu t) and
    <w, K qbar> = <w, dw> / (mu t), and f(xbar) comes from the running sum
    ``total`` of the x-blocks."""
    scale = config.mu * t
    dd = float(dw @ dw)
    coupling = ((dd if dw is w else float(w @ dw)) / scale, dd / scale**2)
    return math.sqrt(dd) / scale, record_values(
        spec, PrimalPoint(None, None), w, config.rho, kq=coupling,
        fval=spec.f.mean_value(total, t))


def run(spec, q0, w0, config):
    """Execute ``config.iters`` solver steps from (q0, w0) and log every
    iteration. The Mean output is the average of the post-step iterates, the
    Last output is the final iterate; both are recorded regardless of which
    variant the caller plans to read, except that an empty run has no mean.
    Only the final record audits domain membership (see ``record_values``),
    of the last and the traced mean point: ``objective_flagged`` is set on it
    when either lies outside an indicator domain.

    ``run`` keeps one running sum, of the x-blocks. The mean's constraint
    residual comes from the multiplier: w_t - w_0 = mu sum_s K q_s, so
    K qbar_t = (w_t - w_0) / (mu t), and the mean's y-block is
    A xbar_t - K qbar_t. A mean block is formed only where something reads
    it. A traced record before the final one whose two blocks are both
    indicators forms none: its values are dot products, ||K qbar_t|| =
    ||w_t - w_0|| / (mu t), <w_t, K qbar_t> = <w_t, w_t - w_0> / (mu t) and
    f(xbar_t) from the running sum (``SmoothTerm.mean_value``), with w_t
    itself for w_t - w_0 when w_0 is zero. The final record, and a traced
    record with a block that is not an indicator, form K qbar and xbar, and
    the y-block where it is read (the final record, and traced records
    whose y-block is not an indicator). Such a mean record holds one block
    of its own where it can: it takes the inner products of K qbar first
    and, unless the y-block is formed into K qbar's buffer, frees K qbar
    before xbar is formed.

    The returned points and multiplier are the solver's own arrays, not
    copies: the final iterate, and the running sum divided in place into the
    mean's x-block on the final record. Only an empty run carries copies,
    since there they would be the caller's arrays. A SolverError's partial
    log holds the state the failed step left (see ``SolverError``): after
    an x-oracle failure under a fixed or theoretical step, its
    ``last_point`` is (x_t, y_{t+1}) with ``w_final`` w_t."""
    steps = iterate(spec, q0, w0, config)
    if config.iters == 0 and config.variant in ("mean", "both"):
        raise ValueError("mean output undefined for an empty run")
    w0 = np.asarray(w0, dtype=float)
    records, state, mean_point = [], None, None
    # running sum of the post-step x-blocks, the mean's x-block times t
    total = np.zeros_like(q0.x)
    # a traced mean record before the final one is read from dot products
    # when both blocks are indicators; w - w0 is w itself when w0 is zero
    dots = config.trace_mean and spec.rx.is_indicator and spec.ry.is_indicator
    w0_zero = not w0.any()
    start = time.perf_counter()
    try:
        for state, step in steps:
            t = state.t
            total += state.q.x
            final = t == config.iters
            obj, flagged, alv = record_values(
                spec, state.q, state.w, config.rho, final,
                kq=(float(state.w @ state.kq), state.kq_sq))
            rec = RunRecord(
                t=t,
                objective=obj,
                objective_flagged=flagged,
                feasibility=step.k_norm,
                al_value=alv,
                eta_used=step.eta,
                eta_fallback=step.fallback,
                elapsed=time.perf_counter() - start,
            )
            if final:  # no step reads K q again: freed before the audits
                state.kq = None
            if dots and not final:
                dw = state.w if w0_zero else np.subtract(state.w, w0)
                rec.mean_feasibility, values = _mean_from_dots(
                    spec, state.w, dw, total, t, config)
                del dw
            elif final or config.trace_mean:
                # K qbar, from the multiplier: the record reads it first,
                # and it is freed before xbar is formed unless the y-block,
                # A xbar - K qbar, is needed and written into its buffer
                kqb = np.subtract(state.w, w0)
                kqb /= config.mu * t
                if config.trace_mean:
                    rec.mean_feasibility = float(np.linalg.norm(kqb))
                    coupling = _coupling(state.w, kqb)
                if not final and spec.ry.is_indicator:
                    kqb = None
                # no step adds to the running sum after the final record
                xb = np.divide(total, t, out=total if final else None)
                yb = (None if kqb is None
                      else np.subtract(spec.A.apply(xb), kqb, out=kqb))
                qb = PrimalPoint(xb, yb)
                if final:
                    mean_point = qb
                if config.trace_mean:
                    values = record_values(spec, qb, state.w, config.rho,
                                           final, kq=coupling)
                del kqb, xb, yb, qb  # not held through the next step
            if config.trace_mean:
                rec.mean_objective, mflag, rec.mean_al_value = values
                rec.objective_flagged |= mflag
            records.append(rec)
    except SolverError as exc:
        exc.partial_log = RunLog(records, exc.state.q, None, exc.state.w,
                                 config)
        raise
    if state is None:  # an empty run: q0 and w0 are the caller's
        return RunLog(records, q0.copy(), None, w0.copy(), config)
    return RunLog(records, state.q, mean_point, state.w, config)
