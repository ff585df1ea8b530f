"""Runtime convergence certificates and the desk-scale suites that run them:
oracle contract audits, linear decay of the augmented-Lagrangian gap, and the
ergodic O(1/T) bounds with the objective/feasibility split, each checked on
instances with independently computed reference optima. The two toy suites
read one run, which traces the ergodic mean and which ``run_suites`` solves
once for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .harness import build_box_toy
from .linalg import project_l1_ball, project_simplex
from .oracles import (
    NuclearBallIndicator,
    NuclearNormReg,
    PolytopeIndicator,
    PolytopeState,
    SpectrahedronIndicator,
    hypercube_lmo,
    phi_value,
    scaled_simplex_lmo,
)
from .solver import SolverConfig, run, step_constants

__all__ = ["Certificate", "check_linear_decay", "check_obj_feas_split",
           "suite_oracles", "suite_decay", "suite_ergodic", "run_suites"]


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """Outcome of a runtime convergence check."""

    name: str
    passed: bool
    applicable: bool = True
    details: str = ""
    data: dict = field(default_factory=dict)


def check_linear_decay(al_values, l_star, eta):
    """Certificate for per-iteration linear decay of the AL gap.

    With d_t = al_values[t] - l_star, checks d_{t+1} <= (1 - eta) d_t + tol
    for every consecutive pair, tol = 1e-8 * (1 + |d_1|). Passes iff every
    iteration passes; the first offending index is reported.
    """
    d = [float(a) - l_star for a in al_values]
    if len(d) < 2:
        return Certificate("linear_decay", True, details="fewer than two points")
    tol = 1e-8 * (1.0 + abs(d[0]))
    first_bad = None
    worst = -math.inf
    for i in range(len(d) - 1):
        slack = d[i + 1] - ((1.0 - eta) * d[i] + tol)
        worst = max(worst, slack)
        if slack > 0 and first_bad is None:
            first_bad = i + 1
    passed = first_bad is None
    details = ("all iterations decay" if passed
               else f"decay violated first at t={first_bad}")
    return Certificate("linear_decay", passed, details=details,
                       data={"d1": d[0], "checked": len(d) - 1,
                             "first_failure": first_bad, "worst_slack": worst})


def check_obj_feas_split(h_gap, c, rho, k_norm, delta):
    """Certificate for the objective/feasibility split: given
    h_gap + c*||Kq|| + (rho/2)*||Kq||^2 <= delta, both h_gap <= delta and
    ||Kq|| <= 2*delta/c must hold. Reports not-applicable when the antecedent
    fails."""
    if c <= 0:
        raise ValueError("c must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    guard = 1e-12 * (1.0 + abs(delta))
    lhs = h_gap + c * k_norm + 0.5 * rho * k_norm**2
    if lhs > delta + guard:
        return Certificate(
            "obj_feas_split", False, applicable=False,
            details=f"antecedent not satisfied ({lhs:.6g} > {delta:.6g})",
            data={"lhs": lhs, "delta": delta},
        )
    ok = (h_gap <= delta + guard) and (k_norm <= 2.0 * delta / c + guard)
    return Certificate(
        "obj_feas_split", ok,
        details="both consequents hold" if ok else "a consequent fails",
        data={"h_gap": h_gap, "k_norm": k_norm, "delta": delta,
              "feasibility_bound": 2.0 * delta / c},
    )


# ---------------------------------------------------------------------------
# oracle audits


def _rank_targeted_instance(rng, m, n, kind):
    """Random matrix plus a parameter placing the full-prox optimum at a
    known rank j; returns (center, p, c, param, j)."""
    center = rng.standard_normal((m, n))
    p = rng.standard_normal((m, n))
    if kind == "spectrahedron":
        center = 0.5 * (center + center.T)
        p = 0.5 * (p + p.T)
    c = 10 ** rng.uniform(-0.5, 0.5)
    M = center - p / c
    if kind == "spectrahedron":
        vals = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))[::-1]
    else:
        vals = np.linalg.svd(M, compute_uv=False)
    j = int(rng.integers(1, 5))
    theta = 0.5 * (vals[j - 1] + vals[j])  # rank-j surviving threshold
    if kind == "nuclear_reg":
        param = theta * c  # nu so that nu/c = theta
    else:
        # radius making the l1/simplex projection of the spectrum equal the
        # soft threshold at theta, hence supported on exactly j values
        param = float(np.maximum(vals[:j] - theta, 0.0).sum())
    return center, p, c, param, j


def _full_prox(kind, center, p, c, param):
    # reference written out with dense decompositions, independent of the
    # components' own exact prox
    M = center - p / c
    if kind == "nuclear_reg":
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        kept = np.maximum(s - param / c, 0.0)
        return (U * kept) @ Vt, param * kept.sum()
    if kind == "nuclear_ball":
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        sig = project_l1_ball(s, param)
        return (U * sig) @ Vt, 0.0
    lam, U = np.linalg.eigh(0.5 * (M + M.T))
    w = project_simplex(lam, param)
    return (U * w) @ U.T, 0.0


def _oracle_output(kind, center, p, c, param, k):
    m, n = center.shape
    if kind == "nuclear_reg":
        comp = NuclearNormReg((m, n), param, k)
    elif kind == "nuclear_ball":
        comp = NuclearBallIndicator((m, n), param, k)
    else:
        comp = SpectrahedronIndicator(m, param, k)
    out = comp.compute(center.ravel(), p.ravel(), c).reshape(m, n)
    return out, 0.0 if comp.is_indicator else comp.value(out)


FRO_TOL = 1e-6  # relative Frobenius gap between the oracle and the prox
PHI_TOL = 1e-8  # excess of Phi_1 at the oracle output over the prox's
LAM_CAP = 10.0  # largest polytope oracle parameter the audit accepts


def matrix_oracle_audit(kind, trials=30, shape=(12, 10), seed=0):
    """Rank-k oracle output vs the full-decomposition prox on instances whose
    prox optimum has known rank <= k, within FRO_TOL and PHI_TOL."""
    rng = np.random.default_rng(seed)
    m, n = shape if kind != "spectrahedron" else (max(shape), max(shape))
    worst_fro, worst_phi = 0.0, -np.inf
    for _ in range(trials):
        center, p, c, param, j = _rank_targeted_instance(rng, m, n, kind)
        full, full_reg = _full_prox(kind, center, p, c, param)
        out, out_reg = _oracle_output(kind, center, p, c, param, j)
        scale = max(1.0, float(np.linalg.norm(full)))
        worst_fro = max(worst_fro, float(np.linalg.norm(out - full)) / scale)
        phi_out = phi_value(out_reg, out.ravel(), p.ravel(), center.ravel(), c)
        phi_full = phi_value(full_reg, full.ravel(), p.ravel(), center.ravel(), c)
        worst_phi = max(worst_phi, phi_out - phi_full)
    passed = worst_fro <= FRO_TOL and worst_phi <= PHI_TOL
    return Certificate(
        f"oracle_vs_prox[{kind}]", passed,
        details=f"worst Frobenius gap {worst_fro:.2e}, worst Phi gap {worst_phi:.2e}",
        data={"worst_fro": worst_fro, "worst_phi": worst_phi, "trials": trials},
    )


def polytope_audit(kind="hypercube", trials=25, seed=0):
    """Oracle condition on an enumerable polytope: Phi_1 at the output must
    not exceed Phi_lam at any vertex for some finite lam <= LAM_CAP; the
    smallest sufficient lam is reported."""
    rng = np.random.default_rng(seed)
    if kind == "hypercube":
        vertices = [np.array(v, dtype=float) for v in product([0.0, 1.0], repeat=3)]
        lmo = hypercube_lmo(0.0, 1.0)
        dim = 3
    elif kind == "simplex":
        vertices = [np.eye(4)[i] for i in range(4)]
        lmo = scaled_simplex_lmo(1.0, 4)
        dim = 4
    else:
        raise ValueError(f"unknown polytope kind {kind!r}")

    lam_measured = 1.0
    for _ in range(trials):
        nsup = int(rng.integers(1, min(3, len(vertices)) + 1))
        idx = rng.choice(len(vertices), size=nsup, replace=False)
        wts = rng.dirichlet(np.ones(nsup))
        support = [vertices[i] for i in idx]
        center = sum(w * v for w, v in zip(wts, support))
        # the declared lam is not read by the oracle; the audit measures it
        comp = PolytopeIndicator(dim, lmo, PolytopeState(support, wts),
                                 lam=LAM_CAP)
        p = rng.standard_normal(dim)
        c = 10 ** rng.uniform(-1.5, 1.5)
        v = comp.compute(center, p, c)
        phi1 = phi_value(0.0, v, p, center, c)
        for u in vertices:
            d2 = float((u - center) @ (u - center))
            lin = float(u @ p)
            if d2 < 1e-14:
                if phi1 > lin + 1e-10:
                    lam_measured = np.inf
            else:
                lam_measured = max(lam_measured, (phi1 - lin) / (0.5 * c * d2))
    passed = lam_measured <= LAM_CAP
    return Certificate(
        f"polytope_wpo[{kind}]", passed,
        details=f"measured lam {lam_measured:.4f} (cap {LAM_CAP})",
        data={"lam_measured": lam_measured, "trials": trials},
    )


def suite_oracles(seed=0):
    return [
        matrix_oracle_audit("nuclear_reg", seed=seed),
        matrix_oracle_audit("nuclear_ball", seed=seed + 1),
        matrix_oracle_audit("spectrahedron", seed=seed + 2),
        polytope_audit("hypercube", seed=seed + 3),
        polytope_audit("simplex", seed=seed + 4),
    ]


# ---------------------------------------------------------------------------
# decay and ergodic suites on the strongly convex toy


def _toy_setup():
    """The box toy solved once for the decay and ergodic suites: its optimal
    value in closed form, h* = (1/2)||x* - a||^2 at x* = y* = clip(a, 0, 1),
    and a 300-step run at theoretical steps, rho = 1 and the largest
    admissible mu, tracing the ergodic mean, with the run's step
    constants."""
    a = np.array([1.5, 0.7])
    spec, q0, w0 = build_box_toy(a)
    consts = step_constants(spec, 1.0)
    h_star = 0.5 * float(np.sum((np.clip(a, 0.0, 1.0) - a) ** 2))
    log = run(spec, q0, w0, SolverConfig(rho=1.0, mu=consts.mu_cap(),
                                         iters=300, trace_mean=True))
    return h_star, log, consts


def suite_decay(toy):
    h_star, log, consts = toy
    return [check_linear_decay([r.al_value for r in log.records], h_star,
                               consts.eta(log.config.mu))]


def suite_ergodic(toy):
    h_star, log, consts = toy
    rho = log.config.rho
    # c >= 2||w*|| for a multiplier w*: the x-box and the y-box are the same
    # box, so x* minimizes f over it alone and w* = 0 is one
    cdual = 0.1
    d1 = log.records[0].al_value - h_star
    bound = consts.ergodic_bound(cdual, 0.0, d1, log.config.mu)

    worst_h, worst_k = -np.inf, -np.inf
    for rec in log.records:
        # only the final record is audited, of the last and the mean point
        h = float("inf") if rec.objective_flagged else rec.mean_objective
        h_gap = h - h_star
        k_norm = rec.mean_feasibility
        worst_h = max(worst_h, h_gap - bound / rec.t)
        worst_k = max(worst_k, k_norm - 2.0 * bound / (cdual * rec.t))
    # h_gap and k_norm now hold the values at the final ergodic point
    passed = worst_h <= 1e-8 and worst_k <= 1e-8
    ergodic_cert = Certificate(
        "ergodic_rate", passed,
        details=(f"worst objective slack {worst_h:.2e}, worst feasibility "
                 f"slack {worst_k:.2e} over T=1..{rec.t}"),
        data={"bound": bound, "c": cdual, "d1": d1,
              "worst_h_slack": worst_h, "worst_k_slack": worst_k},
    )

    # objective/feasibility split at the final ergodic point, with the
    # antecedent measured from the run itself
    delta = max(h_gap + cdual * k_norm + 0.5 * rho * k_norm**2, 0.0)
    split_cert = check_obj_feas_split(h_gap, cdual, rho, k_norm, delta)
    return [ergodic_cert, split_cert]


def run_suites(name, seed=0):
    """Run one suite or all of them; returns (all_passed, certificates)."""
    if name not in ("oracles", "decay", "ergodic", "all"):
        raise ValueError(f"unknown suite {name!r}; pick from "
                         "['decay', 'ergodic', 'oracles'] or 'all'")
    # the oracle audits are the only suite drawing random instances
    certs = suite_oracles(seed=seed) if name in ("oracles", "all") else []
    if name != "oracles":  # the toy suites share one solve
        toy = _toy_setup()
        if name in ("decay", "all"):
            certs.extend(suite_decay(toy))
        if name in ("ergodic", "all"):
            certs.extend(suite_ergodic(toy))
    return all(c.passed for c in certs), certs
