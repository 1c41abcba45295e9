"""Lagrangian cut separation via a cutting-plane game on the multiplier box.

For a target cluster P (a scenario s is the singleton cluster (s,)) with
its aggregated system  T_P x + W y >= h_P  and
K = {x in X, A x = b, y >= 0, T_P x + W y >= h_P}, the inner problem

    Qbar(pi, pi0) = min { pi.x + pi0 * d.y : (x, y) in K }

is an exact MIP.  Separation maximizes  Qbar(pi, pi0) - pi.x_hat - pi0 *
theta_hat  over the box ||pi||_inf <= box, 0 <= pi0 <= 1: an outer LP keeps
a pool of inner minimizers and proposes multipliers, the inner MIP certifies
them.  Every certified value is a true lower bound on the separation
optimum, so the returned cut is valid regardless of how early the loop
stops.  The cut's theta_P = sum_s w_s theta_s takes the weights w of the
cluster's record (partition.aggregate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .lp import LpModel, solve_lp, LE, OPTIMAL as LP_OPTIMAL
from .mip import solve_mip, MIP_OPTIMAL, MIP_INFEASIBLE
from .model import Cut, stacked_model, KIND_LAGRANGIAN, KIND_PBLAGC
from .partition import AggregatedScenario, aggregate

SEP_GAP_TOL = 1e-6         # outer-minus-certified convergence tolerance
SEP_VIOLATION_TOL = 1e-6   # certified violation needed to emit a cut

VIOLATED = "violated_cut_found"
NO_VIOLATED = "no_violated_cut"
BUDGET = "budget_exceeded"


@dataclass(frozen=True, eq=False)
class SeparationTarget(AggregatedScenario):
    """What the multiplier prices: a cluster's aggregate, and the label of
    the cuts it yields (lagrangian | pblagc).  It owns what its separations
    learn about its K: `solved`, every completed inner solve by (pi bytes,
    pi0), and `starts`, its node LPs' phase-1 cache (see solve_mip).  Both
    live and die with the target, so a refined cluster starts afresh."""

    cut_kind: str
    solved: dict = field(default_factory=dict, repr=False)
    starts: dict = field(default_factory=dict, repr=False)


def scenario_target(instance, s):
    return cluster_target(instance, (s,), KIND_LAGRANGIAN)


def cluster_target(instance, cluster, cut_kind=KIND_PBLAGC):
    return SeparationTarget(**vars(aggregate(instance, cluster)),
                            cut_kind=cut_kind)


@dataclass
class SeparationOutcome:
    status: str
    pi: np.ndarray = None
    pi0: float = None
    violation: float = None   # certified separation value at (pi, pi0)
    cut: Cut = None
    inner_calls: int = 0


def inner_model(instance, target, pi, pi0):
    """The MIP behind Qbar: variables x then y, K's constraints verbatim."""
    return stacked_model(instance, pi, [(pi0, target.technology, target.rhs)])


def evaluate_inner(instance, target, pi, pi0, deadline=None):
    """Exact Qbar(pi, pi0) with a minimizer (x, y); None value on deadline.
    The inner MIPs of a target differ only in their objective, so its K
    keeps meeting the same node regions: they share `target.starts`."""
    res = solve_mip(inner_model(instance, target, pi, pi0), deadline=deadline,
                    starts=target.starts)
    if res.status == MIP_INFEASIBLE:
        raise ValueError(f"target {target.cluster}: K is empty")
    if res.status != MIP_OPTIMAL:
        return None, None, None
    n1 = instance.n1
    return float(res.objective), res.x[:n1].copy(), res.x[n1:].copy()


def _outer_lp(n1, pool, xhat, theta_hat, box):
    # variables: pi (n1, in [-box, box]), pi0 in [0, 1], eta free; max eta
    nvar = n1 + 2
    c = np.zeros(nvar)
    c[n1 + 1] = -1.0
    rows = np.zeros((len(pool), nvar))
    rhs = np.zeros(len(pool))
    for i, (xj, dyj) in enumerate(pool):
        rows[i, :n1] = -(xj - xhat)
        rows[i, n1] = -(dyj - theta_hat)
        rows[i, n1 + 1] = 1.0
    lb = np.concatenate([np.full(n1, -float(box)), [0.0, -np.inf]])
    ub = np.concatenate([np.full(n1, float(box)), [1.0, np.inf]])
    return LpModel.make(c, rows, (LE,) * len(pool), rhs, lb, ub)


def make_lagrangian_cut(instance, target, pi, pi0, inner_value):
    """pi.x + pi0 * theta_target >= Qbar(pi, pi0), with theta_target spelled
    out over the per-scenario block via the target's theta weights."""
    return Cut(target.cut_kind, np.asarray(pi, dtype=float),
               float(pi0) * target.theta_weights, float(inner_value),
               origin=target.cluster)


def separate(instance, target, xhat, theta_hat, budget=50, box=1.0,
             deadline=None):
    """Search the multiplier box for a cut violated at (x_hat, theta_hat).

    theta_hat is the scalar value of the target's (possibly aggregated)
    epigraph variable at the master solution.  At most `budget` inner MIPs
    are spent; the pool is seeded at (pi, pi0) = (0, 1), whose certificate
    is exactly the Benders-closure gap of the target.

    An inner solve the target already holds (`target.solved`) is reused,
    not solved again.  A reuse still counts against the budget, so the
    search takes the same steps with or without it.
    """
    n1 = instance.n1
    d = instance.second_stage_cost
    xhat = np.asarray(xhat, dtype=float)
    theta_hat = float(theta_hat)

    calls = 0
    pool = []
    best = None   # (L, pi, pi0, Qbar)

    def certify(pi, pi0):
        nonlocal calls, best
        key = (pi.tobytes(), pi0)
        if key in target.solved:
            val, x, y = target.solved[key]
        else:
            val, x, y = evaluate_inner(instance, target, pi, pi0, deadline)
            if val is not None:   # never one cut short by the deadline
                target.solved[key] = (val, x, y)
        calls += 1
        if val is None:
            return False
        pool.append((x, float(d @ y)))
        level = val - float(pi @ xhat) - pi0 * theta_hat
        if best is None or level > best[0]:
            best = (level, np.asarray(pi, dtype=float).copy(), pi0, val)
        return True

    converged = False
    if certify(np.zeros(n1), 1.0):
        while calls < budget:
            if deadline is not None and time.monotonic() > deadline:
                break
            outer = solve_lp(_outer_lp(n1, pool, xhat, theta_hat, box))
            if outer.status != LP_OPTIMAL:
                raise RuntimeError("separation outer LP must be solvable")
            eta = -outer.objective
            if eta - best[0] <= SEP_GAP_TOL * (1.0 + abs(best[0])):
                converged = True
                break
            pi = outer.x[:n1]
            pi0 = float(np.clip(outer.x[n1], 0.0, 1.0))
            if not certify(pi, pi0):
                break

    if best is not None and best[0] > SEP_VIOLATION_TOL * (1.0 + abs(theta_hat)):
        level, pi, pi0, qbar = best
        cut = make_lagrangian_cut(instance, target, pi, pi0, qbar)
        return SeparationOutcome(VIOLATED, pi, pi0, level, cut, calls)
    if converged:
        return SeparationOutcome(NO_VIOLATED, best[1], best[2], best[0],
                                 None, calls)
    level, pi, pi0, _ = best or (None, None, None, None)
    return SeparationOutcome(BUDGET, pi, pi0, level, None, calls)
