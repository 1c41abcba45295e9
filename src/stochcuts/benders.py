"""Benders machinery: recourse subproblems, optimality/feasibility cuts,
their partition-aggregated counterparts, and the shared master problem.

The master keeps one epigraph variable theta_s per scenario no matter which
partition is active; aggregated cuts are stored against the probability
weights of their cluster, so they stay valid verbatim after refinements.
"""

from __future__ import annotations

import numpy as np

from .lp import (DualStart, LpModel, solve_lp, solve_lps, EQ, GE,
                 INFEASIBLE as LP_INFEASIBLE, UNBOUNDED as LP_UNBOUNDED)
from .mip import MipModel, solve_mip, MIP_OPTIMAL, MIP_BUDGET
from .model import (Cut, InfeasibleError, UnboundedError, stacked_model,
                    unbounded_error, KIND_BENDERS, KIND_PBBENC,
                    KIND_FEASIBILITY)
from .partition import aggregate

CUT_VIOLATION_TOL = 1e-6   # relative slack below which a cut counts as violated
DEDUP_TOL = 1e-9           # coefficientwise match after max-abs normalization


class MasterInfeasibleError(InfeasibleError, RuntimeError):
    """The cut pool (or the first-stage system itself) admits no x."""


def _solve_recourse(instance, targets, systems, xhat, bases=None):
    """The LpResult of each target's recourse LP on its system's technology
    and rhs: fixed recourse makes every subproblem one LP, (W, d), at the
    rhs h - T xhat of its system, so one solve_lps call takes that LP and
    each system's rhs, and any basis one of them ended at is a warm start
    for every other (`bases`, one lp.Basis or None per target; see
    lp.solve_lps).  An infeasible one carries its Farkas ray."""
    recourse = LpModel.make(instance.second_stage_cost, instance.recourse,
                            (GE,) * instance.m2)
    results = solve_lps(recourse, [system.rhs - system.technology @ xhat
                                   for system in systems], bases)
    for target, res in zip(targets, results):
        if res.status == LP_UNBOUNDED:
            raise UnboundedError(f"target {target}: recourse unbounded below")
    return results


def solve_scenario_subproblem(instance, scenarios, xhat):
    """min d.y  s.t.  W y >= h_s - T_s x_hat,  y >= 0, on each listed
    scenario's own T_s and h_s; one LpResult per scenario."""
    return _solve_recourse(instance, [(s,) for s in scenarios],
                           [instance.scenarios[s] for s in scenarios], xhat)


def solve_cluster_subproblem(instance, records, xhat, bases=None):
    """Same LP on each cluster's probability-averaged technology and rhs,
    warm from bases[i] where given; one LpResult per record."""
    return _solve_recourse(instance, [a.cluster for a in records], records,
                           xhat, bases)


def make_benders_cut(instance, s, result):
    """theta_s >= dual.(h_s - T_s x): the singleton cluster's cut."""
    return make_pbbenc(instance, aggregate(instance, (s,)), result,
                       KIND_BENDERS)


def make_pbbenc(instance, agg, result, kind=KIND_PBBENC):
    """Aggregated Benders cut theta_P >= dual.(h_P - T_P x) over
    theta_P = sum of weighted theta_s, rearranged onto the master's left
    side; `kind` labels it."""
    lam = result.duals
    return Cut(kind, agg.technology.T @ lam, agg.theta_weights,
               float(lam @ agg.rhs), origin=agg.cluster, gen_dual=lam)


def make_feasibility_cut(instance, agg, result):
    """From a Farkas ray sigma >= 0 with sigma.W <= 0 of the cluster's
    recourse LP: sigma.(h_P - T_P x) <= 0."""
    ray = result.farkas
    return Cut(KIND_FEASIBILITY, agg.technology.T @ ray,
               np.zeros(instance.n_scenarios), float(ray @ agg.rhs),
               origin=agg.cluster, gen_dual=ray)


def compute_theta_lower_bounds(instance):
    """L_s = min d.y over W y >= h_s - T_s x with x anywhere in its relaxed
    box; keeps the master bounded before any cut mentions theta_s.  The
    scenarios that share a T_s (every scenario, in every sslp instance)
    share their LP up to the rhs [b; h_s], so one solve_lps call per
    distinct T_s takes the group's first LP at each member's rhs."""
    scenarios = instance.scenarios
    groups = {}
    for s, sc in enumerate(scenarios):
        groups.setdefault(sc.technology.tobytes(), []).append(s)
    b = instance.first_stage_rhs
    results = {}
    for members in groups.values():
        first = scenarios[members[0]]
        lp = stacked_model(instance, np.zeros(instance.n1),
                           [(1.0, first.technology, first.rhs)]).lp
        rhs = [np.concatenate([b, scenarios[s].rhs]) for s in members]
        results.update(zip(members, solve_lps(lp, rhs)))
    out = np.zeros(instance.n_scenarios)
    for s, res in sorted(results.items()):
        if res.status == LP_INFEASIBLE:
            raise InfeasibleError(
                f"scenario {s}: infeasible for every first stage")
        if res.status == LP_UNBOUNDED:
            raise UnboundedError(
                f"scenario {s}: recourse value unbounded below")
        out[s] = res.objective
    return out


class MasterState:
    """Instance + cut pool + the best lower bound produced so far, and the
    master kept as the pool grows: its rows and rhs, and the sum of each
    cut's normalized row (row and rhs over their max |.|), live in buffers
    that double when full; the normalized rows themselves are derived
    where add_cut compares them, not stored, and dual_start holds the last
    optimal basis of the master's dual (lp.DualStart).

    `warm`, set once per run, is True for the loops without Lagrangian
    rounds (benders, alg1), whose bounds are optima that do not depend on
    which optimal vertex or dual an LP ends at: each relaxed master with
    more rows than columns goes through its dual, warm from dual_start,
    whatever its row count, and each recourse LP of a Benders round starts
    from its target's last basis (drivers._benders_round).  Without it,
    masters keep lp.DUAL_MIN and recourse LPs solve cold, which keeps the
    bits of the Lagrangian loops' bounds."""

    def __init__(self, instance, warm=False):
        self.instance = instance
        self.cuts = []
        m1, n1 = instance.m1, instance.n1
        width = n1 + instance.n_scenarios
        # rows [:m1 + len(cuts)] are the master's; a model built on them
        # sees no later write, which lands past its rows or in a new buffer
        self._rows = np.zeros((m1 + 64, width))
        self._rhs = np.zeros(m1 + 64)
        self._rows[:m1, :n1] = instance.first_stage_matrix
        self._rhs[:m1] = instance.first_stage_rhs
        self._sums = np.zeros(64)
        self.theta_lb = compute_theta_lower_bounds(instance)
        self.z_lb = -np.inf
        self.dual_start = DualStart()
        self.warm = warm

    def add_cut(self, cut):
        """Append unless a pool cut matches coefficientwise after max-abs
        normalization; returns True if the pool grew.  A match is within
        DEDUP_TOL of the cut in each of the w normalized coordinates, which
        lie in [-1, 1], so its sum is within w * DEDUP_TOL of the cut's,
        up to rounding under w * w * 2**-52: only the pool rows whose sum is
        within twice that are normalized and compared, which gives the same
        answer.  A row with a NaN coordinate, whose sum is NaN, matches no
        row and no row matches it: a NaN sum falls in no window."""
        stacked = np.concatenate([cut.x_coeffs, cut.theta_coeffs, [cut.rhs]])
        scale = float(np.abs(stacked).max(initial=0.0))
        if scale <= 0.0:
            return False
        row = stacked / scale
        key, reach = float(row.sum()), 2.0 * row.size * DEDUP_TOL
        k, r = len(self.cuts), self.instance.m1 + len(self.cuts)
        rows = self.instance.m1 + np.flatnonzero(
            (self._sums[:k] >= key - reach) & (self._sums[:k] < key + reach))
        near = np.column_stack([self._rows[rows], self._rhs[rows]])
        near /= np.abs(near).max(axis=1, keepdims=True)
        if (np.abs(near - row).max(axis=1) <= DEDUP_TOL).any():
            return False
        self._sums = _room(self._sums, k)
        self._rows, self._rhs = _room(self._rows, r), _room(self._rhs, r)
        self._sums[k], self._rhs[r] = key, stacked[-1]
        self._rows[r] = stacked[:-1]
        self.cuts.append(cut)
        return True

    def cut_counts(self):
        out = {}
        for c in self.cuts:
            out[c.kind] = out.get(c.kind, 0) + 1
        return out


def _room(buffer, used):
    """`buffer`, or a copy twice as long when row `used` does not fit."""
    if used < len(buffer):
        return buffer
    grown = np.zeros((2 * len(buffer),) + buffer.shape[1:])
    grown[:used] = buffer[:used]
    return grown


def build_master_model(state, relax_integrality=True):
    """The LP (or, unrelaxed, MIP) master on a leading slice of the
    state's row buffers."""
    instance = state.instance
    n1, ns = instance.n1, instance.n_scenarios
    nvar = n1 + ns
    m = instance.m1 + len(state.cuts)
    c = np.concatenate([instance.first_stage_cost, instance.probabilities])
    senses = (EQ,) * instance.m1 + (GE,) * len(state.cuts)
    xlb, xub = instance.x_bounds()
    lb = np.concatenate([xlb, state.theta_lb])
    ub = np.full(nvar, np.inf)
    ub[:n1] = xub
    lp = LpModel.make(c, state._rows[:m], senses, state._rhs[:m], lb, ub)
    if relax_integrality:
        return lp
    integer = np.zeros(nvar, dtype=bool)
    integer[:n1] = instance.integer_mask
    return MipModel(lp, integer)


def solve_master(state, relax_integrality=True, deadline=None):
    """Solve the current master; returns (x, theta, objective), or None
    when the integer master reaches `deadline` before its optimum.

    With integrality relaxed the optimum is a valid global lower bound and
    is folded into state.z_lb (monotone under a growing pool).  An
    unbounded relaxed master raises UnboundedError: the theta bounds leave
    it unbounded only along a first-stage column with no finite u.
    """
    model = build_master_model(state, relax_integrality)
    if relax_integrality:
        res = solve_lp(model, dual_start=state.dual_start,
                       dual_min=0 if state.warm else None)
        if res.status == LP_INFEASIBLE:
            raise MasterInfeasibleError("master problem infeasible")
        if res.status == LP_UNBOUNDED:
            raise unbounded_error(state.instance, "master problem")
        obj = res.objective
        if obj < state.z_lb - 1e-6 * (1.0 + abs(obj)):
            raise RuntimeError("master lower bound regressed beyond tolerance")
        state.z_lb = max(state.z_lb, float(obj))
    else:
        res = solve_mip(model, deadline=deadline)
        if res.status == MIP_BUDGET:
            return None
        if res.status != MIP_OPTIMAL:
            raise MasterInfeasibleError(f"integer master ended {res.status}")
    n1 = state.instance.n1
    return res.x[:n1].copy(), res.x[n1:].copy(), float(res.objective)
