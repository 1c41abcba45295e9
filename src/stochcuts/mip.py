"""Best-bound branch and bound over the dense simplex, plus a brute-force
binary enumerator that the tests use as an independent oracle."""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .lp import (LpModel, solve_lp, OPTIMAL as LP_OPTIMAL,
                 INFEASIBLE as LP_INFEASIBLE, UNBOUNDED as LP_UNBOUNDED)

INT_TOL = 1e-6    # a value this close to an integer counts as integral
GAP_TOL = 1e-9    # relative optimality gap at which search stops

MIP_OPTIMAL = "optimal"
MIP_INFEASIBLE = "infeasible"
MIP_BUDGET = "budget_exceeded"


class MipError(RuntimeError):
    """Relaxation unbounded or another condition branch and bound cannot fix."""


@dataclass
class MipModel:
    lp: LpModel
    integer: np.ndarray   # bool per column

    def __post_init__(self):
        self.integer = np.asarray(self.integer, dtype=bool)
        if self.integer.size != self.lp.c.size:
            raise ValueError("integrality mask length mismatch")
        marked = np.flatnonzero(self.integer)
        if marked.size and not (np.isfinite(self.lp.lb[marked]).all()
                                and np.isfinite(self.lp.ub[marked]).all()):
            raise ValueError("integer variables need finite bounds")


@dataclass
class MipResult:
    status: str
    objective: float = None
    x: np.ndarray = None
    bound: float = None     # proven lower bound on the optimum
    nodes: int = 0


def _is_integral(x, marked):
    if marked.size == 0:
        return True
    frac = np.abs(x[marked] - np.round(x[marked]))
    return bool(frac.max(initial=0.0) <= INT_TOL)


def _snap(x, marked):
    out = x.copy()
    out[marked] = np.round(out[marked])
    return out


def solve_mip(model, deadline=None, starts=None):
    """Best-first branch and bound; most-fractional branching, lowest index
    on ties, down-child explored first.  Deterministic for a fixed input.

    `starts` is passed to every node LP's solve_lp: MIPs over one feasible
    region, such as a target's inner MIPs, keep meeting the same node
    regions, and a cache of their phase-1 end states solves each region's
    phase 1 once, with bitwise the same results."""
    lp0 = model.lp
    marked = np.flatnonzero(model.integer)
    root = solve_lp(lp0, starts)
    nodes = 1
    if root.status == LP_INFEASIBLE:
        return MipResult(MIP_INFEASIBLE, nodes=nodes)
    if root.status == LP_UNBOUNDED:
        raise MipError("relaxation is unbounded")
    incumbent = None
    inc_obj = np.inf

    def gap_ok(bound):
        return bound >= inc_obj - GAP_TOL * (1.0 + abs(inc_obj))

    heap = []
    counter = itertools.count()
    heapq.heappush(heap, (root.objective, next(counter), lp0.lb, lp0.ub, root.x))
    while heap:
        if deadline is not None and time.monotonic() > deadline:
            open_bound = heap[0][0]
            bound = min(open_bound, inc_obj)
            return MipResult(MIP_BUDGET, objective=None if incumbent is None else inc_obj,
                             x=incumbent, bound=float(bound), nodes=nodes)
        bound, _, lb, ub, x = heapq.heappop(heap)
        if incumbent is not None and gap_ok(bound):
            break
        if _is_integral(x, marked):
            if bound < inc_obj:
                incumbent = _snap(x, marked)
                inc_obj = bound
            continue
        frac = x[marked] - np.floor(x[marked])
        score = np.minimum(frac, 1.0 - frac)
        score[score <= INT_TOL] = -1.0
        j = int(marked[np.argmax(score)])
        v = x[j]
        for child_lb, child_ub in (
                (lb, _with(ub, j, np.floor(v))),        # down branch first
                (_with(lb, j, np.ceil(v)), ub)):
            if child_lb[j] > child_ub[j]:
                continue
            res = solve_lp(lp0.with_bounds(child_lb, child_ub), starts)
            nodes += 1
            if res.status == LP_INFEASIBLE:
                continue
            if res.status == LP_UNBOUNDED:
                raise MipError("relaxation is unbounded")
            if incumbent is not None and gap_ok(res.objective):
                continue
            heapq.heappush(heap, (res.objective, next(counter),
                                  child_lb, child_ub, res.x))
    if incumbent is None:
        return MipResult(MIP_INFEASIBLE, nodes=nodes)
    return MipResult(MIP_OPTIMAL, objective=float(inc_obj), x=incumbent,
                     bound=float(inc_obj), nodes=nodes)


def _with(arr, j, val):
    out = arr.copy()
    out[j] = val
    return out


def enumerate_binary(model, cap=4096):
    """Solve the continuous LP for every assignment of the binary variables.

    All integer-marked variables must be binary.  Returns [(x, objective)]
    sorted by objective (ties keep lexicographic assignment order, zeros
    first); infeasible assignments are skipped.  This is the oracle layer:
    no branching, no pruning, no shortcuts.
    """
    marked = np.flatnonzero(model.integer)
    lp0 = model.lp
    if marked.size:
        if (np.abs(lp0.lb[marked]).max() > 0.0
                or np.abs(lp0.ub[marked] - 1.0).max() > 0.0):
            raise ValueError("enumerate_binary needs all integer variables binary")
    if 2 ** marked.size > cap:
        raise ValueError(f"enumeration of 2^{marked.size} assignments "
                         f"exceeds cap {cap}")
    out = []
    for bits in itertools.product((0.0, 1.0), repeat=marked.size):
        lb = lp0.lb.copy()
        ub = lp0.ub.copy()
        lb[marked] = bits
        ub[marked] = bits
        res = solve_lp(lp0.with_bounds(lb, ub))
        if res.status == LP_UNBOUNDED:
            raise MipError("relaxation is unbounded")
        if res.status == LP_OPTIMAL:
            out.append((res.x, float(res.objective)))
    out.sort(key=lambda t: t[1])
    return out
