"""Dense bounded-variable two-phase simplex with duals and Farkas certificates.

Everything is a minimization.  Rows carry a sense (<=, >=, =) and become
slack columns internally, so the working form is  A z = b  with box bounds
on z (either side may be infinite).  Dual multipliers follow the usual
convention for a minimization: >= rows get nonnegative duals, <= rows
nonpositive, = rows free.

Pricing is Dantzig (most violating reduced cost, lowest index on ties) and
falls back to Bland's rule after a long run of non-improving pivots, which
makes termination unconditional.  The basis inverse is kept explicitly and
eta-updated, with periodic refactorization; a final refactorized pass
checks primal/dual feasibility and strong duality and raises rather than
return a silently wrong answer.

Degenerate optima can leave the dual vector non-unique; callers that feed
duals into clustering logic should expect ties to be broken by the fixed
pivot rule, not by any problem-level preference.

Contract: for a given model and BLAS build, the pivot sequence and every
returned number are a pure function of the model -- no state survives a
call.  A change to this kernel that keeps each floating-point expression
feeding a decision or a result therefore reproduces every result bitwise,
and can be checked that way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE = "<="
GE = ">="
EQ = "="

FEAS_TOL = 1e-7       # primal feasibility
OPT_TOL = 1e-9        # reduced-cost optimality
PIVOT_TOL = 1e-10     # smallest pivot magnitude accepted in the ratio test
STALL_LIMIT = 1000    # non-improving pivots before Bland's rule kicks in
REFACTOR_EVERY = 64
RETRY_REFACTOR_EVERY = 8   # one more attempt when the final checks fail

_BASIC, _AT_LB, _AT_UB, _FREE = 0, 1, 2, 3
_SENSES = frozenset((LE, GE, EQ))


class SimplexBreakdown(RuntimeError):
    """Numerical failure the solver refuses to hide."""


@dataclass
class LpModel:
    c: np.ndarray
    A: np.ndarray
    senses: tuple
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @staticmethod
    def make(c, A=None, senses=None, b=None, lb=None, ub=None):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.size
        if A is None or np.size(A) == 0:
            A = np.zeros((0, n))
        A = np.asarray(A, dtype=float).reshape(-1, n)
        m = A.shape[0]
        b = np.zeros(m) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
        senses = (GE,) * m if senses is None else tuple(senses)
        lb = np.zeros(n) if lb is None else np.atleast_1d(np.asarray(lb, dtype=float))
        ub = np.full(n, np.inf) if ub is None else np.atleast_1d(np.asarray(ub, dtype=float))
        model = LpModel(c, A, senses, b, lb.copy(), ub.copy())
        model.check()
        return model

    def check(self):
        m, n = self.A.shape
        if self.c.size != n:
            raise ValueError("objective length does not match column count")
        if self.b.size != m or len(self.senses) != m:
            raise ValueError("rhs/sense length does not match row count")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound length does not match column count")
        if np.any(self.lb > self.ub):
            raise ValueError("lower bound exceeds upper bound")
        if not _SENSES.issuperset(self.senses):
            bad = next(s for s in self.senses if s not in _SENSES)
            raise ValueError(f"unknown row sense {bad!r}")

    def with_bounds(self, lb, ub):
        return LpModel(self.c, self.A, self.senses, self.b,
                       np.asarray(lb, dtype=float), np.asarray(ub, dtype=float))


@dataclass
class LpResult:
    status: str
    objective: float = None
    x: np.ndarray = None
    duals: np.ndarray = None           # one multiplier per input row
    reduced_costs: np.ndarray = None   # structural columns only
    farkas: np.ndarray = None          # row multipliers proving infeasibility


class _Simplex:
    def __init__(self, model, refactor_every=REFACTOR_EVERY):
        model.check()
        self.model = model
        self.refactor_every = refactor_every
        A = np.asarray(model.A, dtype=float)
        m, n = A.shape
        self.m, self.n = m, n
        senses = np.asarray(model.senses, dtype="U2")
        self.Afull = np.hstack([A, np.eye(m)])
        self.lb = np.concatenate(
            [model.lb, np.where(senses == GE, -np.inf, 0.0)])
        self.ub = np.concatenate(
            [model.ub, np.where(senses == LE, np.inf, 0.0)])
        self.b = np.asarray(model.b, dtype=float).copy()
        self.ncols0 = n + m
        lb, ub = self.lb[:n], self.ub[:n]
        fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
        self.status = np.full(n + m, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(fin_lb, _AT_LB,
                                   np.where(fin_ub, _AT_UB, _FREE))
        self.xval = np.zeros(n + m)
        self.xval[:n] = np.where(fin_lb, lb, np.where(fin_ub, ub, 0.0))
        self.xval[n:] = self.b - A @ self.xval[:n]
        self.basis = np.arange(n, n + m)
        self.Binv = np.eye(m)
        self.n_art = 0

    def _refactor(self):
        B = self.Afull[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SimplexBreakdown(f"singular basis: {exc}")
        nonbasic = np.ones(self.Afull.shape[1], dtype=bool)
        nonbasic[self.basis] = False
        rhs = self.b - self.Afull[:, nonbasic] @ self.xval[nonbasic]
        self.xval[self.basis] = self.Binv @ rhs

    def _install_artificials(self):
        """Snap infeasible basic slacks to a bound and cover the residual
        with a unit artificial column; returns True if any were needed."""
        lo, hi = self.lb, self.ub
        xb = self.xval[self.basis]
        bad = np.flatnonzero((xb < lo[self.basis] - FEAS_TOL)
                             | (xb > hi[self.basis] + FEAS_TOL))
        if not bad.size:
            return False
        k = bad.size
        j = self.basis[bad]
        snap = np.where(self.xval[j] < lo[j], lo[j], hi[j])
        rho = self.xval[j] - snap
        self.xval[j] = snap
        self.status[j] = np.where(snap == lo[j], _AT_LB, _AT_UB)
        ext = np.zeros((self.m, k))
        ext[bad, np.arange(k)] = np.where(rho > 0, 1.0, -1.0)
        self.basis[bad] = self.ncols0 + np.arange(k)
        self.Afull = np.hstack([self.Afull, ext])
        self.lb = np.concatenate([self.lb, np.zeros(k)])
        self.ub = np.concatenate([self.ub, np.full(k, np.inf)])
        self.status = np.concatenate(
            [self.status, np.full(k, _BASIC, dtype=np.int8)])
        self.xval = np.concatenate([self.xval, np.abs(rho)])
        self.n_art = k
        self._refactor()
        return True

    def _price_by_status(self):
        """Rebuild the pricing sign from the statuses and bounds: -1 at a
        lower bound, +1 at an upper bound, 0 when basic, free or fixed.
        Free nonbasic columns are priced by |d| and listed apart."""
        st = self.status
        self.sign = np.zeros(st.size)
        self.sign[st == _AT_LB] = -1.0
        self.sign[st == _AT_UB] = 1.0
        self.sign[self.lb == self.ub] = 0.0
        self.free = np.flatnonzero(st == _FREE)

    def _prices(self, cost):
        y = cost[self.basis] @ self.Binv
        d = cost - y @ self.Afull
        d[self.basis] = 0.0
        return y, d

    def _entering(self, d, bland=False):
        """(column to enter or None at optimality, violation vector).
        Dantzig picks the largest violation, lowest index on ties; Bland
        the lowest index over OPT_TOL."""
        viol = self.sign * d
        if self.free.size:
            viol[self.free] = np.abs(d[self.free])
        if not viol.size:
            return None, viol
        j = int(np.argmax(viol))
        if not viol[j] > OPT_TOL:
            return None, viol
        if bland:
            j = int(np.flatnonzero(viol > OPT_TOL)[0])
        return j, viol

    def _set_nonbasic(self, j, status):
        self.status[j] = status
        if self.lb[j] != self.ub[j]:
            self.sign[j] = -1.0 if status == _AT_LB else 1.0

    def _iterate(self, cost, allow_unbounded):
        self._price_by_status()
        bland = False
        stall = 0
        it = 0
        max_iter = max(50000, 500 * self.Afull.shape[1])
        while True:
            it += 1
            if it > max_iter:
                raise SimplexBreakdown("iteration limit exceeded")
            if it % self.refactor_every == 0:
                self._refactor()
            _, d = self._prices(cost)
            j, viol = self._entering(d, bland)
            if j is None:
                return OPTIMAL
            st_j = self.status[j]
            dirn = 1.0 if (st_j == _AT_LB or (st_j == _FREE and d[j] < 0)) else -1.0
            w = self.Binv @ self.Afull[:, j]
            delta = dirn * w          # basic values move as x_B - t * delta
            bi = self.basis
            xb = self.xval[bi]
            bound = np.where(delta > 0.0, self.lb[bi], self.ub[bi])
            ratios = np.full(self.m, np.inf)
            np.divide(xb - bound, delta, out=ratios,
                      where=(np.abs(delta) > PIVOT_TOL) & np.isfinite(bound))
            np.maximum(ratios, 0.0, out=ratios)   # degeneracy within tolerance
            rmin = float(ratios.min()) if self.m else np.inf
            tflip = self.ub[j] - self.lb[j]
            if not np.isfinite(rmin) and not np.isfinite(tflip):
                if allow_unbounded:
                    return UNBOUNDED
                raise SimplexBreakdown("phase-1 objective unbounded")
            if tflip <= rmin:
                # entering variable runs bound to bound; basis unchanged
                t = float(tflip)
                self.xval[bi] = xb - t * delta
                if st_j == _AT_LB:
                    self.xval[j] = self.ub[j]
                    self._set_nonbasic(j, _AT_UB)
                else:
                    self.xval[j] = self.lb[j]
                    self._set_nonbasic(j, _AT_LB)
            else:
                t = rmin
                cand = np.flatnonzero(ratios <= rmin + 1e-12 + 1e-9 * abs(rmin))
                r = int(cand[np.argmin(bi[cand])])   # lowest variable index
                leave = int(bi[r])
                self.xval[bi] = xb - t * delta
                if delta[r] > 0:
                    self.xval[leave] = self.lb[leave]
                    self._set_nonbasic(leave, _AT_LB)
                else:
                    self.xval[leave] = self.ub[leave]
                    self._set_nonbasic(leave, _AT_UB)
                self.xval[j] = self.xval[j] + dirn * t
                self.status[j] = _BASIC
                self.sign[j] = 0.0
                if st_j == _FREE:
                    self.free = self.free[self.free != j]
                self.basis[r] = j
                row = self.Binv[r, :] / w[r]
                self.Binv -= w[:, None] * row
                self.Binv[r, :] = row
            gain = float(viol[j]) * t
            if gain == 0.0 or gain <= 1e-12 * (1.0 + abs(float(
                    cost[self.basis] @ self.xval[self.basis]))):
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0

    def _dual_objective(self, y, d):
        nonbasic = np.ones(self.Afull.shape[1], dtype=bool)
        nonbasic[self.basis] = False
        contrib = float(d[nonbasic] @ self.xval[nonbasic])
        return float(y @ self.b) + contrib

    def _verify(self, cost, y, d):
        scale_b = 1.0 + float(np.abs(self.b).max(initial=0.0))
        resid = self.Afull @ self.xval - self.b
        if resid.size and float(np.abs(resid).max()) > FEAS_TOL * scale_b:
            raise SimplexBreakdown("primal residual out of tolerance")
        lo_gap = self.lb - self.xval
        hi_gap = self.xval - self.ub
        worst = 0.0
        for g in (lo_gap, hi_gap):
            finite = g[np.isfinite(g)]
            if finite.size:
                worst = max(worst, float(finite.max()))
        if worst > FEAS_TOL * (1.0 + float(np.abs(self.xval).max(initial=0.0))):
            raise SimplexBreakdown("bound violation out of tolerance")
        scale_c = 1.0 + float(np.abs(cost).max(initial=0.0))
        fixed = self.lb == self.ub
        st = self.status
        bad = ((st == _AT_LB) & ~fixed & (d < -1e2 * OPT_TOL * scale_c)) | \
              ((st == _AT_UB) & ~fixed & (d > 1e2 * OPT_TOL * scale_c)) | \
              ((st == _FREE) & (np.abs(d) > 1e2 * OPT_TOL * scale_c))
        if bad.any():
            raise SimplexBreakdown("dual feasibility out of tolerance")
        pobj = float(cost @ self.xval)
        gap = abs(pobj - self._dual_objective(y, d))
        if gap > FEAS_TOL * (1.0 + abs(pobj)):
            raise SimplexBreakdown("strong duality gap out of tolerance")

    def solve(self):
        m, n = self.m, self.n
        if self._install_artificials():
            cost1 = np.zeros(self.Afull.shape[1])
            cost1[self.ncols0:] = 1.0
            self._iterate(cost1, allow_unbounded=False)
            self._refactor()
            infeas = float(cost1 @ self.xval)
            if infeas > FEAS_TOL * (1.0 + float(np.abs(self.b).max(initial=0.0))):
                y1, _ = self._prices(cost1)
                return LpResult(INFEASIBLE, farkas=np.asarray(y1, dtype=float).copy())
            # feasible: pin artificials at zero and forget their cost
            self.lb[self.ncols0:] = 0.0
            self.ub[self.ncols0:] = 0.0
        cost = np.zeros(self.Afull.shape[1])
        cost[:n] = self.model.c
        for _ in range(4):
            status = self._iterate(cost, allow_unbounded=True)
            if status == UNBOUNDED:
                return LpResult(UNBOUNDED)
            self._refactor()
            _, d = self._prices(cost)
            if self._entering(d)[0] is None:
                break
        else:
            raise SimplexBreakdown("could not hold an optimal basis")
        y, d = self._prices(cost)
        self._verify(cost, y, d)
        x = self.xval[:n].copy()
        return LpResult(OPTIMAL,
                        objective=float(self.model.c @ x),
                        x=x,
                        duals=np.asarray(y, dtype=float).copy(),
                        reduced_costs=np.asarray(d[:n], dtype=float).copy())


def solve_lp(model):
    """Solve a minimization LP; deterministic for a fixed input.

    When the final checks fail, the eta updates have usually drifted on an
    ill-conditioned basis; the LP is solved once more from scratch with a
    refactorization every RETRY_REFACTOR_EVERY pivots before the failure is
    raised.  An LP that passes the first time never reaches the retry."""
    try:
        return _Simplex(model).solve()
    except SimplexBreakdown:
        return _Simplex(model, RETRY_REFACTOR_EVERY).solve()
