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
returned number are a pure function of the model.  No state survives a
call, except through a cache the caller owns and passes in, and only where
its use is bitwise neutral.  A change to this kernel that keeps each
floating-point expression feeding a decision or a result therefore
reproduces every result bitwise, and can be checked that way.

Start cache.  Phase 1 reads A, the senses, b and the bounds, never the
objective, so its end state is a function of the feasible region.
solve_lp(model, starts) keeps in `starts`, a dict the caller owns, one
entry per A, by its shape and bytes: the [A | I] its LPs share, and its
regions, by the senses and the bytes of b, lb and ub.  A hit returns the
stored INFEASIBLE result, or runs phase 2 from a copy of the stored
basis, statuses, values and refactorized inverse, artificials pinned; a
miss runs phase 1 and stores its end.  A breakdown anywhere falls back to
the from-scratch retry, and a phase 1 that breaks down stores no region.
Branch and bound passes one cache to all its node LPs, and a Lagrangian
separation target passes one to all its inner MIPs, which differ only in
their objective: in an apblagc run on sslp-6-8-8 at budget 6, 298 of 567
node LPs repeat a region.

The contract extends to stacks.  solve_lps solves LPs that share a row
count -- a round of recourse subproblems under fixed recourse -- in
lockstep: each takes exactly the pivots solve_lp would take, and each
result is bitwise solve_lp's, by the unit-column argument below (_Stack).
Lockstep saves numpy call overhead, not flops, so it pays only for
batches of STACK_MIN or more LPs of three rows or more; other batches go
one LP at a time.  STACK_MIN is measured:
on the 340 recourse LPs of a benders solve of sslp-10-10-20 (20 rows,
one BLAS thread) the stack took 2.93, 1.89, 1.20, 0.86 and 0.60 times the
one-at-a-time CPU time at batch sizes 1, 2, 4, 8 and 20.

Unit columns.  Every slack and artificial column is a signed unit vector,
and Binv's column for a row covered by its own basic slack or artificial
stays a unit vector; with at most n structural columns basic, a row of
Binv has at most n + 1 nonzeros.  From UNIT_MIN rows on, _iterate stops
doing dense arithmetic on these columns: it prices the structural block
with one gemv, padded to a multiple of four columns, and each unit column
as cost - sign * y[row] (pinned artificials, sign 0, not at all); it
solves an entering unit column as sign * Binv[:, row] + 0.0; and it
applies the rank-1 update only to the columns where the pivot row is
nonzero.  Every LP also starts from the exact inverse of its diagonal +-1
starting basis.  Each number that reaches a decision or a result is still
the dense path's, by two properties of the BLAS that tests/test_lp.py
checks:
  - a (1, m) @ (m, c) product computes its columns in blocks of four and
    a column's bits depend only on whether a block or the tail loop over
    the last c % 4 computed it.  With three rows or more, every structural
    column is in the body of any product n + 3 or more columns wide, as
    the full one and a stack's are, and of the padded structural one;
  - an output whose only nonzero term is t comes out as t exactly, and an
    all-zero sum as +0.0.  So a unit column's product is sign * y[row] or
    sign * Binv[i, row], and the + 0.0 gives the product's +0.0 for a
    zero; and the zeros whose sign the restricted update leaves different
    from the dense one never change a product.
UNIT_MIN is measured: CPU time of the unit path over the dense one on
benders masters of sslp-10-10-20 (30 structural columns) cut to their
first k rows, one BLAS thread, median of 9 alternating solves:

    rows   40    60    80    96    104   112   120   144   160   182
    ratio  1.23  1.12  1.08  1.03  0.97  0.94  0.92  0.87  0.83  0.70
"""

from __future__ import annotations

import copy
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
STACK_MIN = 8              # smaller solve_lps batches go one LP at a time
UNIT_MIN = 112             # rows from which _iterate prices unit columns
                           # apart; 3 or more (see the module docstring)

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
        for name, values in (("objective", self.c), ("matrix", self.A),
                             ("rhs", self.b)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a non-finite entry")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("a bound is NaN")
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
    def __init__(self, model, refactor_every=REFACTOR_EVERY, afull=None):
        """afull: the working matrix [A | I], when the caller already has
        it for an LP on A; never written to.  The caller checks the model."""
        self.model = model
        self.refactor_every = refactor_every
        A = np.asarray(model.A, dtype=float)
        m, n = A.shape
        self.m, self.n = m, n
        senses = np.asarray(model.senses, dtype="U2")
        self.Afull = np.hstack([A, np.eye(m)]) if afull is None else afull
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
        self.art_rows = np.zeros(0, dtype=np.intp)   # row of artificial k
        self.art_sign = np.zeros(0)                  # and its +-1 there
        self.astruct = None     # A padded to a multiple of four columns

    def _refactor(self):
        B = self.Afull[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SimplexBreakdown(f"singular basis: {exc}")
        self._basic_values()

    def _basic_values(self):
        """Solve the basic values from Binv and the nonbasic ones."""
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
        self.art_rows, self.art_sign = bad, np.where(rho > 0, 1.0, -1.0)
        ext = np.zeros((self.m, k))
        ext[bad, np.arange(k)] = self.art_sign
        self.basis[bad] = self.ncols0 + np.arange(k)
        self.Afull = np.hstack([self.Afull, ext])
        self.lb = np.concatenate([self.lb, np.zeros(k)])
        self.ub = np.concatenate([self.ub, np.full(k, np.inf)])
        self.status = np.concatenate(
            [self.status, np.full(k, _BASIC, dtype=np.int8)])
        self.xval = np.concatenate([self.xval, np.abs(rho)])
        self.n_art = k
        # basis slot i holds row i's slack or artificial: B is diagonal +-1
        # and is its own inverse
        self.Binv = np.diag(self.Afull[np.arange(self.m), self.basis])
        self._basic_values()
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
        viol = self.sign[:d.size] * d
        if self.free.size:
            viol[self.free] = np.abs(d[self.free])
        if not viol.size:
            return None, viol
        j = int(viol.argmax())
        if not viol[j] > OPT_TOL:
            return None, viol
        if bland:
            j = int((viol > OPT_TOL).argmax())
        return j, viol

    def _set_nonbasic(self, j, status):
        self.status[j] = status
        if self.lb[j] != self.ub[j]:
            self.sign[j] = -1.0 if status == _AT_LB else 1.0

    def _unit_prices(self, cost, cb, ncols):
        """cost - (cb @ Binv) @ Afull over the first ncols columns, with
        the slack and artificial columns priced as the unit vectors they
        are: one gemv over the structural block, whose padding to a
        multiple of four keeps every structural column in the body of the
        product, as it is in the full one; then cost - sign * y[row].  Each
        number is the full product's (see the module docstring)."""
        n, m = self.n, self.m
        if self.astruct is None:
            self.astruct = np.zeros((m, -(-n // 4) * 4))
            self.astruct[:, :n] = self.Afull[:, :n]
        y = cb @ self.Binv
        d = np.empty(ncols)
        d[:n] = cost[:n] - (y @ self.astruct)[:n]
        d[n:n + m] = cost[n:n + m] - y
        if ncols > self.ncols0:
            d[self.ncols0:] = (cost[self.ncols0:]
                               - self.art_sign * y[self.art_rows])
        return d

    def _unit_column(self, j):
        """Binv @ Afull[:, j] for a slack or artificial column j: the sign
        times Binv's column for its row, plus 0.0, which turns a -0.0 into
        the +0.0 that the product's all-zero sums return."""
        if j < self.ncols0:
            return self.Binv[:, j - self.n] + 0.0
        k = j - self.ncols0
        return self.art_sign[k] * self.Binv[:, self.art_rows[k]] + 0.0

    def _iterate(self, cost, allow_unbounded):
        """Pivot to optimality under `cost`; returns OPTIMAL or UNBOUNDED.
        The basic variables' values, bounds and costs are kept per basis
        slot (xb, lbb, ubb, cb) and written back to xval on return.  From
        UNIT_MIN rows on, the slack and artificial columns are priced,
        solved and updated as unit vectors."""
        self._price_by_status()
        bi, lb, ub, xval = self.basis, self.lb, self.ub, self.xval
        xb, lbb, ubb, cb = xval[bi], lb[bi], ub[bi], cost[bi]
        unit = self.m >= UNIT_MIN
        # the unit path skips pinned artificials (phase 2): sign 0, they
        # never enter
        ncols = (self.ncols0 if (lb[self.ncols0:] == ub[self.ncols0:]).all()
                 else xval.size)
        ratios = np.empty(self.m)
        last = xval.size        # past every column index
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
                xb = xval[bi]
            # d is not zeroed at the basic columns: their sign is 0 and they
            # are never free, so no decision reads it there
            if unit:
                d = self._unit_prices(cost, cb, ncols)
            else:
                d = cost - (cb @ self.Binv) @ self.Afull
            j, viol = self._entering(d, bland)
            if j is None:
                xval[bi] = xb
                return OPTIMAL
            st_j = self.status[j]
            dirn = 1.0 if (st_j == _AT_LB or (st_j == _FREE and d[j] < 0)) else -1.0
            if unit and j >= self.n:
                w = self._unit_column(j)
            else:
                w = self.Binv @ self.Afull[:, j]
            delta = dirn * w          # basic values move as x_B - t * delta
            bound = np.where(delta > 0.0, lbb, ubb)
            ratios.fill(np.inf)
            np.divide(xb - bound, delta, out=ratios,
                      where=(np.abs(delta) > PIVOT_TOL) & np.isfinite(bound))
            np.maximum(ratios, 0.0, out=ratios)   # degeneracy within tolerance
            rmin = float(ratios.min()) if self.m else np.inf
            tflip = ub[j] - lb[j]
            if not np.isfinite(rmin) and not np.isfinite(tflip):
                if allow_unbounded:
                    xval[bi] = xb
                    return UNBOUNDED
                raise SimplexBreakdown("phase-1 objective unbounded")
            if tflip <= rmin:
                # entering variable runs bound to bound; basis unchanged
                t = float(tflip)
                xb -= t * delta
                if st_j == _AT_LB:
                    xval[j] = ub[j]
                    self._set_nonbasic(j, _AT_UB)
                else:
                    xval[j] = lb[j]
                    self._set_nonbasic(j, _AT_LB)
            else:
                t = rmin
                tie = ratios <= rmin + 1e-12 + 1e-9 * abs(rmin)
                r = int(np.where(tie, bi, last).argmin())   # lowest column
                leave = int(bi[r])
                xb -= t * delta
                if delta[r] > 0:
                    xval[leave] = lb[leave]
                    self._set_nonbasic(leave, _AT_LB)
                else:
                    xval[leave] = ub[leave]
                    self._set_nonbasic(leave, _AT_UB)
                xb[r] = xval[j] + dirn * t
                self.status[j] = _BASIC
                self.sign[j] = 0.0
                if st_j == _FREE:
                    self.free = self.free[self.free != j]
                bi[r] = j
                lbb[r], ubb[r], cb[r] = lb[j], ub[j], cost[j]
                row = self.Binv[r, :] / w[r]
                if unit:
                    # a column where row is 0 would only change the sign of
                    # its zeros, which no product reads; the columns are
                    # taken as rows of the transpose, which numpy gathers
                    # faster
                    nz = np.flatnonzero(row)
                    self.Binv.T[nz] -= row[nz, None] * w
                else:
                    self.Binv -= w[:, None] * row
                self.Binv[r, :] = row
            gain = float(viol[j]) * t
            if gain == 0.0 or gain <= 1e-12 * (1.0 + abs(float(cb @ xb))):
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
        """Raise unless the final basis is primal and dual feasible with no
        duality gap.  Every check is written so that NaN fails it."""
        scale_b = 1.0 + float(np.abs(self.b).max(initial=0.0))
        resid = self.Afull @ self.xval - self.b
        if resid.size and not float(np.abs(resid).max()) <= FEAS_TOL * scale_b:
            raise SimplexBreakdown("primal residual out of tolerance")
        gaps = np.concatenate([self.lb - self.xval, self.xval - self.ub])
        worst = float(gaps[gaps != -np.inf].max(initial=0.0))  # -inf: no bound
        scale_x = 1.0 + float(np.abs(self.xval).max(initial=0.0))
        if not worst <= FEAS_TOL * scale_x:
            raise SimplexBreakdown("bound violation out of tolerance")
        scale_c = 1.0 + float(np.abs(cost).max(initial=0.0))
        fixed = self.lb == self.ub
        st = self.status
        bad = ((st == _AT_LB) & ~fixed & (d < -1e2 * OPT_TOL * scale_c)) | \
              ((st == _AT_UB) & ~fixed & (d > 1e2 * OPT_TOL * scale_c)) | \
              ((st == _FREE) & (np.abs(d) > 1e2 * OPT_TOL * scale_c)) | \
              np.isnan(d)
        if bad.any():
            raise SimplexBreakdown("dual feasibility out of tolerance")
        pobj = float(cost @ self.xval)
        gap = abs(pobj - self._dual_objective(y, d))
        if not gap <= FEAS_TOL * (1.0 + abs(pobj)):
            raise SimplexBreakdown("strong duality gap out of tolerance")

    def _phase1(self):
        """Phase 1 as a coroutine (see _phases).  It reads A, the senses,
        b and the bounds, never the objective, and returns the INFEASIBLE
        result, or None with the artificials pinned at zero."""
        if not self._install_artificials():
            return None
        cost1 = np.zeros(self.Afull.shape[1])
        cost1[self.ncols0:] = 1.0
        yield cost1, False
        self._refactor()
        infeas = float(cost1 @ self.xval)
        if infeas > FEAS_TOL * (1.0 + float(np.abs(self.b).max(initial=0.0))):
            y1, _ = self._prices(cost1)
            return LpResult(INFEASIBLE, farkas=np.asarray(y1, dtype=float).copy())
        # feasible: pin artificials at zero and forget their cost
        self.lb[self.ncols0:] = 0.0
        self.ub[self.ncols0:] = 0.0
        return None

    def _phase2(self):
        """Phase 2 as a coroutine (see _phases), from phase 1's basis."""
        n = self.n
        cost = np.zeros(self.Afull.shape[1])
        cost[:n] = self.model.c
        for _ in range(4):
            if (yield cost, True) == UNBOUNDED:
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

    def _phases(self):
        """The two-phase method as a coroutine: it yields (cost,
        allow_unbounded) for each run of pivots, is sent the status that
        run ended with, and returns the LpResult.  solve() runs the pivots
        with _iterate, _Stack in lockstep with other LPs."""
        result = yield from self._phase1()
        if result is None:
            result = yield from self._phase2()
        return result

    def _run(self, phases):
        """Drive a coroutine of runs of pivots with _iterate; its result."""
        try:
            run = next(phases)
            while True:
                run = phases.send(self._iterate(*run))
        except StopIteration as done:
            return done.value

    def solve(self):
        return self._run(self._phases())

    def _restart(self, model):
        """A copy of this LP, phase 1 done, to run phase 2 for `model`, an
        LP with the same feasible region: the arrays phase 2 writes to are
        copied, the working matrix, bounds and rhs shared."""
        twin = copy.copy(self)
        twin.model = model
        for name in ("basis", "status", "xval", "Binv"):
            setattr(twin, name, getattr(self, name).copy())
        return twin


class _Stack:
    """LPs with one row count pivoting in lockstep: at each step every LP
    still running takes the pivot _iterate would take next.  Row k of each
    array is the k-th running LP: basis inverse (K, m, m), per-column state
    (K, C) and per-basis-slot values, bounds and costs (K, m).  Each stacked
    product is one BLAS call per LP of the shape _iterate uses, and every
    other operation is elementwise, so every number that reaches a decision
    or a result is the one _iterate computes.  Refactorizations and the
    work between runs of pivots (_phases) go through the LP's own _Simplex.

    Stack column j is the LP's column j; zeros pad each LP to the widest,
    fixed at zero, priced zero and never entered.  The one product whose
    shape differs is the pricing y @ Afull, and with three rows or more the
    unit-column argument of the module docstring gives each of its columns
    the LP's own bits (test_stacked_prices_are_each_lps_own checks this)."""

    # per-row arrays and lists, cut down together when LPs leave
    _ARRAYS = ("af", "xval", "lb", "ub", "cost", "sign", "status", "free",
               "binv", "basis", "xb", "lbb", "ubb", "cb", "stall", "bland")
    _LISTS = ("lps", "phases", "ids", "it", "max_iter", "allow")

    def __init__(self, lps):
        k, m = len(lps), lps[0].m
        self.lps, self.ids = lps, list(range(k))
        self.phases = [lp._phases() for lp in lps]
        # each LP's first run of pivots, its artificials installed
        runs = [next(phases) for phases in self.phases]
        self.results = [None] * k
        widths = [lp.Afull.shape[1] for lp in lps]
        shape = (k, max(widths))
        self.af = np.zeros((k, m, shape[1]))
        for i, (lp, w) in enumerate(zip(lps, widths)):
            self.af[i, :, :w] = lp.Afull
        self.xval, self.lb, self.ub, self.cost, self.sign = (
            np.zeros(shape) for _ in range(5))
        self.status = np.full(shape, _AT_LB, dtype=np.int8)
        self.free = np.zeros(shape, dtype=bool)
        self.binv = np.zeros((k, m, m))
        self.basis = np.zeros((k, m), dtype=np.intp)
        self.xb, self.lbb, self.ubb, self.cb = (np.zeros((k, m))
                                                for _ in range(4))
        self.stall = np.zeros(k, dtype=np.int64)
        self.bland = np.zeros(k, dtype=bool)
        self.it, self.allow = [0] * k, [False] * k
        self.max_iter = [max(50000, 500 * w) for w in widths]
        for i, run in enumerate(runs):
            self._load(i, *run)

    def _load(self, k, cost, allow_unbounded):
        """Start LP k's next run of pivots from its _Simplex state."""
        lp = self.lps[k]
        lp._price_by_status()
        bi, w = lp.basis, lp.xval.size
        self.xval[k, :w] = lp.xval
        self.lb[k, :w] = lp.lb
        self.ub[k, :w] = lp.ub
        self.cost[k, :w] = cost
        self.sign[k, :w] = lp.sign
        self.status[k, :w] = lp.status
        self.free[k] = False
        self.free[k, lp.free] = True
        self.binv[k] = lp.Binv
        self.basis[k] = bi
        self.xb[k], self.lbb[k], self.ubb[k], self.cb[k] = (
            lp.xval[bi], lp.lb[bi], lp.ub[bi], cost[bi])
        self.stall[k] = 0
        self.bland[k] = False
        self.it[k] = 0
        self.allow[k] = allow_unbounded

    def _store(self, k):
        """Write LP k's row back into its _Simplex."""
        lp = self.lps[k]
        w = lp.xval.size
        lp.basis[:] = self.basis[k]
        lp.xval[:] = self.xval[k, :w]
        lp.xval[lp.basis] = self.xb[k]
        lp.status[:] = self.status[k, :w]
        lp.sign[:] = self.sign[k, :w]
        lp.free = np.flatnonzero(self.free[k, :w])
        lp.Binv = self.binv[k].copy()

    def _refactor(self, k):
        self._store(k)
        lp = self.lps[k]
        lp._refactor()
        self.binv[k] = lp.Binv
        self.xb[k] = lp.xval[lp.basis]

    def _finish(self, k, status):
        """Send LP k the status its run ended with; True if it left the
        stack, with a result or (None) a breakdown."""
        self._store(k)
        try:
            self._load(k, *self.phases[k].send(status))
            return False
        except StopIteration as done:
            self.results[self.ids[k]] = done.value
        except SimplexBreakdown:
            pass
        return True

    def _drop(self, rows):
        """Remove rows: the last row moves into each one's place, and every
        array becomes a leading slice of itself, so nothing else is copied.
        Each row's arithmetic is its own, so the order of rows is free."""
        for k in sorted(rows, reverse=True):
            last = len(self.lps) - 1
            for name in self._ARRAYS:
                values = getattr(self, name)
                values[k] = values[last]
                setattr(self, name, values[:last])
            for name in self._LISTS:
                values = getattr(self, name)
                values[k] = values[last]
                values.pop()

    def _set_nonbasic(self, at, at_ub):
        """The columns at flat positions `at` leave for their upper bound
        where at_ub, else for their lower bound."""
        lb, ub = self.lb.ravel()[at], self.ub.ravel()[at]
        self.xval.ravel()[at] = np.where(at_ub, ub, lb)
        self.status.ravel()[at] = np.where(at_ub, _AT_UB, _AT_LB)
        # a fixed column keeps the zero sign it had while basic
        self.sign.ravel()[at] = np.where(lb != ub, np.where(at_ub, 1.0, -1.0),
                                         0.0)

    def run(self):
        """Results in input order; None where an LP broke down."""
        while self.lps:
            self.it = [i + 1 for i in self.it]
            gone = []
            for k, (i, most) in enumerate(zip(self.it, self.max_iter)):
                if i > most:
                    gone.append(k)
                elif i % REFACTOR_EVERY == 0:
                    try:
                        self._refactor(k)
                    except SimplexBreakdown:
                        gone.append(k)
            if gone:
                self._drop(gone)
            if self.lps:
                self._step()
        return self.results

    def _reduced_costs(self):
        """cost - (cb @ Binv) @ Afull in every row, bitwise the LP's own."""
        y = (self.cb[:, None, :] @ self.binv)[:, 0]
        return self.cost - (y[:, None, :] @ self.af)[:, 0]

    def _step(self):
        """One iteration of _iterate in every row.  Rows that end their run
        (no entering column, or no leaving one) take part in the array work
        but are masked out of every update.  d is not zeroed at the basic
        columns: their sign is 0 and they are never free, so no decision
        reads it there."""
        rows = np.arange(len(self.lps))
        d = self._reduced_costs()
        viol = self.sign * d
        if self.free.any():
            np.copyto(viol, np.abs(d), where=self.free)
        j = viol.argmax(axis=1)
        vj = viol[rows, j]
        done = ~(vj > OPT_TOL)
        if self.bland.any():
            j = np.where(self.bland, (viol > OPT_TOL).argmax(axis=1), j)
            vj = viol[rows, j]
        # an entering column rises from a lower bound (or free) when d < 0
        # and falls from an upper bound (or free) when d > 0
        dirn = np.where(d[rows, j] < 0, 1.0, -1.0)
        w = (self.binv @ self.af[rows, :, j][:, :, None])[:, :, 0]
        delta = dirn[:, None] * w     # basic values move as xb - t * delta
        bound = np.where(delta > 0.0, self.lbb, self.ubb)
        ratios = np.full(delta.shape, np.inf)
        np.divide(self.xb - bound, delta, out=ratios,
                  where=(np.abs(delta) > PIVOT_TOL) & np.isfinite(bound))
        np.maximum(ratios, 0.0, out=ratios)
        rmin = ratios.min(axis=1, initial=np.inf)
        tflip = self.ub[rows, j] - self.lb[rows, j]
        flip = tflip <= rmin
        stuck = None        # rows with no leaving variable
        if not (done.any() or flip.any()):    # the common step: all swap
            t = rmin
            self.xb -= t[:, None] * delta
            self._swap(rows, j, t, w, delta, dirn, ratios)
        else:
            stuck = ~(done | np.isfinite(rmin) | np.isfinite(tflip))
            moving = ~(done | stuck)
            flip &= moving
            swap = moving & ~flip
            t = np.where(flip, tflip, np.where(swap, rmin, 0.0))
            np.subtract(self.xb, t[:, None] * delta, out=self.xb,
                        where=moving[:, None])
            if flip.any():
                f = np.flatnonzero(flip)
                at = f * self.lb.shape[1] + j[f]
                self._set_nonbasic(at, self.status.ravel()[at] == _AT_LB)
            if swap.any():
                q = np.flatnonzero(swap)
                self._swap(q, j[q], t[q], w[q], delta[q], dirn[q], ratios[q])
        gain = vj * t
        obj = (self.cb[:, None, :] @ self.xb[:, :, None])[:, 0, 0]
        still = (gain == 0.0) | (gain <= 1e-12 * (1.0 + np.abs(obj)))
        self.stall = np.where(still, self.stall + 1, 0)
        self.bland |= self.stall >= STALL_LIMIT
        if stuck is not None and (done | stuck).any():
            # phase 1 cannot be unbounded: a stuck row there broke down
            self._drop([k for k in np.flatnonzero(done | stuck)
                        if (stuck[k] and not self.allow[k]) or self._finish(
                            k, UNBOUNDED if stuck[k] else OPTIMAL)])

    def _swap(self, q, j, t, w, delta, dirn, ratios):
        """Column j enters and the ratio test's lowest-index row leaves, in
        rows q.  Single entries are addressed by flat position, which numpy
        indexes faster than (row, column)."""
        width, m = self.lb.shape[1], self.xb.shape[1]
        at = np.arange(q.size)
        cand = ratios <= (t + 1e-12 + 1e-9 * np.abs(t))[:, None]
        r = np.where(cand, self.basis[q], width).argmin(axis=1)
        fj = q * width + j                 # the entering columns
        fr = q * m + r                     # the basis slots they take
        enter = self.xval.ravel()[fj] + dirn * t
        self._set_nonbasic(q * width + self.basis.ravel()[fr],
                           ~(delta[at, r] > 0))
        self.status.ravel()[fj] = _BASIC
        self.sign.ravel()[fj] = 0.0
        self.free.ravel()[fj] = False
        self.basis.ravel()[fr] = j
        self.xb.ravel()[fr] = enter
        self.lbb.ravel()[fr] = self.lb.ravel()[fj]
        self.ubb.ravel()[fr] = self.ub.ravel()[fj]
        self.cb.ravel()[fr] = self.cost.ravel()[fj]
        row = self.binv[q, r, :] / w[at, r][:, None]
        if q.size == len(self.lps):
            self.binv -= w[:, :, None] * row[:, None, :]
        else:
            self.binv[q] -= w[:, :, None] * row[:, None, :]
        self.binv[q, r, :] = row


def solve_lp(model, starts=None):
    """Solve a minimization LP; deterministic for a fixed input.

    When the final checks fail, the eta updates have usually drifted on an
    ill-conditioned basis; the LP is solved once more from scratch with a
    refactorization every RETRY_REFACTOR_EVERY pivots before the failure is
    raised.  An LP that passes the first time never reaches the retry.

    `starts`, a dict owned by the caller, holds phase 1's end state by
    feasible region and is reused and extended here: an LP whose region it
    holds runs phase 2 only (see the module docstring).  The result is
    bitwise the one without it."""
    model.check()
    try:
        if starts is None:
            return _Simplex(model).solve()
        return _solve_from(model, starts)
    except SimplexBreakdown:
        return _Simplex(model, RETRY_REFACTOR_EVERY).solve()


def _matrix_entry(A, cache):
    """A's entry in `cache`, made on first use: ([A | I], a dict of A's
    regions), under the key (A's shape, A's bytes)."""
    key = (A.shape, A.tobytes())
    if key not in cache:
        cache[key] = (np.hstack([A, np.eye(A.shape[0])]), {})
    return cache[key]


def _solve_from(model, starts):
    """solve_lp's first attempt through the cache `starts`.  A region maps
    to the INFEASIBLE result or to the LP after phase 1, which phase 2
    never runs on, only on copies."""
    afull, regions = _matrix_entry(model.A, starts)
    region = (tuple(model.senses),
              *(np.asarray(v, dtype=float).tobytes()
                for v in (model.b, model.lb, model.ub)))
    start = regions.get(region)
    if start is None:
        lp = _Simplex(model, afull=afull)
        start = regions[region] = lp._run(lp._phase1()) or lp
    if isinstance(start, LpResult):
        return LpResult(INFEASIBLE, farkas=start.farkas.copy())
    lp = start._restart(model)
    return lp._run(lp._phase2())


def solve_lps(models):
    """Solve LPs that share a row count; result i is bitwise
    solve_lp(models[i]).  From STACK_MIN models of three rows or more on
    they pivot in lockstep (_Stack), sharing one [A | I] per A; a breakdown
    retries that LP alone, as solve_lp does."""
    if len({model.A.shape[0] for model in models}) > 1:
        raise ValueError("solve_lps needs models with one row count")
    if len(models) < STACK_MIN or models[0].A.shape[0] < 3:
        return [solve_lp(model) for model in models]
    for model in models:
        model.check()
    matrices = {}
    afulls = [_matrix_entry(model.A, matrices)[0] for model in models]
    results = _Stack([_Simplex(model, afull=afull)
                      for model, afull in zip(models, afulls)]).run()
    return [res if res is not None
            else _Simplex(model, RETRY_REFACTOR_EVERY, afull).solve()
            for res, model, afull in zip(results, models, afulls)]
