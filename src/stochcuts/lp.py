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
call, except through a cache or a start the caller owns and passes in.  A
cache is used only where its use is bitwise neutral.  Two carried starts
are not: the dual path's warm start (DualStart, below) and the recourse
basis a warm run starts from (Warm recourse, below).  With one, the
result is a pure function of the model and the start, and a degenerate
LP can end at another optimal vertex than without it.  A result's basis
(Basis reuse, below) may be read, and no caller's read changes an LP
result.  A change to this kernel that keeps each floating-point
expression feeding a decision or a result therefore reproduces every
result bitwise, and can be checked that way
(tests/test_trace_golden.py --against <other>/src).

Working matrix.  Rows become slack columns and each row has one
artificial column, so every LP on an m x n matrix A pivots on
[A | I | I]: column n + i is row i's slack and column n + m + i its
artificial.  An artificial is fixed at [0, 0] unless phase 1 opens it, and
phase 1 pins it back.  The matrix is built once per A and shared, never
written to: by every LP of a start cache entry, by every LP of a solve_lps
batch, a _Stack included, and by each result's Basis.  No LP or stack
copies it.  The dual path builds its dual's [A' | -Z | I | I] once, and
the dual's matrix is its leading block.

Cost model.  On small LPs the time is numpy call overhead, about a
microsecond a call, not flops.  _iterate reads scalars as Python floats,
clamps the ratio test's minimum at zero instead of the whole ratio vector,
and masks no infinite bound (the bound on delta's side gives +inf).  Per
solve, the final checks build one nonbasic mask from the statuses and
reuse the prices of phase 2's last optimality test.  _Stack states the
ratio test and its zero clamp the same way.  README.md keeps the
measurements.

Start cache.  Phase 1 reads A, the senses, b and the bounds, never the
objective, so its end state is a function of the feasible region.
solve_lp(model, starts) keeps in `starts`, a dict the caller owns, one
entry per A, by its shape and bytes: the [A | I | I] its LPs share, and
its regions, by the senses and the bytes of b, lb and ub.  A region holds
the stored INFEASIBLE result, or the LP as phase 1 left it, on the shared
matrix; a hit runs phase 2 from a copy of its basis, statuses, values and
refactorized inverse, artificials pinned, and a miss runs phase 1 and
stores its end.  A breakdown anywhere falls back to the from-scratch
retry, and a phase 1 that breaks down stores no region.  Branch and bound
passes one cache to all its node LPs, and a Lagrangian separation target
passes one to all its inner MIPs, which differ only in their objective.

The contract extends to stacks.  solve_lps solves LPs on one A -- a
round of recourse subproblems under fixed recourse -- in lockstep: each
takes exactly the pivots solve_lp would take, and each result is bitwise
solve_lp's, since each stacked product is one BLAS call in the LP's own
shape (see _Stack).  Lockstep saves numpy call overhead, not flops, so it
pays only for batches of STACK_MIN or more LPs; smaller batches, and
batches on more than one A or with a tall LP, go one LP at a time.  So
the theta-bound LPs of an instance whose T_s varies by scenario go one at
a time.  A recourse round makes one
checked model and one with_rhs child per subproblem, which checks only its
rhs; children of one model share its [A | I | I] and its _start (the
bounds of every working column, the start statuses and the structural
columns' start values), copied into each LP's own arrays.  Between runs
of pivots the stack writes back the basis and the nonbasic state (the LP
refactorizes next, so no Binv is copied) and loads only what _phases
moved: the costs and the artificials' bounds, pinned at zero, when phase 2
begins, then the refactorized Binv and the basic values.

Dual path.  The basis has one slot per row, so a tall LP -- a Benders
master, with one row per cut and only n1 + S columns -- pivots on an m x m
inverse although at most n of its basic columns are structural.  solve_lp
solves an LP through its dual when it has DUAL_MIN rows or more, more rows
than columns, and a finite lower bound on every column.  With x = lb + x'
and u = ub - lb, the dual
    min -(b - A lb).y + u_F.z   s.t.  A'y - z <= c,
with y >= 0 on >= rows, y <= 0 on <= rows, y free on = rows and z >= 0
only on the columns F with a finite ub, has one <= row per column and
goes through the same simplex, on an n x n basis.  Its row duals are -x',
so x = lb - (its row duals), clipped into the box against rounding; the
duals are y, the reduced costs c - A'y and the objective c.x.  A dual
that ends UNBOUNDED proves the LP infeasible: _iterate leaves the ray it
stopped on (the entering column's unit step and the basic values' move),
and the ray's y part is the LP's Farkas ray, returned with INFEASIBLE
when it passes the Farkas test (Feasibility, below).  Otherwise, unless
the dual ends OPTIMAL -- infeasible, broken down after its own retry, or
a ray the test turns away -- the LP goes the primal way, which reports
an unbounded LP.  The dual path is not bitwise the primal one:
degenerate optima can come out at another vertex.
DUAL_MIN is a containment line, not a measured crossover: below it every
LP keeps the primal path's bits.

Warm start.  A row appended to a tall LP is a column appended to its dual,
at its lower bound 0, so the dual's last optimal basis stays feasible for
the new dual and only phase 2 need run: column generation on the dual,
the L-shaped method's re-solve of its master.  solve_lp(model,
dual_start=start) takes a DualStart the caller owns; _solve_dual maps its
basis, held as the y of row i, the z of boxed column k or the slack of
dual row j, onto the new dual, runs phase 2 from it and stores the basis
it ends at.  It solves the dual from scratch instead when the start does
not map, is singular, puts a basic value out of its bounds by more than
FEAS_TOL, or does not end OPTIMAL.  Every finite bound of these duals is
0 and none is boxed, so every nonbasic column sits at 0: the basis is the
whole start.

Basis reuse.  An OPTIMAL result of the primal path carries its final
basis, `LpResult.basis`: a Basis holding the LP's _Simplex as phase 2 left
it, with the refactorized Binv of its last optimality test.  B depends on
the working matrix and the basis alone, and the reduced costs are not
functions of b, so the basis stays optimal at a new rhs b for as long as
it stays primal feasible there.  Basis.objective_at(b) solves the basic
values at b with that Binv and returns the objective, or None when a
basic value leaves its bounds by more than 1e-12 * (1 + max |b|) or an
artificial is basic.  Making one costs a reference, and a result whose
basis no caller reads is collected with its LP.  A warm run's INFEASIBLE
end carries its dual feasible basis too (Warm recourse); dual-path,
UNBOUNDED and other INFEASIBLE results carry none.  A Benders round reads
it to skip the recourse LPs whose answer it already knows
(drivers._benders_round).

Warm recourse.  solve_lp(model, basis=kept) and solve_lps(models, bases)
start an LP from the Basis of a with_rhs sibling: the same A, c, senses
and bounds, so the same working matrix and reduced costs, and only the
basic values move with b.  The kept basis is dual feasible, so a bounded
dual simplex runs from it (_Simplex._dual) on a copy of its LP at the new
b: the basic value furthest outside its bounds leaves for the bound it
broke, the dual ratio test picks the entering column (lowest index on
ties), and Binv is refactorized every REFACTOR_EVERY pivots.  Once every
basic value is within 1e-9 * (1 + max |b|) of its bounds, phase 2
finishes from that basis, and its refactorization and _verify stay the
only acceptance test.  A row that no column can bring back proves the LP
infeasible: its Binv row, negated when the value is under its lower
bound, is the Farkas ray, and the result keeps the still dual feasible
basis for the next start.  The LP goes the cold way -- the path it takes
without a basis -- when an artificial is basic in the start, on a
breakdown (a pivot under PIVOT_TOL, a singular basis, _verify), after
more pivots than the LP has structural and slack columns, or at an
infeasible end that Feasibility's rule does not confirm.  Warm LPs go one
at a time; solve_lps stacks the rest as without bases, so result i is
bitwise solve_lp(models[i], basis=bases[i]).

Feasibility.  One rule decides that an LP is infeasible, in phase 1 and
at a warm run's infeasible end: a value further outside its bounds than
_verify's bound test allows, FEAS_TOL * (1 + max |x|), and a ray that
passes the Farkas test (_certifies).  Phase 1 ends INFEASIBLE as before
when the artificials' sum is over FEAS_TOL * (1 + max |b|); under it, it
applies the bound test to each artificial before pinning it, and ends
INFEASIBLE with its prices y1 where one fails and y1 passes.  The test is
the one the tests apply to every Farkas ray, so a tiny wrong-signed entry
of A'y on a column with no bound on that side, rounding the pivot
tolerance let through, is caught there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
DUAL_MIN = 112             # rows from which a tall LP is solved through
                           # its dual: a containment line, not a measured
                           # crossover (see the module docstring)

_BASIC, _AT_LB, _AT_UB, _FREE = 0, 1, 2, 3
_SENSES = frozenset((LE, GE, EQ))


class SimplexBreakdown(RuntimeError):
    """Numerical failure the solver refuses to hide."""


@dataclass
class LpModel:
    """An LP as solve_lp takes it.  make(), with_bounds() and with_rhs()
    check what they build and set `checked`; solve_lp checks a model built
    any other way."""
    c: np.ndarray
    A: np.ndarray
    senses: tuple
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    checked: bool = field(default=False, repr=False, compare=False)

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
        model.checked = True
        return model

    def check(self):
        m, n = self.A.shape
        if self.c.size != n:
            raise ValueError("objective length does not match column count")
        if len(self.senses) != m:
            raise ValueError("rhs/sense length does not match row count")
        for name, values in (("objective", self.c), ("matrix", self.A)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a non-finite entry")
        self._check_rhs()
        self._check_bounds()
        if not _SENSES.issuperset(self.senses):
            bad = next(s for s in self.senses if s not in _SENSES)
            raise ValueError(f"unknown row sense {bad!r}")

    def _check_rhs(self):
        if self.b.size != self.A.shape[0]:
            raise ValueError("rhs/sense length does not match row count")
        if not np.isfinite(self.b).all():
            raise ValueError("rhs has a non-finite entry")

    def _check_bounds(self):
        if self.lb.size != self.c.size or self.ub.size != self.c.size:
            raise ValueError("bound length does not match column count")
        if np.isnan(self.lb).any() or np.isnan(self.ub).any():
            raise ValueError("a bound is NaN")
        if np.any(self.lb > self.ub):
            raise ValueError("lower bound exceeds upper bound")

    def with_bounds(self, lb, ub):
        """This LP under new bounds, as a branch-and-bound node takes it:
        only the bounds are new, so a checked model's child checks only
        them, and an unchecked model's child is left to solve_lp."""
        model = LpModel(self.c, self.A, self.senses, self.b,
                        np.asarray(lb, dtype=float),
                        np.asarray(ub, dtype=float), checked=self.checked)
        if model.checked:
            model._check_bounds()
        return model

    def with_rhs(self, b):
        """This LP with a new rhs, as a recourse subproblem takes it under
        fixed recourse: only b is new, so a checked model's child checks
        only b, and an unchecked model's child is left to solve_lp."""
        model = LpModel(self.c, self.A, self.senses, np.asarray(b, float),
                        self.lb, self.ub, checked=self.checked)
        if model.checked:
            model._check_rhs()
        return model


@dataclass
class LpResult:
    status: str
    objective: float = None
    x: np.ndarray = None
    duals: np.ndarray = None           # one multiplier per input row
    reduced_costs: np.ndarray = None   # structural columns only
    farkas: np.ndarray = None          # row multipliers proving infeasibility
    # the final basis of an OPTIMAL primal-path result or of a warm run's
    # INFEASIBLE end, else None
    basis: Basis = field(default=None, repr=False, compare=False)


class Basis:
    """The dual feasible basis an LP ended at, read-only (see Basis reuse
    in the module docstring).  It holds the LP's _Simplex as its last run
    left it, so making one costs a reference; only objective_at
    computes."""
    __slots__ = ("_lp",)

    def __init__(self, lp):
        self._lp = lp

    def objective_at(self, b):
        """The optimum of this LP with rhs b, or None unless this basis is
        primal feasible there: every basic value within
        1e-12 * (1 + max |b|) of its bounds, and no artificial basic."""
        lp = self._lp
        bi = lp.basis
        if bi.max(initial=-1) >= lp.ncols0:
            return None
        nonbasic = lp.status != _BASIC
        b = np.asarray(b, dtype=float)
        xb = lp.Binv @ (b - lp.Afull[:, nonbasic] @ lp.xval[nonbasic])
        tol = 1e-12 * (1.0 + float(np.abs(b).max(initial=0.0)))
        if not (np.all(xb >= lp.lb[bi] - tol)
                and np.all(xb <= lp.ub[bi] + tol)):
            return None
        x = lp.xval.copy()
        x[bi] = xb
        return float(lp.model.c @ x[:lp.n])


@dataclass
class DualStart:
    """A warm start for the dual path, owned by the caller and passed to
    solve_lp with every solve of one tall LP as it gains rows: the basis
    of its dual at the last OPTIMAL end, by what each slot holds.  Slot
    entry i < rows is the y of the LP's row i, rows + k the z of its boxed
    column k, rows + boxed + j the slack of the dual's row j, so that the
    basis maps onto the dual of the LP with rows appended.  Empty (basis
    None) until a dual ends OPTIMAL; _solve_dual reads and replaces it."""
    rows: int = 0
    boxed: int = 0
    basis: np.ndarray = None

    def _columns(self, m, boxed, n):
        """The basis as columns of the dual of an LP of m rows, n columns
        and `boxed` boxed columns; None unless it names n distinct columns
        that are all there."""
        basis = self.basis
        if basis is None or basis.size != n or boxed != self.boxed:
            return None
        y = basis < self.rows
        if (not n or basis.min() < 0 or basis.max() >= self.rows + boxed + n
                or (basis[y] >= m).any()):
            return None
        cols = np.where(y, basis, basis - self.rows + m)
        return cols if np.unique(cols).size == n else None

    def _keep(self, m, boxed, lp):
        """Hold the basis `lp`, the dual of an LP of m rows, ended at.  A
        basic artificial, pinned at zero, is held as its row's slack: the
        same point, and the same column up to sign."""
        cols = lp.basis.copy()
        cols[cols >= lp.ncols0] -= lp.m
        self.rows, self.boxed, self.basis = m, boxed, cols


def _start(model):
    """What an LP's start takes from its senses and bounds alone: the
    bounds of every working column (the artificials fixed at [0, 0]), the
    start statuses, and the values of the structural columns (at a finite
    bound, or 0 when free)."""
    lb, ub, rows = model.lb, model.ub, model.senses
    fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
    status = np.where(fin_lb, _AT_LB, np.where(fin_ub, _AT_UB, _FREE))
    m = len(rows)
    return (np.concatenate([lb, [-np.inf if s == GE else 0.0 for s in rows],
                            np.zeros(m)]),
            np.concatenate([ub, [np.inf if s == LE else 0.0 for s in rows],
                            np.zeros(m)]),
            np.concatenate([status, [_BASIC] * m,
                            [_AT_LB] * m]).astype(np.int8),
            np.where(fin_lb, lb, np.where(fin_ub, ub, 0.0)))


def _signs(status, lb, ub):
    """The pricing sign of each column, from its status and bounds: -1 at a
    lower bound, +1 at an upper bound, 0 when basic, free or fixed."""
    sign = np.zeros(status.shape)
    sign[status == _AT_LB] = -1.0
    sign[status == _AT_UB] = 1.0
    sign[lb == ub] = 0.0
    return sign


class _Simplex:
    def __init__(self, model, refactor_every=None, afull=None, start=None):
        """afull: the working matrix [A | I | I] (see the module
        docstring), when the caller already has it for an LP on A; start:
        _start of a model with these senses and bounds.  Both are shared,
        never written to.  refactor_every, the cadence of
        refactorizations, defaults to REFACTOR_EVERY as it is when the LP
        is built, and a stack row keeps its LP's.  The caller checks the
        model."""
        self.model = model
        self.refactor_every = refactor_every or REFACTOR_EVERY
        A = np.asarray(model.A, dtype=float)
        m, n = A.shape
        self.m, self.n = m, n
        self.Afull = _working_matrix(A) if afull is None else afull
        self.lb, self.ub, self.status, x0 = (
            _start(model) if start is None else [a.copy() for a in start])
        self.b = np.asarray(model.b, dtype=float).copy()
        self.scale_b = 1.0 + float(np.abs(self.b).max(initial=0.0))
        self.ncols0 = n + m
        self.xval = np.concatenate([x0, self.b - A @ x0, np.zeros(m)])
        self.basis = np.arange(n, n + m)
        self.Binv = np.eye(m)
        self.art_sign = np.zeros(m)   # row i's phase-1 cost on its artificial

    def _refactor(self):
        B = self.Afull[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SimplexBreakdown(f"singular basis: {exc}")
        self._basic_values()

    def _basic_values(self):
        """Solve the basic values from Binv and the nonbasic ones."""
        nonbasic = self.status != _BASIC
        rhs = self.b - self.Afull[:, nonbasic] @ self.xval[nonbasic]
        self.xval[self.basis] = self.Binv @ rhs

    def _install_artificials(self):
        """Snap infeasible basic slacks to a bound and let each such row's
        artificial cover the residual: opened to [0, inf) under a positive
        residual at phase-1 cost +1, to (-inf, 0] under a negative one at
        cost -1, and basic in the row's slot.  The basis, slot i row i's
        slack or artificial, stays the identity, and so does Binv.  True if
        any were needed."""
        n, m = self.n, self.m
        xs, lo, hi = self.xval[n:n + m], self.lb[n:n + m], self.ub[n:n + m]
        bad = ((xs < lo - FEAS_TOL) | (xs > hi + FEAS_TOL)).nonzero()[0]
        if not bad.size:
            return False
        xs_bad, lo_bad = xs[bad], lo[bad]
        snap = np.where(xs_bad < lo_bad, lo_bad, hi[bad])
        up = xs_bad - snap > 0
        self.xval[n + bad] = snap
        self.status[n + bad] = np.where(snap == lo_bad, _AT_LB, _AT_UB)
        art = self.ncols0 + bad
        self.art_sign[bad] = np.where(up, 1.0, -1.0)
        self.lb[art] = np.where(up, 0.0, -np.inf)
        self.ub[art] = np.where(up, np.inf, 0.0)
        self.status[art] = _BASIC
        self.basis[bad] = art
        self._basic_values()
        return True

    def _price_by_status(self):
        """Rebuild the pricing signs (_signs) from the statuses and bounds.
        Free nonbasic columns are priced by |d| and listed apart."""
        self.sign = _signs(self.status, self.lb, self.ub)
        self.free = (self.status == _FREE).nonzero()[0]

    def _prices(self, cost):
        y = cost[self.basis] @ self.Binv
        d = cost - y @ self.Afull
        d[self.basis] = 0.0
        return y, d

    def _violations(self, d):
        """How far each column of d violates optimality: sign * d, and |d|
        for a free column.  A column enters only where this exceeds
        OPT_TOL."""
        viol = self.sign * d
        if self.free.size:
            viol[self.free] = np.abs(d[self.free])
        return viol

    def _iterate(self, cost, allow_unbounded):
        """Pivot to optimality under `cost`; returns OPTIMAL or UNBOUNDED.
        The basic variables' values, bounds and costs are kept per basis
        slot (xb, lbb, ubb, cb) and written back to xval on return.  The
        loop keeps numpy calls few (see the cost model in the module
        docstring): bounds and costs, which no pivot changes, are read from
        lists."""
        self._price_by_status()
        bi, lb, ub, xval = self.basis, self.lb, self.ub, self.xval
        status, sign = self.status, self.sign
        xb, lbb, ubb, cb = xval[bi], lb[bi], ub[bi], cost[bi]
        lo, hi, cost_at = lb.tolist(), ub.tolist(), cost.tolist()
        m = self.m
        if not xval.size:
            return OPTIMAL
        Afull, Binv = self.Afull, self.Binv
        ratios = np.empty(m)
        refactor_every = self.refactor_every
        bland = False
        stall = 0
        it = 0
        max_iter = max(50000, 500 * Afull.shape[1])
        while True:
            it += 1
            if it > max_iter:
                raise SimplexBreakdown("iteration limit exceeded")
            if it % refactor_every == 0:
                self._refactor()
                Binv, xb = self.Binv, xval[bi]
            # d is not zeroed at the basic columns: their sign is 0 and they
            # are never free, so no decision reads it there
            d = cost - (cb @ Binv) @ Afull
            viol = self._violations(d)
            # Dantzig: the largest violation, lowest index on ties; Bland:
            # the lowest index over OPT_TOL
            j = int(viol.argmax())
            if not viol.item(j) > OPT_TOL:
                xval[bi] = xb
                return OPTIMAL
            if bland:
                j = int((viol > OPT_TOL).argmax())
            st_j = status.item(j)
            dirn = (1.0 if st_j == _AT_LB or (st_j == _FREE and d.item(j) < 0)
                    else -1.0)
            w = Binv @ Afull[:, j]
            # basic values move as xb - t * delta; the bound on delta's side
            # gives +inf where it is infinite, so no mask needs it
            delta = w if dirn > 0 else -w
            bound = np.where(delta > 0.0, lbb, ubb)
            ratios.fill(np.inf)
            np.divide(xb - bound, delta, out=ratios,
                      where=np.abs(delta) > PIVOT_TOL)
            rmin = ratios.item(ratios.argmin()) if m else np.inf
            if rmin <= 0.0:     # degeneracy within tolerance; -0.0 too
                rmin = 0.0
            tflip = hi[j] - lo[j]
            if not math.isfinite(rmin) and not math.isfinite(tflip):
                if allow_unbounded:
                    xval[bi] = xb
                    # the ray: column j moves by dirn, the basic values
                    # by -delta, per unit step
                    self.ray = np.zeros(xval.size)
                    self.ray[bi] = -delta
                    self.ray[j] = dirn
                    return UNBOUNDED
                raise SimplexBreakdown("phase-1 objective unbounded")
            if tflip <= rmin:
                # entering variable runs bound to bound; basis unchanged
                t, out, to_ub = tflip, j, st_j == _AT_LB
            else:
                t = rmin
                tie = ratios <= rmin + 1e-12 + 1e-9 * abs(rmin)
                slots = tie.nonzero()[0]
                r = slots.item(bi[slots].argmin())   # the lowest column leaves
                out, to_ub = bi.item(r), not delta.item(r) > 0
            xb -= t * delta
            xval[out] = hi[out] if to_ub else lo[out]
            status[out] = _AT_UB if to_ub else _AT_LB
            if lo[out] != hi[out]:
                sign[out] = 1.0 if to_ub else -1.0
            if out != j:
                xb[r] = xval.item(j) + dirn * t
                status[j] = _BASIC
                sign[j] = 0.0
                if st_j == _FREE:
                    self.free = self.free[self.free != j]
                bi[r] = j
                lbb[r], ubb[r], cb[r] = lo[j], hi[j], cost_at[j]
                row = Binv[r] / w.item(r)
                Binv -= w[:, None] * row
                Binv[r] = row
            gain = viol.item(j) * t
            if gain == 0.0 or gain <= 1e-12 * (1.0 + abs((cb @ xb).item())):
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0

    def _verify(self, cost, y, d):
        """Raise unless the final basis is primal and dual feasible with no
        duality gap.  Every check is written so that NaN fails it."""
        resid = self.Afull @ self.xval - self.b
        if (resid.size
                and not float(np.abs(resid).max()) <= FEAS_TOL * self.scale_b):
            raise SimplexBreakdown("primal residual out of tolerance")
        # an infinite bound gives -inf, which the initial 0 outweighs
        gaps = np.maximum(self.lb - self.xval, self.xval - self.ub)
        worst = float(gaps.max(initial=0.0))
        scale_x = 1.0 + float(np.abs(self.xval).max(initial=0.0))
        if not worst <= FEAS_TOL * scale_x:
            raise SimplexBreakdown("bound violation out of tolerance")
        scale_c = 1.0 + float(np.abs(cost).max(initial=0.0))
        # a NaN price makes its violation NaN, which fails the max
        if not (float(self._violations(d).max(initial=0.0))
                <= 1e2 * OPT_TOL * scale_c):
            raise SimplexBreakdown("dual feasibility out of tolerance")
        pobj = float(cost @ self.xval)
        nonbasic = self.status != _BASIC
        dobj = float(y @ self.b) + float(d[nonbasic] @ self.xval[nonbasic])
        if not abs(pobj - dobj) <= FEAS_TOL * (1.0 + abs(pobj)):
            raise SimplexBreakdown("strong duality gap out of tolerance")

    def _phase1(self):
        """Phase 1 as a coroutine (see _phases).  It reads A, the senses,
        b and the bounds, never the objective, and returns the INFEASIBLE
        result, or None with the artificials pinned at zero."""
        if not self._install_artificials():
            return None
        cost1 = np.zeros(self.Afull.shape[1])
        cost1[self.ncols0:] = self.art_sign
        yield cost1, False
        self._refactor()
        infeas = float(cost1 @ self.xval)
        if infeas > FEAS_TOL * self.scale_b:
            y1, _ = self._prices(cost1)
            return LpResult(INFEASIBLE, farkas=y1)
        # _verify's bound test on each artificial, before it is pinned: one
        # left further from zero makes the region infeasible when y1 proves
        # it (Feasibility, in the module docstring)
        scale_x = 1.0 + float(np.abs(self.xval).max(initial=0.0))
        if not (float(np.abs(self.xval[self.ncols0:]).max(initial=0.0))
                <= FEAS_TOL * scale_x):
            y1, _ = self._prices(cost1)
            if _certifies(self.model, y1):
                return LpResult(INFEASIBLE, farkas=y1)
        # feasible: pin the artificials at zero and forget their cost
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
            y, d = self._prices(cost)
            if not self._violations(d).max(initial=0.0) > OPT_TOL:
                break
        else:
            raise SimplexBreakdown("could not hold an optimal basis")
        self._verify(cost, y, d)
        x = self.xval[:n].copy()
        return LpResult(OPTIMAL,
                        objective=float(self.model.c @ x),
                        x=x,
                        duals=y, reduced_costs=d[:n].copy(),
                        basis=Basis(self))

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

    def _from_basis(self, basis):
        """Set up phase 2 from `basis`, one working column per row, instead
        of running phase 1: every other structural column at its start
        value, every other slack at its finite bound.  False if a basic
        value breaks its bounds by more than FEAS_TOL; a singular basis
        raises SimplexBreakdown."""
        n = self.n
        fin = np.isfinite(self.lb[n:])
        self.status[n:] = np.where(fin, _AT_LB, _AT_UB)
        self.xval[n:] = np.where(fin, self.lb[n:], self.ub[n:])
        self.status[basis] = _BASIC
        self.basis = basis
        self._refactor()
        xb = self.xval[basis]
        return bool(np.all(xb >= self.lb[basis] - FEAS_TOL)
                    and np.all(xb <= self.ub[basis] + FEAS_TOL))

    def _restart(self, model):
        """A copy of this LP, at its basis, for `model`, an LP with the
        same A, senses and bounds: the arrays pivots write to are copied,
        the working matrix, bounds and rhs shared (a warm start then sets
        its own rhs, _solve_warm)."""
        twin = _Simplex.__new__(_Simplex)
        twin.__dict__.update(self.__dict__, model=model)
        for name in ("basis", "status", "xval", "Binv"):
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def _dual(self):
        """The bounded dual simplex from a dual feasible basis (see Warm
        recourse in the module docstring).  Each pivot takes the basic
        value furthest outside its bounds, by more than 1e-9 * (1 + max
        |b|), out to that bound, and brings in the column the dual ratio
        test picks, lowest index on ties; Binv is refactorized every
        refactor_every pivots.  Returns None once no basic value is that
        far out, for phase 2 to finish from the basis, or the INFEASIBLE
        result, with the basis, at a row that no column can bring back.
        Raises SimplexBreakdown where the LP goes the cold way instead: a
        pivot under PIVOT_TOL, more pivots than the LP has structural and
        slack columns, or an infeasible end that the Farkas test or
        _verify's bound test does not confirm."""
        n, m = self.n, self.m
        cost = np.zeros(self.Afull.shape[1])
        cost[:n] = self.model.c
        self._basic_values()
        self._price_by_status()
        if not m:
            return None
        bi, lb, ub, xval = self.basis, self.lb, self.ub, self.xval
        status, sign = self.status, self.sign
        xb, lbb, ubb, cb = xval[bi], lb[bi], ub[bi], cost[bi]
        Afull, Binv = self.Afull, self.Binv
        ratios = np.empty(Afull.shape[1])
        tol = 1e-9 * self.scale_b
        stale = 0       # pivots since the last refactorization
        for _ in range(n + m + 1):
            viol = np.maximum(lbb - xb, xb - ubb)
            r = int(viol.argmax())
            if not viol.item(r) > tol:
                xval[bi] = xb
                return None
            up = xb.item(r) > ubb.item(r)   # r leaves for its upper bound
            alpha = Binv[r] @ Afull
            d = cost - (cb @ Binv) @ Afull
            # a column may enter when moving it off its bound moves basic
            # value r toward the bound it broke; its ratio is its reduced
            # cost's distance from the wrong sign over |alpha|
            toward = sign * alpha
            if not up:
                toward = -toward
            enter = toward < -PIVOT_TOL
            slack = -sign * d
            if self.free.size:
                enter[self.free] = np.abs(alpha[self.free]) > PIVOT_TOL
                slack[self.free] = np.abs(d[self.free])
            if not enter.any():
                if stale:       # look again on a refactorized Binv
                    self._refactor()
                    Binv, xb, stale = self.Binv, xval[bi], 0
                    continue
                xval[bi] = xb
                farkas = Binv[r] if up else -Binv[r]
                scale_x = 1.0 + float(np.abs(xval).max(initial=0.0))
                if (viol.item(r) > FEAS_TOL * scale_x
                        and _certifies(self.model, farkas)):
                    return LpResult(INFEASIBLE, farkas=farkas,
                                    basis=Basis(self))
                raise SimplexBreakdown("infeasible end not certified")
            ratios.fill(np.inf)
            np.divide(np.maximum(slack, 0.0), np.abs(alpha), out=ratios,
                      where=enter)
            rmin = ratios.item(ratios.argmin())
            if not math.isfinite(rmin):
                raise SimplexBreakdown("dual ratio test out of tolerance")
            j = int((ratios <= rmin + 1e-12 + 1e-9 * rmin).argmax())
            w = Binv @ Afull[:, j]
            wr = w.item(r)
            if not abs(wr) > PIVOT_TOL:
                raise SimplexBreakdown("dual pivot out of tolerance")
            out = bi.item(r)
            bound = ubb.item(r) if up else lbb.item(r)
            step = (xb.item(r) - bound) / wr
            xb -= step * w
            xval[out] = bound
            status[out] = _AT_UB if up else _AT_LB
            if lbb.item(r) != ubb.item(r):
                sign[out] = 1.0 if up else -1.0
            if status.item(j) == _FREE:
                self.free = self.free[self.free != j]
            xb[r] = xval.item(j) + step
            status[j] = _BASIC
            sign[j] = 0.0
            bi[r] = j
            lbb[r], ubb[r], cb[r] = lb.item(j), ub.item(j), cost.item(j)
            row = Binv[r] / wr
            Binv -= w[:, None] * row
            Binv[r] = row
            stale += 1
            if stale == self.refactor_every:
                self._refactor()
                Binv, xb, stale = self.Binv, xval[bi], 0
        raise SimplexBreakdown("dual iteration limit exceeded")


class _Stack:
    """LPs on one working matrix pivoting in lockstep: at each step every
    LP still running takes the pivot _iterate would take next.  The stack
    holds no matrix of its own: it reads the (m, C) [A | I | I] its LPs
    share.  Row k of each of its arrays is the k-th running LP: basis
    inverse (K, m, m), per-column state (K, C) and per-basis-slot values,
    bounds and costs (K, m).  It prices with (y[:, None, :] @ afull)[:, 0]
    and gathers entering columns as afull.T[j]; numpy runs each broadcast
    product as one BLAS call per LP in the shape _iterate uses, and every
    other operation is elementwise, so every number that reaches a
    decision or a result is the one _iterate computes.  Refactorizations
    and the work between runs of pivots (_phases) go through the LP's own
    _Simplex."""

    # per-row arrays and lists, cut down together when LPs leave
    _ARRAYS = ("xval", "lb", "ub", "cost", "sign", "status", "binv",
               "basis", "xb", "lbb", "ubb", "cb", "stall", "bland")
    _LISTS = ("lps", "phases", "ids", "it", "allow")

    def __init__(self, lps):
        k, (m, width) = len(lps), lps[0].Afull.shape
        self.lps, self.ids = lps, list(range(k))
        self.phases = [lp._phases() for lp in lps]
        # each LP's first run of pivots, its artificials installed
        runs = [next(phases) for phases in self.phases]
        self.results = [None] * k
        self.afull = lps[0].Afull     # every LP's, shared (solve_lps)
        self.cost = np.array([cost for cost, _ in runs])
        self.xval, self.lb, self.ub, self.status = (
            np.array([getattr(lp, name) for lp in lps])
            for name in ("xval", "lb", "ub", "status"))
        self.sign = _signs(self.status, self.lb, self.ub)
        self.binv = np.array([lp.Binv for lp in lps])
        self.basis = np.array([lp.basis for lp in lps])
        self.xb, self.lbb, self.ubb, self.cb = (
            np.take_along_axis(a, self.basis, 1)
            for a in (self.xval, self.lb, self.ub, self.cost))
        self.stall, self.bland = np.zeros(k, np.int64), np.zeros(k, bool)
        self.any_bland, self.peak = False, 0    # peak >= every stall
        self.any_free = bool((self.status == _FREE).any())
        self.it, self.allow = [0] * k, [allow for _, allow in runs]
        self.max_iter = max(50000, 500 * width)
        # by position, cut to the running rows at each step: the flat
        # positions of row k's first column and basis slot, ratio buffer
        rows = np.arange(k)
        self.col0, self.slot0 = rows * width, rows * m
        self.ratios = np.empty((k, m))

    def _load(self, k, cost, allow_unbounded):
        """Start LP k's next run of pivots.  Between two runs _phases moves
        only the costs and the artificials' bounds, both pinned at zero,
        when phase 2 begins (allow_unbounded turns True), then
        refactorizes; the rest of row k is the LP's state already."""
        lp = self.lps[k]
        bi = lp.basis
        if allow_unbounded and not self.allow[k]:
            n0 = lp.ncols0
            self.cost[k] = cost
            self.lb[k, n0:] = self.ub[k, n0:] = self.sign[k, n0:] = 0.0
            self.lbb[k], self.ubb[k] = lp.lb[bi], lp.ub[bi]
            self.cb[k] = cost[bi]
            self.allow[k] = True
        self.binv[k], self.xb[k] = lp.Binv, lp.xval[bi]
        self.stall[k], self.bland[k], self.it[k] = 0, False, 0

    def _store(self, k):
        """Write LP k's basis and nonbasic state back into its _Simplex,
        which refactorizes next, or ends unbounded and reads neither its
        basis inverse nor its basic values."""
        lp = self.lps[k]
        lp.basis[:] = self.basis[k]
        lp.xval[:] = self.xval[k]
        lp.status[:] = self.status[k]
        lp.sign = self.sign[k].copy()
        lp.free = (lp.status == _FREE).nonzero()[0]

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
        """Results in input order; None where an LP broke down.  Each row
        refactorizes at its own LP's cadence."""
        while self.lps:
            self.it = [i + 1 for i in self.it]
            gone = []
            for k, (i, lp) in enumerate(zip(self.it, self.lps)):
                if i > self.max_iter:
                    gone.append(k)
                elif i % lp.refactor_every == 0:
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
        return self.cost - (y[:, None, :] @ self.afull)[:, 0]

    def _step(self):
        """One iteration of _iterate in every row.  Rows that end their run
        (no entering column, or no leaving one) take part in the array work
        but are masked out of every update.  d is not zeroed at the basic
        columns: their sign is 0 and they are never free, so no decision
        reads it there.  Entries of a row are addressed by flat position,
        which numpy indexes faster than (row, column)."""
        size = len(self.lps)
        col0 = self.col0[:size]
        ratios = self.ratios[:size]
        d = self._reduced_costs()
        viol = self.sign * d
        if self.any_free:     # a free column is one with status _FREE
            np.copyto(viol, np.abs(d), where=self.status == _FREE)
        j = viol.argmax(axis=1)
        fj = col0 + j
        vj = viol.ravel()[fj]
        going = vj > OPT_TOL        # rows with an entering column
        if self.any_bland:
            j = np.where(self.bland, (viol > OPT_TOL).argmax(axis=1), j)
            fj = col0 + j
            vj = viol.ravel()[fj]
        # an entering column rises from a lower bound (or free) when d < 0
        # and falls from an upper bound (or free) when d > 0; d is neither
        # zero nor NaN there, and a row without one takes no step
        dirn = np.copysign(1.0, -d.ravel()[fj])
        w = (self.binv @ self.afull.T[j][:, :, None])[:, :, 0]
        delta = dirn[:, None] * w     # basic values move as xb - t * delta
        # the ratio test of _iterate, row by row
        bound = np.where(delta > 0.0, self.lbb, self.ubb)
        ratios.fill(np.inf)
        np.divide(self.xb - bound, delta, out=ratios,
                  where=np.abs(delta) > PIVOT_TOL)
        rmin = np.minimum.reduce(ratios, axis=1)
        rmin[rmin <= 0.0] = 0.0     # degeneracy within tolerance; -0.0 too
        tflip = self.ub.ravel()[fj] - self.lb.ravel()[fj]
        flip = tflip <= rmin
        ended = None        # rows that end their run
        if (np.count_nonzero(going) == going.size
                and not np.count_nonzero(flip)):   # the common step: all swap
            t = rmin
            self.xb -= t[:, None] * delta
            self._swap(slice(size), fj, t, w, delta, dirn, ratios)
        else:
            # rows with no leaving variable
            stuck = going & ~(np.isfinite(rmin) | np.isfinite(tflip))
            moving = going & ~stuck
            flip &= moving
            swap = moving & ~flip
            t = np.where(flip, tflip, np.where(swap, rmin, 0.0))
            np.subtract(self.xb, t[:, None] * delta, out=self.xb,
                        where=moving[:, None])
            if flip.any():
                at = fj[flip]
                self._set_nonbasic(at, self.status.ravel()[at] == _AT_LB)
            if swap.any():
                self._swap(swap.nonzero()[0], fj, t, w, delta, dirn, ratios)
            ended = ~moving
        gain = vj * t
        obj = (self.cb[:, None, :] @ self.xb[:, :, None])[:, 0, 0]
        still = (gain == 0.0) | (gain <= 1e-12 * (1.0 + np.abs(obj)))
        self.stall += 1
        self.stall *= still
        self.peak += 1      # a stall grows by one a step at most
        if self.peak >= STALL_LIMIT:
            self.peak = int(self.stall.max())
            self.bland |= self.stall >= STALL_LIMIT
            self.any_bland |= self.peak >= STALL_LIMIT
        if ended is not None and np.count_nonzero(ended):
            # phase 1 cannot be unbounded: a stuck row there broke down
            self._drop([k for k in ended.nonzero()[0]
                        if (stuck[k] and not self.allow[k]) or self._finish(
                            k, UNBOUNDED if stuck[k] else OPTIMAL)])

    def _swap(self, q, fj, t, w, delta, dirn, ratios):
        """In rows q, every row (a slice) or some (their indices), the
        columns at flat positions fj enter and the ratio test's
        lowest-index slots leave; the arguments cover every row."""
        width, m = self.lb.shape[1], self.xb.shape[1]
        fj, t, col0 = fj[q], t[q], self.col0[q]
        # t is the ratio test's minimum, +0.0 or more, so |t| is t
        cand = ratios[q] <= (t + 1e-12 + 1e-9 * t)[:, None]
        r = np.where(cand, self.basis[q], width).argmin(axis=1)
        fr = self.slot0[q] + r             # the basis slots they take
        enter = self.xval.ravel()[fj] + dirn[q] * t
        self._set_nonbasic(col0 + self.basis.ravel()[fr],
                           ~(delta.ravel()[fr] > 0))
        self.status.ravel()[fj] = _BASIC
        self.sign.ravel()[fj] = 0.0
        self.basis.ravel()[fr] = fj - col0
        self.xb.ravel()[fr] = enter
        self.lbb.ravel()[fr] = self.lb.ravel()[fj]
        self.ubb.ravel()[fr] = self.ub.ravel()[fj]
        self.cb.ravel()[fr] = self.cost.ravel()[fj]
        binv = self.binv.reshape(-1, m)    # row fr is the slot's Binv row
        row = binv[fr] / w.ravel()[fr][:, None]
        self.binv[q] -= w[q][:, :, None] * row[:, None, :]
        binv[fr] = row


def solve_lp(model, starts=None, dual_start=None, basis=None):
    """Solve a minimization LP; deterministic for a fixed input.

    `basis`, a Basis of an LP with this one's A, c, senses and bounds (a
    with_rhs sibling), starts a dual simplex from it (see Warm recourse in
    the module docstring); where that run gives no result, the LP is
    solved as without it.

    When the final checks fail, the eta updates have usually drifted on an
    ill-conditioned basis; the LP is solved once more from scratch with a
    refactorization every RETRY_REFACTOR_EVERY pivots before the failure is
    raised.  An LP that passes the first time never reaches the retry.

    A tall LP (_dualizes) is first solved through its dual, and goes the
    primal way only if that neither ends OPTIMAL nor proves it infeasible
    (see the module docstring).  `dual_start`, a DualStart owned by the
    caller, starts that dual from the basis it holds and keeps the one it
    ends at; other LPs ignore it.

    `starts`, a dict owned by the caller, holds phase 1's end state by
    feasible region and is reused and extended here: an LP whose region it
    holds runs phase 2 only (see the module docstring).  The result is
    bitwise the one without it."""
    if not model.checked:
        model.check()
    if basis is not None:
        result = _solve_warm(model, basis)
        if result is not None:
            return result
    if _dualizes(model):
        result = _solve_dual(model, dual_start)
        if result is not None:
            return result
    if starts is None:
        return _solve_fresh(model)[0]
    try:
        return _solve_from(model, starts)
    except SimplexBreakdown:
        return _Simplex(model, RETRY_REFACTOR_EVERY).solve()


def _solve_fresh(model, afull=None):
    """The result of a checked model on the primal way, without a cache,
    and the _Simplex that reached it: the from-scratch retry's if the
    first attempt broke down.  afull: the model's [A | I | I], when the
    caller has it; both attempts share it."""
    lp = _Simplex(model, afull=afull)
    try:
        return lp.solve(), lp
    except SimplexBreakdown:
        lp = _Simplex(model, RETRY_REFACTOR_EVERY, afull=afull)
        return lp.solve(), lp


def _solve_warm(model, basis):
    """The result of the dual simplex run from `basis` (_Simplex._dual),
    then phase 2, or None where the LP goes the cold way: an artificial
    basic in the start, a breakdown, or an end neither OPTIMAL nor
    INFEASIBLE."""
    kept = basis._lp
    if kept.basis.max(initial=-1) >= kept.ncols0:
        return None
    lp = kept._restart(model)
    lp.b = np.asarray(model.b, dtype=float).copy()
    lp.scale_b = 1.0 + float(np.abs(lp.b).max(initial=0.0))
    lp.refactor_every = REFACTOR_EVERY
    try:
        result = lp._dual() or lp._run(lp._phase2())
    except SimplexBreakdown:
        return None
    return None if result.status == UNBOUNDED else result


def _certifies(model, y):
    """True when y proves `model` infeasible, by the test the module's
    tests apply to every Farkas ray: y >= -1e-9 on >= rows and <= 1e-9 on
    <= rows, every entry of A'y over 1e-12 (under -1e-12) on a column
    with a finite upper (lower) bound, and y.b above the supremum of
    y.A x over the box by more than 1e-9."""
    senses = np.asarray(model.senses)
    if (y[senses == GE] < -1e-9).any() or (y[senses == LE] > 1e-9).any():
        return False
    z = model.A.T @ y
    up, down = z > 1e-12, z < -1e-12
    ub, lb = model.ub[up], model.lb[down]
    if not (np.isfinite(ub).all() and np.isfinite(lb).all()):
        return False
    sup = float(z[up] @ ub) + float(z[down] @ lb)
    return float(y @ model.b) > sup + 1e-9


def _dualizes(model):
    """True for an LP solve_lp takes through its dual: DUAL_MIN rows or
    more, more rows than columns, and a finite lower bound on every
    column."""
    m, n = model.A.shape
    return m >= DUAL_MIN and m > n and bool(np.isfinite(model.lb).all())


def _solve_dual(model, start=None):
    """The OPTIMAL result of a tall LP read off its dual, the INFEASIBLE
    one read off an unbounded dual's ray, or None.  With
    x = lb + x', 0 <= x' <= u, the dual is
        min -(b - A lb).y + u_F.z   s.t.  A'y - z <= c,
    y >= 0 on >= rows, <= 0 on <= rows, free on = rows, and z >= 0 only on
    the columns F with a finite ub.  Its rows' duals are -x'.

    With a DualStart `start` whose basis maps onto this dual, phase 2 runs
    from that basis; the dual is solved from scratch instead if the basis
    is singular or infeasible, or phase 2 breaks down.  An OPTIMAL end
    replaces the start's basis.

    The dual's working matrix [A' | -Z | I | I] is built once, and the
    dual's matrix [A' | -Z] is its leading block: the warm start, the cold
    solve and its retry all pivot on it."""
    A, lb = model.A, model.lb
    m, n = A.shape
    u = model.ub - lb
    boxed = np.flatnonzero(np.isfinite(model.ub))
    senses = np.asarray(model.senses, dtype="U2")
    minus_z = np.zeros((n, boxed.size))
    minus_z[boxed, np.arange(boxed.size)] = -1.0
    afull = _working_matrix(A.T, minus_z)
    dual = LpModel(np.concatenate([A @ lb - model.b, u[boxed]]),
                   afull[:, :m + boxed.size], (LE,) * n, model.c,
                   np.concatenate([np.where(senses == GE, 0.0, -np.inf),
                                   np.zeros(boxed.size)]),
                   np.concatenate([np.where(senses == LE, 0.0, np.inf),
                                   np.full(boxed.size, np.inf)]))
    if not np.isfinite(dual.c).all():    # b - A lb or u overflowed
        return None
    dual.check()
    dual.checked = True
    res = None
    cols = None if start is None else start._columns(m, boxed.size, n)
    if cols is not None:
        lp = _Simplex(dual, afull=afull)
        try:
            if lp._from_basis(cols):
                res = lp._run(lp._phase2())
        except SimplexBreakdown:
            pass
    if res is None:
        try:
            res, lp = _solve_fresh(dual, afull)
        except SimplexBreakdown:
            return None
    if res.status == UNBOUNDED:     # the LP is infeasible: y's ray proves it
        farkas = lp.ray[:m].copy()
        return (LpResult(INFEASIBLE, farkas=farkas)
                if _certifies(model, farkas) else None)
    if res.status != OPTIMAL:
        return None
    if start is not None:
        start._keep(m, boxed.size, lp)
    y = res.x[:m]
    x = np.clip(lb - res.duals, lb, model.ub)
    return LpResult(OPTIMAL, objective=float(model.c @ x), x=x, duals=y,
                    reduced_costs=model.c - y @ A)


def _working_matrix(*blocks):
    """[A | I | I] for A the blocks side by side: A's structural, slack and
    artificial columns, built in one piece."""
    eye = np.eye(blocks[0].shape[0])
    return np.hstack([*blocks, eye, eye])


def _solve_from(model, starts):
    """solve_lp's first attempt through the cache `starts`, whose entry for
    A, made on first use under the key (A's shape, A's bytes), is
    ([A | I | I], a dict of A's regions).  A region maps to the INFEASIBLE
    result or to the LP after phase 1, on its entry's [A | I | I], which
    phase 2 never runs on, only on copies."""
    key = (model.A.shape, model.A.tobytes())
    if key not in starts:
        starts[key] = (_working_matrix(model.A), {})
    afull, regions = starts[key]
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


def _one_matrix(models):
    """True when every model is on the first one's A: the same array, or
    one of its shape and bytes."""
    A = models[0].A
    key = (A.shape, A.tobytes())
    return all(model.A is A or (model.A.shape, model.A.tobytes()) == key
               for model in models)


def solve_lps(models, bases=None):
    """Solve a batch of LPs; result i is bitwise solve_lp(models[i],
    basis=bases[i]), or solve_lp(models[i]) without bases.  Each LP with
    a basis first runs warm, alone (_solve_warm).  Of the others,
    STACK_MIN or more on one A -- the first one's array, or one of its
    shape and bytes -- none of them tall (_dualizes), pivot in lockstep
    (_Stack) on one [A | I | I], and those with one senses and bounds --
    with_rhs's children of one model -- share one _start; a breakdown
    retries that LP alone, as solve_lp does.  Any other batch goes one LP
    at a time."""
    results = [None] * len(models)
    for i, model in enumerate(models):
        if not model.checked:
            model.check()
        if bases is not None and bases[i] is not None:
            results[i] = _solve_warm(model, bases[i])
    cold = [i for i, res in enumerate(results) if res is None]
    rest = [models[i] for i in cold]
    if (len(rest) < STACK_MIN or any(map(_dualizes, rest))
            or not _one_matrix(rest)):
        solved = map(solve_lp, rest)
    else:
        solved = _solve_stacked(rest)
    for i, res in zip(cold, solved):
        results[i] = res
    return results


def _solve_stacked(models):
    """The results of checked models on one A, none of them tall, solved
    in lockstep (see solve_lps)."""
    afull, shared, lps = _working_matrix(models[0].A), {}, []
    for model in models:
        # with_rhs's children share one senses and bounds: one start
        key = tuple(map(id, (model.senses, model.lb, model.ub)))
        if key not in shared:
            shared[key] = _start(model)
        lps.append(_Simplex(model, afull=afull, start=shared[key]))
    return [res if res is not None
            else _Simplex(model, RETRY_REFACTOR_EVERY).solve()
            for res, model in zip(_Stack(lps).run(), models)]
