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
call, except through the model's record of its matrix (Working matrix and
Phase-1 memo, below) or a start the caller owns and passes in.  The record
is used only where its use is bitwise neutral.  Two carried starts are
not: the dual path's warm start (DualStart, below) and the recourse
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
phase 1 pins it back.  Each LpModel carries a private record of the A it
was made for (_Record): LpModel.make creates it empty, and with_bounds and
with_rhs hand it on, as does dataclasses.replace when A stays.  The record
builds [A | I | I] on the first primal-path solve that needs it and
shares it, never written to: with every LP on a model that holds the
record -- the node LPs of a branch-and-bound tree, the LPs of a solve_lps
batch, a _Stack included, the inner MIPs of a Lagrangian target, which
re-price one model -- and with each result's Basis.  No LP or stack copies
it.  A model built any other way, or whose A is not its record's, gets a
fresh record on its first solve.  A tall LP that goes through its dual
builds no primal [A | I | I]: the dual path builds its dual's
[A' | -Z | I | I] once, the dual's matrix is its leading block, and the
dual model's record holds it.

Starts.  An LP takes its start when its _Simplex is built: the slack
basis, for phase 1, or a placed (basis, status, Binv or None), for phase
2 or the dual simplex.  A placed LP sets each nonbasic value from its
status and bounds and solves the basic values with Binv, a kept Basis's
copied, or by a refactorization (a phase-1 memo region, a DualStart); it
builds no b - A x0, identity or slack range.  A primal LP that breaks
down is solved once more from the slack basis (_retry).

Cost model.  On small LPs the time is numpy call overhead, about a
microsecond a call, not flops.  _iterate reads scalars as Python floats,
clamps the ratio test's minimum at zero instead of the whole ratio vector,
and masks no infinite bound (the bound on delta's side gives +inf).  Per
solve, the final checks build one nonbasic mask from the statuses and
reuse the prices of phase 2's last optimality test.  _Stack states the
ratio test and its zero clamp the same way.  README.md keeps the
measurements.

Phase-1 memo.  Phase 1 reads A, the senses, b and the bounds, never the
objective, so its end state is a function of the feasible region.  Every
primal-path LP (_alone) goes through its model's record (_solve_from),
which keeps its regions by the senses and the bytes of b, lb and ub.  A
region holds the stored INFEASIBLE result, or copies of the basis and
statuses phase 1 ended at, and no LP, model, values or inverse.  Phase 1
ends on a refactorization, which solves Binv and the basic values from
the basis, b and the nonbasic values, and each nonbasic value sits at
the bound its status names, or at 0 when free.  So a hit, an LP on the
record's matrix placed on copies of the basis and statuses (Starts), runs
phase 2 from phase 1's end state, bit for bit, the artificials pinned by
_start.  A miss runs phase 1 and stores its end; a phase 1 that installs
no artificial leaves the LP as it was built, and stores nothing.  A
breakdown anywhere falls back to the from-scratch retry, and a phase 1
that breaks down stores no region.  Regions repeat where models that
share a record differ only in their objective: a Lagrangian target's
inner MIPs re-price one K, so their node LPs keep meeting the same
regions.  A master, outer LP or recourse LP repeats none, and its record
dies with its model.

The contract extends to stacks.  Under fixed recourse the subproblems of
a round -- the recourse LPs of its clusters or scenarios, or the
theta-bound LPs of the scenarios that share a T_s -- are one LP at
other right-hand sides.  solve_lps(model, rhs) takes that
LP and its right-hand sides and solves them in lockstep, and result i is
bitwise solve_lp(model.with_rhs(rhs[i])).  The stack takes a pivot only
when it is a swap, exactly the one solve_lp would take, since each
stacked product is one BLAS call in the LP's own shape (see _Stack).  An
LP whose next pivot would be a bound flip or an unbounded ray, or whose
stall count reaches STALL_LIMIT, where _iterate turns to Bland's rule,
leaves the stack and is solved alone (_alone) on the batch's
[A | I | I]: the bits the stack would have given.  Lockstep saves numpy
call overhead, not flops, so it pays only for STACK_MIN or more LPs;
fewer, a tall LP's, or an LP's with a free column (lb = -inf and
ub = +inf), which no caller sends, go one at a time and cold.  A batch's
LPs share their model's record, so one [A | I | I], and one _start (the
bounds of every working column, the start statuses and the structural
columns' start values) when an LP first takes it: a stacked LP copies
it, and a warm one (Warm recourse) shares its bounds.  Between runs of
pivots the stack writes back the basis and the nonbasic state (the LP
refactorizes next, so no Binv is copied), and loads the next run's
costs, the LP's bounds and pricing signs, its refactorized Binv and its
basic values.

Dual path.  The basis has one slot per row, so a tall LP -- a Benders
master, with one row per cut and only n1 + S columns -- pivots on an m x m
inverse although at most n of its basic columns are structural.  solve_lp
solves an LP through its dual when it is tall: more rows than columns, a
finite lower bound on every column, and at least `dual_min` rows, DUAL_MIN
unless the caller passes another line.  With x = lb + x' and u = ub - lb,
the dual
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
LP keeps the primal path's bits, and with them the bounds of the
Lagrangian loops (bdd, apblagc), whose cuts move with the vertex a master
ends at.  Branch-and-bound node LPs keep it too.  The loops without
Lagrangian rounds (benders, alg1), whose bounds are optima that no vertex
choice moves, pass dual_min=0: each of their tall relaxed masters goes
the dual way, warm from its DualStart (README.md has the measurement).

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

Warm recourse.  solve_lps(model, rhs, bases) starts LP i from bases[i],
the Basis of a with_rhs sibling: the same A, c, senses and bounds, so the
same working matrix and reduced costs, and only the basic values move
with b.  The kept basis is dual feasible, so a bounded dual simplex runs
from it (_Simplex._dual) on an LP at the new b placed on copies of the
kept basis, statuses and Binv (Starts): the basic value furthest outside
its bounds leaves for the bound it broke, the
dual ratio test picks the entering column (lowest index on ties), and
Binv is refactorized every REFACTOR_EVERY pivots.  Once every basic value
is within 1e-9 * (1 + max |b|) of its bounds, phase 2 finishes from that
basis, and its refactorization and _verify stay the only acceptance
test.  A row that no column can bring back proves the LP infeasible: its
Binv row, negated when the value is under its lower bound, is the Farkas
ray, and the result keeps the still dual feasible basis for the next
start.  The LP goes the cold way -- the path it takes without a basis --
when an artificial is basic in the start, on a breakdown (a pivot under
PIVOT_TOL, a singular basis, _verify), after more pivots than the LP has
structural and slack columns, or at an infeasible end that Feasibility's
rule does not confirm.  Warm LPs go one at a time, and the rest as
without bases.

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
from dataclasses import dataclass, field, replace

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
DUAL_MIN = 112             # rows from which solve_lp takes a tall LP
                           # through its dual unless the caller lowers the
                           # line: it keeps the Lagrangian loops' bits, and
                           # is not a measured crossover (module docstring)

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
    # what solve_lp keeps of A: make() creates it, with_bounds() and
    # with_rhs() hand it on (Working matrix, in the module docstring)
    _record: _Record = field(default=None, repr=False, compare=False)

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
        model = LpModel(c, A, senses, b, lb.copy(), ub.copy(),
                        _record=_Record(A))
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
        lb, ub = self.lb, self.ub
        if lb.size != self.c.size or ub.size != self.c.size:
            raise ValueError("bound length does not match column count")
        # one test for the valid box, which NaN fails, then the message
        if not ((lb <= ub) & (lb < np.inf) & (ub > -np.inf)).all():
            if np.isnan(lb).any() or np.isnan(ub).any():
                raise ValueError("a bound is NaN")
            if (lb == np.inf).any():
                raise ValueError("a lower bound is +inf")
            if (ub == -np.inf).any():
                raise ValueError("an upper bound is -inf")
            raise ValueError("lower bound exceeds upper bound")

    def with_bounds(self, lb, ub):
        """This LP under new bounds, as a branch-and-bound node takes it:
        only the bounds are new, so a checked model's child checks only
        them, and an unchecked model's child is left to solve_lp."""
        model = LpModel(self.c, self.A, self.senses, self.b,
                        np.asarray(lb, float), np.asarray(ub, float),
                        self.checked, self._record)
        if model.checked:
            model._check_bounds()
        return model

    def with_rhs(self, b):
        """This LP with a new rhs, as a recourse subproblem takes it under
        fixed recourse: only b is new, so a checked model's child checks
        only b, and an unchecked model's child is left to solve_lp."""
        model = LpModel(self.c, self.A, self.senses, np.asarray(b, float),
                        self.lb, self.ub, self.checked, self._record)
        if model.checked:
            model._check_rhs()
        return model


class _Record:
    """What solve_lp keeps of one matrix A for the models that share it:
    its working matrix [A | I | I], built when a primal-path LP first needs
    it, and the phase-1 memo's regions (see the module docstring)."""

    def __init__(self, A, afull=None):
        self.A, self.afull, self.regions = A, afull, {}


def _record_of(model):
    """The model's record, replaced by a fresh one where it has none or
    the record is of another A (a model built without make, or given a new
    A by dataclasses.replace), with its [A | I | I] built."""
    record = model._record
    if record is None or record.A is not model.A:
        record = model._record = _Record(model.A)
    if record.afull is None:
        record.afull = _working_matrix(np.asarray(model.A, dtype=float))
    return record


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
    def __init__(self, model, refactor_every=None, start=None, placed=None):
        """The LP pivots on the working matrix [A | I | I] of the model's
        record, built here if the record has none yet (see the module
        docstring).  start: _start of a model with these senses and
        bounds.  Both are shared, never written to; a placed LP, which no
        pivot rule writes a bound of, shares start's bounds too.  placed:
        (basis, status, Binv or None), taken over, or None for the slack
        basis (Starts, in the module docstring).  refactor_every, the
        cadence of refactorizations, defaults to REFACTOR_EVERY as it is
        when the LP is built.  The caller checks the model."""
        self.model = model
        self.refactor_every = refactor_every or REFACTOR_EVERY
        A = np.asarray(model.A, dtype=float)
        m, n = A.shape
        self.m, self.n, self.ncols0 = m, n, n + m
        self.Afull = _record_of(model).afull
        self.b = np.asarray(model.b, dtype=float).copy()
        self.scale_b = 1.0 + float(np.abs(self.b).max(initial=0.0))
        self.art_sign = np.zeros(m)   # row i's phase-1 cost on its artificial
        if placed is None:
            self.lb, self.ub, self.status, x0 = (
                _start(model) if start is None else [a.copy() for a in start])
            self.xval = np.concatenate([x0, self.b - A @ x0, np.zeros(m)])
            self.basis = np.arange(n, n + m)
            self.Binv = np.eye(m)
            return
        self.lb, self.ub = (_start(model) if start is None else start)[:2]
        self.basis, self.status, Binv = placed
        self.xval = np.where(self.status == _AT_LB, self.lb,
                             np.where(self.status == _AT_UB, self.ub, 0.0))
        if Binv is None:
            self._refactor()
        else:
            self.Binv = Binv
            self._basic_values()

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
        with _iterate, _Stack in lockstep with other LPs for as long as
        each of its runs ends OPTIMAL after swaps alone."""
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
            np.divide(np.maximum(-sign * d, 0.0), np.abs(alpha), out=ratios,
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
    LP still running takes the pivot _iterate would take next, when that
    pivot is a swap (_step).  The stack holds no matrix of its own: it
    reads the (m, C) [A | I | I] its LPs share.  Row k of each of its
    arrays is the k-th running LP: basis inverse (K, m, m), per-column
    state (K, C) and per-basis-slot values, bounds and costs (K, m).  It
    prices with (y[:, None, :] @ afull)[:, 0] and gathers entering columns
    as afull.T[j]; numpy runs each broadcast product as one BLAS call per
    LP in the shape _iterate uses, and every other operation is
    elementwise, so every number that reaches a decision or a result is
    the one _iterate computes.  Refactorizations and the work between runs
    of pivots (_phases) go through the LP's own _Simplex."""

    # per-row arrays and lists, cut down together when LPs leave
    _ARRAYS = ("xval", "lb", "ub", "cost", "sign", "status", "binv",
               "basis", "xb", "lbb", "ubb", "cb", "stall")
    _LISTS = ("lps", "phases", "ids", "it")

    def __init__(self, lps):
        k, (m, width) = len(lps), lps[0].Afull.shape
        self.lps, self.ids = lps, list(range(k))
        self.phases = [lp._phases() for lp in lps]
        # each LP's first run of pivots, its artificials installed
        costs = [next(phases)[0] for phases in self.phases]
        self.results = [None] * k
        self.afull = lps[0].Afull     # every LP's, shared (solve_lps)
        self.xval, self.status, self.basis = (
            np.array([getattr(lp, name) for lp in lps])
            for name in ("xval", "status", "basis"))
        self.lb, self.ub, self.cost, self.sign = (
            np.empty((k, width)) for _ in range(4))
        self.xb, self.lbb, self.ubb, self.cb = (
            np.empty((k, m)) for _ in range(4))
        self.binv = np.empty((k, m, m))
        self.stall, self.it = np.zeros(k, np.int64), [0] * k
        for row, cost in enumerate(costs):
            self._load(row, cost)
        self.peak = 0       # peak >= every stall
        self.max_iter = max(50000, 500 * width)
        # by position, cut to the running rows at each step: the flat
        # positions of row k's first column and basis slot, ratio buffer
        rows = np.arange(k)
        self.col0, self.slot0 = rows * width, rows * m
        self.ratios = np.empty((k, m))

    def _load(self, k, cost):
        """Start LP k's next run of pivots under `cost`, from the LP's own
        bounds, Binv and basic values; the basis and nonbasic state of row
        k are the LP's already."""
        lp = self.lps[k]
        bi = lp.basis
        self.cost[k], self.lb[k], self.ub[k] = cost, lp.lb, lp.ub
        self.sign[k] = _signs(lp.status, lp.lb, lp.ub)
        self.lbb[k], self.ubb[k], self.cb[k] = lp.lb[bi], lp.ub[bi], cost[bi]
        self.binv[k], self.xb[k] = lp.Binv, lp.xval[bi]
        self.stall[k], self.it[k] = 0, 0

    def _store(self, k):
        """Write LP k's basis and nonbasic state back into its _Simplex,
        which refactorizes next."""
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

    def _finish(self, k):
        """LP k's run of pivots ended OPTIMAL: send its _phases that; True
        if it left the stack, with a result or (None) a breakdown."""
        self._store(k)
        try:
            self._load(k, self.phases[k].send(OPTIMAL)[0])
            return False
        except StopIteration as done:
            self.results[self.ids[k]] = done.value
        except SimplexBreakdown:
            pass
        return True

    def _leave(self, k):
        """LP k leaves the stack, solved alone (_alone): the result the
        stack would give (solve_lps)."""
        self.results[self.ids[k]] = _alone(self.lps[k].model)[0]
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

    def run(self):
        """Results in input order; None where an LP broke down.  Each row
        refactorizes every REFACTOR_EVERY pivots, the cadence solve_lps
        builds its LPs with."""
        while self.lps:
            self.it = [i + 1 for i in self.it]
            gone = []
            for k, i in enumerate(self.it):
                if i > self.max_iter:
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
        return self.cost - (y[:, None, :] @ self.afull)[:, 0]

    def _step(self):
        """One iteration of _iterate in every row whose next pivot is a
        swap: an entering column and a ratio-test minimum t under the
        column's range ub - lb.  A row with no entering column ends its run
        (_finish); one whose pivot would be a bound flip or a ray, or whose
        stall count reaches STALL_LIMIT, where _iterate turns to Bland's
        rule, leaves the stack (_leave).  Rows that do not swap take part
        in the array work but are masked out of every update.  No column
        is free (solve_lps stacks no LP with one), so sign * d is each
        column's violation.  d is not zeroed at the basic columns: their
        sign is 0, so no decision reads it there.  Entries of a row are
        addressed by flat position, which numpy indexes faster than (row,
        column)."""
        size = len(self.lps)
        col0 = self.col0[:size]
        ratios = self.ratios[:size]
        d = self._reduced_costs()
        viol = self.sign * d
        j = viol.argmax(axis=1)
        fj = col0 + j
        vj = viol.ravel()[fj]
        going = vj > OPT_TOL        # rows with an entering column
        # an entering column rises from its lower bound when d < 0 and
        # falls from its upper bound when d > 0; d is neither zero nor NaN
        # there, and a row without one takes no step
        dirn = np.copysign(1.0, -d.ravel()[fj])
        w = (self.binv @ self.afull.T[j][:, :, None])[:, :, 0]
        delta = dirn[:, None] * w     # basic values move as xb - t * delta
        # the ratio test of _iterate, row by row
        bound = np.where(delta > 0.0, self.lbb, self.ubb)
        ratios.fill(np.inf)
        np.divide(self.xb - bound, delta, out=ratios,
                  where=np.abs(delta) > PIVOT_TOL)
        rmin = np.minimum.reduce(ratios, axis=1, initial=np.inf)
        rmin[rmin <= 0.0] = 0.0     # degeneracy within tolerance; -0.0 too
        swap = going & (rmin < self.ub.ravel()[fj] - self.lb.ravel()[fj])
        out = None          # rows that end their run or leave
        if np.count_nonzero(swap) == size:      # the common step
            t = rmin
            self.xb -= t[:, None] * delta
            self._swap(slice(size), fj, t, w, delta, dirn, ratios)
        else:
            t = np.where(swap, rmin, 0.0)
            np.subtract(self.xb, t[:, None] * delta, out=self.xb,
                        where=swap[:, None])
            if swap.any():
                self._swap(swap.nonzero()[0], fj, t, w, delta, dirn, ratios)
            out = ~swap
        gain = vj * t
        obj = (self.cb[:, None, :] @ self.xb[:, :, None])[:, 0, 0]
        still = (gain == 0.0) | (gain <= 1e-12 * (1.0 + np.abs(obj)))
        self.stall += 1
        self.stall *= still
        self.peak += 1      # a stall grows by one a step at most
        if self.peak >= STALL_LIMIT:
            self.peak = int(self.stall.max())
            stalled = going & (self.stall >= STALL_LIMIT)
            out = stalled if out is None else out | stalled
        if out is not None and np.count_nonzero(out):
            self._drop([k for k in out.nonzero()[0]
                        if (self._leave(k) if going[k] else self._finish(k))])

    def _swap(self, q, fj, t, w, delta, dirn, ratios):
        """In rows q, every row (a slice) or some (their indices), the
        columns at flat positions fj enter and the ratio test's
        lowest-index slots leave, for their upper bound where delta is not
        positive, else their lower bound; the arguments cover every row."""
        width, m = self.lb.shape[1], self.xb.shape[1]
        fj, t, col0 = fj[q], t[q], self.col0[q]
        # t is the ratio test's minimum, +0.0 or more, so |t| is t
        cand = ratios[q] <= (t + 1e-12 + 1e-9 * t)[:, None]
        r = np.where(cand, self.basis[q], width).argmin(axis=1)
        fr = self.slot0[q] + r             # the basis slots they take
        enter = self.xval.ravel()[fj] + dirn[q] * t
        at = col0 + self.basis.ravel()[fr]     # the leaving columns
        at_ub = ~(delta.ravel()[fr] > 0)
        lb, ub = self.lb.ravel()[at], self.ub.ravel()[at]
        self.xval.ravel()[at] = np.where(at_ub, ub, lb)
        self.status.ravel()[at] = np.where(at_ub, _AT_UB, _AT_LB)
        # a fixed column keeps the zero sign it had while basic
        self.sign.ravel()[at] = np.where(lb != ub, np.where(at_ub, 1.0, -1.0),
                                         0.0)
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


def solve_lp(model, dual_start=None, dual_min=None):
    """Solve a minimization LP; deterministic for a fixed input.

    On the primal path, phase 1 runs only for a feasible region the
    model's record has not met: an LP on a region it holds runs phase 2
    from that region's phase-1 end, bitwise as without it (Phase-1 memo,
    in the module docstring).  When the final checks fail, the LP is
    solved once more from scratch (_retry) before the failure is raised.
    An LP that passes the first time never reaches the retry.

    A tall LP (_dualizes) of `dual_min` rows or more, DUAL_MIN when None,
    is first solved through its dual, and goes the primal way only if that
    neither ends OPTIMAL nor proves it infeasible (see the module
    docstring).  `dual_start`, a DualStart owned by the caller, starts
    that dual from the basis it holds and keeps the one it ends at; other
    LPs ignore it."""
    if not model.checked:
        model.check()
    if _dualizes(model, dual_min):
        result = _solve_dual(model, dual_start)
        if result is not None:
            return result
    return _alone(model)[0]


def _alone(model):
    """A checked model solved alone, through its record's phase-1 memo
    (_solve_from), and once more from scratch (_retry) when that breaks
    down: the result and the _Simplex that gave it, None for an
    INFEASIBLE result the memo held."""
    try:
        return _solve_from(model)
    except SimplexBreakdown:
        return _retry(model)


def _retry(model):
    """The from-scratch retry of a checked model whose first attempt broke
    down, and its _Simplex: the eta updates have usually drifted on an
    ill-conditioned basis, so it refactorizes every RETRY_REFACTOR_EVERY
    pivots."""
    lp = _Simplex(model, RETRY_REFACTOR_EVERY)
    return lp.solve(), lp


def _solve_warm(model, basis, start):
    """The result of the dual simplex run from `basis` (_Simplex._dual),
    then phase 2, or None where the LP goes the cold way: an artificial
    basic in the start, a breakdown, or an end neither OPTIMAL nor
    INFEASIBLE.  start: _start(model), whose bounds the LP shares.  The
    model has no free column: the dual simplex prices none."""
    kept = basis._lp
    if kept.basis.max(initial=-1) >= kept.ncols0:
        return None
    lp = _Simplex(model, start=start, placed=[
        a.copy() for a in (kept.basis, kept.status, kept.Binv)])
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


def _dualizes(model, dual_min=None):
    """True for an LP solve_lp takes through its dual: dual_min rows or
    more (DUAL_MIN when None), more rows than columns, and a finite lower
    bound on every column."""
    m, n = model.A.shape
    return (m >= (DUAL_MIN if dual_min is None else dual_min) and m > n
            and bool(np.isfinite(model.lb).all()))


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
    dual's matrix [A' | -Z] is its leading block: the dual model's record
    holds it, so the warm start, the cold solve (_alone) and its retry all
    pivot on it."""
    A, lb = model.A, model.lb
    m, n = A.shape
    u = model.ub - lb
    boxed = np.flatnonzero(np.isfinite(model.ub))
    senses = np.asarray(model.senses, dtype="U2")
    minus_z = np.zeros((n, boxed.size))
    minus_z[boxed, np.arange(boxed.size)] = -1.0
    afull = _working_matrix(A.T, minus_z)
    dual_a = afull[:, :m + boxed.size]
    dual = LpModel(np.concatenate([A @ lb - model.b, u[boxed]]),
                   dual_a, (LE,) * n, model.c,
                   np.concatenate([np.where(senses == GE, 0.0, -np.inf),
                                   np.zeros(boxed.size)]),
                   np.concatenate([np.where(senses == LE, 0.0, np.inf),
                                   np.full(boxed.size, np.inf)]),
                   checked=True, _record=_Record(dual_a, afull))
    # valid as built from the checked LP, but for the objective, whose
    # b - A lb or u can overflow
    if not np.isfinite(dual.c).all():
        return None
    res = None
    cols = None if start is None else start._columns(m, boxed.size, n)
    if cols is not None:
        bounds = _start(dual)
        status = bounds[2].copy()
        # each slack (of a <= row) and artificial at its lower bound, 0
        status[dual.c.size:] = _AT_LB
        status[cols] = _BASIC
        try:
            lp = _Simplex(dual, start=bounds, placed=(cols, status, None))
            xb = lp.xval[cols]
            if (np.all(xb >= lp.lb[cols] - FEAS_TOL)
                    and np.all(xb <= lp.ub[cols] + FEAS_TOL)):
                res = lp._run(lp._phase2())
        except SimplexBreakdown:
            pass
    if res is None:
        try:
            res, lp = _alone(dual)
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


def _solve_from(model):
    """A checked model's first attempt through its record's phase-1 memo,
    and its _Simplex, None for a held INFEASIBLE result.  A region maps
    to the INFEASIBLE result or to copies of the basis and statuses phase
    1 ended at, which a hit places on a new LP."""
    regions = _record_of(model).regions
    region = (tuple(model.senses),
              *(np.asarray(v, dtype=float).tobytes()
                for v in (model.b, model.lb, model.ub)))
    held = regions.get(region)
    if isinstance(held, LpResult):
        return LpResult(INFEASIBLE, farkas=held.farkas.copy()), None
    if held is not None:
        lp = _Simplex(model, placed=(*(a.copy() for a in held), None))
        return lp._run(lp._phase2()), lp
    lp = _Simplex(model)
    result = lp._run(lp._phase1())
    if result is not None:
        regions[region] = result
        return LpResult(INFEASIBLE, farkas=result.farkas.copy()), lp
    if lp.art_sign.any():
        regions[region] = (lp.basis.copy(), lp.status.copy())
    return lp._run(lp._phase2()), lp


def solve_lps(model, rhs, bases=None):
    """Solve the LP `model` at each right-hand side in `rhs`, one round of
    subproblems under fixed recourse; result i is bitwise
    solve_lp(model.with_rhs(rhs[i])).  With `bases`, one Basis of a
    with_rhs sibling or None per rhs, each LP with a basis first runs
    warm, alone (_solve_warm).  The others go one at a time when they are
    fewer than STACK_MIN, the LP is tall (_dualizes) or it has a free
    column; else they pivot in lockstep (_Stack) on the [A | I | I] of
    the model's record, from one _start, while their pivots are swaps.
    One whose next pivot is not leaves the stack and is solved alone
    (_alone), and one that breaks down there is retried alone, as
    solve_lp retries it.  An LP with a free column never runs warm."""
    if not model.checked:
        model.check()
        model = replace(model, checked=True)
    models = [model.with_rhs(b) for b in rhs]
    results = [None] * len(models)
    free = bool((np.isinf(model.lb) & np.isinf(model.ub)).any())
    start = None    # _start(model), built when an LP first takes it
    for i, basis in enumerate(() if free else bases or ()):
        if basis is not None:
            start = start or _start(model)
            results[i] = _solve_warm(models[i], basis, start)
    cold = [i for i, res in enumerate(results) if res is None]
    if free or len(cold) < STACK_MIN or _dualizes(model):
        for i in cold:
            results[i] = solve_lp(models[i])
        return results
    start = start or _start(model)
    stack = _Stack([_Simplex(models[i], start=start) for i in cold])
    for i, res in zip(cold, stack.run()):
        results[i] = res if res is not None else _retry(models[i])[0]
    return results
