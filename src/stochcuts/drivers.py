"""End-to-end algorithm drivers with uniform tracing.

A scenario is a singleton cluster, so the four solvers are one cut loop
over a scenario partition, configured by the start partition, the kind of
Benders and Lagrangian cuts, and whether to refine; a loop that refines
with no Lagrangian rounds solves each partition problem exactly, on the
integer master.  The loop builds one SeparationTarget (a cluster's
aggregate plus its cut kind) per cluster of the current partition, and
keeps it, with what its separations learned, for as long as the cluster
survives refinement; its Benders and Lagrangian rounds both work from
that list:

  run_benders   multi-cut Benders on the LP relaxation at the singleton
                partition; no Lagrangian rounds, no refinement,
  run_bdd       the same plus scenario-level Lagrangian cut rounds,
  run_apblagc   adaptive partition-based Lagrangian cuts: aggregated
                Benders and Lagrangian rounds from the single cluster on,
                dual-guided refinement with a progress-based outer stop,
  run_alg1      the adaptive partition loop on exact partition problems:
                aggregated Benders rounds from the single cluster on, then
                the integer L-shaped method on the integer master at each
                partition, refined until the relative gap closes.

All bounds are recorded in a RunTrace whose numeric content is
deterministic for a fixed instance and config; only wall-clock fields vary
between repeat runs.  Each event's cut counts are those of the pool that
produced its bound.
"""

from __future__ import annotations

import csv
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .benders import (MasterState, solve_master, solve_scenario_subproblem,
                      solve_cluster_subproblem, make_pbbenc,
                      make_feasibility_cut, CUT_VIOLATION_TOL)
from .lagrangian import separate, cluster_target, VIOLATED, BUDGET
from .lp import INFEASIBLE as LP_INFEASIBLE
from .model import KIND_BENDERS, KIND_PBBENC, KIND_LAGRANGIAN, KIND_PBLAGC
from .partition import single_cluster, singletons, refine, delta_schedule

EVENT_KINDS = ("benders_round", "lagrangian_round", "refinement", "termination")
ALGORITHMS = ("benders", "bdd", "alg1", "apblagc")

REASON_CONVERGED = "converged"
REASON_SATURATED = "saturated"
REASON_BUDGET = "budget_exhausted"
REASON_STALLED = "stalled"
REASON_OUTER_STOP = "outer_stop"
REASON_EXHAUSTED = "refinement_exhausted"
REASON_TIME_LIMIT = "time_limit"


@dataclass
class RunConfig:
    algorithm: str = "apblagc"
    kappa1: float = 0.2              # outer-stop progress fraction
    delta_coefficient: float = 2.0   # refinement threshold = coeff / n^2
    stall_window: int = 5            # rounds measured by the stall rule
    stall_fraction: float = 0.05     # ... against this share of partition progress
    time_limit: float = 3600.0
    separation_budget: int = 50      # inner MIPs per target per round
    multiplier_box: float = 1.0
    epsilon: float = 1e-6            # relative gap target for run_alg1
    saturate: bool = False           # ignore the stall rule; stop only when no cut exists
    final_mip_master: bool = False   # solve the integer master once at the end

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {sorted(ALGORITHMS)}")
        # each check is written so that NaN fails it; time_limit alone may
        # be infinite, for no limit
        if not 0.0 < self.kappa1 < 1.0:
            raise ValueError("kappa1 must lie in (0, 1)")
        if not 0.0 < self.delta_coefficient < np.inf:
            raise ValueError("delta_coefficient must be positive and finite")
        for name in ("stall_window", "separation_budget"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer, at least 1")
        if not 0.0 < self.stall_fraction < 1.0:
            raise ValueError("stall_fraction must lie in (0, 1)")
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if not 0.0 < self.multiplier_box < np.inf:
            raise ValueError("multiplier_box must be positive and finite")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")


@dataclass
class TraceEvent:
    seconds: float
    kind: str
    z_lb: float
    z_ub: float          # None when the algorithm tracks no upper bound
    cuts: dict           # cumulative cut counts by kind
    n_clusters: int
    refinements: int


class RunTrace:
    def __init__(self, instance_name, algorithm, n_scenarios):
        self.instance_name = instance_name
        self.algorithm = algorithm
        self.n_scenarios = n_scenarios
        self.events = []
        self.termination_reason = None
        self.cuts = []               # the master's cut pool at termination
        self.final_partition = None  # the partition the run ended at
        self.t0 = time.monotonic()

    def record(self, kind, z_lb, z_ub=None, cuts=None, n_clusters=1,
               refinements=0):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        z_lb = float(z_lb)
        if self.events:
            prev = self.events[-1].z_lb
            if z_lb < prev - 1e-6 * (1.0 + abs(z_lb)):
                raise RuntimeError("lower bound regressed between events")
            z_lb = max(z_lb, prev)   # monotone by theory; clamp float noise
        self.events.append(TraceEvent(time.monotonic() - self.t0, kind, z_lb,
                                      None if z_ub is None else float(z_ub),
                                      dict(cuts or {}), int(n_clusters),
                                      int(refinements)))

    def finish(self, reason):
        self.termination_reason = reason
        if self.events:
            last = self.events[-1]
            self.record("termination", last.z_lb, last.z_ub, last.cuts,
                        last.n_clusters, last.refinements)

    @property
    def final_lower_bound(self):
        return self.events[-1].z_lb if self.events else -np.inf

    @property
    def final_upper_bound(self):
        for ev in reversed(self.events):
            if ev.z_ub is not None:
                return ev.z_ub
        return None

    @property
    def n_refinements(self):
        return self.events[-1].refinements if self.events else 0

    @property
    def final_n_clusters(self):
        return self.events[-1].n_clusters if self.events else 0

    def cut_counts(self):
        return dict(self.events[-1].cuts) if self.events else {}


def _stalled(lb, window, fraction):
    """Progress of the last `window` rounds under `fraction` of the total
    progress recorded for the current partition (with a tiny absolute slack
    so a flat tail counts as stalled)."""
    if len(lb) < window + 1:
        return False
    recent = lb[-1] - lb[-1 - window]
    total = lb[-1] - lb[0]
    return recent <= fraction * total + 1e-9


def _outer_stop(lb_k, lb0_first, kappa1):
    """Stop refining once this partition's own progress fell under kappa1
    times the progress since the very first recorded bound."""
    progress = lb_k[-1] - lb_k[0]
    total = lb_k[-1] - lb0_first
    return progress <= kappa1 * total + 1e-9


def _benders_round(instance, state, targets, kind, x, theta, warm):
    """Add each cluster's violated optimality (or feasibility) cut at x.

    A target keeps the basis its recourse LP last ended at, OPTIMAL or,
    from a warm run, INFEASIBLE, and the round skips its LP when the basis
    certifies that no cut is due.  Under fixed recourse the basis stays
    dual feasible at every x, so where it is still primal feasible at x,
    its objective q there is the LP's optimum.  The LP is skipped when also
    q <= t_P + CUT_VIOLATION_TOL / 2 * (1 + |t_P|): a solve would return
    that optimum and add no cut, since its own test has the whole
    CUT_VIOLATION_TOL, and the other half is a margin far above the LP
    core's rounding.  Every other LP is solved; solve_lps gives each
    result as solve_lp would, whatever the batch, so the cuts, masters and
    traces are those of a round that solves every LP.

    With `warm`, each LP solved starts from its target's basis, by a dual
    simplex (lp.solve_lps).  A degenerate recourse LP has more than one
    optimal dual, and a warm start can end at another one than a cold
    solve.  The loops without Lagrangian rounds, benders and alg1, pass
    warm: their bounds, the LP relaxation's and the integer L-shaped
    method's at each partition, are optima that do not depend on which
    optimal dual a cut is made from.  The Lagrangian loops do not: their
    bounds move with the cuts' duals, in either direction (ROADMAP items
    6 and 8), so bdd and apblagc solve cold, as before."""
    added = 0
    todo = []
    for target in targets:
        t_p = float(target.theta_weights @ theta)
        q = None if target.basis is None else target.basis.objective_at(
            target.rhs - target.technology @ x)
        if q is None or q > t_p + CUT_VIOLATION_TOL / 2 * (1.0 + abs(t_p)):
            todo.append((target, t_p))
    results = solve_cluster_subproblem(
        instance, [t for t, _ in todo], x,
        [t.basis for t, _ in todo] if warm else None)
    for (target, t_p), res in zip(todo, results):
        target.keep_basis(res.basis)
        if res.status == LP_INFEASIBLE:
            cut = make_feasibility_cut(instance, target, res)
        else:
            if res.objective <= t_p + CUT_VIOLATION_TOL * (1.0 + abs(t_p)):
                continue
            cut = make_pbbenc(instance, target, res, kind)
        added += state.add_cut(cut)
    return added


def _scenario_duals(instance, x):
    """Duals (or unit max-norm Farkas rays) of every scenario subproblem at
    x, the clustering signal for refinement, and the expected recourse
    value there (None when some scenario has no recourse)."""
    p = instance.probabilities
    duals = {}
    expected = 0.0
    results = solve_scenario_subproblem(
        instance, range(instance.n_scenarios), x)
    for s, res in enumerate(results):
        if res.status != LP_INFEASIBLE:
            duals[s] = res.duals
            if expected is not None:
                expected += p[s] * res.objective
        else:
            expected = None
            ray = res.farkas
            scale = float(np.abs(ray).max(initial=0.0))
            duals[s] = ray / scale if scale > 0 else ray
    return duals, expected


def _refined(partition, duals, coefficient):
    """The partition's next refinement n = generation + 1 at delta_n,
    retried at delta_n / 2; None when neither splits a cluster."""
    delta = delta_schedule(partition.generation + 1, coefficient)
    for d in (delta, delta / 2.0):
        newp = refine(partition, duals, d)
        if newp.size > partition.size:
            return newp
    return None


def _integer_l_shaped(instance, state, targets, kind, deadline):
    """The integer L-shaped method at the current partition: the integer
    master, then a warm Benders round at its x, until the round adds no
    cut.  The last master's (x, theta, objective), or None at the
    deadline."""
    while True:
        out = solve_master(state, relax_integrality=False, deadline=deadline)
        if out is None or not _benders_round(instance, state, targets, kind,
                                             out[0], out[1], warm=True):
            return out


def _cut_loop(instance, config, algorithm, partition, benders_kind,
              lagrangian_kind, refines):
    """Benders saturation, then Lagrangian rounds (unless lagrangian_kind is
    None) at the current partition until they stall; then stop, or with
    `refines` either stop outright -- when this partition's progress fell
    under kappa1 times the total progress -- or refine along scenario duals
    and repeat.

    With `refines` and no Lagrangian rounds the loop is exact: after
    Benders saturation each partition's bound is the integer L-shaped
    method's, its upper bound c.x plus the expected recourse at the
    integer master's x, and the loop stops when their relative gap is
    within config.epsilon.  It records only these bounds: a relaxed master
    after a refinement can sit below the last integer bound."""
    trace = RunTrace(instance.name, algorithm, instance.n_scenarios)
    deadline = trace.t0 + config.time_limit
    state = MasterState(instance)
    exact = refines and lagrangian_kind is None
    lb0_first = None
    z_ub = None
    reason = None

    def record(kind, z):
        trace.record(kind, z, z_ub, cuts=state.cut_counts(),
                     n_clusters=partition.size,
                     refinements=partition.generation)

    targets = []
    lb_k = []
    x, theta, z = solve_master(state)
    if not exact:
        record("benders_round", z)
    while reason is None:
        kept = {t.cluster: t for t in targets}   # a cluster left whole
        targets = [kept.get(c) or cluster_target(instance, c, lagrangian_kind)
                   for c in partition.clusters]
        while True:
            if time.monotonic() > deadline:
                reason = REASON_TIME_LIMIT
                break
            if _benders_round(instance, state, targets, benders_kind,
                              x, theta, lagrangian_kind is None) == 0:
                break
            x, theta, z = solve_master(state)
            if not exact:
                record("benders_round", z)
        if reason is not None:
            break
        if exact:
            out = _integer_l_shaped(instance, state, targets, benders_kind,
                                    deadline)
            if out is None:
                reason = REASON_TIME_LIMIT
                break
            x, theta, z = out
            duals, expected = _scenario_duals(instance, x)
            if expected is not None:
                value = float(instance.first_stage_cost @ x) + expected
                z_ub = value if z_ub is None else min(z_ub, value)
            record("benders_round", z)
            if (z_ub is not None and (z_ub - z) / max(abs(z_ub), 1e-12)
                    <= config.epsilon):
                reason = REASON_CONVERGED
                break
            if time.monotonic() > deadline:
                reason = REASON_TIME_LIMIT
                break
        elif lagrangian_kind is None:
            reason = REASON_CONVERGED
            break
        else:
            found = budget = 0
            for target in targets:
                out = separate(instance, target, x,
                               float(target.theta_weights @ theta),
                               budget=config.separation_budget,
                               box=config.multiplier_box, deadline=deadline)
                if out.status == VIOLATED and state.add_cut(out.cut):
                    found += 1
                budget += out.status == BUDGET
            if found:   # an unchanged pool would give back the same solution
                x, theta, z = solve_master(state)
            lb_k.append(z)
            if lb0_first is None:
                lb0_first = lb_k[0]
            record("lagrangian_round", z)
            if time.monotonic() > deadline:
                reason = REASON_TIME_LIMIT
                break
            stalled = (found == 0) if config.saturate else \
                (found == 0 or _stalled(lb_k, config.stall_window,
                                        config.stall_fraction))
            if not stalled:
                continue
            if not refines:
                if found:
                    reason = REASON_STALLED
                else:
                    reason = REASON_BUDGET if budget else REASON_SATURATED
                break
            if _outer_stop(lb_k, lb0_first, config.kappa1):
                reason = REASON_OUTER_STOP
                break
            duals, _ = _scenario_duals(instance, x)
        newp = _refined(partition, duals, config.delta_coefficient)
        if newp is None:
            reason = REASON_EXHAUSTED
            break
        partition = newp
        lb_k = []
        record("refinement", z)
    if (config.final_mip_master and not exact
            and reason != REASON_TIME_LIMIT):
        final = solve_master(state, relax_integrality=False, deadline=deadline)
        if final is None:   # the deadline came first: the LP bound stands
            reason = REASON_TIME_LIMIT
        else:
            record("lagrangian_round", final[2])
    trace.cuts = state.cuts
    trace.final_partition = partition
    trace.finish(reason)
    return trace


def run_benders(instance, config=None):
    """Classic multi-cut Benders on the LP relaxation; converges to the
    optimum of the LP-relaxed extensive form."""
    return _cut_loop(instance, config or RunConfig(algorithm="benders"),
                     "benders", singletons(instance.n_scenarios),
                     KIND_BENDERS, None, refines=False)


def run_bdd(instance, config=None):
    """Benders saturation followed by per-scenario Lagrangian cut rounds;
    the lower bound climbs toward the scenario-level Lagrangian dual."""
    return _cut_loop(instance, config or RunConfig(algorithm="bdd"), "bdd",
                     singletons(instance.n_scenarios), KIND_BENDERS,
                     KIND_LAGRANGIAN, refines=False)


def run_alg1(instance, config=None):
    """Adaptive partition loop: solve each partition problem exactly on the
    shared master (integer L-shaped method), evaluate the true expected
    recourse at its first stage, refine by scenario duals until the
    relative gap closes."""
    return _cut_loop(instance, config or RunConfig(algorithm="alg1"), "alg1",
                     single_cluster(instance.n_scenarios), KIND_PBBENC, None,
                     refines=True)


def run_apblagc(instance, config=None):
    """Adaptive partition-based Lagrangian cuts.

    Work at the coarsest partition until aggregated Benders and Lagrangian
    cuts stop paying (the stall rule), then either stop outright -- when
    this partition's progress fell under kappa1 times the total progress --
    or refine along scenario duals and repeat.
    """
    return _cut_loop(instance, config or RunConfig(algorithm="apblagc"),
                     "apblagc", single_cluster(instance.n_scenarios),
                     KIND_PBBENC, KIND_PBLAGC, refines=True)


def run(instance, config):
    """Dispatch on config.algorithm, which RunConfig checks."""
    table = {"benders": run_benders, "bdd": run_bdd, "alg1": run_alg1,
             "apblagc": run_apblagc}
    return table[config.algorithm](instance, config)


TRACE_FORMAT_TAG = "stochcuts-trace-v1"
TRACE_COLUMNS = ("run", "algorithm", "instance", "scenarios", "event",
                 "kind", "seconds", "z_lb", "z_ub", "ccut", "fcut",
                 "n_clusters", "refinements")


def cut_split(counts):
    """(aggregated Lagrangian cuts, everything else) from a per-kind dict."""
    ccut = int(counts.get(KIND_PBLAGC, 0))
    fcut = int(sum(v for k, v in counts.items() if k != KIND_PBLAGC))
    return ccut, fcut


def write_trace_csv(trace, fh):
    """One row per event under a versioned header; numeric fields use repr
    so a reread is exact."""
    fh.write(TRACE_FORMAT_TAG + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    run_id = f"{trace.instance_name}:{trace.algorithm}"
    for i, ev in enumerate(trace.events):
        ccut, fcut = cut_split(ev.cuts)
        writer.writerow([run_id, trace.algorithm, trace.instance_name,
                         trace.n_scenarios, i, ev.kind, repr(ev.seconds),
                         repr(ev.z_lb),
                         "" if ev.z_ub is None else repr(ev.z_ub),
                         ccut, fcut, ev.n_clusters, ev.refinements])


def read_trace_csv(fh):
    """Rows as dicts with numeric fields parsed; rejects unknown schemas."""
    tag = fh.readline().strip()
    if tag != TRACE_FORMAT_TAG:
        raise ValueError(f"unknown trace schema {tag!r}; "
                         f"expected {TRACE_FORMAT_TAG!r}")
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(header) != TRACE_COLUMNS:
        raise ValueError("trace header does not match the v1 column list")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(TRACE_COLUMNS):
            raise ValueError(f"trace row has {len(rec)} fields, "
                             f"expected {len(TRACE_COLUMNS)}")
        row = dict(zip(TRACE_COLUMNS, rec))
        row["scenarios"] = int(row["scenarios"])
        row["event"] = int(row["event"])
        row["seconds"] = float(row["seconds"])
        row["z_lb"] = float(row["z_lb"])
        row["z_ub"] = None if row["z_ub"] == "" else float(row["z_ub"])
        for key in ("ccut", "fcut", "n_clusters", "refinements"):
            row[key] = int(row[key])
        rows.append(row)
    return rows
