"""Independent correctness checks.

Every check recomputes its ground truth from scratch (brute-force
enumeration, direct LP/MIP solves, coefficient arithmetic) rather than
trusting the algorithm under test, and returns a VerificationReport.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .benders import solve_scenario_subproblem, solve_cluster_subproblem, \
    make_pbbenc
from .drivers import RunConfig, run_benders, run_bdd, run_apblagc, \
    _cut_loop, REASON_SATURATED, REASON_TIME_LIMIT
from .instance_io import builtin, GeneratorConfig, generate_sslp
from .lp import OPTIMAL
from .mip import solve_mip, MIP_OPTIMAL
from .model import BINARY, KIND_PBBENC, KIND_PBLAGC, theta_weights, \
    build_extensive
from .partition import Partition, aggregate, is_refinement, singletons, \
    single_cluster, build_partition_extensive

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

SLACK_TOL = 1e-6        # cuts may undercut feasible points by at most this
VALUE_TOL = 1e-6
COEFF_TOL = 1e-9


@dataclass
class VerificationReport:
    check: str
    instance: str
    status: str
    worst: float = None
    witness: object = None
    detail: str = ""

    @property
    def passed(self):
        return self.status == PASS

    def format_line(self):
        head = {PASS: "PASS", FAIL: "FAIL", INCONCLUSIVE: "INCONCLUSIVE"}
        parts = [head[self.status], self.check,
                 f"instance={self.instance}"]
        if self.worst is not None:
            parts.append(f"worst={self.worst:.3e}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


def feasible_first_stage_points(instance, cap=512):
    """All binary first-stage points with A x = b and feasible recourse in
    every scenario, paired with their recourse values (f_s(x))_s."""
    if any(m != BINARY for m in instance.integrality):
        raise ValueError("enumeration needs an all-binary first stage")
    n1 = instance.n1
    if 2 ** n1 > cap:
        raise ValueError(f"2^{n1} first-stage points exceed cap {cap}")
    points = []
    for combo in itertools.product((0.0, 1.0), repeat=n1):
        x = np.array(combo)
        if instance.m1 > 0:
            resid = instance.first_stage_matrix @ x - instance.first_stage_rhs
            if np.abs(resid).max(initial=0.0) > 1e-7:
                continue
        subs = solve_scenario_subproblem(instance, range(instance.n_scenarios),
                                         x)
        if all(sub.status == OPTIMAL for sub in subs):
            points.append((x, np.array([sub.objective for sub in subs])))
    return points


def check_cut_validity(instance, cuts, cap=512):
    """Every cut must hold at every feasible first-stage point with theta
    set to the true recourse values; slack is normalized by 1 + |rhs|."""
    points = feasible_first_stage_points(instance, cap)
    if not points:
        return VerificationReport("cut-validity", instance.name, INCONCLUSIVE,
                                  detail="no feasible first-stage points")
    worst = np.inf
    witness = None
    for ci, cut in enumerate(cuts):
        scale = 1.0 + abs(cut.rhs)
        for x, values in points:
            slack = (float(cut.x_coeffs @ x)
                     + float(cut.theta_coeffs @ values) - cut.rhs) / scale
            if slack < worst:
                worst = slack
                witness = (ci, tuple(float(v) for v in x))
    status = PASS if worst >= -SLACK_TOL else FAIL
    if not cuts:
        return VerificationReport("cut-validity", instance.name, INCONCLUSIVE,
                                  detail="no cuts supplied")
    return VerificationReport("cut-validity", instance.name, status,
                              worst=float(worst), witness=witness)


def check_pbbenc_combination(instance, cluster, xhat):
    """An aggregated Benders cut equals the probability-weighted combination
    of the member scenario cuts generated from the same dual vector."""
    xhat = np.asarray(xhat, dtype=float)
    agg = aggregate(instance, cluster)
    res, = solve_cluster_subproblem(instance, [agg], xhat)
    if res.status != OPTIMAL:
        return VerificationReport("pbbenc-combination", instance.name,
                                  INCONCLUSIVE,
                                  detail="cluster subproblem infeasible")
    cut = make_pbbenc(instance, agg, res)
    lam = res.duals
    w = theta_weights(instance, cluster)
    x_comb = np.zeros(instance.n1)
    rhs_comb = 0.0
    for s in cluster:
        sc = instance.scenarios[s]
        x_comb += w[s] * (sc.technology.T @ lam)
        rhs_comb += w[s] * float(lam @ sc.rhs)
    worst = max(float(np.abs(cut.x_coeffs - x_comb).max(initial=0.0)),
                float(np.abs(cut.theta_coeffs - w).max(initial=0.0)),
                abs(cut.rhs - rhs_comb))
    status = PASS if worst <= COEFF_TOL else FAIL
    return VerificationReport("pbbenc-combination", instance.name, status,
                              worst=worst, witness=tuple(cluster))


def check_dim1_no_gap(instance, separation_budget=100):
    """With a single binary first-stage variable, scenario-level Lagrangian
    cuts close the integrality gap: the saturated bound must match the
    extensive-form optimum."""
    if instance.n1 != 1 or instance.integrality[0] != BINARY:
        raise ValueError("check needs a single binary first-stage variable")
    res = solve_mip(build_extensive(instance))
    if res.status != MIP_OPTIMAL:
        return VerificationReport("dim1-no-gap", instance.name, INCONCLUSIVE,
                                  detail="extensive form did not solve")
    opt = res.objective
    config = RunConfig(algorithm="bdd", saturate=True,
                       separation_budget=separation_budget)
    trace = run_bdd(instance, config)
    if trace.termination_reason == REASON_TIME_LIMIT:
        return VerificationReport("dim1-no-gap", instance.name, INCONCLUSIVE,
                                  detail="ran out of time")
    gap = abs(trace.final_lower_bound - opt) / (1.0 + abs(opt))
    status = PASS if gap <= VALUE_TOL else FAIL
    return VerificationReport("dim1-no-gap", instance.name, status,
                              worst=float(gap),
                              witness=(trace.final_lower_bound, opt))


def check_thm1_strictness():
    """The two-scenario pathological example separates the three bound
    hierarchies: Benders 0, scenario Lagrangian 0, aggregated Lagrangian
    (single cluster) 1/2 = integer optimum."""
    instance = builtin("thm1")
    opt = solve_mip(build_extensive(instance)).objective
    benders = run_benders(instance).final_lower_bound
    bdd = run_bdd(instance, RunConfig(algorithm="bdd",
                                      saturate=True)).final_lower_bound
    apb = run_apblagc(instance).final_lower_bound
    expected = (0.0, 0.0, 0.5, 0.5)
    got = (benders, bdd, apb, opt)
    worst = max(abs(g - e) for g, e in zip(got, expected))
    status = PASS if worst <= VALUE_TOL else FAIL
    return VerificationReport("thm1-strictness", instance.name, status,
                              worst=float(worst), witness=got)


def check_refinement_monotone(instance, chain, cap=None):
    """Partition relaxation values along a refinement chain must be
    nondecreasing; a final all-singleton partition must hit the
    extensive-form optimum."""
    for coarse, fine in zip(chain, chain[1:]):
        if not is_refinement(fine, coarse):
            raise ValueError("not a refinement chain")
    values = []
    for part in chain:
        res = solve_mip(build_partition_extensive(instance, part))
        if res.status != MIP_OPTIMAL:
            return VerificationReport("refinement-monotone", instance.name,
                                      INCONCLUSIVE,
                                      detail="partition problem did not solve")
        values.append(res.objective)
    worst = min((values[i + 1] - values[i] for i in range(len(values) - 1)),
                default=0.0)
    status = PASS if worst >= -VALUE_TOL else FAIL
    detail = ""
    if chain[-1].size == instance.n_scenarios:
        opt = solve_mip(build_extensive(instance)).objective
        err = abs(values[-1] - opt) / (1.0 + abs(opt))
        if err > VALUE_TOL:
            status = FAIL
            detail = f"singleton value {values[-1]:g} != extensive {opt:g}"
        worst = min(worst, -err if err > VALUE_TOL else worst)
    return VerificationReport("refinement-monotone", instance.name, status,
                              worst=float(worst), witness=tuple(values),
                              detail=detail)


def check_single_cluster_exactness(instance, exact):
    """Saturated aggregated Lagrangian cuts at the single cluster, with no
    refinement, reach its partition MIP: the bound must lie between that
    MIP's optimum and the extensive-form optimum, and with `exact` equal
    the former, each to VALUE_TOL.  The master's per-scenario theta lower
    bounds can lift the bound above the 1-cluster MIP, which knows only the
    cluster's averaged recourse, so not every instance is exact."""
    partition = single_cluster(instance.n_scenarios)
    one = solve_mip(build_partition_extensive(instance, partition))
    opt = solve_mip(build_extensive(instance))
    if one.status != MIP_OPTIMAL or opt.status != MIP_OPTIMAL:
        return VerificationReport("single-cluster", instance.name,
                                  INCONCLUSIVE,
                                  detail="a reference MIP did not solve")
    config = RunConfig(algorithm="apblagc", saturate=True,
                       separation_budget=200)
    trace = _cut_loop(instance, config, "apblagc", partition, KIND_PBBENC,
                      KIND_PBLAGC, refines=False)
    z_lb = trace.final_lower_bound
    witness = (z_lb, one.objective, opt.objective)
    detail = "exact" if exact else "between"
    if trace.termination_reason != REASON_SATURATED:
        return VerificationReport(
            "single-cluster", instance.name,
            INCONCLUSIVE if trace.termination_reason == REASON_TIME_LIMIT
            else FAIL, witness=witness,
            detail=f"{detail}; stopped {trace.termination_reason}")
    worst = max(one.objective - z_lb, z_lb - opt.objective)
    if exact:
        worst = max(worst, abs(z_lb - one.objective))
    status = PASS if worst <= VALUE_TOL else FAIL
    return VerificationReport("single-cluster", instance.name, status,
                              worst=float(worst), witness=witness,
                              detail=detail)


# -- suites used by the command line ---------------------------------------

def _validity_pool(seed, inject_invalid=False):
    config = GeneratorConfig(sites=3, clients=4, scenarios=4, seed=seed)
    instance = generate_sslp(config)
    run_cfg = RunConfig(algorithm="apblagc", separation_budget=15,
                        stall_window=2, stall_fraction=0.05,
                        time_limit=120.0)
    trace = run_apblagc(instance, run_cfg)
    cuts = list(trace.cuts)
    if inject_invalid:
        from .model import Cut, KIND_PBLAGC
        bad = Cut(KIND_PBLAGC, np.zeros(instance.n1),
                  instance.probabilities.copy(), 1e6, origin=("injected",))
        cuts.append(bad)
    return instance, cuts


SUITES = ("all", "thm1", "dim1", "validity", "dominance", "monotone",
          "single-cluster")


def run_suite(name, seeds=(0, 1, 2), inject_invalid=False):
    """Assemble and run one named suite of checks; returns reports."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES)}")
    reports = []
    if name in ("thm1", "all"):
        reports.append(check_thm1_strictness())
    if name in ("dim1", "all"):
        for seed in seeds:
            reports.append(check_dim1_no_gap(builtin(f"dim1-random-{seed}")))
    if name in ("validity", "all"):
        for seed in seeds:
            instance, cuts = _validity_pool(seed, inject_invalid)
            reports.append(check_cut_validity(instance, cuts))
    if name in ("dominance", "all"):
        for seed in seeds:
            config = GeneratorConfig(sites=3, clients=4, scenarios=6,
                                     seed=seed)
            instance = generate_sslp(config)
            cluster = (0, 1, 2)
            ones = np.ones(instance.n1)
            one_closed = ones.copy()
            one_closed[0] = 0.0
            for xhat in (ones, one_closed, 0.75 * ones):
                reports.append(check_pbbenc_combination(instance, cluster,
                                                        xhat))
    if name in ("monotone", "all"):
        for seed in seeds:
            config = GeneratorConfig(sites=3, clients=3, scenarios=4,
                                     seed=seed)
            instance = generate_sslp(config)
            chain = [single_cluster(4),
                     Partition.make([(0, 1), (2, 3)], generation=1),
                     singletons(4)]
            reports.append(check_refinement_monotone(instance, chain))
    if name in ("single-cluster", "all"):
        # exact on thm1, dim1-random-1 and the server-location instances;
        # the theta lower bounds lift the other three above the 1-cluster
        # MIP
        for inst_name in ("thm1", "refinement-example", "dim1-random-0",
                          "dim1-random-1", "dim1-random-2"):
            reports.append(check_single_cluster_exactness(
                builtin(inst_name), inst_name in ("thm1", "dim1-random-1")))
        for seed in seeds:
            config = GeneratorConfig(sites=3, clients=4, scenarios=4,
                                     seed=seed)
            reports.append(check_single_cluster_exactness(
                generate_sslp(config), exact=True))
    return reports
