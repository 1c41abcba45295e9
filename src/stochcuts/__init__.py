"""Cutting-plane toolkit for two-stage stochastic integer programs with
continuous recourse: Benders and Lagrangian cuts, scenario-partition
aggregation with dual-guided refinement, and brute-force verification."""

from .model import (Instance, Scenario, Cut, InfeasibleError, validate,
                    build_extensive, theta_weights, CONTINUOUS, BINARY,
                    INTEGER, KIND_BENDERS, KIND_PBBENC, KIND_LAGRANGIAN,
                    KIND_PBLAGC, KIND_FEASIBILITY)
from .lp import LpModel, LpResult, solve_lp, SimplexBreakdown, \
    OPTIMAL, INFEASIBLE, UNBOUNDED, LE, GE, EQ
from .mip import MipModel, MipResult, solve_mip, enumerate_binary, \
    MIP_OPTIMAL, MIP_INFEASIBLE, MIP_BUDGET
from .partition import (Partition, AggregatedScenario, aggregate, refine,
                        is_refinement, single_cluster, singletons,
                        delta_schedule, build_partition_extensive)
from .benders import (MasterState, solve_master, solve_scenario_subproblem,
                      solve_cluster_subproblem, make_benders_cut,
                      make_pbbenc, make_feasibility_cut,
                      compute_theta_lower_bounds)
from .lagrangian import (separate, scenario_target, cluster_target,
                         SeparationOutcome, inner_model, evaluate_inner,
                         make_lagrangian_cut, VIOLATED, NO_VIOLATED, BUDGET)
from .drivers import (RunConfig, RunTrace, run, run_benders, run_bdd,
                      run_alg1, run_apblagc, write_trace_csv,
                      read_trace_csv)
from .instance_io import (parse, emit, load, save, builtin, generate_sslp,
                          GeneratorConfig, FormatError, SchemaError,
                          DimensionError)
from .verify import (VerificationReport, check_cut_validity,
                     check_pbbenc_combination, check_dim1_no_gap,
                     check_thm1_strictness, check_refinement_monotone,
                     feasible_first_stage_points, run_suite)

__version__ = "0.1.0"
