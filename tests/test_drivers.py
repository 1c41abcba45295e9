import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest

from stochcuts import builtin, generate_sslp, GeneratorConfig, mip
from stochcuts.model import (Instance, Scenario, build_extensive, BINARY,
                             INTEGER, KIND_BENDERS, KIND_PBBENC,
                             KIND_LAGRANGIAN, KIND_PBLAGC, KIND_FEASIBILITY)
from stochcuts.mip import solve_mip
from stochcuts.partition import build_partition_extensive, single_cluster
from stochcuts.verify import check_cut_validity, run_suite, PASS
from stochcuts.drivers import (ALGORITHMS, RunConfig, RunTrace, run,
                               run_benders, run_bdd,
                               run_alg1, run_apblagc, cut_split,
                               write_trace_csv, read_trace_csv,
                               TRACE_FORMAT_TAG, TRACE_COLUMNS,
                               REASON_CONVERGED, REASON_SATURATED,
                               REASON_BUDGET, REASON_OUTER_STOP,
                               REASON_TIME_LIMIT)


def test_thm1_bound_hierarchy(thm1):
    # classic Benders is blocked at the LP closure, scenario-level
    # Lagrangian cuts stay there too, aggregated Lagrangian cuts close the
    # gap to the true optimum
    benders = run_benders(thm1)
    assert benders.termination_reason == REASON_CONVERGED
    assert benders.final_lower_bound == pytest.approx(0.0, abs=1e-9)
    assert benders.cut_counts() == {KIND_BENDERS: 2}

    bdd = run_bdd(thm1, RunConfig(algorithm="bdd", saturate=True))
    assert bdd.termination_reason == REASON_SATURATED
    assert bdd.final_lower_bound == pytest.approx(0.0, abs=1e-6)
    assert bdd.cut_counts() == {KIND_BENDERS: 2}

    ap = run_apblagc(thm1, RunConfig(algorithm="apblagc"))
    assert ap.final_lower_bound == pytest.approx(0.5, abs=1e-6)
    assert ap.termination_reason == REASON_OUTER_STOP
    assert ap.n_refinements == 0
    assert ap.final_n_clusters == 1
    assert ap.cut_counts() == {KIND_PBBENC: 1, KIND_PBLAGC: 1}

    ext = solve_mip(build_extensive(thm1))
    assert ext.objective == pytest.approx(0.5)


def test_thm1_alg1(thm1):
    trace = run_alg1(thm1, RunConfig(algorithm="alg1"))
    assert trace.termination_reason == REASON_CONVERGED
    assert trace.final_lower_bound == pytest.approx(0.5, abs=1e-9)
    assert trace.final_upper_bound == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("algorithm", ["benders", "bdd", "apblagc", "alg1"])
def test_bounded_integer_column(refinement_example, algorithm):
    # Every driver used to raise "integer variables need finite bounds" on
    # an integer column.  Bounded by u = 1 it is the binary column: the same
    # trace.  With u = 2 the bound stays under the MIP optimum, and alg1,
    # exact, reaches it.
    def integer(upper):
        return dataclasses.replace(refinement_example, integrality=(INTEGER,),
                                   first_stage_upper=[upper])
    config = RunConfig(algorithm=algorithm)
    binary = run(refinement_example, config)
    same = run(integer(1.0), config)
    assert same.termination_reason == binary.termination_reason
    assert [(ev.kind, ev.z_lb) for ev in same.events] == \
        [(ev.kind, ev.z_lb) for ev in binary.events]
    wider = integer(2.0)
    optimum = solve_mip(build_extensive(wider)).objective
    trace = run(wider, config)
    assert trace.final_lower_bound <= optimum + 1e-6
    if algorithm == "alg1":
        assert trace.final_lower_bound == pytest.approx(optimum, abs=1e-9)


@pytest.mark.parametrize("name", ["thm1", "refinement-example",
                                  "dim1-random-0", "dim1-random-1",
                                  "dim1-random-2", "sslp-3-4-10-s0"])
def test_alg1_is_exact(name, monkeypatch):
    # each partition's bound is its partition problem's, solved on the
    # shared master: at least the partition MIP's (the master's
    # per-scenario theta bounds may lift it), at most the MIP optimum, and
    # the optimum itself, within epsilon, when the gap closed.  Each
    # benders_round event records its partition's bound; a refinement or
    # the termination repeats the bound before it.
    from stochcuts import drivers
    if name.startswith("sslp-"):
        inst = generate_sslp(GeneratorConfig(sites=3, clients=4,
                                             scenarios=10, seed=0))
    else:
        inst = builtin(name)
    partitions = [single_cluster(inst.n_scenarios)]
    refined = drivers._refined

    def recorded(partition, duals, coefficient):
        newp = refined(partition, duals, coefficient)
        if newp is not None:
            partitions.append(newp)
        return newp

    monkeypatch.setattr(drivers, "_refined", recorded)
    config = RunConfig(algorithm="alg1")
    trace = run_alg1(inst, config)
    assert trace.final_partition == partitions[-1]
    optimum = solve_mip(build_extensive(inst)).objective
    z = None
    for ev in trace.events:
        if ev.kind != "benders_round":
            assert ev.z_lb == z
            continue
        partition = partitions[ev.refinements]
        assert partition.size == ev.n_clusters
        partition_mip = solve_mip(build_partition_extensive(
            inst, partition)).objective
        z = ev.z_lb
        assert partition_mip - 1e-9 * (1.0 + abs(partition_mip)) <= z
        assert z <= optimum + 1e-9 * (1.0 + abs(optimum))
    if trace.cuts:
        assert check_cut_validity(inst, trace.cuts).status == PASS
    if trace.termination_reason == REASON_CONVERGED:
        assert abs(z - optimum) <= config.epsilon * max(abs(optimum), 1e-12)


def test_alg1_at_the_deadline(refinement_example, monkeypatch):
    # branch and bound on an integer master stops at the deadline, read on
    # mip's clock after k reads: the run ends time_limit at its last
    # recorded bound, its events a prefix of the unlimited run's, at the
    # first partition (none) or the second (its first two)
    want = run_alg1(refinement_example)
    reads = []

    def clock(limit):
        reads.append(None)
        return np.inf if len(reads) > limit else 0.0

    monkeypatch.setattr(mip, "time", SimpleNamespace(
        monotonic=lambda: clock(np.inf)))
    run_alg1(refinement_example)
    total = len(reads)
    recorded = set()
    for limit in range(total):
        reads.clear()
        monkeypatch.setattr(mip, "time", SimpleNamespace(
            monotonic=lambda limit=limit: clock(limit)))
        trace = run_alg1(refinement_example)
        assert trace.termination_reason == REASON_TIME_LIMIT
        got = [(ev.kind, ev.z_lb, ev.z_ub) for ev in trace.events[:-1]]
        assert got == [(ev.kind, ev.z_lb, ev.z_ub)
                       for ev in want.events[:len(got)]]
        recorded.add(len(got))
    assert recorded == {0, 2}


def test_refinement_example_values(refinement_example):
    inst = refinement_example
    benders = run_benders(inst)
    assert benders.final_lower_bound == pytest.approx(1.25, abs=1e-6)

    bdd = run_bdd(inst, RunConfig(algorithm="bdd", saturate=True))
    assert bdd.final_lower_bound == pytest.approx(1.875, abs=1e-6)
    assert bdd.cut_counts() == {KIND_BENDERS: 2, KIND_LAGRANGIAN: 3}

    alg1 = run_alg1(inst, RunConfig(algorithm="alg1"))
    assert alg1.termination_reason == REASON_CONVERGED
    assert alg1.final_lower_bound == pytest.approx(1.875, abs=1e-9)
    assert alg1.n_refinements == 1
    assert alg1.final_partition.clusters == ((0, 1), (2, 3))

    # the single-cluster Lagrangian pass cannot improve on its own
    # partition bound, so the outer stop fires at the aggregated level
    ap = run_apblagc(inst, RunConfig(algorithm="apblagc"))
    assert ap.termination_reason == REASON_OUTER_STOP
    assert ap.final_lower_bound == pytest.approx(0.375, abs=1e-6)


def test_single_scenario_instance():
    from stochcuts.instance_io import GeneratorConfig, generate_sslp
    inst = generate_sslp(GeneratorConfig(sites=2, clients=3, scenarios=1,
                                         seed=0))
    ext = solve_mip(build_extensive(inst)).objective
    for algorithm in ("benders", "alg1", "apblagc"):
        trace = run(inst, RunConfig(algorithm=algorithm))
        assert trace.final_lower_bound <= ext + 1e-6
        if algorithm == "alg1":
            assert trace.final_lower_bound == pytest.approx(ext, abs=1e-6)


def test_feasibility_cuts_through_the_cut_loop():
    # y >= 2 - 2x (scenario 0) or y >= 1.5 - x (scenario 1), and y <= 1:
    # neither scenario has a recourse at x = 0, so the first masters draw
    # feasibility cuts from Farkas rays; x = 1 costs 1 + 0.5 * 0.5
    scenarios = (Scenario(0.5, [[2.0], [0.0]], [2.0, -1.0]),
                 Scenario(0.5, [[1.0], [0.0]], [1.5, -1.0]))
    inst = Instance("empty-recourse", [1.0], np.zeros((0, 1)), [],
                    (BINARY,), [1.0], [[1.0], [-1.0]], scenarios)
    assert solve_mip(build_extensive(inst)).objective == pytest.approx(1.25)
    for algorithm, origin in (("benders", (0,)), ("bdd", (0,)),
                              ("apblagc", (0, 1)), ("alg1", (0, 1))):
        trace = run(inst, RunConfig(algorithm=algorithm))
        assert trace.final_lower_bound == pytest.approx(1.25, abs=1e-6)
        assert origin in [cut.origin for cut in trace.cuts
                          if cut.kind == KIND_FEASIBILITY]
        assert check_cut_validity(inst, trace.cuts).status == PASS


def test_single_cluster_separation_is_complete():
    # saturated aggregated Lagrangian cuts at the single cluster reach its
    # MIP optimum where that optimum is the bound; the per-scenario theta
    # bounds of the master can lift z_lb above it (refinement-example,
    # dim1-random-0 and -2), never above the MIP optimum
    reports = run_suite("single-cluster")
    assert [r.status for r in reports] == [PASS] * 8, \
        [r.format_line() for r in reports]
    assert [r.instance for r in reports if r.detail == "exact"] == [
        "thm1", "dim1-random-1", "sslp-3-4-4-s0", "sslp-3-4-4-s1",
        "sslp-3-4-4-s2"]


def test_bdd_budget_exhausted_reason(small_sslp):
    # with 3 inner MIPs per separation the last round adds no cut, but its
    # separations stop at their budget rather than prove that none exists
    inst = small_sslp(seed=0, sites=6, clients=8, scenarios=8)
    trace = run_bdd(inst, RunConfig(algorithm="bdd", separation_budget=3))
    assert trace.termination_reason == REASON_BUDGET
    assert trace.events[-2].kind == "lagrangian_round"


def test_trace_monotone_and_rich(small_sslp):
    inst = small_sslp(seed=0)
    trace = run_apblagc(inst, RunConfig(algorithm="apblagc",
                                        separation_budget=5,
                                        stall_window=2, stall_fraction=0.2))
    assert trace.events
    lbs = [ev.z_lb for ev in trace.events]
    assert all(b >= a - 1e-12 for a, b in zip(lbs, lbs[1:]))
    assert trace.events[-1].kind == "termination"
    secs = [ev.seconds for ev in trace.events]
    assert all(b >= a for a, b in zip(secs, secs[1:]))
    # cumulative cut counts never shrink
    sizes = [sum(ev.cuts.values()) for ev in trace.events]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert len(trace.cuts) == sizes[-1]


def test_record_validates_kind_and_monotonicity(thm1):
    trace = RunTrace("t", "benders", 2)
    with pytest.raises(ValueError, match="unknown event kind"):
        trace.record("bogus_round", 0.0)
    trace.record("benders_round", 1.0)
    with pytest.raises(RuntimeError, match="regressed"):
        trace.record("benders_round", 0.5)
    # sub-tolerance noise is clamped, not propagated
    trace.record("benders_round", 1.0 - 1e-9)
    assert trace.events[-1].z_lb == 1.0


def test_determinism(small_sslp, monkeypatch):
    from stochcuts import lagrangian
    inner_solves = []
    evaluate_inner = lagrangian.evaluate_inner

    def counting_evaluate(*args, **kwargs):
        inner_solves[-1] += 1
        return evaluate_inner(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "evaluate_inner", counting_evaluate)
    inst = small_sslp(seed=6)
    cfg = RunConfig(algorithm="apblagc", separation_budget=5,
                    stall_window=2, stall_fraction=0.2)
    inner_solves.append(0)
    a = run_apblagc(inst, cfg)
    # same scenario count, so any inner-solve result that outlived its
    # run would be keyed like this instance's own
    inner_solves.append(0)
    run_apblagc(small_sslp(seed=7), cfg)
    inner_solves.append(0)
    b = run_apblagc(inst, cfg)
    # certified inner solves are reused within a run, never across runs
    assert inner_solves[0] > 0
    assert inner_solves[-1] == inner_solves[0]
    assert a.termination_reason == b.termination_reason
    assert len(a.events) == len(b.events)
    for ea, eb in zip(a.events, b.events):
        assert ea.kind == eb.kind
        assert ea.z_lb == eb.z_lb
        assert ea.cuts == eb.cuts
        assert ea.n_clusters == eb.n_clusters
        assert ea.refinements == eb.refinements


def _recorded_apblagc(sites, clients):
    """One apblagc run on generate_sslp(sites, clients, 8) seed 0 at budget
    6: its trace, every evaluate_inner key, the pool size at every
    solve_master call, and per separate call its target and the number of
    refinements before it."""
    from stochcuts import drivers, lagrangian
    from stochcuts.instance_io import GeneratorConfig, generate_sslp
    keys, pool_sizes, separations, refinements = [], [], [], [0]
    evaluate_inner, solve_master = (lagrangian.evaluate_inner,
                                    drivers.solve_master)
    separate, refined = drivers.separate, drivers._refined

    def recording_evaluate(instance, target, pi, pi0, deadline=None):
        keys.append((target.cluster, np.asarray(pi).tobytes(), pi0))
        return evaluate_inner(instance, target, pi, pi0, deadline)

    def recording_master(state, *args, **kwargs):
        pool_sizes.append(len(state.cuts))
        return solve_master(state, *args, **kwargs)

    def recording_separate(instance, target, *args, **kwargs):
        separations.append((target, refinements[0]))
        return separate(instance, target, *args, **kwargs)

    def counting_refined(*args):
        newp = refined(*args)
        refinements[0] += newp is not None
        return newp

    inst = generate_sslp(GeneratorConfig(sites=sites, clients=clients,
                                         scenarios=8, seed=0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrangian, "evaluate_inner", recording_evaluate)
        mp.setattr(drivers, "solve_master", recording_master)
        mp.setattr(drivers, "separate", recording_separate)
        mp.setattr(drivers, "_refined", counting_refined)
        trace = run_apblagc(inst, RunConfig(algorithm="apblagc",
                                            separation_budget=6))
    return trace, keys, pool_sizes, separations


@pytest.fixture(scope="module")
def apblagc_calls():
    """Every evaluate_inner key and the pool size at every solve_master
    call of one apblagc run on sslp-6-8-8 seed 0 at budget 6."""
    trace, keys, pool_sizes, _ = _recorded_apblagc(6, 8)
    return trace, keys, pool_sizes


def test_inner_solves_not_repeated(apblagc_calls):
    # a (target, pi, pi0) certified once is reused within the run; the
    # (0, 1) seed of every round is the most common repeat
    _, keys, _ = apblagc_calls
    assert keys
    assert len(set(keys)) == len(keys)


def test_master_not_resolved_on_unchanged_pool(apblagc_calls):
    trace, _, pool_sizes = apblagc_calls
    assert len(set(pool_sizes)) == len(pool_sizes)
    assert trace.termination_reason == REASON_OUTER_STOP


@pytest.fixture(scope="module")
def refined_apblagc_calls():
    """The same records on generate_sslp(4, 6, 8), whose second refinement
    splits (0, 1) and leaves six clusters whole."""
    trace, keys, _, separations = _recorded_apblagc(4, 6)
    return trace, keys, separations


def test_inner_solves_not_repeated_across_refinement(refined_apblagc_calls):
    # a target kept across a refinement keeps its inner solves: its seed
    # (0, 1) is not solved again in the next partition
    trace, keys, _ = refined_apblagc_calls
    assert trace.n_refinements == 2
    assert keys
    assert len(set(keys)) == len(keys)


def test_refinement_keeps_unchanged_targets(refined_apblagc_calls):
    # one target object per cluster for the whole run; the six clusters
    # the second refinement left whole were separated on both sides of it
    _, _, separations = refined_apblagc_calls
    targets, spans = {}, {}
    for target, refinements in separations:
        assert targets.setdefault(target.cluster, target) is target
        spans.setdefault(target.cluster, set()).add(refinements)
    kept = sorted(c for c, span in spans.items() if span == {1, 2})
    assert kept == [(2,), (3,), (4,), (5,), (6,), (7,)]
    assert spans[(0, 1)] == {1}
    assert spans[(0,)] == spans[(1,)] == {2}


def test_node_lp_phase1_reuse_per_run(thm1, monkeypatch):
    # The inner MIPs of a separation target share one phase-1 cache
    # (lp.solve_lp), owned by the target and so by the run: apblagc on
    # sslp-6-8-8 seed 0 at budget 6 runs phase 1 in 269 of its 567 node
    # LPs, again after a run on another instance.  A cache that outlived
    # its run would leave the second run none to do.
    from stochcuts import lp, mip
    from stochcuts.instance_io import GeneratorConfig, generate_sslp
    counts = {"node_lps": 0, "phase1": 0}
    in_node = [False]
    phase1, solve_lp = lp._Simplex._phase1, mip.solve_lp

    def counted_phase1(self):
        counts["phase1"] += in_node[0]
        return (yield from phase1(self))

    def counted_solve_lp(model, starts=None):
        counts["node_lps"] += 1
        in_node[0] = True
        try:
            return solve_lp(model, starts)
        finally:
            in_node[0] = False

    monkeypatch.setattr(lp._Simplex, "_phase1", counted_phase1)
    monkeypatch.setattr(mip, "solve_lp", counted_solve_lp)
    inst = generate_sslp(GeneratorConfig(sites=6, clients=8, scenarios=8,
                                         seed=0))
    config = RunConfig(algorithm="apblagc", separation_budget=6)
    seen = []
    for instance in (inst, thm1, inst):
        run_apblagc(instance, config)
        seen.append(dict(counts))
        counts.update(node_lps=0, phase1=0)
    assert seen[0] == seen[2] == {"node_lps": 567, "phase1": 269}


SKIP_GATE = ("thm1", "refinement-example", "dim1-random-0", "dim1-random-1",
             "dim1-random-2", "sslp-3-4-10-s0", "sslp-6-8-8-s0")
SKIP_GATE_CONFIGS = {"benders": {}, "bdd": {"saturate": True},
                     "apblagc": {"separation_budget": 6}, "alg1": {}}


def _run_bytes(trace):
    """The trace CSV without its wall-clock column, and the cut pool."""
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    rows = [row.split(",") for row in buf.getvalue().splitlines()[1:]]
    col = rows[0].index("seconds")
    pool = [(cut.kind, cut.x_coeffs.tobytes(), cut.theta_coeffs.tobytes(),
             repr(cut.rhs), cut.origin) for cut in trace.cuts]
    return [row[:col] + row[col + 1:] for row in rows], pool


@pytest.mark.parametrize("algorithm", sorted(SKIP_GATE_CONFIGS))
@pytest.mark.parametrize("name", SKIP_GATE)
def test_recourse_skips_change_no_run(name, algorithm, monkeypatch):
    # A Benders round skips a cluster's recourse LP when the basis it last
    # ended at certifies that no cut is due.  The run must be, byte for
    # byte, the one whose rounds solve every LP, and on the sslp instances
    # it must solve fewer.
    from stochcuts import drivers, lp
    if name.startswith("sslp-"):
        sites, clients, scenarios, seed = name[len("sslp-"):].split("-")
        inst = generate_sslp(GeneratorConfig(
            sites=int(sites), clients=int(clients), scenarios=int(scenarios),
            seed=int(seed.lstrip("s"))))
    else:
        inst = builtin(name)
    config = RunConfig(algorithm=algorithm, **SKIP_GATE_CONFIGS[algorithm])
    solved = []
    subproblems = drivers.solve_cluster_subproblem

    def counted(instance, records, xhat, bases=None):
        solved.append(len(records))
        return subproblems(instance, records, xhat, bases)

    monkeypatch.setattr(drivers, "solve_cluster_subproblem", counted)
    skipping = run(inst, config)
    fewer = sum(solved)
    solved.clear()
    monkeypatch.setattr(lp.Basis, "objective_at", lambda self, b: None)
    every = run(inst, config)
    assert _run_bytes(skipping) == _run_bytes(every)
    if name.startswith("sslp-"):
        assert fewer < sum(solved)


def test_cut_split():
    assert cut_split({}) == (0, 0)
    counts = {KIND_BENDERS: 3, KIND_PBBENC: 2, KIND_LAGRANGIAN: 1,
              KIND_PBLAGC: 4}
    assert cut_split(counts) == (4, 6)


def test_trace_csv_round_trip(thm1):
    trace = run_apblagc(thm1, RunConfig(algorithm="apblagc"))
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    text = buf.getvalue()
    assert text.startswith(TRACE_FORMAT_TAG + "\n")
    rows = read_trace_csv(io.StringIO(text))
    assert len(rows) == len(trace.events)
    for row, ev in zip(rows, trace.events):
        assert row["run"] == "thm1:apblagc"
        assert row["algorithm"] == "apblagc"
        assert row["instance"] == "thm1"
        assert row["scenarios"] == 2
        assert row["kind"] == ev.kind
        assert row["z_lb"] == ev.z_lb         # repr round trip is exact
        assert row["z_ub"] == ev.z_ub
        assert (row["ccut"], row["fcut"]) == cut_split(ev.cuts)
        assert row["n_clusters"] == ev.n_clusters
        assert row["refinements"] == ev.refinements
    assert [row["event"] for row in rows] == list(range(len(rows)))


def test_trace_csv_rejects_other_schemas():
    with pytest.raises(ValueError, match="unknown trace schema"):
        read_trace_csv(io.StringIO("other-tag\nrun,algorithm\n"))
    bad_header = TRACE_FORMAT_TAG + "\nrun,algorithm\n"
    with pytest.raises(ValueError, match="column list"):
        read_trace_csv(io.StringIO(bad_header))
    good = TRACE_FORMAT_TAG + "\n" + ",".join(TRACE_COLUMNS) + "\nx,y\n"
    with pytest.raises(ValueError, match="fields"):
        read_trace_csv(io.StringIO(good))


def test_run_dispatch(thm1):
    trace = run(thm1, RunConfig(algorithm="benders"))
    assert trace.algorithm == "benders"
    with pytest.raises(ValueError, match="unknown algorithm"):
        run(thm1, RunConfig(algorithm="simplex"))


def test_run_config_rejects_unknown_algorithm():
    # checked where the config is built, not when run() dispatches on it
    for name in ALGORITHMS:
        assert RunConfig(algorithm=name).algorithm == name
    with pytest.raises(ValueError, match="unknown algorithm 'foo'; choose "
                                         "from .'alg1', 'apblagc', 'bdd', "
                                         "'benders'.$"):
        RunConfig(algorithm="foo")


def test_run_config_validation():
    # NaN fails every check, infinity every one but time_limit's
    for field, value in (
            ("kappa1", 1.5), ("kappa1", np.nan),
            ("delta_coefficient", 0.0), ("delta_coefficient", np.nan),
            ("delta_coefficient", np.inf),
            ("stall_window", 0), ("stall_window", np.nan),
            ("stall_window", 2.0), ("stall_window", 1.5),
            ("stall_fraction", 0.0), ("stall_fraction", np.nan),
            ("time_limit", 0.0), ("time_limit", np.nan),
            ("separation_budget", 0), ("separation_budget", np.nan),
            ("separation_budget", 6.0), ("separation_budget", 2.5),
            ("multiplier_box", 0.0), ("multiplier_box", np.nan),
            ("multiplier_box", np.inf),
            ("epsilon", -1.0), ("epsilon", np.nan), ("epsilon", np.inf)):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})


def test_unlimited_time_allowed(thm1):
    trace = run_apblagc(thm1, RunConfig(time_limit=np.inf))
    assert trace.final_lower_bound == pytest.approx(0.5, abs=1e-6)


def test_time_limit_reason(small_sslp):
    inst = small_sslp(seed=0, sites=4, clients=6, scenarios=8)
    trace = run_apblagc(inst, RunConfig(algorithm="apblagc",
                                        time_limit=1e-3))
    assert trace.termination_reason == REASON_TIME_LIMIT


def test_final_mip_master_at_the_deadline(thm1, monkeypatch):
    # branch and bound on the final integer master stops at the deadline:
    # the run ends time_limit at its last LP bound, as without the option
    from stochcuts import mip
    want = run_benders(thm1)
    monkeypatch.setattr(mip, "time", SimpleNamespace(monotonic=lambda: np.inf))
    trace = run_benders(thm1, RunConfig(algorithm="benders",
                                        final_mip_master=True))
    assert trace.termination_reason == REASON_TIME_LIMIT
    assert [(ev.kind, ev.z_lb) for ev in trace.events[:-1]] == \
        [(ev.kind, ev.z_lb) for ev in want.events[:-1]]
    assert trace.final_lower_bound == want.final_lower_bound


def test_final_mip_master(thm1):
    cfg = RunConfig(algorithm="apblagc", final_mip_master=True)
    trace = run_apblagc(thm1, cfg)
    # thm1's cut pool already prices the binary optimum exactly
    assert trace.final_lower_bound == pytest.approx(0.5, abs=1e-6)
    # in general the integer master over the final pool lies between the
    # run's last LP bound and the MIP optimum
    for inst in (thm1, builtin("refinement-example")):
        opt = solve_mip(build_extensive(inst)).objective
        for algorithm in ("benders", "bdd", "apblagc"):
            trace = run(inst, RunConfig(algorithm=algorithm,
                                        final_mip_master=True))
            *_, before, final, end = trace.events
            assert (final.kind, end.kind) == ("lagrangian_round",
                                              "termination")
            assert before.z_lb <= final.z_lb <= opt + 1e-9 * (1.0 + abs(opt))
