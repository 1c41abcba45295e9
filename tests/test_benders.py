import dataclasses

import numpy as np
import pytest

from stochcuts.model import (Instance, Scenario, Cut, BINARY,
                             KIND_BENDERS, KIND_PBBENC, KIND_FEASIBILITY,
                             KIND_LAGRANGIAN, stacked_model, theta_weights)
from stochcuts.partition import AggregatedScenario, aggregate, single_cluster
from stochcuts.lagrangian import scenario_target, cluster_target
from stochcuts.benders import (solve_scenario_subproblem,
                               solve_cluster_subproblem, make_benders_cut,
                               make_pbbenc, make_feasibility_cut,
                               compute_theta_lower_bounds, MasterState,
                               solve_master, MasterInfeasibleError,
                               DEDUP_TOL)
from stochcuts.lp import OPTIMAL, INFEASIBLE, STACK_MIN, solve_lp


def test_scenario_subproblem_values(thm1):
    # scenario 0 rows: y >= x1 - x2 and y >= x2 - x1
    at_origin, = solve_scenario_subproblem(thm1, [0], np.zeros(2))
    assert at_origin.status == OPTIMAL
    assert at_origin.objective == pytest.approx(0.0)
    split, = solve_scenario_subproblem(thm1, [0], np.array([1.0, 0.0]))
    assert split.objective == pytest.approx(1.0)
    assert split.duals == pytest.approx([1.0, 0.0])
    # scenario 1 rows: y >= 1 - x1 - x2 and y >= x1 + x2 - 1
    s1, = solve_scenario_subproblem(thm1, [1], np.zeros(2))
    assert s1.objective == pytest.approx(1.0)
    assert s1.duals == pytest.approx([1.0, 0.0])


def test_cluster_subproblem_matches_aggregate(thm1):
    agg = aggregate(thm1, (0, 1))
    res, = solve_cluster_subproblem(thm1, [agg], np.zeros(2))
    # averaged rows: y >= x2 - 0 + 0.5 and y >= -x2 - 0.5 at x = 0
    assert res.status == OPTIMAL and res.objective == pytest.approx(0.5)
    assert res.duals == pytest.approx([1.0, 0.0])


def test_make_benders_cut(thm1):
    res, = solve_scenario_subproblem(thm1, [1], np.zeros(2))
    cut = make_benders_cut(thm1, 1, res)
    assert cut.kind == KIND_BENDERS
    assert cut.x_coeffs == pytest.approx([1.0, 1.0])
    assert cut.theta_coeffs == pytest.approx([0.0, 1.0])
    assert cut.rhs == pytest.approx(1.0)
    # tight at the generating point with theta = subproblem value
    assert cut.slack(np.zeros(2), [0.0, res.objective]) == pytest.approx(0.0)


def test_make_pbbenc(thm1):
    agg = aggregate(thm1, (0, 1))
    res, = solve_cluster_subproblem(thm1, [agg], np.zeros(2))
    cut = make_pbbenc(thm1, agg, res)
    assert cut.kind == KIND_PBBENC
    assert cut.x_coeffs == pytest.approx([0.0, 1.0])
    assert cut.theta_coeffs == pytest.approx([0.5, 0.5])
    assert cut.rhs == pytest.approx(0.5)
    assert cut.origin == (0, 1)


def test_pbbenc_is_weighted_scenario_combination(small_sslp, rng):
    # an aggregated cut must equal the probability-weighted sum of the
    # per-scenario cuts written with the same cluster dual
    for seed in range(4):
        inst = small_sslp(seed=seed)
        for trial in range(5):
            size = int(rng.integers(2, inst.n_scenarios + 1))
            cluster = tuple(sorted(rng.choice(inst.n_scenarios, size=size,
                                              replace=False).tolist()))
            xhat = rng.integers(0, 2, size=inst.n1).astype(float)
            if xhat.sum() == 0:
                xhat[0] = 1.0
            agg = aggregate(inst, cluster)
            res, = solve_cluster_subproblem(inst, [agg], xhat)
            if res.status == INFEASIBLE:
                continue
            combined = make_pbbenc(inst, agg, res)
            p = inst.probabilities
            total = p[list(cluster)].sum()
            x_sum = np.zeros(inst.n1)
            t_sum = np.zeros(inst.n_scenarios)
            r_sum = 0.0
            for s in cluster:
                one = make_benders_cut(inst, s, res)
                w = p[s] / total
                x_sum += w * one.x_coeffs
                t_sum += w * one.theta_coeffs
                r_sum += w * one.rhs
            assert np.abs(x_sum - combined.x_coeffs).max() <= 1e-9
            assert np.abs(t_sum - combined.theta_coeffs).max() <= 1e-9
            assert abs(r_sum - combined.rhs) <= 1e-9


def infeasible_recourse_instance():
    # y >= 2 - 2x and y <= 1: the recourse is empty for x < 1/2
    sc = Scenario(1.0, [[2.0], [0.0]], [2.0, -1.0])
    return Instance("gap", [1.0], np.zeros((0, 1)), [], (BINARY,),
                    [1.0], [[1.0], [-1.0]], (sc,))


def test_feasibility_cut_from_farkas_ray():
    inst = infeasible_recourse_instance()
    res, = solve_scenario_subproblem(inst, [0], np.zeros(1))
    assert res.status == INFEASIBLE
    ray = res.farkas
    assert np.all(ray >= -1e-12)
    assert np.all(np.asarray(inst.recourse).T @ ray <= 1e-9)
    cut = make_feasibility_cut(inst, aggregate(inst, (0,)), res)
    assert cut.kind == KIND_FEASIBILITY
    assert cut.origin == (0,)
    assert cut.theta_coeffs == pytest.approx([0.0])
    # the generating point is cut off, the feasible first stage survives
    assert cut.slack([0.0], [0.0]) < -1e-9
    assert cut.slack([1.0], [0.0]) >= -1e-9
    # and the subproblem really is feasible at x = 1
    at_one, = solve_scenario_subproblem(inst, [0], np.ones(1))
    assert at_one.status == OPTIMAL


def _bitwise(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())
    return a == b


def test_scenario_is_singleton_cluster(thm1, refinement_example, small_sslp):
    """The scenario entry points are the cluster path at (s,), bit for bit:
    target, subproblem result and Benders cut."""
    infeasible = 0
    for inst in (thm1, refinement_example, small_sslp()):
        for s in range(inst.n_scenarios):
            agg = aggregate(inst, (s,))
            st = scenario_target(inst, s)
            ct = cluster_target(inst, (s,), KIND_LAGRANGIAN)
            assert isinstance(st, AggregatedScenario)
            assert st.cluster == (s,) and st.cut_kind == KIND_LAGRANGIAN
            for name in ("cluster", "weight", "technology", "rhs",
                         "theta_weights", "cut_kind"):
                assert _bitwise(getattr(st, name), getattr(ct, name)), name
            for x in (np.zeros(inst.n1), np.ones(inst.n1),
                      np.full(inst.n1, 0.5)):
                res, = solve_scenario_subproblem(inst, [s], x)
                ref, = solve_cluster_subproblem(inst, [agg], x)
                assert res.status == ref.status
                if res.status == INFEASIBLE:
                    infeasible += 1
                    assert _bitwise(res.farkas, ref.farkas)
                    cut = make_feasibility_cut(inst, agg, res)
                    assert cut.origin == (s,)
                    continue
                assert _bitwise(res.objective, ref.objective)
                assert _bitwise(res.duals, ref.duals)
                one = make_benders_cut(inst, s, res)
                two = make_pbbenc(inst, agg, res, KIND_BENDERS)
                for name in ("kind", "x_coeffs", "theta_coeffs", "rhs",
                             "origin", "gen_dual"):
                    assert _bitwise(getattr(one, name),
                                    getattr(two, name)), name
    assert infeasible > 0   # the sslp instance has no recourse at x = 0


def test_theta_lower_bounds(thm1, refinement_example):
    assert compute_theta_lower_bounds(thm1) == pytest.approx([0.0, 0.0])
    lbs = compute_theta_lower_bounds(refinement_example)
    assert lbs == pytest.approx([0.0, 1.5, 0.0, 0.0])


def test_theta_lower_bounds_per_scenario_technology(small_sslp):
    # The scenarios that share a T_s are one LP at their rhs: with T_s
    # shared, one group of STACK_MIN or more; with T_s varying by scenario,
    # groups of one; and two interleaved technologies of STACK_MIN
    # scenarios each, plus a scenario with its own.  Every way, each bound
    # is byte for byte solve_lp's on the scenario's own LP, in scenario
    # order.
    shared = small_sslp(scenarios=2 * STACK_MIN)
    varying = dataclasses.replace(shared, scenarios=tuple(
        Scenario(sc.probability, sc.technology * (1.0 + 0.25 * s), sc.rhs)
        for s, sc in enumerate(shared.scenarios)))
    assert len({sc.technology.tobytes() for sc in varying.scenarios}) > 1
    base = small_sslp(scenarios=2 * STACK_MIN + 1)
    mixed = dataclasses.replace(base, scenarios=tuple(
        Scenario(sc.probability, sc.technology
                 * (3.0 if s == 2 * STACK_MIN else 1.0 + 0.5 * (s % 2)),
                 sc.rhs)
        for s, sc in enumerate(base.scenarios)))
    assert len({sc.technology.tobytes() for sc in mixed.scenarios}) == 3
    for instance in (shared, varying, mixed):
        want = [solve_lp(stacked_model(instance, np.zeros(instance.n1),
                                       [(1.0, sc.technology, sc.rhs)]).lp)
                .objective for sc in instance.scenarios]
        assert (compute_theta_lower_bounds(instance).tobytes()
                == np.array(want).tobytes())
    assert (compute_theta_lower_bounds(shared).tobytes()
            != compute_theta_lower_bounds(varying).tobytes())


def test_master_state_round(thm1):
    state = MasterState(thm1)
    x, theta, obj = solve_master(state)
    assert obj == pytest.approx(0.0)
    assert state.z_lb == pytest.approx(0.0)
    res, = solve_scenario_subproblem(thm1, [1], x)
    grew = state.add_cut(make_benders_cut(thm1, 1, res))
    assert grew
    x2, theta2, obj2 = solve_master(state)
    # the LP master dodges the cut by moving x, so the bound stays 0
    assert obj2 == pytest.approx(0.0)
    assert state.z_lb >= -1e-12
    assert state.cut_counts() == {KIND_BENDERS: 1}


def test_master_integer_mode(thm1):
    state = MasterState(thm1)
    # force theta to carry the recourse via both scenario cuts at a point
    for xhat in (np.zeros(2), np.ones(2), np.array([1.0, 0.0])):
        for s in range(2):
            r, = solve_scenario_subproblem(thm1, [s], xhat)
            state.add_cut(make_benders_cut(thm1, s, r))
    x, theta, obj = solve_master(state, relax_integrality=False)
    frac = np.abs(x[:2] - np.round(x[:2])).max()
    assert frac <= 1e-9
    # integer master value is not folded into z_lb
    assert state.z_lb == -np.inf


def test_add_cut_dedup(thm1):
    state = MasterState(thm1)
    cut = Cut(KIND_BENDERS, [1.0, 1.0], [0.0, 1.0], 1.0)
    assert state.add_cut(cut)
    assert not state.add_cut(Cut(KIND_BENDERS, [1.0, 1.0], [0.0, 1.0], 1.0))
    # a scaled copy is the same halfspace
    assert not state.add_cut(Cut(KIND_BENDERS, [2.0, 2.0], [0.0, 2.0], 2.0))
    # the zero cut carries no information
    assert not state.add_cut(Cut(KIND_BENDERS, [0.0, 0.0], [0.0, 0.0], 0.0))
    assert len(state.cuts) == 1


def _loop_dedup_accepts(pool, cut):
    """Reference for MasterState.add_cut: the pool scanned cut by cut."""
    stacked = np.concatenate([cut.x_coeffs, cut.theta_coeffs, [cut.rhs]])
    scale = float(np.abs(stacked).max(initial=0.0))
    if scale <= 0.0:
        return False
    stacked = stacked / scale
    for other in pool:
        o = np.concatenate([other.x_coeffs, other.theta_coeffs, [other.rhs]])
        oscale = float(np.abs(o).max(initial=0.0))
        if float(np.abs(o / oscale - stacked).max()) <= DEDUP_TOL:
            return False
    return True


def test_add_cut_dedup_matches_loop(thm1, rng):
    # scaled copies, copies perturbed around DEDUP_TOL, and fresh cuts
    state = MasterState(thm1)
    pool = []
    for _ in range(300):
        if pool and rng.uniform() < 0.7:
            base = pool[int(rng.integers(len(pool)))]
            k = float(rng.choice([1.0, 3.0, 0.1]))
            eps = float(rng.choice([0.0, 0.5, 1.0, 2.0])) * DEDUP_TOL
            cut = Cut(KIND_BENDERS, k * base.x_coeffs + eps,
                      k * base.theta_coeffs, k * base.rhs)
        else:
            cut = Cut(KIND_BENDERS, rng.integers(-2, 3, size=2),
                      rng.integers(0, 2, size=2), float(rng.integers(-2, 3)))
        want = _loop_dedup_accepts(pool, cut)
        assert state.add_cut(cut) == want
        if want:
            pool.append(cut)
    assert len(state.cuts) == len(pool)
    # the edge of add_cut's index window: cuts whose normalized rhs, or
    # every normalized coordinate but the leading +-1, lies exactly
    # DEDUP_TOL from a pool cut's, and just beyond it; and a NaN
    # coordinate, which matches nothing
    state, pool, answers = MasterState(thm1), [], set()
    beyond = float(np.nextafter(DEDUP_TOL, 1.0))
    rhs_only, all_but_lead = np.eye(5)[4], np.array([0.0, 1, 1, 1, 1])
    for base in ([1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.25, 0.0, -0.75],
                 [1.0, np.nan, 0.0, 0.0, 0.0], [-1.0, 0.3, 0.0, 0.6, 0.7]):
        for shift in (0.0, DEDUP_TOL, -DEDUP_TOL, beyond, -beyond):
            for direction in (rhs_only, all_but_lead):
                v = np.array(base) + shift * direction
                cut = Cut(KIND_BENDERS, v[:2], v[2:4], v[4])
                want = _loop_dedup_accepts(pool, cut)
                assert state.add_cut(cut) == want, (base, shift, direction)
                answers.add(want)
                if want:
                    pool.append(cut)
    assert answers == {True, False} and len(state.cuts) == len(pool)


def test_master_infeasible(thm1):
    state = MasterState(thm1)
    state.add_cut(Cut(KIND_FEASIBILITY, [1.0, 0.0], [0.0, 0.0], 2.0))
    with pytest.raises(MasterInfeasibleError):
        solve_master(state)


def test_z_lb_monotone_over_rounds(small_sslp):
    inst = small_sslp(seed=1)
    state = MasterState(inst)
    prev = -np.inf
    for _ in range(6):
        x, theta, obj = solve_master(state)
        assert state.z_lb >= prev - 1e-12
        prev = state.z_lb
        added = 0
        for s in range(inst.n_scenarios):
            res, = solve_scenario_subproblem(inst, [s], x)
            if res.status == INFEASIBLE:
                cut = make_feasibility_cut(inst, aggregate(inst, (s,)), res)
                added += state.add_cut(cut)
            elif res.objective > theta[s] + 1e-6:
                added += state.add_cut(make_benders_cut(inst, s, res))
        if not added:
            break
    assert np.isfinite(state.z_lb)
