import time

import numpy as np
import pytest

from stochcuts.model import KIND_LAGRANGIAN, KIND_PBLAGC
from stochcuts.lagrangian import (scenario_target, cluster_target,
                                  inner_model, evaluate_inner,
                                  make_lagrangian_cut, separate,
                                  VIOLATED, NO_VIOLATED, BUDGET)
from stochcuts.mip import solve_mip, MIP_OPTIMAL


def test_targets(thm1):
    st = scenario_target(thm1, 1)
    assert st.cut_kind == KIND_LAGRANGIAN
    assert st.cluster == (1,)
    assert st.theta_weights == pytest.approx([0.0, 1.0])
    ct = cluster_target(thm1, (0, 1))
    assert ct.cut_kind == KIND_PBLAGC
    assert ct.cluster == (0, 1)
    assert ct.theta_weights == pytest.approx([0.5, 0.5])
    assert ct.rhs == pytest.approx([0.5, -0.5])


def test_evaluate_inner_values(thm1):
    # pi = 0, pi0 = 1 prices pure recourse; scenario 1 needs y = 1 at any
    # binary x (the rows read y >= 1 - x1 - x2 and y >= x1 + x2 - 1), except
    # the mixed points where both rows cancel
    target = scenario_target(thm1, 1)
    val, x, y = evaluate_inner(thm1, target, np.zeros(2), 1.0)
    assert val == pytest.approx(0.0)
    assert sorted(x) == pytest.approx([0.0, 1.0])
    # pricing x pushes the minimizer around
    val2, x2, _ = evaluate_inner(thm1, target, np.array([0.4, 0.4]), 1.0)
    assert val2 == pytest.approx(0.4)
    val3, x3, _ = evaluate_inner(thm1, target, np.array([-0.4, -0.4]), 1.0)
    assert val3 == pytest.approx(-0.4)


def test_evaluate_inner_cluster(thm1):
    # averaged system: y >= x2 - x1... actually y >= x2 + 1/2 - ...; at
    # pi = 0, pi0 = 1 the cluster needs y = 1/2 at every binary x
    target = cluster_target(thm1, (0, 1))
    val, x, y = evaluate_inner(thm1, target, np.zeros(2), 1.0)
    assert val == pytest.approx(0.5)


def test_inner_model_shape(thm1):
    target = scenario_target(thm1, 0)
    model = inner_model(thm1, target, np.zeros(2), 1.0)
    assert model.lp.c.size == 3
    assert list(model.integer) == [True, True, False]


def test_make_lagrangian_cut_kinds(thm1):
    st = scenario_target(thm1, 0)
    cut = make_lagrangian_cut(thm1, st, np.array([0.25, -0.5]), 0.5, 1.25)
    assert cut.kind == KIND_LAGRANGIAN
    assert cut.x_coeffs == pytest.approx([0.25, -0.5])
    assert cut.theta_coeffs == pytest.approx([0.5, 0.0])
    assert cut.rhs == pytest.approx(1.25)
    ct = cluster_target(thm1, (0, 1))
    pcut = make_lagrangian_cut(thm1, ct, np.zeros(2), 1.0, 0.5)
    assert pcut.kind == KIND_PBLAGC
    assert pcut.theta_coeffs == pytest.approx([0.5, 0.5])


def test_separate_finds_thm1_gap(thm1):
    # the LP-closure point (x, theta) = ((1/2, 1/2), 0) admits the exact cut
    # theta_P >= 1/2 that Benders can never write
    target = cluster_target(thm1, (0, 1))
    out = separate(thm1, target, np.array([0.5, 0.5]), 0.0)
    assert out.status == VIOLATED
    assert out.violation == pytest.approx(0.5, abs=1e-6)
    cut = out.cut
    assert cut.kind == KIND_PBLAGC
    # certified level matches the cut recomputed at the query point
    level = cut.rhs - cut.x_coeffs @ np.array([0.5, 0.5]) - 0.0
    assert level == pytest.approx(out.violation, abs=1e-9)
    # the seed (pi, pi0) = (0, 1) already certifies this gap
    assert out.inner_calls >= 1


def test_separate_reuses_the_targets_inner_solves(small_sslp, monkeypatch):
    # a target keeps its inner solves: separating again at the same point
    # solves no inner MIP and takes the same steps to the same outcome
    from stochcuts import lagrangian
    calls = []
    inner = lagrangian.evaluate_inner

    def counting_evaluate(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "evaluate_inner", counting_evaluate)
    inst = small_sslp(seed=0)
    target = cluster_target(inst, tuple(range(inst.n_scenarios)))
    xhat = np.full(inst.n1, 0.5)
    first = separate(inst, target, xhat, 0.0, budget=30)
    solved = len(calls)
    assert solved == len(target.solved) > 1
    again = separate(inst, target, xhat, 0.0, budget=30)
    assert len(calls) == solved
    assert again.status == first.status
    assert again.inner_calls == first.inner_calls
    assert again.pi.tobytes() == first.pi.tobytes()
    assert (again.pi0, again.violation) == (first.pi0, first.violation)
    assert again.cut.rhs == first.cut.rhs


def test_separate_certificate_invariant(thm1, small_sslp):
    # the reported violation must equal Qbar(pi, pi0) - pi.x - pi0*theta,
    # recomputed from scratch with the returned multipliers
    cases = [(thm1, cluster_target(thm1, (0, 1)), np.array([0.5, 0.5]), 0.0)]
    inst = small_sslp(seed=4)
    cases.append((inst, scenario_target(inst, 0),
                  np.ones(inst.n1), 0.0))
    for instance, target, xhat, theta_hat in cases:
        out = separate(instance, target, xhat, theta_hat, budget=30)
        assert out.status in (VIOLATED, NO_VIOLATED)
        val, _, _ = evaluate_inner(instance, target, out.pi, out.pi0)
        level = val - float(out.pi @ xhat) - out.pi0 * theta_hat
        assert level == pytest.approx(out.violation, abs=1e-7)


def test_separate_saturates(thm1):
    # once theta_hat sits on the true value there is nothing to separate
    target = cluster_target(thm1, (0, 1))
    out = separate(thm1, target, np.array([0.5, 0.5]), 0.5)
    assert out.status == NO_VIOLATED
    assert out.cut is None
    assert out.violation <= 1e-6


def test_separate_respects_budget(small_sslp):
    inst = small_sslp(seed=2)
    target = cluster_target(inst, tuple(range(inst.n_scenarios)))
    out = separate(inst, target, np.ones(inst.n1), -1e6, budget=1)
    # one inner call seeds the pool; the loop may not converge but the seed
    # already certifies a huge violation
    assert out.inner_calls == 1
    assert out.status == VIOLATED
    assert out.violation > 1e5


def test_separate_deadline_returns_budget_status(small_sslp):
    inst = small_sslp(seed=3)
    target = cluster_target(inst, tuple(range(inst.n_scenarios)))
    deadline = time.monotonic() - 1.0
    out = separate(inst, target, np.ones(inst.n1), 0.0, deadline=deadline)
    assert out.status in (VIOLATED, BUDGET)
    # the expired deadline stops the loop after at most the seeding call
    assert out.inner_calls <= 1


def test_separated_cut_is_globally_valid(small_sslp, rng):
    # spot-check cut validity at every feasible binary first stage
    inst = small_sslp(seed=0, sites=3, clients=3, scenarios=3)
    target = cluster_target(inst, (0, 1, 2))
    out = separate(inst, target, np.ones(inst.n1), -10.0, budget=25)
    assert out.status == VIOLATED
    cut = out.cut
    for x, fvals in _binary_points(inst):
        theta = fvals
        assert cut.slack(x, theta) >= -1e-6 * (1.0 + abs(cut.rhs))


def _binary_points(inst):
    from stochcuts.verify import feasible_first_stage_points
    return feasible_first_stage_points(inst)
