import re
from dataclasses import replace

import numpy as np
import pytest

from stochcuts.model import (Instance, Scenario, Cut, validate,
                             build_extensive, theta_weights,
                             BINARY, CONTINUOUS, KIND_BENDERS)
from stochcuts.instance_io import builtin


def two_scenario(probs=(0.5, 0.5)):
    scenarios = tuple(Scenario(p, [[1.0, 0.0]], [0.0]) for p in probs)
    return Instance("pair", [1.0, 1.0], np.zeros((0, 2)), [],
                    (BINARY, CONTINUOUS), [1.0], [[1.0]], scenarios)


def test_validate_well_formed(thm1):
    assert validate(thm1) == []


def _refused(defects):
    """pytest.raises for the ValueError an Instance with these defects
    raises as it is built."""
    return pytest.raises(ValueError, match="^" + re.escape(
        "invalid instance: " + "; ".join(defects)) + "$")


def test_validate_probability_sum():
    with _refused(["probabilities sum to 1.2"]):
        two_scenario((0.6, 0.6))


def test_validate_dimension_mismatch():
    sc = Scenario(1.0, np.ones((2, 2)), np.zeros(2))  # T has m2+1 rows
    with _refused(["scenario 0: technology shape (2, 2) does not match "
                   "(m2, n1) = (1, 2)",
                   "scenario 0: rhs length 2 does not match m2 = 1"]):
        Instance("bad", [0.0, 0.0], np.zeros((0, 2)), [],
                 (BINARY, BINARY), [1.0], [[1.0]], (sc,))


def test_validate_no_scenarios():
    with _refused(["no scenarios"]):
        Instance("empty", [0.0], np.zeros((0, 1)), [], (BINARY,),
                 [1.0], [[1.0]], ())


def test_replaced_copy_is_validated(thm1):
    # dataclasses.replace goes through the constructor: thm1 with its
    # second probability at 0.4 (sum 0.9) used to reach the drivers, where
    # benders ended `converged` at 0.0, and a NaN in h failed inside the
    # LP core
    s0, s1 = thm1.scenarios
    with _refused(["probabilities sum to 0.9"]):
        replace(thm1, scenarios=(s0, replace(s1, probability=0.4)))
    with _refused(["scenario 0: h has a non-finite entry"]):
        replace(thm1, scenarios=(replace(s0, rhs=[np.nan, 0.0]), s1))


def test_extensive_shape(thm1):
    model = build_extensive(thm1)
    # 2 binary x then one y per scenario; 4 recourse rows, no A rows
    assert model.lp.c.size == 4
    assert list(model.integer) == [True, True, False, False]
    assert model.lp.A.shape == (4, 4)
    assert all(s == ">=" for s in model.lp.senses)


def test_extensive_single_scenario_identity():
    sc = Scenario(1.0, [[2.0]], [1.0])
    inst = Instance("one", [3.0], np.zeros((0, 1)), [], (BINARY,),
                    [5.0], [[1.0]], (sc,))
    model = build_extensive(inst)
    # objective is exactly c ++ d, constraint row is [T | W]
    assert model.lp.c == pytest.approx([3.0, 5.0])
    assert np.asarray(model.lp.A) == pytest.approx(np.array([[2.0, 1.0]]))
    assert model.lp.b == pytest.approx([1.0])


def test_extensive_dimension_bookkeeping():
    scenarios = tuple(Scenario(1 / 3, np.zeros((2, 2)), np.zeros(2))
                      for _ in range(3))
    inst = Instance("dims", [0.0, 0.0], np.ones((1, 2)), [1.0],
                    (BINARY, BINARY), [1.0, 1.0], np.eye(2), scenarios)
    model = build_extensive(inst)
    assert model.lp.c.size == 2 + 6
    assert model.lp.A.shape == (1 + 6, 8)
    assert model.lp.senses[0] == "="


def test_extensive_objective_identity(small_sslp, rng):
    inst = small_sslp(seed=3)
    model = build_extensive(inst)
    n1, n2 = inst.n1, inst.n2
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, size=n1)
        ys = rng.uniform(0.0, 2.0, size=(inst.n_scenarios, n2))
        point = np.concatenate([x] + list(ys))
        direct = float(inst.first_stage_cost @ x)
        for s, sc in enumerate(inst.scenarios):
            direct += sc.probability * float(inst.second_stage_cost @ ys[s])
        assert float(model.lp.c @ point) == pytest.approx(direct, rel=1e-12)


def test_theta_weights_equal(thm1):
    w = theta_weights(thm1, (0, 1))
    assert w == pytest.approx([0.5, 0.5])


def test_theta_weights_singleton(thm1):
    w = theta_weights(thm1, (1,))
    assert w == pytest.approx([0.0, 1.0])


def test_theta_weights_unequal():
    scenarios = tuple(Scenario(p, [[1.0, 0.0]], [0.0])
                      for p in (0.2, 0.6, 0.2))
    inst = Instance("trip", [0.0, 0.0], np.zeros((0, 2)), [],
                    (BINARY, BINARY), [1.0], [[1.0]], scenarios)
    w = theta_weights(inst, (0, 1))
    assert w == pytest.approx([0.25, 0.75, 0.0])
    assert w.sum() == pytest.approx(1.0)


def test_theta_weights_rejects_bad_clusters(thm1):
    with pytest.raises(ValueError):
        theta_weights(thm1, ())
    with pytest.raises(ValueError):
        theta_weights(thm1, (0, 0))
    with pytest.raises(ValueError):
        theta_weights(thm1, (5,))


def test_instance_is_frozen(thm1):
    with pytest.raises(ValueError):
        thm1.first_stage_cost[0] = 9.0
    with pytest.raises(ValueError):
        thm1.scenarios[0].rhs[0] = 9.0


def test_instance_equality(thm1):
    assert thm1 == builtin("thm1")
    assert thm1 != builtin("refinement-example")


def test_x_bounds(small_sslp):
    inst = small_sslp()
    lb, ub = inst.x_bounds()
    assert np.all(lb == 0.0)
    assert np.all(ub == 1.0)


def test_cut_slack():
    cut = Cut(KIND_BENDERS, [2.0, 0.0], [1.0, 0.0], 1.5)
    assert cut.slack([1.0, 1.0], [0.0, 0.0]) == pytest.approx(0.5)
    assert cut.slack([0.0, 0.0], [1.5, 0.0]) == pytest.approx(0.0)
