import itertools
import time

import numpy as np
import pytest

from stochcuts.lp import LpModel, solve_lp, OPTIMAL, LE, GE, EQ
from stochcuts.mip import (MipModel, solve_mip, enumerate_binary,
                           MIP_OPTIMAL, MIP_INFEASIBLE, MIP_BUDGET, MipError)
from stochcuts.model import build_extensive
from stochcuts.instance_io import builtin


def brute_force_binary(model):
    # independent oracle: fix every binary pattern, solve the continuous rest
    idx = np.flatnonzero(model.integer)
    best = None
    for combo in itertools.product((0.0, 1.0), repeat=len(idx)):
        lb = model.lp.lb.copy()
        ub = model.lp.ub.copy()
        lb[idx] = combo
        ub[idx] = combo
        res = solve_lp(model.lp.with_bounds(lb, ub))
        if res.status == OPTIMAL and (best is None or res.objective < best):
            best = res.objective
    return best


def test_pathological_extensive_form(thm1):
    model = build_extensive(thm1)
    res = solve_mip(model)
    assert res.status == MIP_OPTIMAL
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    # hand enumeration: x in {00,01,10,11}, recourse max cost per scenario
    assert brute_force_binary(model) == pytest.approx(0.5, abs=1e-9)
    # both scenarios contribute y = 1/2 at the off-diagonal points
    x = res.x[:2]
    assert sorted(x) == pytest.approx([0.0, 1.0], abs=1e-6)


def test_no_integrality_is_lp_passthrough():
    model = MipModel(LpModel.make([1.0, 2.0], [[1.0, 1.0]], [GE], [1.0]),
                     [False, False])
    res = solve_mip(model)
    assert res.status == MIP_OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.nodes == 1


def test_branching_tie_is_deterministic():
    # min -x1-x2 over the triangle x1+x2 <= 1.5: LP optimum (0.75, 0.75)
    # is symmetric; branching must pick the lowest index first and land on
    # the same incumbent every time
    lp = LpModel.make([-1.0, -1.0], [[1.0, 1.0]], [LE], [1.5],
                      np.zeros(2), np.ones(2))
    model = MipModel(lp, [True, True])
    pts = {tuple(solve_mip(model).x) for _ in range(5)}
    assert len(pts) == 1
    res = solve_mip(model)
    assert res.objective == pytest.approx(-1.0, abs=1e-9)


def test_infeasible_integer_model():
    # 0.4 <= x <= 0.6 has no integer point
    lp = LpModel.make([1.0], None, None, None, [0.4], [0.6])
    res = solve_mip(MipModel(lp, [True]))
    assert res.status == MIP_INFEASIBLE


def test_budget_exceeded_reports_bound():
    inst = builtin("thm1")
    res = solve_mip(build_extensive(inst), deadline=time.monotonic())
    assert res.status == MIP_BUDGET
    assert res.bound <= 0.5 + 1e-9


def test_general_integer_bound_split():
    # min -x s.t. x <= 2.5, x integer in [0, 10] -> 2
    lp = LpModel.make([-1.0], [[1.0]], [LE], [2.5], [0.0], [10.0])
    res = solve_mip(MipModel(lp, [True]))
    assert res.status == MIP_OPTIMAL
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)


def test_unbounded_relaxation_raises():
    # binary x rides along, the continuous column is the unbounded ray
    lp = LpModel.make([0.0, -1.0], None, None, None,
                      [0.0, 0.0], [1.0, np.inf])
    with pytest.raises(MipError):
        solve_mip(MipModel(lp, [True, False]))


def test_node_lps_share_one_working_matrix(monkeypatch):
    # every node LP of a tree is a with_bounds child of its LP, so the
    # tree builds one [A | I | I], and each node's basis holds it
    from stochcuts import lp as lp_module
    built, bases = [], []
    working_matrix, solve = lp_module._working_matrix, solve_lp

    def counted(*blocks):
        built.append(working_matrix(*blocks))
        return built[-1]

    def kept(model):
        res = solve(model)
        bases.append(res.basis)
        return res

    import stochcuts.mip as mip_module
    monkeypatch.setattr(lp_module, "_working_matrix", counted)
    monkeypatch.setattr(mip_module, "solve_lp", kept)
    res = solve_mip(build_extensive(builtin("dim1-random-0")))
    assert res.status == MIP_OPTIMAL and res.nodes > 1
    (afull,) = built
    assert all(basis._lp.Afull is afull for basis in bases
               if basis is not None)
    assert sum(basis is not None for basis in bases) > 1


def test_requires_finite_bounds_on_integers():
    lp = LpModel.make([1.0], None, None, None)
    with pytest.raises(ValueError):
        MipModel(lp, [True])


def test_random_sweep_against_brute_force(rng):
    solved = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        x0 = rng.integers(0, 2, size=n).astype(float)
        senses = [(GE, LE)[int(rng.integers(0, 2))] for _ in range(m)]
        b = a @ x0 + np.where([s == GE for s in senses], -0.25, 0.25)
        c = rng.integers(-5, 6, size=n).astype(float)
        nbin = int(rng.integers(1, n + 1))
        integer = np.zeros(n, dtype=bool)
        integer[:nbin] = True
        ub = np.where(integer, 1.0, rng.uniform(1.0, 4.0, size=n))
        lp = LpModel.make(c, a, senses, b, np.zeros(n), ub)
        model = MipModel(lp, integer)
        res = solve_mip(model)
        ref = brute_force_binary(model)
        if res.status == MIP_OPTIMAL:
            solved += 1
            assert ref is not None
            assert res.objective == pytest.approx(ref, abs=1e-9, rel=1e-9)
            assert np.all(np.abs(res.x[integer] - np.round(res.x[integer]))
                          <= 1e-6)
        else:
            assert res.status == MIP_INFEASIBLE
            assert ref is None
    assert solved >= 40


def test_enumerate_binary_orders_and_caps(thm1):
    model = build_extensive(thm1)
    table = enumerate_binary(model)
    # feasible completions sorted by objective; best equals the optimum
    assert table[0][1] == pytest.approx(0.5, abs=1e-9)
    values = [v for _, v in table]
    assert values == sorted(values)
    # assignments are the binary patterns in lexicographic order upstream
    pts = {tuple(p[:2]) for p, _ in table}
    assert pts == {(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)}
    with pytest.raises(ValueError):
        enumerate_binary(model, cap=2)


def test_enumerate_binary_requires_unit_box():
    lp = LpModel.make([-1.0], [[1.0]], [LE], [2.5], [0.0], [10.0])
    with pytest.raises(ValueError):
        enumerate_binary(MipModel(lp, [True]))
