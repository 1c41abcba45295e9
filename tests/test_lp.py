import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stochcuts
import stochcuts.lp as lp_module
from stochcuts import builtin, generate_sslp, GeneratorConfig
from stochcuts.lp import (DualStart, LpModel, LpResult, solve_lp, solve_lps,
                          OPTIMAL, INFEASIBLE, UNBOUNDED, LE, GE, EQ,
                          STACK_MIN, SimplexBreakdown, _Simplex, _Stack)


def check_optimal(model, res, tol=1e-7):
    # primal feasibility, dual signs, strong duality; the independent
    # ground truth for every optimal claim in this file
    assert res.status == OPTIMAL
    ax = model.A @ res.x if model.A.size else np.zeros(len(model.b))
    for i, sense in enumerate(model.senses):
        r = ax[i] - model.b[i]
        if sense == GE:
            assert r >= -tol * (1 + abs(model.b[i]))
            assert res.duals[i] >= -1e-9
        elif sense == LE:
            assert r <= tol * (1 + abs(model.b[i]))
            assert res.duals[i] <= 1e-9
        else:
            assert abs(r) <= tol * (1 + abs(model.b[i]))
    assert np.all(res.x >= model.lb - tol)
    assert np.all(res.x <= model.ub + tol)
    dual_obj = float(res.duals @ model.b)
    # bounded variables contribute their reduced costs at the active bound
    rc = res.reduced_costs
    for j in range(len(model.lb)):
        if rc[j] > 0 and np.isfinite(model.lb[j]):
            dual_obj += rc[j] * model.lb[j]
        elif rc[j] < 0 and np.isfinite(model.ub[j]):
            dual_obj += rc[j] * model.ub[j]
    assert abs(dual_obj - res.objective) <= tol * (1 + abs(res.objective))


def check_farkas(model, res):
    # y certifies infeasibility: correct signs and positive margin of
    # y.b over sup_x y.A x taken over the variable box
    y = res.farkas
    assert y is not None
    for i, sense in enumerate(model.senses):
        if sense == GE:
            assert y[i] >= -1e-9
        elif sense == LE:
            assert y[i] <= 1e-9
    z = model.A.T @ y if model.A.size else np.zeros(len(model.lb))
    sup = 0.0
    for j, zj in enumerate(z):
        if zj > 1e-12:
            assert np.isfinite(model.ub[j])
            sup += zj * model.ub[j]
        elif zj < -1e-12:
            assert np.isfinite(model.lb[j])
            sup += zj * model.lb[j]
    assert float(y @ model.b) > sup + 1e-9


def test_one_variable_ge():
    model = LpModel.make([1.0], [[1.0], [1.0]], [GE, GE], [1.0, 0.0])
    res = solve_lp(model)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.duals[0] == pytest.approx(1.0, abs=1e-9)
    assert res.duals[1] == pytest.approx(0.0, abs=1e-9)
    check_optimal(model, res)


def test_unbounded_below():
    model = LpModel.make([-1.0], None, None, None)
    res = solve_lp(model)
    assert res.status == UNBOUNDED


def test_infeasible_with_certificate():
    # y >= 1 and y <= 0 cannot both hold
    model = LpModel.make([0.0], [[1.0], [1.0]], [GE, LE], [1.0, 0.0])
    res = solve_lp(model)
    assert res.status == INFEASIBLE
    check_farkas(model, res)


def test_recourse_lp_of_pathological_example():
    # first scenario's subproblem rows: y >= x1-x2 and y >= x2-x1
    def sub(x1, x2):
        return LpModel.make([1.0], [[1.0], [1.0]], [GE, GE],
                            [x1 - x2, x2 - x1])
    res = solve_lp(sub(0.0, 0.0))
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    res = solve_lp(sub(1.0, 0.0))
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.duals == pytest.approx([1.0, 0.0], abs=1e-9)


def test_beale_cycling_example_terminates():
    # classic degenerate tableau that cycles under naive Dantzig pricing
    c = [-0.75, 150.0, -0.02, 6.0]
    a = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    model = LpModel.make(c, a, [LE, LE, LE], [0.0, 0.0, 1.0])
    res = solve_lp(model)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-0.05, abs=1e-9)
    check_optimal(model, res)


def test_equality_rows():
    # x + y = 1, minimize x - y -> x=0, y=1
    model = LpModel.make([1.0, -1.0], [[1.0, 1.0]], [EQ], [1.0])
    res = solve_lp(model)
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x == pytest.approx([0.0, 1.0], abs=1e-9)
    check_optimal(model, res)


def test_free_variable():
    lb = np.array([-np.inf, 0.0])
    ub = np.array([np.inf, np.inf])
    model = LpModel.make([1.0, 1.0], [[1.0, 1.0]], [GE], [-3.0], lb, ub)
    res = solve_lp(model)
    assert res.objective == pytest.approx(-3.0, abs=1e-9)
    check_optimal(model, res)


def test_upper_bounds_and_flips():
    # maximize x1+x2 under a joint cap; both hit their box bounds
    lb = np.zeros(2)
    ub = np.array([1.0, 2.0])
    model = LpModel.make([-1.0, -1.0], [[1.0, 1.0]], [LE], [5.0], lb, ub)
    res = solve_lp(model)
    assert res.objective == pytest.approx(-3.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 2.0], abs=1e-9)
    check_optimal(model, res)


def test_no_rows_pure_box():
    lb = np.array([-2.0, 1.0])
    ub = np.array([3.0, 4.0])
    model = LpModel.make([1.0, -1.0], None, None, None, lb, ub)
    res = solve_lp(model)
    assert res.objective == pytest.approx(-6.0, abs=1e-9)
    assert res.x == pytest.approx([-2.0, 4.0], abs=1e-9)


def test_infeasible_box_against_rows():
    # sum of two variables capped at 1 from above but required >= 3
    model = LpModel.make([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]],
                         [LE, GE], [1.0, 3.0])
    res = solve_lp(model)
    assert res.status == INFEASIBLE
    check_farkas(model, res)


def test_determinism():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    c = rng.normal(size=4)
    model = LpModel.make(c, a, [GE, GE, LE, LE, EQ, GE], b,
                         np.full(4, -5.0), np.full(4, 5.0))
    first = solve_lp(model)
    second = solve_lp(model)
    assert first.status == second.status
    if first.status == OPTIMAL:
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.duals, second.duals)


def _random_model(rng, n, m, contradict=False):
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    senses = [(GE, LE, EQ)[rng.integers(0, 3)] for _ in range(m)]
    # rhs built from a random box point keeps feasibility common
    x0 = rng.uniform(0.0, 2.0, size=n)
    slack = rng.uniform(0.0, 1.0, size=m)
    b = a @ x0
    for i, s in enumerate(senses):
        if s == GE:
            b[i] -= slack[i]
        elif s == LE:
            b[i] += slack[i]
    if contradict:
        # repeat row 0 with an incompatible opposite-sense rhs
        a = np.vstack([a, a[:1]])
        if senses[0] == LE:
            senses = senses + [GE]
            b = np.append(b, b[0] + 2.0)
        else:
            senses = senses + [LE]
            b = np.append(b, b[0] - 2.0)
    c = rng.integers(-5, 6, size=n).astype(float)
    ub = np.where(rng.uniform(size=n) < 0.5, rng.uniform(2.0, 6.0, size=n),
                  np.inf)
    return LpModel.make(c, a, senses, b, np.zeros(n), ub)


def test_random_sweep_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(42)
    optimal = infeasible = unbounded = 0
    for trial in range(300):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 7))
        model = _random_model(rng, n, m, contradict=trial % 3 == 2)
        res = solve_lp(model)
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for i, s in enumerate(model.senses):
            if s == GE:
                a_ub.append(-model.A[i])
                b_ub.append(-model.b[i])
            elif s == LE:
                a_ub.append(model.A[i])
                b_ub.append(model.b[i])
            else:
                a_eq.append(model.A[i])
                b_eq.append(model.b[i])
        ref = linprog(model.c, a_ub or None, b_ub or None, a_eq or None,
                      b_eq or None,
                      bounds=[(model.lb[j],
                               None if np.isinf(model.ub[j]) else model.ub[j])
                              for j in range(n)], method="highs")
        if res.status == OPTIMAL:
            optimal += 1
            assert ref.status == 0
            assert res.objective == pytest.approx(ref.fun, abs=1e-6,
                                                  rel=1e-6)
            check_optimal(model, res)
        elif res.status == INFEASIBLE:
            infeasible += 1
            assert ref.status == 2
            check_farkas(model, res)
        else:
            unbounded += 1
            assert ref.status == 3
    # the sweep must actually exercise all three statuses
    assert optimal >= 100 and infeasible >= 20 and unbounded >= 5


def test_model_validation():
    # make() validates eagerly
    with pytest.raises(ValueError):
        LpModel.make([1.0], [[1.0, 2.0]], [GE], [0.0])
    with pytest.raises(ValueError):
        LpModel.make([1.0], [[1.0]], ["??"], [0.0])
    with pytest.raises(ValueError):
        LpModel.make([1.0], None, None, None, [2.0], [1.0])


@pytest.mark.parametrize("field, value, message", [
    ("c", [np.nan], "objective has a non-finite entry"),
    ("c", [-np.inf], "objective has a non-finite entry"),
    ("A", [[np.inf]], "matrix has a non-finite entry"),
    ("b", [np.nan], "rhs has a non-finite entry"),
    ("b", [np.inf], "rhs has a non-finite entry"),
    ("lb", [np.nan], "a bound is NaN"),
    ("ub", [np.nan], "a bound is NaN"),
    ("lb", [np.inf], r"a lower bound is \+inf"),
    ("ub", [-np.inf], "an upper bound is -inf"),
])
def test_model_rejects_nan_and_infinite_data(field, value, message):
    args = dict(c=[1.0], A=[[1.0]], senses=[GE], b=[0.0], lb=[0.0],
                ub=[np.inf])
    args[field] = value
    with pytest.raises(ValueError, match=message):
        LpModel.make(**args)


def test_model_keeps_infinite_bounds():
    model = LpModel.make([1.0, 1.0], [[1.0, 1.0]], [GE], [1.0],
                         [-np.inf, 0.0], [np.inf, np.inf])
    assert solve_lp(model).objective == pytest.approx(1.0, abs=1e-9)


def test_nan_recourse_rhs_raises():
    # refinement-example's scenario-0 recourse LP at x = 0 with rhs[0] NaN
    # used to come back `optimal` with objective 0.0
    inst = builtin("refinement-example")
    sc = inst.scenarios[0]
    rhs = sc.rhs - sc.technology @ np.zeros(inst.n1)
    rhs[0] = np.nan
    senses = (GE,) * inst.m2
    with pytest.raises(ValueError, match="rhs has a non-finite entry"):
        LpModel.make(inst.second_stage_cost, inst.recourse, senses, rhs)
    unchecked = LpModel(inst.second_stage_cost, inst.recourse, senses, rhs,
                        np.zeros(inst.n2), np.full(inst.n2, np.inf))
    with pytest.raises(ValueError, match="rhs has a non-finite entry"):
        solve_lp(unchecked)


def test_with_bounds_checks_only_the_bounds(monkeypatch):
    # a branch-and-bound node changes only the bounds: with_bounds checks
    # them, and solve_lp checks nothing more of a checked model's child
    model = LpModel.make([1.0, 2.0], [[1.0, 1.0]], [GE], [1.0])
    with pytest.raises(ValueError, match="NaN"):
        model.with_bounds([0.0, np.nan], [1.0, 1.0])
    with pytest.raises(ValueError, match="exceeds"):
        model.with_bounds([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lower bound is"):
        model.with_bounds([0.0, np.inf], [1.0, np.inf])
    with pytest.raises(ValueError, match="bound length"):
        model.with_bounds([0.0], [1.0])
    child = model.with_bounds([0.0, 0.5], [1.0, 1.0])
    monkeypatch.setattr(LpModel, "check", None)   # any full check fails
    assert solve_lp(child).objective == pytest.approx(1.5, abs=1e-12)
    monkeypatch.undo()
    # a model built directly is checked by solve_lp, and so is its child
    raw = LpModel(np.array([1.0, np.nan]), model.A, model.senses, model.b,
                  model.lb, model.ub)
    with pytest.raises(ValueError, match="objective"):
        solve_lp(raw.with_bounds([0.0, 0.0], [1.0, 1.0]))


def test_with_rhs_checks_only_the_rhs(monkeypatch):
    # a recourse subproblem under fixed recourse changes only the rhs:
    # with_rhs checks it, with make()'s messages, and solve_lp checks
    # nothing more of a checked model's child
    model = LpModel.make([1.0, 2.0], [[1.0, 1.0]], [GE], [1.0])
    for bad in ([np.nan], [np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="rhs has a non-finite entry"):
            model.with_rhs(bad)
    with pytest.raises(ValueError, match="rhs/sense length"):
        model.with_rhs([1.0, 2.0])
    child = model.with_rhs([2.0])
    monkeypatch.setattr(LpModel, "check", None)   # any full check fails
    assert solve_lp(child).objective == pytest.approx(2.0, abs=1e-12)
    monkeypatch.undo()
    # a model built directly is checked by solve_lp, and so is its child
    raw = LpModel(np.array([1.0, np.nan]), model.A, model.senses, model.b,
                  model.lb, model.ub)
    with pytest.raises(ValueError, match="objective"):
        solve_lp(raw.with_rhs([2.0]))


@pytest.mark.parametrize("poke, message", [
    ("xval", "primal residual"),
    ("lb", "bound violation"),
    ("d", "dual feasibility"),
    ("y", "strong duality gap"),
])
def test_final_checks_fail_on_nan(poke, message):
    # each check of _verify is a comparison that NaN used to pass
    model = LpModel.make([1.0, 2.0], [[1.0, 1.0]], [GE], [1.0], ub=[3.0, 3.0])
    lp = _Simplex(model)
    assert lp.solve().status == OPTIMAL
    cost = np.zeros(lp.Afull.shape[1])
    cost[:model.c.size] = model.c
    y, d = lp._prices(cost)
    lp._verify(cost, y, d)
    {"xval": lp.xval, "lb": lp.lb, "d": d, "y": y}[poke][0] = np.nan
    with pytest.raises(SimplexBreakdown, match=message):
        lp._verify(cost, y, d)


DRIFT_MASTER = Path(__file__).parent / "data" / "master_breakdown.npz"

_SOLVE_DRIFT_MASTER = """
import sys
import numpy as np
import stochcuts.lp as L
from stochcuts.lp import LpModel, solve_lp
L.DUAL_MIN = 10 ** 9   # the primal path, where the breakdown is
d = np.load(sys.argv[1])
model = LpModel.make(d["c"], d["A"], [str(s) for s in d["senses"]], d["b"],
                     d["lb"], d["ub"])
print(repr(solve_lp(model).objective))
"""


def test_drifted_master_solves_on_retry():
    # A 135 x 30 master LP from run_apblagc (budget 3, sslp-10-10-20 seed 0,
    # scenario order default_rng(23)): every row needs an artificial and the
    # basis condition number is about 6e7.  With one BLAS thread the eta
    # updates over 64 pivots leave basic slacks past their bounds, so the
    # final check fails; the retry refactorizes every 8 pivots.
    linprog = pytest.importorskip("scipy.optimize").linprog
    path = [str(Path(stochcuts.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", _SOLVE_DRIFT_MASTER,
                          str(DRIFT_MASTER)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    d = np.load(DRIFT_MASTER)
    eq = d["senses"] == EQ
    flip = np.where(d["senses"][~eq] == LE, 1.0, -1.0)   # rows as A x <= b
    ref = linprog(d["c"], flip[:, None] * d["A"][~eq], flip * d["b"][~eq],
                  d["A"][eq], d["b"][eq],
                  bounds=[(lo, None if np.isinf(hi) else hi)
                          for lo, hi in zip(d["lb"], d["ub"])],
                  method="highs")
    assert ref.status == 0
    assert float(out.stdout) == pytest.approx(ref.fun, rel=1e-6)


# The master x at which alg1's first Benders round on
# generate_sslp(sites=10, clients=50, scenarios=20, seed=0) solves the
# recourse LP of the cluster of all 20 scenarios (60 rows, 500 columns)
STRADDLING_X = [0.025461163362373834, 0.06159165336527339,
                0.024243338542362713, 0.011235796565570666,
                0.04148334829715694, 0.036575944422717194,
                0.10603831514948114, 0.09327560072360574,
                0.0511230952696331, 2.7416512989012635e-19]


def test_one_feasibility_rule_for_phase_one():
    # Phase 1 of this LP ends with its artificials' sum, 1.65e-6, under
    # FEAS_TOL * (1 + max |b|), but with one artificial further from zero
    # than _verify's bound test allows, so pinning it used to end in
    # SimplexBreakdown.  Phase 1 now applies that test to each artificial
    # before it is pinned: the LP is INFEASIBLE, as HiGHS finds, with a
    # ray that passes check_farkas, and the cluster subproblem gives the
    # same result.
    from stochcuts.benders import solve_cluster_subproblem
    from stochcuts.partition import aggregate
    inst = generate_sslp(GeneratorConfig(sites=10, clients=50, scenarios=20,
                                         seed=0))
    agg = aggregate(inst, range(inst.n_scenarios))
    x = np.array(STRADDLING_X)
    model = LpModel.make(inst.second_stage_cost, inst.recourse,
                         (GE,) * inst.m2, agg.rhs - agg.technology @ x)
    lp = _Simplex(model)
    phase1 = lp._phase1()
    run = next(phase1)
    with pytest.raises(StopIteration) as done:
        phase1.send(lp._iterate(*run))
    assert done.value.value.status == INFEASIBLE
    arts = np.abs(lp.xval[lp.ncols0:])
    scale_x = 1.0 + np.abs(lp.xval).max()
    assert arts.sum() <= lp_module.FEAS_TOL * lp.scale_b
    assert arts.max() > lp_module.FEAS_TOL * scale_x
    res = solve_lp(model)
    assert res.status == INFEASIBLE
    check_farkas(model, res)
    assert _result_bytes(solve_cluster_subproblem(inst, [agg], x)[0]) \
        == _result_bytes(res)
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert _highs(linprog, model).status == 2


def _result_bytes(res):
    return (res.status, repr(res.objective),
            *(None if a is None else a.tobytes()
              for a in (res.x, res.duals, res.reduced_costs, res.farkas)))


def _costs_and_bounds(rng, n):
    """Integer costs, and bounds with free and boxed columns."""
    c = rng.integers(-5, 6, size=n).astype(float)
    lb = np.where(rng.uniform(size=n) < 0.2, -np.inf, 0.0)
    ub = np.where(rng.uniform(size=n) < 0.5, rng.uniform(1.0, 5.0, size=n),
                  np.inf)
    return c, lb, ub


def _family(rng, k, m, n, degenerate=False, free=True):
    """An LP and k right-hand sides for it, as solve_lps takes a batch: one
    matrix, row senses, costs and bounds, with free and boxed columns and
    equality rows, and a rhs per member, so that members differ in status
    and artificial count.  A degenerate family has mostly zero rhs, so
    pivots stall.  free=False draws the same family with each free
    column's lower bound at 0 instead, so that its batch stacks."""
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    senses = [(GE, LE, EQ)[i] for i in rng.integers(0, 3, size=m)]
    rhs = []
    for _ in range(k):
        b = a @ rng.uniform(0.0, 2.0, size=n) + rng.normal(0.0, 1.5, size=m)
        if degenerate:
            b = np.where(rng.uniform(size=m) < 0.6, 0.0, np.round(b))
        rhs.append(b)
    c, lb, ub = _costs_and_bounds(rng, n)
    if not free:
        lb[np.isinf(lb) & np.isinf(ub)] = 0.0
    return LpModel.make(c, a, senses, rhs[0], lb, ub), rhs


def _artificials(model):
    lp = _Simplex(model)
    lp._install_artificials()
    return int(np.count_nonzero(lp.art_sign))


def _count_stacks(monkeypatch):
    """A list that records the size of every _Stack built from now on."""
    built = []

    class Counted(_Stack):
        def __init__(self, lps):
            built.append(len(lps))
            super().__init__(lps)

    monkeypatch.setattr(lp_module, "_Stack", Counted)
    return built


def _check_families(monkeypatch, seed, trials, degenerate):
    """solve_lps against one solve_lp per model, byte for byte, over seeded
    random batches; returns what the batches covered."""
    built = _count_stacks(monkeypatch)
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(trials):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 14))
        model, rhs = _family(rng, int(rng.integers(1, 3 * STACK_MIN)), m, n,
                             degenerate)
        models = [model.with_rhs(b) for b in rhs]
        want = [_result_bytes(solve_lp(child)) for child in models]
        built.clear()
        assert [_result_bytes(res) for res in solve_lps(model, rhs)] == want
        seen |= {w[0] for w in want}
        if built:
            seen.add("stack")
            if len({_artificials(child) for child in models}) > 1:
                seen.add("artificial counts differ")
        if (np.isinf(model.lb) & np.isinf(model.ub)).any():
            seen.add("free column")
            assert not built    # one LP at a time, and cold
        if np.isfinite(model.ub).any():
            seen.add("boxed column")
        if EQ in model.senses:
            seen.add("equality row")
    return seen


def test_solve_lps_matches_solve_lp(monkeypatch):
    # The stack reproduces every number of a one-at-a-time solve.  A stack
    # that prices with one 2-D product over the shared columns instead of
    # one product per LP fails here or under Bland below.
    assert _check_families(monkeypatch, 11, 120, degenerate=False) >= {
        OPTIMAL, INFEASIBLE, UNBOUNDED, "stack", "artificial counts differ", "free column", "boxed column",
        "equality row"}


def test_solve_lps_matches_solve_lp_under_bland(monkeypatch):
    # on degenerate LPs a stall limit of 2 sends many runs of pivots to
    # Bland's rule; a stack that kept Dantzig pricing there fails
    monkeypatch.setattr(lp_module, "STALL_LIMIT", 2)
    assert _check_families(monkeypatch, 12, 60, degenerate=True) >= {
        OPTIMAL, INFEASIBLE, UNBOUNDED, "stack"}


def test_solve_lps_matches_solve_lp_across_refactorizations(monkeypatch):
    # Each LP refactorizes every REFACTOR_EVERY pivots, read when it is
    # built, and a stack row every REFACTOR_EVERY pivots, read as it runs.
    # At a cadence of 3 the stack refactorizes mid-run; had the stack and
    # a one-at-a-time solve used different cadences, 8 of the 20 recourse
    # LPs of sslp-10-10-20 at x = 0.37 would differ.
    monkeypatch.setattr(lp_module, "REFACTOR_EVERY", 3)
    refactors = []
    refactor = _Stack._refactor

    def counted(self, k):
        refactors.append(k)
        refactor(self, k)

    monkeypatch.setattr(_Stack, "_refactor", counted)
    inst = generate_sslp(GeneratorConfig(sites=10, clients=10, scenarios=20,
                                         seed=0))
    xhat = np.full(inst.n1, 0.37)
    recourse = LpModel.make(inst.second_stage_cost, inst.recourse,
                            (GE,) * inst.m2)
    rng = np.random.default_rng(15)
    batches = [(recourse, [sc.rhs - sc.technology @ xhat
                           for sc in inst.scenarios])]
    batches += [_family(rng, 2 * STACK_MIN, m, 6, degenerate, free=False)
                for m in (3, 6, 9) for degenerate in (False, True)]
    for model, rhs in batches:
        want = [_result_bytes(solve_lp(model.with_rhs(b))) for b in rhs]
        assert [_result_bytes(res) for res in solve_lps(model, rhs)] == want
    assert refactors


def test_solve_lps_stacks_any_row_count(monkeypatch):
    # A stack of one shape makes each product in the LP's own shape, so
    # batches of one and two rows stack too and match solve_lp byte for
    # byte.  An empty batch has no results.
    built = _count_stacks(monkeypatch)
    rng = np.random.default_rng(14)
    for m in (1, 2, 3):
        built.clear()
        model, rhs = _family(rng, STACK_MIN, m, 5, free=False)
        want = [_result_bytes(solve_lp(model.with_rhs(b))) for b in rhs]
        assert [_result_bytes(res) for res in solve_lps(model, rhs)] == want
        assert built == [STACK_MIN]
        assert solve_lps(model, []) == []


def test_solve_lps_stacks_lps_with_no_rows(monkeypatch):
    # An LP with no rows still pivots: its columns flip bound to bound, or
    # run off unbounded.  Stacked STACK_MIN times, its ratio test has no
    # row to take a minimum over, which is +inf, as in _iterate; the
    # results are byte for byte solve_lp's.  With a free column the batch
    # goes one LP at a time, with the same bytes.
    built = _count_stacks(monkeypatch)
    free = LpModel.make([-1.0, 2.0, -3.0, 0.0], lb=[0.0, -1.0, 0.0, -np.inf],
                        ub=[1.0, 4.0, 2.5, np.inf])
    flips = LpModel.make(free.c, lb=free.lb, ub=[1.0, 4.0, 2.5, 1.0])
    ray = LpModel.make([1.0, -1.0], ub=[2.0, np.inf])
    rhs = [np.zeros(0)] * STACK_MIN
    for model, status, stacked in ((flips, OPTIMAL, [STACK_MIN]),
                                   (ray, UNBOUNDED, [STACK_MIN]),
                                   (free, OPTIMAL, [])):
        built.clear()
        want = _result_bytes(solve_lp(model))
        assert want[0] == status
        assert [_result_bytes(res) for res in solve_lps(model, rhs)] \
            == [want] * STACK_MIN
        assert built == stacked
    assert solve_lp(flips).objective == solve_lp(free).objective == -10.5


def test_stacked_products_are_each_lps_own():
    # The stack prices and gathers its entering columns on the one
    # [A | I | I] its LPs share: (y[:, None, :] @ afull)[:, 0] and
    # afull.T[j].  numpy runs a broadcast product as one BLAS call per LP
    # in the LP's own shape, so each row is byte for byte that LP's
    # y[k] @ afull and binv[k] @ afull[:, j[k]].  One 2-D gemm y @ afull
    # sums in another order and differs.
    def own_bits(y, binv, afull, j, broadcast):
        prices = (y[:, None, :] @ afull)[:, 0] if broadcast else y @ afull
        columns = (binv @ afull.T[j][:, :, None])[:, :, 0]
        return (all(prices[k].tobytes() == (y[k] @ afull).tobytes()
                    and columns[k].tobytes()
                    == (binv[k] @ afull[:, j[k]]).tobytes()
                    for k in range(len(y))))

    rng = np.random.default_rng(31)
    gemm_differs = 0
    for _ in range(30):
        k, m = int(rng.integers(1, 41)), int(rng.integers(1, 121))
        n = int(rng.integers(1, 200))
        a = (rng.integers(-4, 5, size=(m, n))
             * rng.uniform(0.5, 2.0, size=(m, n)))
        afull = lp_module._working_matrix(a)
        y, binv = rng.normal(size=(k, m)), rng.normal(size=(k, m, m))
        j = rng.integers(0, afull.shape[1], size=k)
        assert own_bits(y, binv, afull, j, broadcast=True)
        gemm_differs += not own_bits(y, binv, afull, j, broadcast=False)
    assert gemm_differs


def test_lps_share_one_working_matrix(monkeypatch):
    # LPs re-priced and re-bounded from one model share its record, and
    # with it one [A | I | I]; a region of its phase-1 memo holds the
    # INFEASIBLE result or the basis and statuses phase 1 ended at, and no
    # LP, model, values or inverse; and every stacked result's basis holds
    # its batch's [A | I | I]: no LP copies the matrix, artificials or
    # not.  A stack holds no matrix of its own either: its matrix is every
    # LP's, and none of its arrays holds a matrix per LP or shares the
    # LPs' one.
    stacks = []

    class Seen(_Stack):
        def __init__(self, lps):
            super().__init__(lps)
            stacks.append((self.afull, [lp.Afull for lp in lps],
                           [v for v in vars(self).values()
                            if isinstance(v, np.ndarray)
                            and v is not self.afull]))

    monkeypatch.setattr(lp_module, "_Stack", Seen)
    rng = np.random.default_rng(30)
    arts = kept = held = 0
    for _ in range(20):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        models = _shared_region_lps(rng, 12, m, n, degenerate=False)
        record = models[0]._record
        for model in models:
            res = solve_lp(model)
            assert model._record is record
            assert res.basis is None or res.basis._lp.Afull is record.afull
            arts += _artificials(model)
        assert record.afull.shape == (m, n + 2 * m)
        for region in record.regions.values():
            assert isinstance(region, LpResult) or (
                [(a.shape, a.dtype) for a in region]
                == [((m,), np.intp), ((n + 2 * m,), np.int8)])
            held += not isinstance(region, LpResult)
        model, rhs = _family(rng, STACK_MIN, m, n, free=False)
        stacks.clear()
        bases = [res.basis for res in solve_lps(model, rhs)
                 if res.basis is not None]
        assert all(basis._lp.Afull is bases[0]._lp.Afull for basis in bases)
        kept += len(bases)
        (afull, rows, arrays), = stacks
        assert all(row is afull for row in rows)
        assert all(not np.shares_memory(v, afull)
                   and v.shape[1:] != afull.shape for v in arrays)
    assert arts and kept and held


def test_dual_path_builds_one_working_matrix(monkeypatch):
    # A dual-path solve builds the dual's [A' | -Z | I | I] once, and the
    # dual model's A is its leading block: with no start, with a start
    # that does not map, and with one that maps but is infeasible, so
    # that the warm attempt and the cold solve both pivot on it.  The dual
    # of a checked LP is built checked: no full check runs.
    built, made = [], []
    working_matrix, init = lp_module._working_matrix, _Simplex.__init__

    def counted(*blocks):
        built.append(working_matrix(*blocks))
        return built[-1]

    def recorded(self, model, *args, **kwargs):
        init(self, model, *args, **kwargs)
        made.append((model.A, self.Afull))

    monkeypatch.setattr(lp_module, "_working_matrix", counted)
    monkeypatch.setattr(_Simplex, "__init__", recorded)
    tried = _count_warm_starts(monkeypatch)
    rng = np.random.default_rng(49)
    m, n = lp_module.DUAL_MIN + 10, 8
    model = _tall_model(rng, m, n)
    model = LpModel.make(np.abs(model.c) + 1.0, model.A, model.senses,
                         model.b, model.lb, model.ub)
    after = DualStart()
    negative = LpModel.make(np.where(np.arange(n) == 2, -1.0, model.c),
                            model.A, model.senses, model.b, model.lb,
                            model.ub)
    monkeypatch.setattr(LpModel, "check", None)   # any full check fails
    for lp, start, attempts in ((model, after, []),
                                (model, DualStart(m + 5, 0, None), []),
                                (negative, "infeasible", [False])):
        if start == "infeasible":
            start = DualStart(m, after.boxed, m + after.boxed + np.arange(n))
        built.clear(), made.clear(), tried.clear()
        assert solve_lp(lp, dual_start=start).status == OPTIMAL
        assert tried == attempts and len(made) == 1 + len(attempts)
        (afull,) = built
        assert all(full is afull and np.shares_memory(A, afull)
                   for A, full in made)
        assert made[0][0].shape == (n, m + after.boxed)


_STACK_WITH_DRIFTED_MASTER = """
import sys
import numpy as np
import stochcuts.lp as L
L.DUAL_MIN = 10 ** 9   # the primal path, where the breakdown is
d = np.load(sys.argv[1])
senses = [str(s) for s in d["senses"]]
model = L.LpModel.make(d["c"], d["A"], senses, d["b"], d["lb"], d["ub"])
try:
    L._Simplex(model).solve()
    raise SystemExit("the first attempt no longer breaks down")
except L.SimplexBreakdown:
    pass
retries = []
init = L._Simplex.__init__
def counted(self, model, refactor_every=None, start=None):
    retries.append(refactor_every == L.RETRY_REFACTOR_EVERY)
    init(self, model, refactor_every, start)
L._Simplex.__init__ = counted
def key(r):
    return (r.status, repr(r.objective), r.x.tobytes(), r.duals.tobytes(),
            r.reduced_costs.tobytes())
got = [key(r) for r in L.solve_lps(model, [d["b"]] * L.STACK_MIN)]
assert retries == [False] * L.STACK_MIN + [True] * L.STACK_MIN, retries
assert got == [key(L.solve_lp(model))] * L.STACK_MIN
print("ok")
"""


def test_solve_lps_retries_one_member():
    # The drifted master (see test_drifted_master_solves_on_retry) stacked
    # STACK_MIN times at its own rhs: every member breaks down, is retried
    # alone, and still matches solve_lp.  One BLAS thread, as that
    # breakdown needs.
    path = [str(Path(stochcuts.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", _STACK_WITH_DRIFTED_MASTER,
                          str(DRIFT_MASTER)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "ok"


def test_benders_recourse_stacks_never_leave(monkeypatch):
    # A stacked row whose next pivot is a bound flip, a ray or Bland's
    # rule leaves its stack and is solved alone, which gives the same bits
    # at the cost of its pivots so far.  The recourse rounds of benders on
    # sslp-10-10-20 stack, and no row of them leaves: a stack that sent
    # its rows off one at a time would still pass every bitwise test, and
    # fails here.
    from stochcuts.drivers import run_benders
    built = _count_stacks(monkeypatch)
    left = []
    leave = _Stack._leave

    def counted(self, k):
        left.append(k)
        return leave(self, k)

    monkeypatch.setattr(_Stack, "_leave", counted)
    inst = generate_sslp(GeneratorConfig(sites=10, clients=10, scenarios=20,
                                         seed=0))
    assert run_benders(inst).events
    assert built and left == []


def _shared_region_lps(rng, count, m, n, degenerate):
    """count LPs on one matrix and row senses whose rhs, bounds and costs
    are drawn from pools of two, two and four: feasible regions repeat, and
    some LPs share A, bounds and senses but not b, or A and b but not the
    bounds.  All are one model's, re-priced and re-bounded, and share its
    record (unchecked, so that solve_lp checks each)."""
    model, rhs = _family(rng, 2, m, n, degenerate)
    draws = [_costs_and_bounds(rng, n) for _ in range(4)]
    pick = rng.integers(0, (2, 2, 4), size=(count, 3))
    return [replace(model, c=draws[k][0], b=rhs[i], lb=draws[j][1],
                    ub=draws[j][2], checked=False) for i, j, k in pick]


def _fresh(model):
    """A copy of `model` with a record of its own: solved from scratch."""
    return LpModel.make(model.c, model.A, model.senses, model.b, model.lb,
                        model.ub)


def _check_start_cache(seed, trials, degenerate):
    """Every LP solved through one record's phase-1 memo per batch is
    byte-equal to its solve from scratch; returns what the memo's hits
    covered."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(trials):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 14))
        models = _shared_region_lps(rng, 12, m, n, degenerate)
        regions = set()
        for model in models:
            want = _result_bytes(solve_lp(_fresh(model)))
            assert _result_bytes(solve_lp(model)) == want
            region = (model.b.tobytes(), model.lb.tobytes(),
                      model.ub.tobytes())
            if region in regions:
                seen.add(f"hit {want[0]}")
                if _artificials(model):
                    seen.add("hit after phase-1 pivots")
            regions.add(region)
    return seen


def test_start_cache_is_bitwise_neutral():
    # A memo hit runs phase 2 from a copy of the stored phase-1 state.  A
    # key without b or without the bounds, or a restore that shares the
    # stored basis inverse with the LP it starts, fails here.
    assert _check_start_cache(31, 80, degenerate=False) >= {
        f"hit {OPTIMAL}", f"hit {INFEASIBLE}", f"hit {UNBOUNDED}",
        "hit after phase-1 pivots"}


def test_start_cache_is_bitwise_neutral_under_bland(monkeypatch):
    monkeypatch.setattr(lp_module, "STALL_LIMIT", 2)
    assert _check_start_cache(32, 40, degenerate=True) >= {
        f"hit {OPTIMAL}", f"hit {INFEASIBLE}", "hit after phase-1 pivots"}


def test_start_cache_checks_the_model_on_a_hit():
    # bad shares the record, whose memo holds its region
    model = LpModel.make([1.0, 2.0], [[1.0, 1.0]], [GE], [1.0])
    solve_lp(model)
    assert model._record.regions
    bad = replace(model, c=np.array([1.0, np.nan]), checked=False)
    with pytest.raises(ValueError, match="objective"):
        solve_lp(bad)


def test_replaced_matrix_gets_a_fresh_record():
    # A model given a new A by dataclasses.replace keeps its old record
    # only until its first solve, which replaces it: the new A's LPs
    # never pivot on the old [A | I | I] or hit the old A's regions.
    old = LpModel.make([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [GE, LE],
                       [1.0, 0.5])
    solve_lp(old)
    record = old._record
    regions = dict(record.regions)
    assert regions and record.afull is not None
    new = replace(old, A=np.array([[1.0, 3.0], [2.0, -1.0]]))
    assert new._record is record
    got = solve_lp(new)
    assert _result_bytes(got) == _result_bytes(solve_lp(_fresh(new)))
    assert new._record is not record and new._record.A is new.A
    assert got.basis._lp.Afull is new._record.afull
    assert not np.shares_memory(new._record.afull, record.afull)
    assert set(record.regions) == set(regions) and old._record is record
    assert all(new._record.regions[key] is not regions[key]
               for key in new._record.regions)


_CACHE_WITH_DRIFTED_MASTER = """
import dataclasses
import sys
import numpy as np
import stochcuts.lp as L
L.DUAL_MIN = 10 ** 9   # the primal path, where the breakdown is
d = np.load(sys.argv[1])
senses = [str(s) for s in d["senses"]]
rng = np.random.default_rng(3)
master = L.LpModel.make(d["c"], d["A"], senses, d["b"], d["lb"], d["ub"])
costs = [d["c"] * rng.uniform(0.5, 1.5, d["c"].size) for _ in range(4)]
costs[1:1] = [d["c"]]
costs.append(d["c"])
retries = []
init = L._Simplex.__init__
def counted(self, model, refactor_every=None, *args, **kwargs):
    retries.append(refactor_every == L.RETRY_REFACTOR_EVERY)
    init(self, model, refactor_every, *args, **kwargs)
L._Simplex.__init__ = counted
def key(r):
    return (r.status, repr(r.objective), r.x.tobytes(), r.duals.tobytes(),
            r.reduced_costs.tobytes())
# each on a record of its own, from scratch
want = [key(L.solve_lp(L.LpModel.make(c, d["A"], senses, d["b"], d["lb"],
                                      d["ub"]))) for c in costs]
assert sum(retries) == 2, retries
del retries[:]
models = [dataclasses.replace(master, c=c) for c in costs]
assert [key(L.solve_lp(m)) for m in models] == want
# one LP per solve, the miss's and the five hits', and the two retries;
# one record, one region
print(len(retries), sum(retries), len({id(m._record) for m in models}),
      len(master._record.regions))
"""


def test_start_cache_retries_a_breakdown():
    # The drifted master (see test_drifted_master_solves_on_retry) passes
    # phase 1 and breaks down in phase 2.  Re-priced, behind a
    # cost-perturbed copy of itself that shares its record, it is a memo
    # hit that breaks down, then a second hit: each time it is solved
    # again from scratch, and every result matches its solve on a record
    # of its own.  Each hit builds its LP from the stored basis and
    # statuses.  One BLAS thread, as that breakdown needs.
    path = [str(Path(stochcuts.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run([sys.executable, "-c", _CACHE_WITH_DRIFTED_MASTER,
                          str(DRIFT_MASTER)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.split() == ["8", "2", "1", "1"]


def _highs(linprog, model):
    """HiGHS on `model`, its rows turned into A_ub x <= b_ub and A_eq x =
    b_eq."""
    senses = np.asarray(model.senses)
    eq = senses == EQ
    flip = np.where(senses[~eq] == LE, 1.0, -1.0)
    return linprog(model.c, flip[:, None] * model.A[~eq], flip * model.b[~eq],
                   model.A[eq] if eq.any() else None,
                   model.b[eq] if eq.any() else None,
                   bounds=[(None if np.isinf(lo) else lo,
                            None if np.isinf(hi) else hi)
                           for lo, hi in zip(model.lb, model.ub)],
                   method="highs")


@st.composite
def _small_lps(draw):
    """LPs of at most 6 rows and 6 columns with small integer data: free,
    lower-bounded, upper-bounded and boxed (or fixed) columns, and rows of
    all three senses."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def ints(size, lo=-4, hi=4):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size,
                                      max_size=size)), dtype=float)

    a, b, c = ints(m * n).reshape(m, n), ints(m), ints(n)
    senses = draw(st.lists(st.sampled_from((LE, GE, EQ)), min_size=m,
                           max_size=m))
    kinds = draw(st.lists(st.sampled_from(("free", "lower", "upper",
                                           "boxed")), min_size=n, max_size=n))
    low, width = ints(n, -3, 1), ints(n, 0, 4)
    lb = np.array([-np.inf if k in ("free", "upper") else v
                   for k, v in zip(kinds, low)])
    ub = np.array([np.inf if k in ("free", "lower") else v + w
                   for k, v, w in zip(kinds, low, width)])
    return LpModel.make(c, a, senses, b, lb, ub)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_small_lps())
def test_small_lps_agree_with_highs(model):
    # HiGHS decides feasibility with a zero objective, then the status and
    # optimum under c.  Basic columns with an infinite bound on the side
    # they move toward block nothing in the ratio test; free and one-sided
    # columns put them there.
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = solve_lp(model)
    feasible = _highs(linprog, LpModel(np.zeros(model.c.size), model.A,
                                       model.senses, model.b, model.lb,
                                       model.ub))
    assert feasible.status in (0, 2), feasible.message
    if feasible.status == 2:
        assert res.status == INFEASIBLE
        check_farkas(model, res)
        return
    ref = _highs(linprog, model)
    assert ref.status in (0, 3), ref.message
    assert res.status == (OPTIMAL if ref.status == 0 else UNBOUNDED)
    if res.status == OPTIMAL:
        assert res.objective == pytest.approx(ref.fun, abs=1e-6)


def _count_dual_solves(monkeypatch):
    """A list that records, per call of lp._solve_dual, whether the dual
    path returned a result."""
    taken = []
    solve = lp_module._solve_dual

    def counted(model, start=None):
        res = solve(model, start)
        taken.append(res is not None)
        return res

    monkeypatch.setattr(lp_module, "_solve_dual", counted)
    return taken


def _tall_model(rng, m, n, degenerate=False):
    """A tall LP around a box point x0: >=, <= and a few = rows, finite
    lower bounds, finite upper bounds on about half the columns.  A
    degenerate one has most rows tight at x0, and x0 at its bounds on
    about half the columns."""
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    senses = [(GE, LE, EQ)[i] for i in rng.choice(3, size=m, p=(0.6, 0.37,
                                                                0.03))]
    lb = np.round(rng.uniform(-2.0, 1.0, size=n))
    ub = np.where(rng.uniform(size=n) < 0.5,
                  lb + np.round(rng.uniform(1.0, 4.0, size=n)), np.inf)
    x0 = lb + rng.uniform(0.0, 1.0, size=n)
    if degenerate:
        x0 = np.where(rng.uniform(size=n) < 0.5, lb, np.round(x0))
    slack = rng.uniform(0.0, 1.0, size=m)
    if degenerate:
        slack[rng.uniform(size=m) < 0.7] = 0.0
    sign = np.select([np.asarray(senses) == GE, np.asarray(senses) == LE],
                     [-1.0, 1.0], 0.0)
    c = rng.integers(-2, 6, size=n).astype(float)
    return LpModel.make(c, a, senses, a @ x0 + sign * slack, lb, ub)


def _check_complementary(model, res, tol=1e-6):
    """Each row's dual is zero where the row is slack, and each column's
    reduced cost is zero off the bound it prices."""
    scale = 1.0 + float(np.abs(res.duals).max(initial=0.0))
    resid = model.A @ res.x - model.b
    assert np.all(np.abs(res.duals * resid)
                  <= tol * scale * (1.0 + np.abs(model.b)))
    rc = res.reduced_costs
    priced = np.abs(rc) > tol * scale
    away = np.where(rc > 0, res.x - model.lb, model.ub - res.x)[priced]
    assert np.all(away <= tol * (1.0 + np.abs(res.x[priced])))


def _sweep_dual_path(monkeypatch, seed, trials, degenerate):
    """Seeded tall LPs through the dual path, each against the primal path,
    HiGHS where scipy is installed, and the optimality and complementary
    slackness checks; returns how many ended OPTIMAL."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        linprog = None
    taken = _count_dual_solves(monkeypatch)
    rng = np.random.default_rng(seed)
    dual_min = lp_module.DUAL_MIN
    optimal = 0
    for _ in range(trials):
        model = _tall_model(rng, int(rng.integers(dual_min, 160)),
                            int(rng.integers(2, 30)), degenerate)
        taken.clear()
        res = solve_lp(model)
        assert taken == [res.status == OPTIMAL]
        monkeypatch.setattr(lp_module, "DUAL_MIN", 10 ** 9)
        primal = solve_lp(model)
        monkeypatch.setattr(lp_module, "DUAL_MIN", dual_min)
        assert res.status == primal.status
        if res.status != OPTIMAL:
            continue
        optimal += 1
        assert res.objective == pytest.approx(primal.objective, abs=1e-6,
                                              rel=1e-6)
        check_optimal(model, res)
        _check_complementary(model, res)
        if linprog is not None:
            ref = _highs(linprog, model)
            assert ref.status == 0
            assert res.objective == pytest.approx(ref.fun, abs=1e-6,
                                                  rel=1e-6)
    return optimal


def test_dual_path_on_random_tall_lps(monkeypatch):
    # Tall LPs (DUAL_MIN rows or more, fewer columns, finite lower bounds)
    # are solved through their dual: the same status and objective as the
    # primal path and HiGHS, and a feasible, complementary x.
    assert _sweep_dual_path(monkeypatch, 41, 40, degenerate=False) >= 30


def test_dual_path_on_degenerate_tall_lps(monkeypatch):
    # most rows tight at one point, so both the LP and its dual are
    # degenerate; under Bland's rule from the second stalled pivot too
    assert _sweep_dual_path(monkeypatch, 42, 30, degenerate=True) >= 20
    monkeypatch.setattr(lp_module, "STALL_LIMIT", 2)
    assert _sweep_dual_path(monkeypatch, 43, 20, degenerate=True) >= 12


def test_dual_path_only_for_tall_lps_with_finite_lower_bounds(monkeypatch):
    taken = _count_dual_solves(monkeypatch)
    rng = np.random.default_rng(44)
    m = lp_module.DUAL_MIN
    tall = _tall_model(rng, m, 20)
    for model in (tall,
                  _tall_model(rng, m - 1, 20),         # too few rows
                  _tall_model(rng, m, m),              # not taller than wide
                  LpModel.make(tall.c, tall.A, tall.senses, tall.b,
                               np.where(np.arange(20) == 3, -np.inf,
                                        tall.lb), tall.ub)):   # a free side
        solve_lp(model)
    assert taken == [True]


def test_dual_path_falls_back_on_infeasible_and_unbounded(monkeypatch):
    # The dual of an infeasible LP is unbounded or infeasible, and the dual
    # of an unbounded one infeasible.  An unbounded dual's ray gives the
    # Farkas ray, which must pass check_farkas; an infeasible dual sends
    # the LP the primal way, which gives the UNBOUNDED status.
    taken = _count_dual_solves(monkeypatch)
    rng = np.random.default_rng(45)
    m, n = lp_module.DUAL_MIN + 8, 12
    model = _tall_model(rng, m, n)
    i = model.senses.index(GE)
    contradiction = LpModel.make(
        model.c, np.vstack([model.A, model.A[i]]), model.senses + (LE,),
        np.append(model.b, model.b[i] - 2.0), model.lb, model.ub)
    res = solve_lp(contradiction)
    assert res.status == INFEASIBLE
    check_farkas(contradiction, res)
    # a new column that costs -1, with no upper bound, enters the >= rows
    # with nonnegative coefficients and no other row: it grows without
    # bound from any feasible point
    column = np.where(np.asarray(model.senses) == GE,
                      rng.integers(0, 3, size=m), 0.0)
    open_ray = LpModel.make(np.append(model.c, -1.0),
                            np.column_stack([model.A, column]), model.senses,
                            model.b, np.append(model.lb, 0.0),
                            np.append(model.ub, np.inf))
    assert solve_lp(model).status == OPTIMAL
    assert solve_lp(open_ray).status == UNBOUNDED
    assert taken == [True, True, False]


def test_tall_stack_matches_solve_lp(monkeypatch):
    # solve_lps sends a tall LP's batch to solve_lp one LP at a time,
    # through the dual path, and stacks it when a free column keeps it on
    # the primal path: byte for byte solve_lp's results both ways
    # (DUAL_MIN lowered so that the LPs stay small)
    built = _count_stacks(monkeypatch)
    taken = _count_dual_solves(monkeypatch)
    monkeypatch.setattr(lp_module, "DUAL_MIN", 6)
    rng = np.random.default_rng(46)
    tall = _tall_model(rng, 8, 4)
    rhs = [tall.b + rng.normal(0.0, 1.0, size=8) for _ in range(STACK_MIN)]
    free = LpModel.make(tall.c, tall.A, tall.senses, tall.b,
                        np.where(np.arange(4) == 0, -np.inf, tall.lb), tall.ub)
    for model, stacked, dual in ((tall, [], [True] * STACK_MIN),
                                 (free, [STACK_MIN], [])):
        want = [_result_bytes(solve_lp(model.with_rhs(b))) for b in rhs]
        built.clear(), taken.clear()
        assert [_result_bytes(res) for res in solve_lps(model, rhs)] == want
        assert built == stacked and taken == dual


def test_drifted_master_solves_through_its_dual(monkeypatch):
    # The drifted master of test_drifted_master_solves_on_retry has 135
    # rows and 30 columns: its dual has 30 rows, and solves on the first
    # attempt, to HiGHS's optimum.
    linprog = pytest.importorskip("scipy.optimize").linprog
    d = np.load(DRIFT_MASTER)
    model = LpModel.make(d["c"], d["A"], [str(s) for s in d["senses"]],
                         d["b"], d["lb"], d["ub"])
    attempts = []

    class Counted(_Simplex):
        def __init__(self, model, refactor_every=lp_module.REFACTOR_EVERY,
                     **kwargs):
            attempts.append((model.A.shape, refactor_every))
            super().__init__(model, refactor_every, **kwargs)

    monkeypatch.setattr(lp_module, "_Simplex", Counted)
    res = solve_lp(model)
    boxed = int(np.isfinite(d["ub"] - d["lb"]).sum())
    assert attempts == [((30, 135 + boxed), lp_module.REFACTOR_EVERY)]
    check_optimal(model, res)
    ref = _highs(linprog, model)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-6)


def _count_warm_starts(monkeypatch):
    """A list that records, per LP built on a placed basis -- here, per
    warm start _solve_dual tries -- True if every basic value is within
    FEAS_TOL of its bounds (the start is feasible) and False if not; a
    singular one raises."""
    tried = []
    init = _Simplex.__init__

    def counted(self, model, *args, placed=None, **kwargs):
        init(self, model, *args, placed=placed, **kwargs)
        if placed is not None:
            xb, tol = self.xval[self.basis], lp_module.FEAS_TOL
            tried.append(bool(np.all(xb >= self.lb[self.basis] - tol)
                              and np.all(xb <= self.ub[self.basis] + tol)))

    monkeypatch.setattr(_Simplex, "__init__", counted)
    return tried


def _held(start):
    return DualStart(start.rows, start.boxed, start.basis.copy())


def _warm_matches_cold(model, start, dual_min=None):
    """Solve `model` from a copy of `start` and from scratch, both with
    `dual_min`: the same status, the same optimum to 1e-9 and x within
    its bounds."""
    warm = solve_lp(model, dual_start=_held(start), dual_min=dual_min)
    cold = solve_lp(model, dual_min=dual_min)
    assert warm.status == cold.status
    if warm.status == OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-9)
        assert np.all(warm.x >= model.lb) and np.all(warm.x <= model.ub)
        check_optimal(model, warm)


def test_warm_dual_start_matches_cold(monkeypatch):
    # The masters of a benders run on sslp-10-10-20, each from the start
    # and with the dual_min its solve_master passed, and seeded tall LPs
    # re-solved after random >= rows are appended: a new row is a new dual
    # column at its lower bound, so the last optimal dual basis is a
    # feasible start.  Benders passes dual_min=0, so its warm masters
    # include some under DUAL_MIN rows.
    import stochcuts.benders as benders
    from stochcuts import RunConfig, run
    masters = []
    solve = benders.solve_lp

    def recorded(model, dual_start=None, dual_min=None):
        if (lp_module._dualizes(model, dual_min)
                and dual_start.basis is not None):
            masters.append((model, _held(dual_start), dual_min))
        return solve(model, dual_start=dual_start, dual_min=dual_min)

    monkeypatch.setattr(benders, "solve_lp", recorded)
    run(generate_sslp(GeneratorConfig(sites=10, clients=10, scenarios=20,
                                      seed=0)), RunConfig(algorithm="benders"))
    monkeypatch.setattr(benders, "solve_lp", solve)
    # each went through its dual and built no primal [A | I | I]
    assert all(model._record.afull is None for model, _, _ in masters)
    tried = _count_warm_starts(monkeypatch)
    for model, start, dual_min in masters:
        _warm_matches_cold(model, start, dual_min)
    assert masters and tried == [True] * len(masters)
    assert any(model.A.shape[0] < lp_module.DUAL_MIN
               for model, _, _ in masters)
    rng = np.random.default_rng(47)
    statuses = set()
    for _ in range(12):
        model = _tall_model(rng, lp_module.DUAL_MIN + int(rng.integers(0, 30)),
                            int(rng.integers(4, 20)))
        start = DualStart()
        for _ in range(4):
            res = solve_lp(model, dual_start=start)
            statuses.add(res.status)
            if res.status != OPTIMAL or start.basis is None:
                break
            k, n = int(rng.integers(1, 6)), model.A.shape[1]
            rows = rng.integers(-4, 5, size=(k, n)).astype(float)
            b = rows @ res.x + rng.uniform(-1.0, 2.0, size=k)
            model = LpModel.make(model.c, np.vstack([model.A, rows]),
                                 model.senses + (GE,) * k,
                                 np.append(model.b, b), model.lb, model.ub)
            _warm_matches_cold(model, start)
    assert OPTIMAL in statuses and tried.count(True) >= 30


def test_unusable_dual_start_gives_the_cold_result(monkeypatch):
    # A start that names a row no longer there, a singular one and an
    # infeasible one: each gives the cold dual's result byte for byte, and
    # leaves the start holding the basis the cold dual ended at.
    tried = _count_warm_starts(monkeypatch)
    rng = np.random.default_rng(48)
    m, n = lp_module.DUAL_MIN + 10, 8
    model = _tall_model(rng, m, n)
    model = LpModel.make(np.abs(model.c) + 1.0, model.A, model.senses,
                         model.b, model.lb, model.ub)
    cold = solve_lp(model, dual_start=(after := DualStart()))
    assert cold.status == OPTIMAL and tried == []
    boxed = after.boxed
    gone = DualStart(m + 5, boxed, after.basis.copy())
    gone.basis[0] = m + 2          # the y of a row past the LP's m
    # a zero row, 0 >= -1: its y column is zero
    zero_row = LpModel.make(model.c, np.vstack([model.A, np.zeros(n)]),
                            model.senses + (GE,), np.append(model.b, -1.0),
                            model.lb, model.ub)
    singular = DualStart(m + 1, boxed,
                         np.append(m, m + 1 + boxed + np.arange(1, n)))
    # the slack basis of a dual with a negative cost: that slack is < 0
    negative = LpModel.make(np.where(np.arange(n) == 2, -1.0, model.c),
                            model.A, model.senses, model.b, model.lb,
                            model.ub)
    infeasible = DualStart(m, boxed, m + boxed + np.arange(n))
    for lp, start, attempts in ((model, gone, []),
                                (zero_row, singular, []),
                                (negative, infeasible, [False])):
        tried.clear()
        want = solve_lp(lp, dual_start=(fresh := DualStart()))
        got = solve_lp(lp, dual_start=start)
        assert tried == attempts
        assert _result_bytes(got) == _result_bytes(want)
        assert np.array_equal(start.basis, fresh.basis)
        assert (start.rows, start.boxed) == (fresh.rows, fresh.boxed)


def _basic_slack(res, b):
    """How far inside its bounds the basis of `res` keeps every basic value
    at rhs b, negative when one leaves them, solved apart from the basis's
    own inverse; None when an artificial is basic."""
    lp = res.basis._lp
    if (lp.basis >= lp.ncols0).any():
        return None
    nonbasic = lp.status != lp_module._BASIC
    xb = np.linalg.solve(lp.Afull[:, lp.basis],
                         b - lp.Afull[:, nonbasic] @ lp.xval[nonbasic])
    return float(np.minimum(xb - lp.lb[lp.basis],
                            lp.ub[lp.basis] - xb).min(initial=np.inf))


def test_basis_answers_at_a_new_rhs():
    # An OPTIMAL result's basis stays dual feasible at every rhs, so where
    # its basic values stay within their bounds at a new b its objective
    # there is the LP's optimum; where one leaves them, or an artificial
    # is basic, it answers None.
    rng = np.random.default_rng(20261019)
    seen = set()
    for trial in range(300):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 8))
        model = _random_model(rng, n, m, contradict=trial % 5 == 4)
        res = solve_lp(model)
        if res.status != OPTIMAL:
            assert res.basis is None
            seen.add(res.status)
            continue
        for scale in (1e-3, 0.1, 1.0):
            b = model.b + rng.normal(0.0, scale, size=m)
            got = res.basis.objective_at(b)
            inside = _basic_slack(res, b)
            if inside is None:
                assert got is None
                seen.add("artificial")
            elif inside > 1e-9:
                want = solve_lp(model.with_rhs(b))
                assert want.status == OPTIMAL
                assert abs(got - want.objective) <= 1e-9 * (
                    1.0 + abs(want.objective))
                seen.add("answers")
            elif inside < -1e-9:
                assert got is None
                seen.add("leaves its bounds")
    assert seen >= {"answers", "leaves its bounds", INFEASIBLE, UNBOUNDED}


def test_stacked_bases_answer_as_solve_lps():
    # Recourse-like LPs, with_rhs children of one model, solved in a stack
    # carry bases that answer at a new rhs bit for bit as solve_lp's do.
    rng = np.random.default_rng(7)
    built = 0
    answers = set()
    for _ in range(20):
        m, n = int(rng.integers(3, 9)), int(rng.integers(3, 12))
        w = np.hstack([rng.integers(-3, 5, size=(m, n)), np.ones((m, 1))])
        recourse = LpModel.make(rng.integers(1, 6, size=n + 1), w, (GE,) * m)
        rhs = [rng.normal(0.0, 3.0, size=m)
               for _ in range(STACK_MIN + int(rng.integers(0, 6)))]
        stacked = solve_lps(recourse, rhs)
        built += 1
        for model, res in zip(map(recourse.with_rhs, rhs), stacked):
            alone = solve_lp(model)
            assert _result_bytes(res) == _result_bytes(alone)
            for _ in range(3):
                b = model.b + rng.normal(0.0, 0.5, size=m)
                got = res.basis.objective_at(b)
                assert got == alone.basis.objective_at(b)
                answers.add(got is None)
    assert answers == {True, False}


def test_only_optimal_primal_results_carry_a_basis(monkeypatch):
    # The dual path's results, and INFEASIBLE and UNBOUNDED ones, carry no
    # basis; a result of the phase-1 memo's phase 2 does, on a miss and
    # on a hit.
    rng = np.random.default_rng(11)
    tall = _tall_model(rng, lp_module.DUAL_MIN + 4, 6)
    tall = LpModel.make(np.abs(tall.c) + 1.0, tall.A, tall.senses, tall.b,
                        tall.lb, tall.ub)
    dual = solve_lp(tall)
    assert dual.status == OPTIMAL and dual.basis is None
    infeasible = LpModel.make([1.0], [[1.0], [1.0]], (GE, LE), [2.0, 1.0])
    unbounded = LpModel.make([-1.0], [[1.0]], (GE,), [1.0])
    assert solve_lp(infeasible).basis is None
    assert solve_lp(unbounded).basis is None
    model = LpModel.make([1.0, 2.0], [[1.0, 1.0]], (GE,), [3.0])
    assert solve_lp(model).basis.objective_at([4.0]) == 4.0   # a miss
    assert model._record.regions
    assert solve_lp(model).basis.objective_at([-1.0]) is None   # a hit


def _warm_outcomes(monkeypatch):
    """A list that records, per warm start solve_lp tries, the status the
    dual simplex and phase 2 ended with, or "cold" where the LP went the
    cold way."""
    outcomes = []
    solve_warm = lp_module._solve_warm

    def recorded(model, basis, start):
        res = solve_warm(model, basis, start)
        outcomes.append("cold" if res is None else res.status)
        return res

    monkeypatch.setattr(lp_module, "_solve_warm", recorded)
    return outcomes


@st.composite
def _scaled_recourse_lps(draw):
    """Recourse-like LPs: >= rows, y >= 0 with no upper bound, positive
    costs, and three-decimal coefficients on rows and columns scaled by
    powers of ten, so that a Farkas row picks up rounding between 1e-12
    and PIVOT_TOL on unbounded columns."""
    m, n = draw(st.integers(2, 9)), draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = (np.round(rng.uniform(-1.0, 1.0, size=(m, n)), 3)
         * (rng.uniform(size=(m, n)) < 0.6)
         * 10.0 ** rng.integers(-2, 3, size=(m, 1))
         * 10.0 ** rng.integers(-2, 3, size=n))
    b = a @ rng.uniform(0.0, 1.0, size=n) - rng.uniform(0.0, 1.0, size=m)
    return LpModel.make(rng.uniform(0.5, 5.0, size=n), a, (GE,) * m, b)


def test_warm_run_matches_cold(monkeypatch):
    # An LP re-solved from a with_rhs sibling's basis -- OPTIMAL, or a
    # warm INFEASIBLE end's, chained over perturbed rhs -- has the cold
    # solve's status and optimum, to 1e-9 relative, and an optimal
    # solution or a Farkas ray that the independent checks accept.  The
    # draws end OPTIMAL, end INFEASIBLE and go cold, and the scaled ones
    # reach warm Farkas rows that only the certificate test turns away.
    outcomes = _warm_outcomes(monkeypatch)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(_small_lps(), _scaled_recourse_lps()),
           st.integers(0, 2 ** 32 - 1))
    def check(model, seed):
        rng = np.random.default_rng(seed)
        res = solve_lp(model)
        scale = 1.0 + np.abs(model.b).max()
        for step in (1e-3, 0.1, 1.0, 3.0):
            if res.basis is None:
                return
            b = model.b + scale * rng.normal(0.0, step, size=model.b.size)
            sibling = model.with_rhs(b)
            warm, = solve_lps(model, [b], [res.basis])
            cold = solve_lp(sibling)
            assert warm.status == cold.status
            if warm.status == OPTIMAL:
                assert abs(warm.objective - cold.objective) <= 1e-9 * (
                    1.0 + abs(cold.objective))
                check_optimal(sibling, warm)
            else:
                check_farkas(sibling, warm)
            res = warm

    check()
    assert set(outcomes) == {OPTIMAL, INFEASIBLE, "cold"}


def test_solve_lps_with_bases_matches_solve_lp(monkeypatch):
    # Recourse-like batches, some members with a sibling's basis and some
    # without: result i is byte for byte that of a batch of its rhs and
    # basis alone.  The warm members go one at a time and the rest still
    # stack.
    built = _count_stacks(monkeypatch)
    outcomes = _warm_outcomes(monkeypatch)
    rng = np.random.default_rng(21)
    for trial in range(10):
        m, n = int(rng.integers(6, 12)), int(rng.integers(3, 6))
        # a column of ones makes every rhs feasible; half the trials lack it
        w = np.hstack([rng.integers(-3, 5, size=(m, n)),
                       np.full((m, 1), float(trial % 2))])
        recourse = LpModel.make(rng.integers(1, 6, size=n + 1), w, (GE,) * m)
        first = solve_lps(recourse, [rng.normal(0.0, 3.0, size=m)
                                     for _ in range(2 * STACK_MIN)])
        rhs = [rng.normal(0.0, 3.0, size=m) for _ in range(2 * STACK_MIN)]
        bases = [res.basis if k % 2 else None for k, res in enumerate(first)]
        got = solve_lps(recourse, rhs, bases)
        want = [solve_lps(recourse, [b], [basis])[0]
                for b, basis in zip(rhs, bases)]
        assert ([_result_bytes(res) for res in got]
                == [_result_bytes(res) for res in want])
    # each trial stacks its first batch and the members without a start
    assert len(built) == 20 and min(built) >= STACK_MIN
    assert {OPTIMAL, INFEASIBLE} <= set(outcomes)
