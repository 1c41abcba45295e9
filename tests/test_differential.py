"""Every driver's bound against HiGHS on small drawn instances.

The reference is scipy's HiGHS on the extensive form as build_extensive
writes it: its LP relaxation and its MIP optimum.  Converged benders ends
at the LP relaxation; every driver's z_lb is a lower bound on the MIP
optimum; alg1, when it stops converged, is within its epsilon of that
optimum, and its upper bound is one.  Every driver refuses an instance
whose LP relaxation HiGHS finds infeasible with an InfeasibleError, and
only an instance without an integer solution may be refused.  Instances
are server-location ones (with and without the site-budget row, which can
leave no solution) and the builtin dim1-random family at drawn seeds.  The draw is derandomized, so the test is repeatable, and
skipped without scipy.  One more test runs benders at the paper's client
count, on sslp-10-50-20.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochcuts import builtin, generate_sslp, GeneratorConfig, run, RunConfig
from stochcuts.drivers import REASON_CONVERGED
from stochcuts.lp import GE, LE
from stochcuts.model import build_extensive, InfeasibleError

optimize = pytest.importorskip("scipy.optimize")

TOL = 1e-6      # relative, on bounds compared with HiGHS's


@st.composite
def _instances(draw):
    if draw(st.booleans()):
        return builtin(f"dim1-random-{draw(st.integers(0, 10**6))}")
    sites = draw(st.integers(1, 3))
    return generate_sslp(GeneratorConfig(
        sites=sites, clients=draw(st.integers(1, 4)),
        scenarios=draw(st.integers(1, 5)), seed=draw(st.integers(0, 10**6)),
        site_budget=draw(st.none() | st.integers(1, sites))))


def _highs(instance, integer=True):
    """(LP relaxation, MIP optimum) of build_extensive(instance), by HiGHS,
    or (LP relaxation,) when not `integer`; inf where it finds no
    solution."""
    mip = build_extensive(instance)
    lp = mip.lp
    senses = np.asarray(lp.senses)
    rows = optimize.LinearConstraint(lp.A, np.where(senses == LE, -np.inf,
                                                    lp.b),
                                     np.where(senses == GE, np.inf, lp.b))
    values = []
    for integrality in (np.zeros(lp.c.size),
                        mip.integer.astype(int))[:1 + integer]:
        res = optimize.milp(lp.c, constraints=rows,
                            bounds=optimize.Bounds(lp.lb, lp.ub),
                            integrality=integrality,
                            options={"mip_rel_gap": 1e-9})
        assert res.status in (0, 2), res.message     # 2: infeasible
        values.append(float(res.fun) if res.status == 0 else np.inf)
    return values


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_instances())
def test_drivers_agree_with_highs(instance):
    # an instance with no solution is refused, one with no LP solution by
    # every driver
    relaxation, optimum = _highs(instance)
    slack = TOL * (1.0 + abs(optimum))
    for algorithm in ("benders", "bdd", "apblagc", "alg1"):
        budget = {"separation_budget": 6} if algorithm in ("bdd",
                                                           "apblagc") else {}
        config = RunConfig(algorithm=algorithm, **budget)
        if relaxation == np.inf:
            with pytest.raises(InfeasibleError):
                run(instance, config)
            continue
        try:
            trace = run(instance, config)
        except InfeasibleError:
            assert optimum == np.inf, algorithm
            continue
        z = trace.final_lower_bound
        assert z <= optimum + slack, (algorithm, z, optimum)
        if algorithm == "benders":
            assert trace.termination_reason == REASON_CONVERGED
            assert abs(z - relaxation) <= TOL * (1.0 + abs(relaxation)), \
                (z, relaxation)
        if algorithm == "alg1" and trace.termination_reason == REASON_CONVERGED:
            assert trace.final_upper_bound >= optimum - slack
            assert abs(z - optimum) <= config.epsilon * abs(optimum) + slack, \
                (z, optimum)


def test_benders_at_the_papers_client_count():
    # sslp-10-50-20, at the paper's 50 clients: benders converges to
    # HiGHS's LP relaxation
    instance = generate_sslp(GeneratorConfig(sites=10, clients=50,
                                             scenarios=20, seed=0))
    relaxation, = _highs(instance, integer=False)
    trace = run(instance, RunConfig(algorithm="benders"))
    assert trace.termination_reason == REASON_CONVERGED
    z = trace.final_lower_bound
    assert abs(z - relaxation) <= TOL * (1.0 + abs(relaxation)), \
        (z, relaxation)
