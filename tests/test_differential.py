"""Every driver's bound against HiGHS on small drawn instances.

The reference is scipy's HiGHS on the extensive form as build_extensive
writes it: its LP relaxation and its MIP optimum.  Converged benders ends
at the LP relaxation; every driver's z_lb is a lower bound on the MIP
optimum; alg1, when it stops converged, is within its epsilon of that
optimum, and its upper bound is one.  Every driver refuses an instance
whose LP relaxation HiGHS finds infeasible with an InfeasibleError, and
only an instance without an integer solution may be refused.  Instances
are server-location ones (with and without the site-budget row, which can
leave no solution) and the builtin dim1-random family at drawn seeds.
A second test holds the accept-or-refuse contract over the whole file
format: on small drawn instances of every column mark, bounded or not,
each driver returns a bound at most the MIP optimum, or refuses the
instance with InfeasibleError or UnboundedError where HiGHS agrees.  The
draws are derandomized, so the tests are repeatable, and skipped without
scipy.  One more test runs benders at the paper's client count, on
sslp-10-50-20.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochcuts import (builtin, emit, generate_sslp, GeneratorConfig, parse,
                       run, RunConfig)
from stochcuts.drivers import ALGORITHMS, REASON_CONVERGED
from stochcuts.lp import GE, LE
from stochcuts.model import (build_extensive, Instance, Scenario,
                             InfeasibleError, UnboundedError,
                             BINARY, CONTINUOUS, INTEGER)

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


def _highs(instance, integer=True, accept=(0, 2)):
    """(LP relaxation, MIP optimum) of build_extensive(instance), by HiGHS,
    or (LP relaxation,) when not `integer`; inf where it finds no
    solution.  HiGHS must end with a milp status in `accept`; where it is
    3 (unbounded) the value is -inf, and where it is 4 (for these LPs,
    infeasible or unbounded) NaN."""
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
        assert res.status in accept, res.message     # 2: infeasible
        values.append(float(res.fun) if res.status == 0 else
                      {2: np.inf, 3: -np.inf, 4: np.nan}[res.status])
    return values


def _config(algorithm, **options):
    """RunConfig for `algorithm`, the Lagrangian loops at budget 6."""
    if algorithm in ("bdd", "apblagc"):
        options["separation_budget"] = 6
    return RunConfig(algorithm=algorithm, **options)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_instances())
def test_drivers_agree_with_highs(instance):
    # an instance with no solution is refused, one with no LP solution by
    # every driver
    relaxation, optimum = _highs(instance)
    slack = TOL * (1.0 + abs(optimum))
    for algorithm in ("benders", "bdd", "apblagc", "alg1"):
        config = _config(algorithm)
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


@st.composite
def _format_instances(draw):
    """Small instances over the whole file format, through emit and parse:
    integer data in [-3, 3], columns of all three marks (an integer one
    bounded by its u, a continuous one with or without a u), costs of
    either sign, at most one first-stage row, and one T for every
    scenario or one each."""
    n1, n2, m2, ns = (draw(st.integers(1, 3)) for _ in range(4))
    m1 = draw(st.integers(0, 1))

    def ints(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.integers(-3, 3), min_size=size,
                                      max_size=size)),
                        dtype=float).reshape(shape)

    marks = draw(st.lists(st.sampled_from((CONTINUOUS, BINARY, INTEGER)),
                          min_size=n1, max_size=n1))
    upper = [draw(st.integers(1, 3) if mark == INTEGER
                  else st.none() | st.integers(0, 3)) for mark in marks]
    shared = ints(m2, n1) if draw(st.booleans()) else None
    weights = draw(st.lists(st.integers(1, 4), min_size=ns, max_size=ns))
    scenarios = tuple(
        Scenario(w / sum(weights), ints(m2, n1) if shared is None else shared,
                 ints(m2))
        for w in weights)
    instance = Instance("fuzz", ints(n1), ints(m1, n1), ints(m1), marks,
                        ints(n2), ints(m2, n2), scenarios,
                        [np.inf if u is None else u for u in upper])
    return parse(emit(instance))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_format_instances())
def test_every_instance_is_solved_or_refused(instance):
    # each driver returns a valid bound or refuses the instance with
    # InfeasibleError or UnboundedError, each only where HiGHS agrees;
    # any other exception fails the draw.  A continuous column with no u
    # may still end in UnboundedError where HiGHS finds an optimum: such a
    # master or K is refused at solve time
    _, optimum = _highs(instance, accept=(0, 2, 3, 4))
    no_u = np.isinf(instance.x_bounds()[1]).any()
    for algorithm in ALGORITHMS:
        try:
            trace = run(instance, _config(algorithm, time_limit=5.0))
        except InfeasibleError:
            assert optimum == np.inf or np.isnan(optimum), (algorithm,
                                                            optimum)
            continue
        except UnboundedError:
            assert not np.isfinite(optimum) or no_u, (algorithm, optimum)
            continue
        if np.isfinite(optimum):
            z = trace.final_lower_bound
            assert z <= optimum + TOL * (1.0 + abs(optimum)), \
                (algorithm, z, optimum)


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
