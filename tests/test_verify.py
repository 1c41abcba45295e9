import numpy as np
import pytest

from stochcuts.model import Cut, KIND_BENDERS, KIND_PBLAGC
from stochcuts.drivers import RunConfig, run_apblagc
from stochcuts.partition import Partition, single_cluster, singletons
from stochcuts.verify import (PASS, FAIL, INCONCLUSIVE, VerificationReport,
                              feasible_first_stage_points, check_cut_validity,
                              check_pbbenc_combination, check_dim1_no_gap,
                              check_thm1_strictness, check_refinement_monotone,
                              run_suite)
from stochcuts.instance_io import builtin


def test_feasible_first_stage_points(thm1):
    points = feasible_first_stage_points(thm1)
    assert len(points) == 4
    xs = sorted(tuple(x) for x, _ in points)
    assert xs == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    lookup = {tuple(x): vals for x, vals in points}
    # scenario 0 costs |x1 - x2|, scenario 1 costs |1 - x1 - x2|
    assert lookup[(1.0, 0.0)] == pytest.approx([1.0, 0.0])
    assert lookup[(1.0, 1.0)] == pytest.approx([0.0, 1.0])


def test_feasible_points_respect_first_stage_rows():
    from stochcuts.instance_io import GeneratorConfig, generate_sslp
    inst = generate_sslp(GeneratorConfig(sites=3, clients=3, scenarios=2,
                                         seed=0, site_budget=2))
    points = feasible_first_stage_points(inst)
    for x, _ in points:
        assert x.sum() == pytest.approx(2.0)


def test_feasible_points_cap(small_sslp):
    inst = small_sslp(sites=5)
    with pytest.raises(ValueError, match="exceed cap"):
        feasible_first_stage_points(inst, cap=16)


def test_check_cut_validity_pass_and_fail(thm1):
    good = Cut(KIND_BENDERS, [1.0, 1.0], [0.0, 1.0], 1.0)
    report = check_cut_validity(thm1, [good])
    assert report.status == PASS
    assert report.worst >= -1e-9

    bad = Cut(KIND_PBLAGC, [0.0, 0.0], [0.5, 0.5], 10.0)
    report = check_cut_validity(thm1, [good, bad])
    assert report.status == FAIL
    cut_idx, x = report.witness
    assert cut_idx == 1
    assert report.worst < -1e-6


def test_check_cut_validity_inconclusive(thm1):
    report = check_cut_validity(thm1, [])
    assert report.status == INCONCLUSIVE
    assert not report.passed


def test_check_pbbenc_combination(small_sslp):
    inst = small_sslp(seed=0)
    report = check_pbbenc_combination(inst, (0, 1, 2), np.ones(inst.n1))
    assert report.status == PASS
    assert report.worst <= 1e-9
    # closing every site starves the capacity rows
    report2 = check_pbbenc_combination(inst, (0, 1), np.zeros(inst.n1))
    assert report2.status in (PASS, INCONCLUSIVE)


def test_check_dim1_no_gap():
    report = check_dim1_no_gap(builtin("dim1-random-0"))
    assert report.status == PASS
    assert report.worst <= 1e-6


def test_check_dim1_requires_one_binary_variable(thm1):
    with pytest.raises(ValueError, match="single binary"):
        check_dim1_no_gap(thm1)


def test_check_thm1_strictness():
    report = check_thm1_strictness()
    assert report.status == PASS
    assert report.witness == pytest.approx((0.0, 0.0, 0.5, 0.5), abs=1e-6)


def test_check_refinement_monotone(refinement_example):
    chain = [single_cluster(4),
             Partition.make([(0, 1), (2, 3)], generation=1),
             singletons(4)]
    report = check_refinement_monotone(refinement_example, chain)
    assert report.status == PASS
    assert report.witness == pytest.approx((0.0, 1.875, 1.875))


def test_check_refinement_monotone_rejects_non_chain(refinement_example):
    with pytest.raises(ValueError, match="not a refinement chain"):
        check_refinement_monotone(refinement_example,
                                  [single_cluster(4), single_cluster(4)])
    crossing = [Partition.make([(0, 1), (2, 3)]),
                Partition.make([(0, 2), (1, 3)])]
    with pytest.raises(ValueError, match="not a refinement chain"):
        check_refinement_monotone(refinement_example, crossing)


def test_format_line_shapes():
    r = VerificationReport("cut-validity", "x", PASS, worst=1.25e-4)
    line = r.format_line()
    assert line.startswith("PASS  cut-validity  instance=x")
    assert "worst=1.250e-04" in line
    r2 = VerificationReport("cut-validity", "x", INCONCLUSIVE, detail="empty")
    assert "INCONCLUSIVE" in r2.format_line()
    assert "empty" in r2.format_line()


def test_run_suite_thm1():
    reports = run_suite("thm1")
    assert len(reports) == 1
    assert reports[0].passed


def test_run_suite_validity_catches_injected_cut():
    reports = run_suite("validity", seeds=(0,), inject_invalid=True)
    assert any(r.status == FAIL for r in reports)
    reports_ok = run_suite("validity", seeds=(0,))
    assert all(r.passed for r in reports_ok)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def test_run_traces_expose_valid_cut_pools(small_sslp):
    # the apblagc cut pool itself passes the independent validity check
    inst = small_sslp(seed=1)
    trace = run_apblagc(inst, RunConfig(algorithm="apblagc",
                                        separation_budget=10,
                                        stall_window=2, stall_fraction=0.1))
    report = check_cut_validity(inst, trace.cuts)
    assert report.status == PASS
