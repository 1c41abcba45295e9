import numpy as np
import pytest

from stochcuts.partition import (Partition, aggregate, refine, is_refinement,
                                 single_cluster, singletons, delta_schedule,
                                 build_partition_extensive)
from stochcuts.mip import solve_mip, MIP_OPTIMAL
from stochcuts.model import build_extensive


def test_partition_construction():
    p = Partition.make([(1, 0), (2,)], generation=3)
    assert p.clusters == ((0, 1), (2,))
    assert p.size == 2
    assert p.universe == (0, 1, 2)
    assert p.generation == 3


def test_partition_rejects_bad_clusters():
    with pytest.raises(ValueError, match="empty cluster"):
        Partition(((),))
    with pytest.raises(ValueError, match="two clusters"):
        Partition(((0, 1), (1,)))
    with pytest.raises(ValueError, match="sorted"):
        Partition(((1, 0),))


def test_helpers():
    assert single_cluster(3).clusters == ((0, 1, 2),)
    assert singletons(3).clusters == ((0,), (1,), (2,))


def test_aggregate_thm1(thm1):
    agg = aggregate(thm1, (0, 1))
    assert agg.weight == pytest.approx(1.0)
    assert np.asarray(agg.technology) == pytest.approx(
        np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert agg.rhs == pytest.approx([0.5, -0.5])


def test_aggregate_singleton_is_identity(refinement_example):
    agg = aggregate(refinement_example, (2,))
    sc = refinement_example.scenarios[2]
    assert agg.weight == pytest.approx(sc.probability)
    assert np.asarray(agg.technology) == pytest.approx(np.asarray(sc.technology))
    assert agg.rhs == pytest.approx(sc.rhs)


def test_cluster_records_compare_by_identity(thm1):
    # a record's fields are arrays, which have no truth value: records are
    # equal only to themselves, and hashable, so they can key a dict
    from stochcuts.lagrangian import cluster_target
    for make in (aggregate, cluster_target):
        a, b = make(thm1, (0, 1)), make(thm1, (0, 1))
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1
        assert hash(a) == hash(a)


def test_aggregate_unequal_weights():
    # probabilities 0.2 / 0.6 give within-cluster weights 0.25 / 0.75
    from stochcuts.model import Instance, Scenario, BINARY
    scenarios = (Scenario(0.2, [[1.0]], [4.0]),
                 Scenario(0.6, [[3.0]], [8.0]),
                 Scenario(0.2, [[0.0]], [0.0]))
    inst = Instance("w", [0.0], np.zeros((0, 1)), [], (BINARY,),
                    [1.0], [[1.0]], scenarios)
    agg = aggregate(inst, (0, 1))
    assert agg.weight == pytest.approx(0.8)
    assert float(agg.technology[0, 0]) == pytest.approx(0.25 * 1 + 0.75 * 3)
    assert float(agg.rhs[0]) == pytest.approx(0.25 * 4 + 0.75 * 8)


def test_refine_splits_by_dual_distance():
    part = single_cluster(4)
    duals = {0: np.array([3.0, 3.0]), 1: np.array([3.0, 2.9]),
             2: np.array([0.0, 0.0]), 3: np.array([0.1, 0.0])}
    out = refine(part, duals, delta=0.5)
    assert out.clusters == ((0, 1), (2, 3))
    assert out.generation == 1
    # tighter threshold separates everything
    assert refine(part, duals, delta=0.05).clusters == ((0,), (1,), (2,), (3,))


def test_refine_respects_existing_clusters():
    # scenarios 0 and 2 share duals but live in different clusters, so they
    # may not merge
    part = Partition.make([(0, 1), (2, 3)], generation=5)
    duals = [np.zeros(1), np.ones(1), np.zeros(1), np.ones(1)]
    out = refine(part, duals, delta=0.5)
    assert out.clusters == ((0,), (1,), (2,), (3,))
    assert out.generation == 6


def test_refine_identical_duals_keeps_clusters():
    part = Partition.make([(0, 1, 2)])
    duals = [np.array([1.0, 2.0])] * 3
    out = refine(part, duals, delta=1e-9)
    assert out.clusters == part.clusters
    assert out.generation == part.generation + 1


def test_refine_raw_distances_not_rescaled():
    # vectors (0) and (10) split at delta 2 even though a normalized
    # distance would be tiny; the schedule relies on this
    part = single_cluster(2)
    out = refine(part, [np.array([0.0]), np.array([10.0])], delta=2.0)
    assert out.size == 2


def test_refine_input_errors():
    part = single_cluster(2)
    duals = {0: np.zeros(1), 1: np.zeros(1)}
    with pytest.raises(ValueError, match="delta must be positive"):
        refine(part, duals, 0.0)
    with pytest.raises(ValueError, match="missing dual"):
        refine(part, {0: np.zeros(1)}, 1.0)
    with pytest.raises(ValueError, match="missing dual"):
        refine(part, {0: np.zeros(1), 1: None}, 1.0)


def test_is_refinement():
    coarse = single_cluster(4)
    fine = Partition.make([(0, 1), (2, 3)])
    finest = singletons(4)
    assert is_refinement(fine, coarse)
    assert is_refinement(finest, fine)
    assert is_refinement(finest, coarse)
    # identical partitions are not strict refinements
    assert not is_refinement(coarse, coarse)
    assert not is_refinement(fine, fine)
    # crossing clusters are not refinements either
    crossing = Partition.make([(0, 2), (1, 3)])
    assert not is_refinement(crossing, fine)
    with pytest.raises(ValueError, match="different scenario sets"):
        is_refinement(singletons(3), coarse)


def test_delta_schedule():
    assert delta_schedule(1) == pytest.approx(2.0)
    assert delta_schedule(2) == pytest.approx(0.5)
    assert delta_schedule(3) == pytest.approx(2.0 / 9.0)
    assert delta_schedule(2, coefficient=8.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        delta_schedule(0)


def test_partition_extensive_shape(refinement_example):
    model = build_partition_extensive(refinement_example,
                                      Partition.make([(0, 1), (2, 3)]))
    # one first-stage variable plus one recourse copy per cluster
    assert model.lp.c.size == 3
    assert model.lp.A.shape == (2, 3)
    assert list(model.integer) == [True, False, False]


def test_partition_extensive_values(refinement_example):
    inst = refinement_example

    def value(partition):
        res = solve_mip(build_partition_extensive(inst, partition))
        assert res.status == MIP_OPTIMAL
        return res.objective

    # the single-cluster average cancels the technology almost entirely
    assert value(single_cluster(4)) == pytest.approx(0.0, abs=1e-9)
    # the matched-sign pairs already reproduce the true value
    assert value(Partition.make([(0, 1), (2, 3)])) == pytest.approx(1.875)
    assert value(singletons(4)) == pytest.approx(1.875)
    ext = solve_mip(build_extensive(inst))
    assert ext.objective == pytest.approx(1.875)


def test_partition_extensive_monotone_chain(small_sslp):
    inst = small_sslp(seed=5, scenarios=4)
    chain = [single_cluster(4),
             Partition.make([(0, 1), (2, 3)], generation=1),
             singletons(4, generation=2)]
    values = []
    for part in chain:
        res = solve_mip(build_partition_extensive(inst, part))
        assert res.status == MIP_OPTIMAL
        values.append(res.objective)
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9
    ext = solve_mip(build_extensive(inst))
    assert values[2] == pytest.approx(ext.objective, abs=1e-6)


def test_partition_extensive_requires_cover(thm1):
    with pytest.raises(ValueError, match="cover"):
        build_partition_extensive(thm1, Partition.make([(0,)]))
