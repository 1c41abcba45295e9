"""Scenario partitions: aggregation, dual-guided refinement, and the
partition-based relaxation they induce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import stacked_model, theta_weights


@dataclass(frozen=True)
class Partition:
    """Disjoint clusters covering scenario indices; generation counts how
    many refinements produced this partition."""

    clusters: tuple
    generation: int = 0

    def __post_init__(self):
        object.__setattr__(self, "clusters",
                           tuple(tuple(c) for c in self.clusters))
        seen = set()
        for c in self.clusters:
            if not c:
                raise ValueError("empty cluster")
            if list(c) != sorted(c):
                raise ValueError("cluster indices must be sorted ascending")
            for s in c:
                if s in seen:
                    raise ValueError(f"scenario {s} appears in two clusters")
                seen.add(s)

    @staticmethod
    def make(groups, generation=0):
        return Partition(tuple(tuple(sorted(g)) for g in groups), generation)

    @property
    def size(self):
        return len(self.clusters)

    @property
    def universe(self):
        return tuple(sorted(s for c in self.clusters for s in c))


def single_cluster(n_scenarios, generation=0):
    return Partition((tuple(range(n_scenarios)),), generation)


def singletons(n_scenarios, generation=0):
    return Partition(tuple((s,) for s in range(n_scenarios)), generation)


@dataclass(frozen=True, eq=False)   # by identity: arrays have no truth value
class AggregatedScenario:
    """The one record of a cluster P: its probability p_P, its
    probability-weighted technology T_P and rhs h_P, and the weights
    w_s = p_s / p_P that spell theta_P = sum_s w_s theta_s over the
    per-scenario block.  A scenario s is the singleton cluster (s,)."""

    cluster: tuple
    weight: float          # total probability of the cluster
    technology: np.ndarray
    rhs: np.ndarray
    theta_weights: np.ndarray


def aggregate(instance, cluster):
    cluster = tuple(sorted(cluster))
    w = theta_weights(instance, cluster)
    t_bar = np.zeros((instance.m2, instance.n1))
    h_bar = np.zeros(instance.m2)
    for s in cluster:
        sc = instance.scenarios[s]
        t_bar += w[s] * sc.technology
        h_bar += w[s] * sc.rhs
    return AggregatedScenario(
        cluster, float(instance.probabilities[list(cluster)].sum()), t_bar,
        h_bar, w)


def is_refinement(fine, coarse):
    """True iff every fine cluster sits inside a coarse cluster AND the fine
    partition has strictly more clusters (Definition-style strictness)."""
    if fine.universe != coarse.universe:
        raise ValueError("partitions cover different scenario sets")
    lookup = {}
    for idx, c in enumerate(coarse.clusters):
        for s in c:
            lookup[s] = idx
    for c in fine.clusters:
        homes = {lookup[s] for s in c}
        if len(homes) != 1:
            return False
    return fine.size > coarse.size


def refine(partition, duals, delta):
    """Split each cluster by grouping scenarios whose subproblem duals agree.

    Two scenarios land in the same group when the max-norm distance between
    their dual vectors to the group's first member is at most delta.  The
    distance is taken on the duals as given; callers put infeasibility rays
    on a canonical scale (unit max-norm) before passing them in, since rays
    carry no natural magnitude.  Greedy first-fit in ascending scenario
    order keeps the outcome deterministic.  The generation counter always
    advances, split or not.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    vecs = {}
    for s in partition.universe:
        try:
            v = duals[s]
        except (KeyError, IndexError):
            raise ValueError(f"missing dual vector for scenario {s}")
        if v is None:
            raise ValueError(f"missing dual vector for scenario {s}")
        vecs[s] = np.asarray(v, dtype=float)
    groups = []
    for cluster in partition.clusters:
        reps = []   # (representative vector, members)
        for s in cluster:
            for rep, members in reps:
                if float(np.abs(vecs[s] - rep).max(initial=0.0)) <= delta:
                    members.append(s)
                    break
            else:
                reps.append((vecs[s], [s]))
        groups.extend(tuple(members) for _, members in reps)
    return Partition(tuple(groups), partition.generation + 1)


def delta_schedule(n, coefficient=2.0):
    """Refinement threshold used for the n-th refinement: coefficient / n^2."""
    if n < 1:
        raise ValueError("refinement counter starts at 1")
    return float(coefficient) / float(n * n)


def build_partition_extensive(instance, partition):
    """The relaxation induced by a partition: one aggregated recourse block
    per cluster, first-stage variables and integrality kept exact."""
    if partition.universe != tuple(range(instance.n_scenarios)):
        raise ValueError("partition does not cover the scenario set")
    aggs = [aggregate(instance, c) for c in partition.clusters]
    return stacked_model(instance, instance.first_stage_cost,
                         [(a.weight, a.technology, a.rhs) for a in aggs])
