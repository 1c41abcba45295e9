"""Metamorphic properties of the order-free bounds.

Converged benders, bdd under `saturate` and alg1 end at a bound that is a
function of the problem, not of how it is written down.  So it must not
move when one scenario is split into two halves of its probability, nor
when the scenarios are permuted, and it must scale by k when both cost
vectors do.  apblagc's bound depends on the scenario order and is left out.
"""

import dataclasses

import numpy as np
import pytest

from stochcuts import generate_sslp, GeneratorConfig, run, RunConfig

SEEDS = range(4)
CONFIGS = {
    "benders": RunConfig(algorithm="benders"),
    "bdd": RunConfig(algorithm="bdd", saturate=True),
    "alg1": RunConfig(algorithm="alg1"),
}


def _bound(instance, algorithm):
    return run(instance, CONFIGS[algorithm]).final_lower_bound


def _instance(seed):
    return generate_sslp(GeneratorConfig(sites=3, clients=4, scenarios=4,
                                         seed=seed))


def _split(instance, s):
    """Scenario s replaced by two copies of half its probability."""
    sc = instance.scenarios[s]
    half = dataclasses.replace(sc, probability=sc.probability / 2.0)
    scenarios = list(instance.scenarios)
    scenarios[s:s + 1] = [half, half]
    return dataclasses.replace(instance, scenarios=tuple(scenarios))


def _scaled(instance, k):
    return dataclasses.replace(
        instance, first_stage_cost=k * instance.first_stage_cost,
        second_stage_cost=k * instance.second_stage_cost)


@pytest.fixture(scope="module")
def bounds():
    """The bound of every (seed, algorithm) on the unchanged instance."""
    return {(seed, algorithm): _bound(_instance(seed), algorithm)
            for seed in SEEDS for algorithm in CONFIGS}


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_splitting_a_scenario_keeps_the_bound(bounds, algorithm):
    for seed in SEEDS:
        got = _bound(_split(_instance(seed), seed % 4), algorithm)
        assert got == pytest.approx(bounds[seed, algorithm], rel=1e-9)


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_permuting_scenarios_keeps_the_bound(bounds, algorithm):
    for seed in SEEDS:
        inst = _instance(seed)
        # reversed, then rotated by the seed: never the identity
        order = np.roll(np.arange(inst.n_scenarios)[::-1], seed)
        permuted = dataclasses.replace(
            inst, scenarios=tuple(inst.scenarios[i] for i in order))
        got = _bound(permuted, algorithm)
        assert got == pytest.approx(bounds[seed, algorithm], rel=1e-9)


@pytest.mark.parametrize("algorithm", sorted(CONFIGS))
def test_scaling_costs_scales_the_bound(bounds, algorithm):
    for seed in SEEDS:
        got = _bound(_scaled(_instance(seed), 3.0), algorithm)
        assert got == pytest.approx(3.0 * bounds[seed, algorithm], rel=1e-9)
