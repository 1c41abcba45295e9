"""Driver traces pinned to recorded values.

trace_golden.json holds, per run, the termination reason and one row per
event: [kind, z_lb, z_ub, ccut, fcut, n_clusters, refinements].  Kinds,
cut counts, cluster counts, refinements and the reason must match exactly;
the bounds to 1e-9 relative.  Keys read instance:algorithm[:flag], with
every other RunConfig field at its default.
"""

import json
from pathlib import Path

import pytest

from stochcuts import builtin, generate_sslp, GeneratorConfig, run, RunConfig
from stochcuts.drivers import cut_split

GOLDEN = json.loads((Path(__file__).parent / "trace_golden.json")
                    .read_text(encoding="utf-8"))


def _instance(name):
    if name.startswith("sslp-"):
        sites, clients, scenarios, seed = name[len("sslp-"):].split("-")
        return generate_sslp(GeneratorConfig(
            sites=int(sites), clients=int(clients), scenarios=int(scenarios),
            seed=int(seed.lstrip("s"))))
    return builtin(name)


def _close(got, want):
    if want is None:
        return got is None
    return got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_trace_matches_golden(key):
    name, algorithm, *flags = key.split(":")
    config = RunConfig(algorithm=algorithm,
                       **{flag: True for flag in flags})
    trace = run(_instance(name), config)
    want = GOLDEN[key]
    assert trace.termination_reason == want["reason"]
    got = [[ev.kind, *cut_split(ev.cuts), ev.n_clusters, ev.refinements]
           for ev in trace.events]
    assert got == [[row[0], *row[3:]] for row in want["events"]]
    for ev, row in zip(trace.events, want["events"]):
        assert _close(ev.z_lb, row[1]), (ev.z_lb, row[1])
        assert _close(ev.z_ub, row[2]), (ev.z_ub, row[2])
