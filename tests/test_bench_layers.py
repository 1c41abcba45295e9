"""The benchmark's tracer (bench/tracer.py) rebinds the functions it names
in each stochcuts layer module, and raises on a name that is gone; a
refactor that drops or renames one breaks the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from stochcuts import builtin, run, RunConfig
import stochcuts


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    missing = []
    for layer, names in _tracer_module().LAYERS.items():
        home = importlib.import_module(f"stochcuts.{layer}")
        for name in names:
            owner = home
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_traced_run_counts_subproblems_once():
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer(stochcuts)
    tracer.install()
    try:
        run(builtin("refinement-example"), RunConfig(algorithm="bdd"))
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    subproblems = ("benders.solve_scenario_subproblem",
                   "benders.solve_cluster_subproblem")
    assert any(name in subproblems for name in names)
    # a traced name calling another traced name would nest their spans and
    # count the same work twice
    nested = [span for span in tracer.spans if span[3] >= 0
              and span[0] in subproblems
              and tracer.spans[span[3]][0] in subproblems]
    assert nested == []
    summary = tracer_module.summarize(tracer.spans)
    assert summary["lagrangian.calls"] > 0
