"""Same-process A/B timer: two checkouts' packages in one interpreter.

    python tools/ab_time.py A/src B/src [--driver benders] [--sslp 10 10 20]
        [--instance-seed 0] [--order 0] [--budget N] [--pairs 20]

It loads A/src/stochcuts and B/src/stochcuts under two module names,
generates one server-location instance (generate_sslp with the given
sites, clients, scenarios and instance seed), puts its scenarios in the
order bench/run.py --seed ORDER gives them, and hands each package its own
parse of the emitted text.  After one warm-up solve per side it times
single solves of one driver, alternating which side goes first in each
pair, in CPU seconds (time.process_time), and prints each side's median
and quartiles, B's median over A's, and in how many pairs B was faster.
Last it prints A's drift, A's median over the second half of the pairs
over its median over the first half: a B/A no further from 1 than that
is unresolved, since A alone moved as much in one run.
Each side must repeat its own warm-up z_lb bit for bit, and the two sides'
bounds must agree to the benchmark's REL_TOL (1e-6 relative, as in
bench/run.py), or it exits 1; a change that only moves a degenerate tie
or the rounding, as a warm start may, can still be timed.

Two processes on a shared machine can run at speeds tens of percent apart
for minutes at a time; within one interpreter both sides see the same
drift, so a few percent resolve in a few dozen pairs.  BLAS threads are
pinned to one, as in the benchmark.  pytest does not collect this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported

import argparse
import dataclasses
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REL_TOL = 1e-6     # bench/run.py's: z_lb agreement, relative


def load(src, name):
    """The package under src/stochcuts, imported as module `name`."""
    root = Path(src) / "stochcuts"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def instance_text(package, sslp, instance_seed, order):
    """The emitted instance, scenarios in bench/run.py's order for --seed
    `order`."""
    sites, clients, scenarios = sslp
    base = package.generate_sslp(package.GeneratorConfig(
        sites=sites, clients=clients, scenarios=scenarios,
        seed=instance_seed))
    perm = np.random.default_rng(order).permutation(base.n_scenarios)
    return package.emit(dataclasses.replace(
        base, scenarios=tuple(base.scenarios[i] for i in perm)))


def timed(package, instance, config):
    t0 = time.process_time()
    trace = package.run(instance, config)
    return time.process_time() - t0, trace.final_lower_bound


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}  quartiles {q1:.4f} {q3:.4f}"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="A's src directory (the baseline)")
    ap.add_argument("b", help="B's src directory")
    ap.add_argument("--driver", default="benders")
    ap.add_argument("--sslp", type=int, nargs=3, default=(10, 10, 20),
                    metavar=("SITES", "CLIENTS", "SCENARIOS"))
    ap.add_argument("--instance-seed", type=int, default=0)
    ap.add_argument("--order", type=int, default=0)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--pairs", type=int, default=20)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two times a side")

    sides = [load(args.a, "ab_side_a"), load(args.b, "ab_side_b")]
    text = instance_text(sides[0], args.sslp, args.instance_seed, args.order)
    runs = []
    for package in sides:
        settings = {"algorithm": args.driver}
        if args.budget is not None:
            settings["separation_budget"] = args.budget
        runs.append((package, package.parse(text),
                     package.RunConfig(**settings)))
    bounds = [timed(*run)[1] for run in runs]     # warm-up
    print(f"z_lb A {bounds[0]!r}  B {bounds[1]!r}")
    if not abs(bounds[1] - bounds[0]) <= REL_TOL * max(1.0, abs(bounds[0])):
        print(f"z_lb differs by more than {REL_TOL} relative")
        return 1
    times = ([], [])
    for pair in range(args.pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            seconds, z_lb = timed(*runs[side])
            if z_lb != bounds[side]:
                print(f"z_lb moved to {z_lb!r} on side {'AB'[side]}")
                return 1
            times[side].append(seconds)
    wins = sum(b < a for a, b in zip(*times))
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    half = args.pairs // 2
    drift = (statistics.median(times[0][half:])
             / statistics.median(times[0][:half]))
    print(f"{args.driver} sslp-{'-'.join(map(str, args.sslp))}"
          f"-s{args.instance_seed} order {args.order}, {args.pairs} pairs, "
          "CPU seconds per solve")
    print(f"A  {quartiles(times[0])}")
    print(f"B  {quartiles(times[1])}")
    print(f"B/A medians {ratio:.3f}, B faster in {wins}/{args.pairs}")
    print(f"A drift {drift:.3f}, its second half's median over its first's: "
          + ("B/A is unresolved" if abs(ratio - 1.0) <= abs(drift - 1.0)
             else "B/A is further from 1"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
