"""Peak-memory A/B: one driver, one instance, a fresh process per run.

    python tools/peak_rss.py A/src B/src [--driver benders]
        [--sslp 10 10 500] [--instance-seed 0] [--budget N] [--runs 2]
        [--hash-seed 0]

Each run is one fresh `python` child that imports the package from A/src
or B/src, generates one server-location instance (generate_sslp with the
given sites, clients, scenarios and instance seed, scenarios in the
generator's order), solves it with one driver and reports its CPU seconds
for the solve (time.process_time), its peak resident set (ru_maxrss, MiB),
the stop reason and the repr of its final z_lb.  The sides alternate
which goes first from run to run.  It prints one line per run and each
side's largest peak, and exits 1 when the sides' z_lb reprs differ.

Two things keep the peaks comparable.  ru_maxrss carries across fork and
exec, so a child's peak is never below its parent's: this script imports
neither numpy nor stochcuts, and its own peak is a few MiB.  The
children run with one BLAS thread and a fixed PYTHONHASHSEED, so that
neither the thread count nor the hash seed (set and dict orders) can move
a run's allocations.  pytest does not collect this file.
"""

import argparse
import json
import os
import subprocess
import sys

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import stochcuts
driver, sites, clients, scenarios, seed, budget = sys.argv[2:]
instance = stochcuts.generate_sslp(stochcuts.GeneratorConfig(
    sites=int(sites), clients=int(clients), scenarios=int(scenarios),
    seed=int(seed)))
settings = {"algorithm": driver}
if budget != "-":
    settings["separation_budget"] = int(budget)
config = stochcuts.RunConfig(**settings)
t0 = time.process_time()
trace = stochcuts.run(instance, config)
cpu = time.process_time() - t0
print(json.dumps({"cpu_s": cpu,
                  "rss_mib": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "reason": trace.termination_reason,
                  "z_lb": repr(trace.final_lower_bound)}))
"""


def child(src, args):
    """One fresh process's report for the package under `src`."""
    env = dict(os.environ, PYTHONHASHSEED=str(args.hash_seed))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "-c", CHILD, str(src), args.driver,
            *map(str, args.sslp), str(args.instance_seed),
            "-" if args.budget is None else str(args.budget)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="A's src directory (the baseline)")
    ap.add_argument("b", help="B's src directory")
    ap.add_argument("--driver", default="benders")
    ap.add_argument("--sslp", type=int, nargs=3, default=(10, 10, 500),
                    metavar=("SITES", "CLIENTS", "SCENARIOS"))
    ap.add_argument("--instance-seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--runs", type=int, default=2)
    ap.add_argument("--hash-seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    name = (f"{args.driver} sslp-{'-'.join(map(str, args.sslp))}"
            f"-s{args.instance_seed}"
            + ("" if args.budget is None else f" b{args.budget}"))
    print(f"{name}, PYTHONHASHSEED={args.hash_seed}, one BLAS thread")
    reports = ([], [])
    for run in range(args.runs):
        for side in ((0, 1) if run % 2 == 0 else (1, 0)):
            report = child((args.a, args.b)[side], args)
            reports[side].append(report)
            print(f"{'AB'[side]} run {run}  cpu {report['cpu_s']:.2f} s  "
                  f"peak {report['rss_mib']:.1f} MiB  "
                  f"{report['reason']}  z_lb {report['z_lb']}", flush=True)
    peaks = [max(r["rss_mib"] for r in side) for side in reports]
    print(f"largest peak A {peaks[0]:.1f} MiB  B {peaks[1]:.1f} MiB  "
          f"B/A {peaks[1] / peaks[0]:.3f}")
    bounds = {r["z_lb"] for side in reports for r in side}
    if len(bounds) > 1:
        print(f"z_lb reprs differ: {sorted(bounds)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
