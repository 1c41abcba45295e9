"""stochcuts benchmark: one workload per run, one client, checked by an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--instance-seed K]

Each workload is one driver on one generated server-location instance
(instance seed K, default 0).  --seed N draws a scenario order, and the
run solves that reordering of the instance: the same problem, with the
same optimum, presented differently.  The package receives only the
emitted instance file, read by its own loader in a fresh worker process
that solves it again and again for S seconds, in a closed loop, one solve
at a time.  speed.kernel, a fixed piece of work, runs right before every
solve and every set-up probe; times are reported in reference seconds,
scaled by the kernel's reference time over its time in this run (see
speed.py), because the speed of a shared machine drifts by tens of
percent from minute to minute.  The raw times are in the run record.

Set-up, outside the timed region: oracle.extensive_bounds solves the
extensive form with scipy's HiGHS (LP relaxation and MIP optimum), and a
fresh interpreter times `import stochcuts` plus loading the instance,
several times.

--trace 0 prints the end-to-end metrics; --trace 1 alternates an
untraced and a traced solve and prints the per-layer metrics of the
traced ones, in plain wall-clock seconds.
The last line of standard output is the JSON result; the line before it
is a JSON record of the run (oracle values, per-solve bounds, stop
reasons, trace digests, environment).
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"   # before numpy is imported, here and in children

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import speed
from oracle import extensive_bounds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# sslp: (sites, clients, scenarios) of generate_sslp
WORKLOADS = {
    "benders-sslp-10-10-20": dict(sslp=(10, 10, 20), algorithm="benders",
                                  budget=None, equals="lp_relaxation"),
    "apblagc-sslp-6-8-8-b6": dict(sslp=(6, 8, 8), algorithm="apblagc",
                                  budget=6, equals=None),
}
# of the way from z_first to z_ref
TARGET_FRACTION = 0.99
SETUP_PROBES = 9
REL_TOL = 1e-6
CHILD_TIMEOUT_S = 150.0

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import stochcuts\n"
    "stochcuts.load(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def slack(value):
    return REL_TOL * max(1.0, abs(value))


def time_to_target(events, target):
    """Trace-clock seconds of the first event whose bound reaches target."""
    return next((sec for sec, z in events if z >= target), None)


def check_solve(record, spec, oracle, target, digest):
    """Why this solve failed, or None."""
    if "error" in record:
        return record["error"]
    z = record["z_lb"]
    if record["reason"] == "time_limit":
        return "stopped at the time limit"
    mip = oracle["mip_optimum"]
    if z > mip + slack(mip):
        return f"z_lb {z!r} exceeds the MIP optimum {mip!r}"
    exact = oracle.get(spec["equals"])
    if exact is not None and abs(z - exact) > slack(exact):
        return f"z_lb {z!r} differs from the {spec['equals']} {exact!r}"
    if record["digest"] != digest:
        return "trace differs from the run's first solve"
    if time_to_target(record["events"], target) is None:
        return f"bound never reached the target {target!r}"
    return None


def solve_summary(record, failure, target):
    out = {k: record.get(k) for k in
           ("traced", "solve_s", "kernel_s", "z_lb", "reason",
            "final_clusters", "digest")}
    out["time_to_target_s"] = time_to_target(record.get("events", ()), target)
    out["failure"] = failure
    if "layers" in record:
        out["separations"] = {k: record["layers"]["lagrangian." + k]
                              for k in ("violated", "no_violated", "budget")}
    return out


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def measure_setup(instance_path):
    """(probe seconds, kernel seconds) of each set-up probe."""
    times, kernel_times = [], []
    for _ in range(SETUP_PROBES):
        kernel_times.append(speed.kernel())
        try:
            out = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), str(instance_path)],
                capture_output=True, text=True, timeout=60, check=False)
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            raise BenchError("set-up probe ran past 60 s") from None
        if out.returncode != 0:
            raise BenchError("set-up probe failed: " + out.stderr.strip())
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times, kernel_times


def run_worker(spec, instance_path, seconds, trace, stem):
    """Solve the instance file in a fresh process; return what it wrote."""
    result_path = OUT / f"{stem}.result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
           "--instance", str(instance_path), "--algorithm", spec["algorithm"],
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(result_path)]
    if spec["budget"] is not None:
        cmd += ["--budget", str(spec["budget"])]
    if trace:
        cmd += ["--spans", str(OUT / f"{stem}.spans.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:   # run() has killed and reaped it
        raise BenchError(f"worker ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError("worker failed: " + proc.stderr.strip()[-2000:])
    try:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        result_path.unlink()


def load_stochcuts():
    if not (SRC / "stochcuts" / "__init__.py").is_file():
        raise BenchError(f"no stochcuts package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stochcuts
    if SRC not in Path(stochcuts.__file__).resolve().parents:
        raise BenchError(f"imported stochcuts from {stochcuts.__file__}, "
                         f"not from {SRC}")
    return stochcuts


def layer_metrics(untraced, traced, result):
    """Median over the traced solves of each per-layer figure."""
    keys = traced[0]["layers"]
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
    del out["attributed_s"]
    solve_s = median_of(traced, "solve_s")
    out.update({
        "partition.final_clusters": traced[0]["final_clusters"],
        "drivers.events": len(traced[0]["events"]),
        "instance_io.load_s": result["load_s"],
        "trace.solve_s": solve_s,
        "trace.overhead_s": solve_s - median_of(untraced, "solve_s"),
        # share of the solve that the self time of a layer below the
        # drivers accounts for; the rest is driver code between layer calls
        "trace.coverage": statistics.median(
            r["layers"]["attributed_s"] / r["solve_s"] for r in traced),
    })
    return out


def main(argv=None, out=sys.stdout):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instance-seed", type=int, default=0)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]

    stochcuts = load_stochcuts()
    import numpy as np

    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        refs = json.load(fh).get(args.workload, {})
    ref = refs.get(str(args.instance_seed))
    if ref is None:
        raise BenchError(f"no reference bounds for instance seed "
                         f"{args.instance_seed}; have {sorted(refs)}")
    target = ref["z_first"] + TARGET_FRACTION * (ref["z_ref"] - ref["z_first"])

    sites, clients, scenarios = spec["sslp"]
    base = stochcuts.generate_sslp(stochcuts.GeneratorConfig(
        sites=sites, clients=clients, scenarios=scenarios,
        seed=args.instance_seed))
    order = np.random.default_rng(args.seed).permutation(base.n_scenarios)
    instance = stochcuts.Instance(
        base.name, base.first_stage_cost, base.first_stage_matrix,
        base.first_stage_rhs, base.integrality, base.second_stage_cost,
        base.recourse, tuple(base.scenarios[i] for i in order))
    text = stochcuts.emit(instance)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-i{args.instance_seed}-s{args.seed}-t{args.trace}"
    instance_path = OUT / f"{stem}.txt"
    instance_path.write_text(text, encoding="utf-8")
    lp_value, mip_value = extensive_bounds(instance)
    oracle = {"lp_relaxation": lp_value, "mip_optimum": mip_value}
    try:
        setup_times, setup_kernel = measure_setup(instance_path)
        result = run_worker(spec, instance_path, args.seconds, args.trace,
                            stem)
    finally:
        instance_path.unlink()

    records = result["solves"]
    digest = next((r["digest"] for r in records if "digest" in r), None)
    failures = [check_solve(r, spec, oracle, target, digest) for r in records]
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed,
        "instance": instance.name, "instance_seed": args.instance_seed,
        "scenario_order": order.tolist(),
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "oracle": oracle, "target": target,
        "setup_s": setup_times, "setup_kernel_s": setup_kernel,
        "solves": [solve_summary(r, why, target)
                   for r, why in zip(records, failures)],
        "env": result["env"]}}), file=out, flush=True)
    good = [r for r, why in zip(records, failures) if why is None]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        raise BenchError("no solve passed its checks: "
                         + "; ".join(f for f in failures if f))

    if args.trace:
        values = layer_metrics(untraced, traced, result)
    else:
        kernel = [r["kernel_s"] for r in untraced]
        values = {
            "solve_s": speed.scaled([r["solve_s"] for r in untraced], kernel),
            "time_to_target_s": speed.scaled(
                [time_to_target(r["events"], target) for r in untraced],
                kernel),
            "z_lb": median_of(untraced, "z_lb"),
            "setup_s": statistics.median(
                speed.scaled([t], [k]) for t, k in zip(setup_times,
                                                        setup_kernel)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(json.dumps({"correct": not any(failures), "attempted": len(records),
                      "failed": sum(1 for f in failures if f),
                      "metrics": metrics}), file=out, flush=True)
    return 0


if __name__ == "__main__":
    # HiGHS can write straight to file descriptor 1 (seen on the held-out
    # benders instance); move fd 1 to stderr so that only the two JSON
    # lines reach standard output
    result_out = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    try:
        sys.exit(main(out=result_out))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
