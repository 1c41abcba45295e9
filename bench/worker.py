"""Solve one emitted instance repeatedly in a fresh process.

run.py starts this with the instance file and the run's settings; it loads
the instance with the package's own reader, solves it again and again
until `--seconds` have passed (at least once),
and writes one JSON file.  speed.kernel runs right before every solve, and
each solve's record carries its time.  With --trace 1 every untraced
solve is followed by a traced one of the same input, and the last traced solve's spans are
written as CSV.  BLAS threads are pinned by run.py through the environment.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

import speed
from tracer import Tracer, summarize


def trace_digest(package, trace):
    """sha256 of the trace CSV without its wall-clock column."""
    buf = io.StringIO()
    package.write_trace_csv(trace, buf)
    tag, body = buf.getvalue().split("\n", 1)
    rows = list(csv.reader(io.StringIO(body)))
    col = rows[0].index("seconds")
    out = io.StringIO()
    out.write(tag + "\n")
    csv.writer(out, lineterminator="\n").writerows(
        row[:col] + row[col + 1:] for row in rows)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def solve(package, instance, config, tracer=None):
    """One timed call of package.run; a raised error is reported, not fatal."""
    kernel_s = speed.kernel()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        trace = package.run(instance, config)
    except Exception as exc:   # the benchmark counts it as a failed solve
        return {"traced": tracer is not None,
                "solve_s": time.perf_counter() - t0, "kernel_s": kernel_s,
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer is not None:
            tracer.remove()
    record = {
        "traced": tracer is not None,
        "solve_s": time.perf_counter() - t0,
        "kernel_s": kernel_s,
        "z_lb": trace.final_lower_bound,
        "reason": trace.termination_reason,
        "events": [[ev.seconds, ev.z_lb] for ev in trace.events],
        "final_clusters": trace.final_n_clusters,
        "digest": trace_digest(package, trace),
    }
    if tracer is not None:
        record["layers"] = summarize(tracer.spans)
    return record


def blas_info(numpy):
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):   # older numpy: no dict form
        return {"name": "unknown", "version": "unknown"}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--instance", required=True)
    ap.add_argument("--algorithm", required=True)
    ap.add_argument("--budget", type=int, default=None)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy
    import stochcuts

    t0 = time.perf_counter()
    instance = stochcuts.load(args.instance)
    load_s = time.perf_counter() - t0
    settings = {"algorithm": args.algorithm}
    if args.budget is not None:
        settings["separation_budget"] = args.budget
    config = stochcuts.RunConfig(**settings)

    solves = []
    tracer = None
    deadline = time.perf_counter() + args.seconds
    while not solves or time.perf_counter() < deadline:
        solves.append(solve(stochcuts, instance, config))
        if args.trace:
            tracer = Tracer(stochcuts)
            solves.append(solve(stochcuts, instance, config, tracer))
    if tracer is not None and args.spans:
        tracer.write_csv(args.spans)

    result = {
        "load_s": load_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "solves": solves,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__,
                "blas": blas_info(numpy),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
