"""Driver traces pinned to recorded values.

trace_golden.json holds, per run, the termination reason and one row per
event: [kind, z_lb, z_ub, ccut, fcut, n_clusters, refinements].  Kinds,
cut counts, cluster counts, refinements and the reason must match exactly;
the bounds to 1e-9 relative.  Keys read instance:algorithm[:flag], with
every other RunConfig field at its default.  The recourse LPs of
sslp-1-1-10-s0 have two rows; lp.solve_lps, which takes the recourse LP
and one rhs per subproblem, stacks them as it stacks wider ones.

Run as a script, it prints one `key trace-sha256 lp-sha256 lps events
reason z_lb` line per golden run, so two commits can be compared bit for
bit; the count of LP results, event count, stop reason and final z_lb
after the digests show whether a moved digest moved the trace, only its
rounding, or only which LPs were solved.  The first digest
covers the trace CSV without its wall-clock column and the final cut pool
(kind, coefficient bytes, rhs repr, origin); the second every LP result of
the run in call order (status, objective repr, x, duals, reduced costs and
Farkas ray bytes), whether it came from solve_lp or solve_lps.  The
recorder counts the list solve_lps returns, whatever its arguments, so it
also digests older checkouts, whose solve_lps took a list of LPs:

    OPENBLAS_NUM_THREADS=1 python tests/test_trace_golden.py

The script imports the package from this checkout's src unless PYTHONPATH
names another one, so PYTHONPATH=<other checkout>/src digests that one.
With --against OTHER/src it does both at once: it runs the digest pass
(with --wide, the wide one) for this checkout's src and for OTHER/src in
two subprocesses, each with OPENBLAS_NUM_THREADS=1, prints every run whose
trace or LP digest differs, and exits 1 on any difference:

    python tests/test_trace_golden.py [--wide] --against <other>/src

With --trace-only as well it compares the trace digests alone, for a
change that solves fewer LPs, or other ones, and must leave every trace
and cut pool as it was.

With --record KEY [KEY ...] it runs the named golden runs on this
checkout's package and rewrites only their entries of trace_golden.json;
every other entry keeps its bytes, and an unknown key changes nothing:

    OPENBLAS_NUM_THREADS=1 python tests/test_trace_golden.py --record KEY

With --wide it prints the same two digests for the runs in WIDE instead:
larger generated instances with their scenarios in the benchmark's order
(bench/run.py --seed 0).  The benders and bdd masters there grow past
lp.DUAL_MIN rows, from which they are solved through their duals; the
apblagc masters stay below it.  The alg1 run solves each partition on the
shared master: its LPs are masters, relaxed or as branch-and-bound nodes,
and recourse LPs.  Of the golden runs only sslp-10-10-20-s0:benders has masters past
lp.DUAL_MIN.  The wide runs take about a minute.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":   # after PYTHONPATH, which may name another src
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import stochcuts
from stochcuts import (builtin, emit, generate_sslp, GeneratorConfig, parse,
                       run, RunConfig)
from stochcuts.drivers import cut_split, write_trace_csv

GOLDEN_FILE = Path(__file__).parent / "trace_golden.json"
GOLDEN = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))

# the --wide sweep: (instance, algorithm, separation budget or None)
WIDE = (
    ("sslp-10-10-20-s0", "benders", None),
    ("sslp-10-10-20-s1", "benders", None),
    ("sslp-10-10-50-s0", "benders", None),
    ("sslp-6-8-8-s0", "apblagc", 6),
    ("sslp-6-8-8-s1", "apblagc", 6),
    ("sslp-6-8-8-s0", "bdd", 6),
    ("sslp-10-10-20-s0", "alg1", None),
)


def _instance(name):
    if name.startswith("sslp-"):
        sites, clients, scenarios, seed = name[len("sslp-"):].split("-")
        return generate_sslp(GeneratorConfig(
            sites=int(sites), clients=int(clients), scenarios=int(scenarios),
            seed=int(seed.lstrip("s"))))
    return builtin(name)


def _bench_order(instance):
    """The instance as bench/run.py --seed 0 hands it to the package: its
    scenarios drawn in default_rng(0) order, emitted and read back."""
    order = np.random.default_rng(0).permutation(instance.n_scenarios)
    return parse(emit(dataclasses.replace(
        instance, scenarios=tuple(instance.scenarios[i] for i in order))))


def _parse(key):
    """(instance name, RunConfig) of a golden key."""
    name, algorithm, *flags = key.split(":")
    return name, RunConfig(algorithm=algorithm,
                           **{flag: True for flag in flags})


def trace_sha256(trace):
    """sha256 of the trace CSV minus `seconds`, then the final cut pool."""
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    tag, body = buf.getvalue().split("\n", 1)
    rows = list(csv.reader(io.StringIO(body)))
    col = rows[0].index("seconds")
    out = io.StringIO()
    out.write(tag + "\n")
    csv.writer(out, lineterminator="\n").writerows(
        row[:col] + row[col + 1:] for row in rows)
    h = hashlib.sha256(out.getvalue().encode())
    for cut in trace.cuts:
        h.update(cut.kind.encode())
        h.update(cut.x_coeffs.tobytes())
        h.update(cut.theta_coeffs.tobytes())
        h.update(repr(cut.rhs).encode())
        h.update(repr(cut.origin).encode())
    return h.hexdigest()


def _lp_result_bytes(res):
    parts = [res.status.encode(), repr(res.objective).encode()]
    for arr in (res.x, res.duals, res.reduced_costs, res.farkas):
        parts.append(b"-" if arr is None else arr.tobytes())
    return b"|".join(parts)


@contextlib.contextmanager
def lp_sha256():
    """Yields a sha256 that takes in every LP result, in call order, while
    the block runs, and a one-item list that counts them: solve_lp and
    solve_lps are rebound in every stochcuts module that holds them, and
    only the outermost call of a nest counts."""
    digest = hashlib.sha256()
    count = [0]
    depth = [0]
    saved = []

    def recording(fn, many):
        def recorded(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                for res in (out if many else [out]):
                    digest.update(_lp_result_bytes(res))
                    count[0] += 1
            return out
        return recorded

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and key.startswith("stochcuts")]
    for name, many in (("solve_lp", False), ("solve_lps", True)):
        orig = getattr(stochcuts.lp, name, None)
        if orig is None:
            continue
        wrapper = recording(orig, many)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    saved.append((mod, attr, orig))
    try:
        yield digest, count
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _golden_text(golden):
    """trace_golden.json's text for `golden`: one line per entry's head and
    one per event, entries in the dict's order."""
    return "{\n" + ",\n".join(
        f'  {json.dumps(key)}: {{"reason": {json.dumps(entry["reason"])}, '
        '"events": [\n'
        + ",\n".join("    " + json.dumps(row) for row in entry["events"])
        + "\n  ]}" for key, entry in golden.items()) + "\n}\n"


def record(keys):
    """Rewrite the entries `keys` of trace_golden.json from runs of this
    checkout's package; exits without writing on an unknown key, another
    package, or a file not in _golden_text's layout."""
    unknown = sorted(set(keys) - GOLDEN.keys())
    if unknown:
        sys.exit(f"unknown golden keys: {' '.join(unknown)}")
    here = Path(__file__).resolve().parents[1] / "src"
    if Path(stochcuts.__file__).resolve().parents[1] != here:
        sys.exit(f"--record runs the package in {here} only")
    if _golden_text(GOLDEN) != GOLDEN_FILE.read_text(encoding="utf-8"):
        sys.exit(f"{GOLDEN_FILE.name} is not in the layout --record writes")
    golden = dict(GOLDEN)
    for key in keys:
        name, config = _parse(key)
        trace = run(_instance(name), config)
        golden[key] = {"reason": trace.termination_reason, "events": [
            [ev.kind, ev.z_lb, ev.z_ub, *cut_split(ev.cuts), ev.n_clusters,
             ev.refinements] for ev in trace.events]}
    GOLDEN_FILE.write_text(_golden_text(golden), encoding="utf-8")


def test_golden_file_is_in_the_record_layout():
    # --record rewrites the whole file, so every entry it does not name
    # keeps its bytes only if the file is in the layout it writes
    assert _golden_text(GOLDEN) == GOLDEN_FILE.read_text(encoding="utf-8")


def _close(got, want):
    if want is None:
        return got is None
    return got == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_trace_matches_golden(key):
    name, config = _parse(key)
    trace = run(_instance(name), config)
    want = GOLDEN[key]
    assert trace.termination_reason == want["reason"]
    got = [[ev.kind, *cut_split(ev.cuts), ev.n_clusters, ev.refinements]
           for ev in trace.events]
    assert got == [[row[0], *row[3:]] for row in want["events"]]
    for ev, row in zip(trace.events, want["events"]):
        assert _close(ev.z_lb, row[1]), (ev.z_lb, row[1])
        assert _close(ev.z_ub, row[2]), (ev.z_ub, row[2])


def _runs(wide):
    """(key, instance, RunConfig) of every run the script digests."""
    if not wide:
        for key in sorted(GOLDEN):
            name, config = _parse(key)
            yield key, _instance(name), config
        return
    for name, algorithm, budget in WIDE:
        extra = {} if budget is None else {"separation_budget": budget}
        key = f"{name}:{algorithm}" + ("" if budget is None else f":b{budget}")
        yield (key + ":bench-order", _bench_order(_instance(name)),
               RunConfig(algorithm=algorithm, **extra))


def _digest_pass(src, wide):
    """This script's digest pass on the package in `src`, one BLAS thread,
    started as a subprocess."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, __file__] + (["--wide"] if wide else []),
        env=env, stdout=subprocess.PIPE, text=True)


def against(other, wide, trace_only=False):
    """Digest this checkout's src and `other` side by side.  Prints each run
    whose trace or LP digest differs (with trace_only, whose trace digest
    differs), or that one side lacks, and returns how many there are."""
    srcs = (Path(__file__).resolve().parents[1] / "src", Path(other))
    procs = [_digest_pass(src, wide) for src in srcs]
    outs = [proc.communicate()[0] for proc in procs]
    for src, proc in zip(srcs, procs):
        if proc.returncode:
            sys.exit(f"digest pass on {src} exited {proc.returncode}")
    mine, theirs = ({line.split()[0]: line.split()[1:]
                     for line in out.splitlines()} for out in outs)
    keys = sorted(mine.keys() | theirs.keys())
    digests = 1 if trace_only else 2
    differ = [key for key in keys
              if mine.get(key, [])[:digests] != theirs.get(key, [])[:digests]]
    for key in differ:
        print(key)
        for side, lines in (("this ", mine), ("other", theirs)):
            print(f"  {side} {' '.join(lines.get(key, ['missing']))}")
    print(f"{len(keys)} runs, {len(differ)} differ")
    return len(differ)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest the golden runs.")
    parser.add_argument("--wide", action="store_true",
                        help="digest the runs in WIDE instead")
    parser.add_argument("--against", metavar="OTHER/src",
                        help="compare with the package in OTHER/src")
    parser.add_argument("--trace-only", action="store_true",
                        help="with --against, compare trace digests only")
    parser.add_argument("--record", nargs="+", metavar="KEY",
                        help="rewrite these golden entries from this "
                             "checkout")
    args = parser.parse_args()
    if args.record:
        record(args.record)
        sys.exit(0)
    if args.against:
        sys.exit(1 if against(args.against, args.wide, args.trace_only)
                 else 0)
    for key, instance, config in _runs(args.wide):
        with lp_sha256() as (lps, count):
            trace = run(instance, config)
        print(key, trace_sha256(trace), lps.hexdigest(), count[0],
              len(trace.events), trace.termination_reason,
              repr(trace.final_lower_bound))
