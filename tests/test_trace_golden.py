"""Driver traces pinned to recorded values.

trace_golden.json holds, per run, the termination reason and one row per
event: [kind, z_lb, z_ub, ccut, fcut, n_clusters, refinements].  Kinds,
cut counts, cluster counts, refinements and the reason must match exactly;
the bounds to 1e-9 relative.  Keys read instance:algorithm[:flag], with
every other RunConfig field at its default.

Run as a script, it prints one `key sha256` line per golden run, over the
trace CSV without its wall-clock column and the final cut pool (kind,
coefficient bytes, rhs repr, origin), so two commits can be compared bit
for bit:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_trace_golden.py
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from stochcuts import builtin, generate_sslp, GeneratorConfig, run, RunConfig
from stochcuts.drivers import cut_split, write_trace_csv

GOLDEN = json.loads((Path(__file__).parent / "trace_golden.json")
                    .read_text(encoding="utf-8"))


def _instance(name):
    if name.startswith("sslp-"):
        sites, clients, scenarios, seed = name[len("sslp-"):].split("-")
        return generate_sslp(GeneratorConfig(
            sites=int(sites), clients=int(clients), scenarios=int(scenarios),
            seed=int(seed.lstrip("s"))))
    return builtin(name)


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


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        name, config = _parse(key)
        print(key, trace_sha256(run(_instance(name), config)))
