"""Span recording around the package's layer boundaries, from outside.

Each traced function is rebound, in every stochcuts module that holds it,
to a wrapper that appends one span (name, start, end, parent, note) to an
in-memory list.  The note is a small per-call fact read off the arguments
or the result: LP size and status, B&B nodes, a separation status.  Spans
are written out only when the run ends, and `summarize` turns them into
the per-layer metrics.  Nothing inside the package changes.
"""

from __future__ import annotations

import csv
import sys
import time

# layer -> public functions whose calls are spans of that layer.  A
# "Class.method" entry is rebound on the class.
LAYERS = {
    "lp": ("solve_lp",),
    "mip": ("solve_mip",),
    "benders": ("solve_master", "build_master_model",
                "solve_scenario_subproblem", "solve_cluster_subproblem",
                "make_benders_cut", "make_pbbenc", "make_feasibility_cut",
                "compute_theta_lower_bounds", "MasterState.add_cut"),
    "lagrangian": ("separate", "evaluate_inner", "inner_model",
                   "scenario_target", "cluster_target",
                   "make_lagrangian_cut"),
    "partition": ("single_cluster", "singletons", "aggregate", "refine",
                  "delta_schedule", "build_partition_extensive"),
    "drivers": ("run", "run_benders", "run_bdd", "run_alg1", "run_apblagc"),
}


def _lp_note(args, out):
    rows, cols = args[0].A.shape
    return f"{rows * cols}:{out.status}"


def _refine_note(args, out):
    return f"{args[0].size}:{out.size}"


NOTES = {
    "lp.solve_lp": _lp_note,
    "mip.solve_mip": lambda args, out: f"{out.nodes}:{out.status}",
    "benders.build_master_model":
        lambda args, out: str(getattr(out, "lp", out).A.shape[0]),
    "benders.MasterState.add_cut": lambda args, out: str(int(bool(out))),
    "lagrangian.separate":
        lambda args, out: f"{out.inner_calls}:{out.status}",
    "partition.refine": _refine_note,
}


class Tracer:
    """Rebinds the LAYERS functions of an imported stochcuts package."""

    def __init__(self, package):
        self.package = package
        self.spans = []      # [name, start, end, parent index, note]
        self._stack = []
        self._saved = []     # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, ""]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced

    def install(self):
        prefix = self.package.__name__ + "."
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(prefix))]
        for layer, names in LAYERS.items():
            home = sys.modules[prefix + layer]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._rebind(cls, meth, orig,
                                 self._wrap(f"{layer}.{name}", orig))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, attr, orig, wrapper)

    def _rebind(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "name", "start", "end", "parent", "note"))
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent, note))


def _layer(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-layer counts and times from one traced solve's spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = {}
    total = {}       # summed duration per function name
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[_layer(name)] += (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)

    def parent_name(span):
        return spans[span[3]][0] if span[3] >= 0 else ""

    def notes(name):
        return [s[4].split(":") for s in spans if s[0] == name]

    lp_notes = notes("lp.solve_lp")
    mip_notes = notes("mip.solve_mip")
    sep_notes = notes("lagrangian.separate")
    sep_status = [status for _, status in sep_notes]
    refines = notes("partition.refine")
    master_rows = [int(n[0]) for n in notes("benders.build_master_model")]
    add_cut = [int(n[0]) for n in notes("benders.MasterState.add_cut")]
    inner_mips = sum(int(calls_) for calls_, _ in sep_notes)
    violated = sep_status.count("violated_cut_found")
    # a MIP span whose parent is another MIP span would be a nested solve;
    # none exist today, but total_s must not count one twice
    mip_top = [s for s in spans if s[0] == "mip.solve_mip"
               and parent_name(s) != "mip.solve_mip"]
    subproblem = ("benders.solve_scenario_subproblem",
                  "benders.solve_cluster_subproblem")
    return {
        "lp.calls": len(lp_notes),
        "lp.self_s": self_s["lp"],
        "lp.cells": sum(int(cells) for cells, _ in lp_notes),
        "lp.infeasible": sum(status == "infeasible" for _, status in lp_notes),
        "benders.self_s": self_s["benders"],
        "benders.master_calls": calls.get("benders.solve_master", 0),
        "benders.master_s": total.get("benders.solve_master", 0.0),
        "benders.master_rows_max": max(master_rows, default=0),
        "benders.build_s": total.get("benders.build_master_model", 0.0),
        "benders.subproblem_calls": sum(calls.get(n, 0) for n in subproblem),
        "benders.subproblem_s": sum(total.get(n, 0.0) for n in subproblem),
        "benders.add_cut_calls": len(add_cut),
        "benders.add_cut_s": total.get("benders.MasterState.add_cut", 0.0),
        "benders.add_cut_accepted": sum(add_cut),
        "benders.theta_lb_s": total.get("benders.compute_theta_lower_bounds",
                                        0.0),
        "mip.calls": len(mip_notes),
        "mip.self_s": self_s["mip"],
        "mip.total_s": sum(s[2] - s[1] for s in mip_top),
        "mip.nodes": sum(int(nodes) for nodes, _ in mip_notes),
        "mip.lp_calls": sum(1 for s in spans if s[0] == "lp.solve_lp"
                            and parent_name(s) == "mip.solve_mip"),
        "mip.budget": sum(status == "budget_exceeded"
                          for _, status in mip_notes),
        "lagrangian.calls": len(sep_notes),
        "lagrangian.self_s": self_s["lagrangian"],
        "lagrangian.total_s": total.get("lagrangian.separate", 0.0),
        "lagrangian.inner_mips": inner_mips,
        "lagrangian.inner_mip_s": sum(
            s[2] - s[1] for s in spans if s[0] == "mip.solve_mip"
            and parent_name(s) == "lagrangian.evaluate_inner"),
        "lagrangian.outer_lps": sum(
            1 for s in spans if s[0] == "lp.solve_lp"
            and parent_name(s) == "lagrangian.separate"),
        "lagrangian.violated": violated,
        "lagrangian.no_violated": sep_status.count("no_violated_cut"),
        "lagrangian.budget": sep_status.count("budget_exceeded"),
        "lagrangian.inner_mips_per_cut":
            inner_mips / violated if violated else 0.0,
        "partition.calls": sum(n for name, n in calls.items()
                               if _layer(name) == "partition"),
        "partition.s": self_s["partition"],
        "partition.refinements": sum(int(after) > int(before)
                                     for before, after in refines),
        "drivers.self_s": self_s["drivers"],
        "attributed_s": sum(v for k, v in self_s.items() if k != "drivers"),
    }
