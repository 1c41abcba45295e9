"""Command line driver.

Subcommands: generate, solve, compare, plot, verify.  Exit codes: 0 on
success, 1 when a verification or data failure occurred, 2 for usage
errors, 3 when a solve hit its time limit.
"""

from __future__ import annotations

import argparse
import contextlib
import html
import math
import os
import sys

from .drivers import (ALGORITHMS, RunConfig, run, write_trace_csv,
                      read_trace_csv, REASON_TIME_LIMIT)
from .instance_io import (GeneratorConfig, generate_sslp, builtin, emit,
                          parse_verbose, FormatError)
from .model import InfeasibleError, UnboundedError
from .verify import run_suite, FAIL, SUITES

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TIME_LIMIT = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_FAILURE):
        super().__init__(message)
        self.code = code


def _load_instance(source):
    """A path to an instance file, or a builtin name such as thm1.  The
    file's warnings (duplicate entries, summed) go to stderr."""
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                instance, warnings = parse_verbose(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read instance: {exc}")
        except FormatError as exc:
            raise CliError(f"{source}: {exc}")
        for warning in warnings:
            print(f"warning: {source}: {warning}", file=sys.stderr)
        return instance
    try:
        return builtin(source)
    except ValueError:
        raise CliError(f"no such file or builtin instance: {source}",
                       EXIT_USAGE)


def _run(source, instance, config):
    """run(instance, config); an instance that the solve proves infeasible,
    or whose recourse it finds unbounded, is a data failure of `source`."""
    try:
        return run(instance, config)
    except (InfeasibleError, UnboundedError) as exc:
        raise CliError(f"{source}: {exc}")


@contextlib.contextmanager
def _output(path, what):
    """`path` opened for writing; failing to open, write or close it is a
    usage error, and a body that raises leaves no file behind."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            try:
                yield fh
            except BaseException:
                fh.close()
                with contextlib.suppress(OSError):
                    os.remove(path)
                raise
    except OSError as exc:
        raise CliError(f"cannot write {what}: {exc}", EXIT_USAGE)


def _parse_seeds(text):
    try:
        seeds = tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise CliError(f"bad seed list {text!r}; expected e.g. 0,1,2",
                       EXIT_USAGE)
    if not seeds:
        raise CliError("seed list is empty", EXIT_USAGE)
    for seed in seeds:
        if seed < 0:
            raise CliError(f"negative seed {seed} in {text!r}; expected "
                           "e.g. 0,1,2", EXIT_USAGE)
    return seeds


# (RunConfig field, flag, help) of every run option; a flag's type and
# default are its field's, and a bool field is a switch that turns it on
RUN_OPTIONS = (
    ("kappa1", "--kappa1", None),
    ("delta_coefficient", "--delta-coefficient", None),
    ("stall_window", "--stall-window", None),
    ("stall_fraction", "--stall-fraction", None),
    ("time_limit", "--time-limit", None),
    ("separation_budget", "--budget", "inner solves per separation call"),
    ("multiplier_box", "--box", "sup-norm bound on the cut multipliers"),
    ("epsilon", "--epsilon", None),
    ("saturate", "--saturate", "ignore the stall rule; cut until none exist"),
    ("final_mip_master", "--final-mip-master",
     "solve the integer master once at the end"),
)


def _run_config(args, algorithm):
    values = {field: getattr(args, flag[2:].replace("-", "_"))
              for field, flag, _ in RUN_OPTIONS}
    try:
        return RunConfig(algorithm=algorithm, **values)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)


def _add_run_options(parser):
    default = RunConfig()
    for field, flag, help_text in RUN_OPTIONS:
        value = getattr(default, field)
        if isinstance(value, bool):
            parser.add_argument(flag, action="store_true", default=value,
                                help=help_text)
        else:
            parser.add_argument(flag, type=type(value), default=value,
                                help=help_text)


def cmd_generate(args):
    try:
        config = GeneratorConfig(sites=args.sites, clients=args.clients,
                                 scenarios=args.scenarios, seed=args.seed,
                                 site_budget=args.site_budget)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    text = emit(generate_sslp(config))
    if args.out:
        with _output(args.out, "instance") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _format_counts(counts):
    if not counts:
        return "none"
    return " ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def cmd_solve(args):
    instance = _load_instance(args.instance)
    config = _run_config(args, args.algorithm)
    with (_output(args.trace, "trace") if args.trace
          else contextlib.nullcontext()) as fh:
        trace = _run(args.instance, instance, config)
        if fh is not None:
            write_trace_csv(trace, fh)
    ub = trace.final_upper_bound
    lines = [
        f"instance {instance.name}  algorithm {trace.algorithm}",
        f"z_lb {trace.final_lower_bound:.9g}",
        f"z_ub {'-' if ub is None else format(ub, '.9g')}",
        f"reason {trace.termination_reason}",
        f"clusters {trace.final_n_clusters}  "
        f"refinements {trace.n_refinements}  "
        f"events {len(trace.events)}",
        f"cuts {_format_counts(trace.cut_counts())}",
    ]
    print("\n".join(lines))
    if trace.termination_reason == REASON_TIME_LIMIT:
        return EXIT_TIME_LIMIT
    return EXIT_OK


def cmd_compare(args):
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise CliError("no algorithms given", EXIT_USAGE)
    configs = [_run_config(args, algorithm) for algorithm in algorithms]
    instances = [_load_instance(s) for s in args.instances]
    runs = [[_run(source, instance, config) for config in configs]
            for source, instance in zip(args.instances, instances)]
    rows = [("instance", "algorithm", "z_lb", "z_ub", "reason", "seconds")]
    for traces in runs:   # the best bound of each instance argument
        best = max(trace.final_lower_bound for trace in traces)
        for trace in traces:
            lb = trace.final_lower_bound
            mark = "*" if lb >= best - 1e-6 else " "
            ub = trace.final_upper_bound
            secs = trace.events[-1].seconds if trace.events else 0.0
            rows.append((trace.instance_name, trace.algorithm,
                         f"{lb:.6g}{mark}",
                         "-" if ub is None else f"{ub:.6g}",
                         trace.termination_reason, f"{secs:.2f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return EXIT_OK


def _ticks(lo, hi, count=5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def render_trace_svg(rows, width=640, height=400, title=None):
    """Self-contained SVG: step plot of the lower bound over wall time,
    upper-bound dots where recorded, dashed verticals at refinements."""
    if not rows:
        raise ValueError("trace has no events")
    pts = [(r["seconds"], r["z_lb"]) for r in rows]
    ubs = [(r["seconds"], r["z_ub"]) for r in rows if r["z_ub"] is not None]
    refines = [r["seconds"] for r in rows if r["kind"] == "refinement"]
    ml, mr, mt, mb = 64, 20, 28, 46
    xmax = max(s for s, _ in pts) or 1.0
    vals = [v for _, v in pts] + [v for _, v in ubs]
    ymin, ymax = min(vals), max(vals)
    pad = 0.05 * ((ymax - ymin) or max(1.0, abs(ymax)))
    ymin, ymax = ymin - pad, ymax + pad

    def sx(t):
        return ml + t / xmax * (width - ml - mr)

    def sy(v):
        return height - mb - (v - ymin) / (ymax - ymin) * (height - mt - mb)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title is None:
        title = rows[0]["run"]
    out.append(f'<text x="{ml}" y="18" font-family="sans-serif" '
               f'font-size="13">{html.escape(title)}</text>')
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
               f'y2="{height - mb}" {axis}/>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
               f'{axis}/>')
    for t in _ticks(0.0, xmax):
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" '
                   f'y2="{height - mb + 5}" {axis}/>')
        out.append(f'<text x="{x:.2f}" y="{height - mb + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{t:g}</text>')
    for v in _ticks(ymin, ymax):
        y = sy(v)
        out.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" '
                   f'y2="{y:.2f}" {axis}/>')
        out.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{v:g}</text>')
    out.append(f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 8}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">seconds</text>')
    out.append(f'<text x="16" y="{(mt + height - mb) / 2:.0f}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 16 '
               f'{(mt + height - mb) / 2:.0f})">bound</text>')
    for t in refines:
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" '
                   f'y2="{height - mb}" stroke="#999" stroke-width="1" '
                   f'stroke-dasharray="4 3"/>')
    path = [f"M {sx(pts[0][0]):.2f} {sy(pts[0][1]):.2f}"]
    for (s, v) in pts[1:]:
        path.append(f"H {sx(s):.2f}")
        path.append(f"V {sy(v):.2f}")
    out.append(f'<path d="{" ".join(path)}" fill="none" stroke="#1f77b4" '
               f'stroke-width="2"/>')
    for s, v in ubs:
        out.append(f'<circle cx="{sx(s):.2f}" cy="{sy(v):.2f}" r="3" '
                   f'fill="#d62728"/>')
    lx = width - mr - 150
    out.append(f'<line x1="{lx}" y1="{mt + 8}" x2="{lx + 24}" '
               f'y2="{mt + 8}" stroke="#1f77b4" stroke-width="2"/>')
    out.append(f'<text x="{lx + 30}" y="{mt + 12}" font-family="sans-serif" '
               f'font-size="11">lower bound</text>')
    if ubs:
        out.append(f'<circle cx="{lx + 12}" cy="{mt + 24}" r="3" '
                   f'fill="#d62728"/>')
        out.append(f'<text x="{lx + 30}" y="{mt + 28}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'upper bound</text>')
    if refines:
        out.append(f'<line x1="{lx}" y1="{mt + 40}" x2="{lx + 24}" '
                   f'y2="{mt + 40}" stroke="#999" stroke-width="1" '
                   f'stroke-dasharray="4 3"/>')
        out.append(f'<text x="{lx + 30}" y="{mt + 44}" '
                   f'font-family="sans-serif" font-size="11">'
                   f'refinement</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_plot(args):
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            rows = read_trace_csv(fh)
    except OSError as exc:
        raise CliError(f"cannot read trace: {exc}", EXIT_USAGE)
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        svg = render_trace_svg(rows, title=args.title)
    except ValueError as exc:
        raise CliError(str(exc))
    with _output(args.out, "svg") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args):
    seeds = _parse_seeds(args.seeds)
    try:
        reports = run_suite(args.suite, seeds,
                            inject_invalid=args.inject_invalid_cut)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    failures = 0
    for report in reports:
        print(report.format_line())
        if report.status == FAIL:
            failures += 1
            if report.witness is not None:
                print(f"  witness: {report.witness}")
    print(f":: {len(reports)} checks, {failures} failures")
    return EXIT_FAILURE if failures else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochcuts",
        description="Cutting-plane solvers for two-stage stochastic "
                    "integer programs with continuous recourse.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate",
                       help="write a server-location test instance")
    p.add_argument("--sites", type=int, default=5)
    p.add_argument("--clients", type=int, default=10)
    p.add_argument("--scenarios", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--site-budget", type=int, default=None,
                   help="require exactly this many open sites")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    p.add_argument("instance", help="instance file or builtin name")
    p.add_argument("--algorithm", default="apblagc",
                   choices=ALGORITHMS)
    p.add_argument("--trace", default=None, help="write a trace CSV here")
    _add_run_options(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare",
                       help="run several algorithms across instances")
    p.add_argument("instances", nargs="+",
                   help="instance files or builtin names")
    p.add_argument("--algorithms", default="benders,bdd,apblagc",
                   help="comma-separated algorithm names")
    _add_run_options(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="render a trace CSV to an SVG")
    p.add_argument("trace", help="trace CSV produced by solve --trace")
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--title", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("verify", help="run independent correctness checks")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--seeds", default="0,1,2",
                   help="comma-separated generator seeds")
    p.add_argument("--inject-invalid-cut", action="store_true",
                   help="testing hook: corrupt the validity suite's cut "
                        "pool so the FAIL path is exercised")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
