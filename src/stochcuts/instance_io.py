"""Reading, writing and generating instances.

File format (version header "stochcuts-v1"): line-oriented, whitespace
separated, '#' starts a comment.  Matrices and vectors are sparse triplets
or (index, value) pairs; omitted entries are zero, and an omitted u is no
upper bound.  Numbers are written with repr, i.e. the shortest decimal
that round-trips the double.

    stochcuts-v1
    name example
    dims <n1> <n2> <m1> <m2> <scenarios>
    mark <continuous|binary|integer> <index...>
    c <j> <value>          first-stage cost
    d <j> <value>          second-stage cost
    A <i> <j> <value>      first-stage rows  (A x = b)
    b <i> <value>
    u <j> <value>          first-stage upper bound (0 <= x_j <= u_j)
    W <i> <j> <value>      recourse matrix
    scenario <s> <probability>
    T <s> <i> <j> <value>
    h <s> <i> <value>

Duplicate triplets are summed; parse_verbose returns a warning for
each, which `stochcuts solve` and `compare` print to stderr, and parse
and load discard.  An Instance validates itself as it is built, so a
file whose instance model.validate faults (probabilities that are not
positive or do not sum to 1, a NaN or infinite value in c, A, b, d, W, T
or h, a negative or NaN u, an integer column without a finite u) raises
FormatError with the constructor's "invalid instance: ..." message.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import Instance, Scenario, CONTINUOUS, BINARY, INTEGER

FORMAT_TAG = "stochcuts-v1"

BUILTIN_NAMES = ("thm1", "dim1-random-<seed>", "refinement-example")


class FormatError(ValueError):
    """Malformed line or token, or an invalid instance."""


class SchemaError(FormatError):
    """Missing or unsupported format tag."""


class DimensionError(FormatError):
    """Index or count incompatible with the declared dimensions."""


# the dims line's fields, in order
DIMS = ("n1", "n2", "m1", "m2", "scenarios")

# indexed directive -> (the Instance field it fills, or the Scenario field
# when indexed by scenario first; the dimensions its indices range over;
# what its arity error says it needs; the value of an omitted entry), in
# emit's order
DIRECTIVES = {
    "c": ("first_stage_cost", ("n1",), "index and value", 0.0),
    "d": ("second_stage_cost", ("n2",), "index and value", 0.0),
    "A": ("first_stage_matrix", ("m1", "n1"), "row, column and value", 0.0),
    "b": ("first_stage_rhs", ("m1",), "index and value", 0.0),
    "u": ("first_stage_upper", ("n1",), "index and value", np.inf),
    "W": ("recourse", ("m2", "n2"), "row, column and value", 0.0),
    "T": ("technology", ("scenarios", "m2", "n1"),
          "scenario, row, column, value", 0.0),
    "h": ("rhs", ("scenarios", "m2"), "scenario, row, value", 0.0),
}


def _num(tok, where):
    try:
        return float(tok)
    except ValueError:
        raise FormatError(f"{where}: expected a number, got {tok!r}")


def _idx(tok, limit, where):
    try:
        i = int(tok)
    except ValueError:
        raise FormatError(f"{where}: expected an index, got {tok!r}")
    if not 0 <= i < limit:
        raise DimensionError(f"{where}: index {i} out of range [0, {limit})")
    return i


def parse_verbose(source):
    """Parse and validate an instance; returns (instance, warnings)."""
    if hasattr(source, "read"):
        source = source.read()
    lines = [(lineno, text) for lineno, raw
             in enumerate(source.splitlines(), start=1)
             if (text := raw.split("#", 1)[0].strip())]
    tag = lines[0][1] if lines else None
    if tag != FORMAT_TAG:
        raise SchemaError(f"unknown schema {tag!r}; expected {FORMAT_TAG!r}")

    shapes = None   # directive -> the extents of its indices, from dims
    name = "unnamed"
    marks = None
    entries = None  # directive -> {index tuple: value}
    probs = None
    warnings = []
    for lineno, text in lines[1:]:
        toks = text.split()
        where = f"line {lineno}"
        head = toks[0]
        if head == "name":
            if len(toks) < 2:
                raise FormatError(f"{where}: name needs a value")
            name = " ".join(toks[1:])
            continue
        if head == "dims":
            if shapes is not None:
                raise FormatError(f"{where}: dims declared twice")
            if len(toks) != 6:
                raise FormatError(f"{where}: dims needs " + " ".join(DIMS))
            try:
                dims = tuple(int(t) for t in toks[1:])
            except ValueError:
                raise FormatError(f"{where}: dims must be integers")
            n1, n2, m1, m2, ns = dims
            if min(dims) < 0:
                raise DimensionError(f"{where}: negative dimension")
            if n1 == 0 or n2 == 0 or m2 == 0:
                raise DimensionError(f"{where}: n1, n2 and m2 must be positive")
            if ns == 0:
                raise DimensionError(f"{where}: no scenarios")
            size = dict(zip(DIMS, dims))
            shapes = {directive: [size[axis] for axis in axes]
                      for directive, (_, axes, _, _) in DIRECTIVES.items()}
            marks = [CONTINUOUS] * n1
            entries = {directive: {} for directive in DIRECTIVES}
            probs = [None] * ns
            continue
        if shapes is None:
            raise FormatError(f"{where}: dims must come before {head!r}")
        if head == "mark":
            if len(toks) < 3:
                raise FormatError(f"{where}: mark needs a kind and indices")
            kind = toks[1]
            if kind not in (CONTINUOUS, BINARY, INTEGER):
                raise FormatError(f"{where}: unknown integrality mark {kind!r}")
            for t in toks[2:]:
                marks[_idx(t, len(marks), where)] = kind
        elif head == "scenario":
            if len(toks) != 3:
                raise FormatError(f"{where}: scenario needs index and probability")
            s = _idx(toks[1], len(probs), where)
            if probs[s] is not None:
                raise FormatError(f"{where}: scenario {s} declared twice")
            probs[s] = _num(toks[2], where)
        elif head in DIRECTIVES:
            shape = shapes[head]
            if len(toks) != len(shape) + 2:
                raise FormatError(f"{where}: {head} needs {DIRECTIVES[head][2]}")
            key = tuple(map(_idx, toks[1:-1], shape, repeat(where)))
            value = _num(toks[-1], where)
            table = entries[head]
            if key in table:
                table[key] += value
                shown = key if len(key) > 1 else key[0]
                warnings.append(f"{where}: duplicate {head} entry {shown} summed")
            else:
                table[key] = value
        else:
            raise FormatError(f"{where}: unknown directive {head!r}")

    if shapes is None:
        raise FormatError("missing dims line")
    for s, p in enumerate(probs):
        if p is None:
            raise DimensionError(f"scenario {s} never declared")
    fields, per_scenario = {}, {}
    for head, (field, axes, _, omitted) in DIRECTIVES.items():
        dense = np.full(shapes[head], omitted)
        if entries[head]:
            dense[tuple(zip(*entries[head]))] = list(entries[head].values())
        (per_scenario if axes[0] == "scenarios" else fields)[field] = dense
    scenarios = tuple(
        Scenario(p, **{f: a[s] for f, a in per_scenario.items()})
        for s, p in enumerate(probs))
    try:
        instance = Instance(name=name, integrality=tuple(marks),
                            scenarios=scenarios, **fields)
    except ValueError as exc:   # the defects model.validate found
        raise FormatError(str(exc))
    return instance, warnings


def parse(source):
    """Parse and validate an instance, discarding duplicate-entry warnings."""
    return parse_verbose(source)[0]


def _fmt(v):
    return repr(float(v))


def _entries(head, array, omitted, *prefix):
    """One directive line per entry of array other than the omitted value,
    in row-major order."""
    return [" ".join([head, *map(str, prefix + idx), _fmt(array[idx])])
            for idx in zip(*np.nonzero(array != omitted))]


def emit(instance):
    """Deterministic, full-precision text form; parse(emit(i)) == i."""
    out = [FORMAT_TAG]
    out.append(f"name {instance.name or 'unnamed'}")
    out.append(f"dims {instance.n1} {instance.n2} {instance.m1} "
               f"{instance.m2} {instance.n_scenarios}")
    for kind in (BINARY, INTEGER):
        idx = [str(j) for j, m in enumerate(instance.integrality) if m == kind]
        if idx:
            out.append(f"mark {kind} " + " ".join(idx))
    for head, (field, axes, _, omitted) in DIRECTIVES.items():
        if axes[0] != "scenarios":
            out += _entries(head, getattr(instance, field), omitted)
    for s, sc in enumerate(instance.scenarios):
        out.append(f"scenario {s} {_fmt(sc.probability)}")
        for head, (field, axes, _, omitted) in DIRECTIVES.items():
            if axes[0] == "scenarios":
                out += _entries(head, getattr(sc, field), omitted, s)
    return "\n".join(out) + "\n"


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh)


def save(instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(instance))


# generate_sslp's draws, integers uniform on [low, high]: site costs,
# demands and service costs; and the factor by which each site's capacity
# exceeds the clients' total peak demand shared out over the sites
SITE_COST_RANGE = (40, 80)
DEMAND_RANGE = (1, 25)
SERVICE_COST_RANGE = (1, 25)
CAPACITY_SLACK = 1.5


@dataclass
class GeneratorConfig:
    """Server-location family: binary site openings, continuous assignment
    recourse, per-scenario client availability on the demand rows."""

    sites: int = 5
    clients: int = 10
    scenarios: int = 10
    seed: int = 0
    site_budget: int = None    # optional row: open exactly this many sites

    def __post_init__(self):
        for name in ("sites", "clients", "scenarios", "seed", "site_budget"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    or (name == "site_budget" and value is None)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.sites < 1 or self.clients < 1:
            raise ValueError("sites and clients must be at least 1")
        if self.scenarios < 1:
            raise ValueError("scenarios must be at least 1")
        if self.site_budget is not None and not 1 <= self.site_budget <= self.sites:
            raise ValueError("site_budget must lie in [1, sites]")


def generate_sslp(config):
    """Deterministic server-location instance for the given seed.

    Sites j carry binary open/close variables with positive cost; client i
    is served fractionally (y_ij >= 0, unit cost per site) against per-site
    capacity u = max(ceil(slack * total_demand / sites), max_demand), which
    keeps the all-open first stage feasible for every availability pattern.
    Scenario s only toggles the demand-row rhs h_s in {0, 1}: absent
    clients leave their rows slack, present ones must be covered, so the
    demand-row duals (the marginal service prices) vary scenario by
    scenario.
    """
    rng = np.random.default_rng(config.seed)
    ns1, m = config.sites, config.clients
    n2 = m * ns1
    m2 = ns1 + m
    lo, hi = SITE_COST_RANGE
    c = rng.integers(lo, hi + 1, size=ns1).astype(float)
    lo, hi = DEMAND_RANGE
    dem = rng.integers(lo, hi + 1, size=(m, ns1)).astype(float)
    lo, hi = SERVICE_COST_RANGE
    cost = rng.integers(lo, hi + 1, size=(m, ns1)).astype(float)
    total = float(dem.max(axis=1).sum())
    u = max(math.ceil(CAPACITY_SLACK * total / ns1), float(dem.max()))
    d = np.zeros(n2)
    w = np.zeros((m2, n2))
    t = np.zeros((m2, ns1))
    for i in range(m):
        for j in range(ns1):
            col = i * ns1 + j
            d[col] = cost[i, j]
            w[j, col] = -dem[i, j]           # capacity row of site j
            w[ns1 + i, col] = 1.0            # demand row of client i
    for j in range(ns1):
        t[j, j] = float(u)                   # capacity: u x_j - sum dem y >= 0
    scenarios = []
    p = 1.0 / config.scenarios
    for _ in range(config.scenarios):
        h = np.zeros(m2)
        h[ns1:] = rng.integers(0, 2, size=m).astype(float)
        scenarios.append(Scenario(p, t, h))
    if config.site_budget is None:
        a = np.zeros((0, ns1))
        b = np.zeros(0)
    else:
        a = np.ones((1, ns1))
        b = np.array([float(config.site_budget)])
    name = f"sslp-{ns1}-{m}-{config.scenarios}-s{config.seed}"
    return Instance(name, c, a, b, (BINARY,) * ns1, d, w, tuple(scenarios))


def _thm1():
    scenarios = (
        Scenario(0.5, [[-1.0, 1.0], [1.0, -1.0]], [0.0, 0.0]),
        Scenario(0.5, [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0]),
    )
    return Instance("thm1", [0.0, 0.0], np.zeros((0, 2)), [],
                    (BINARY, BINARY), [1.0], [[1.0], [1.0]], scenarios)


def _dim1_random(seed):
    rng = np.random.default_rng(seed)
    ns = 3 + seed % 4
    w = np.hstack([np.ones((3, 1)),
                   rng.integers(0, 4, size=(3, 2)).astype(float)])
    d = np.concatenate([[6.0], rng.integers(1, 6, size=2).astype(float)])
    scenarios = []
    weights = rng.integers(1, 6, size=ns).astype(float)
    probs = weights / weights.sum()
    for s in range(ns):
        t = rng.integers(-3, 4, size=(3, 1)).astype(float)
        h = rng.integers(-2, 5, size=3).astype(float)
        scenarios.append(Scenario(float(probs[s]), t, h))
    return Instance(f"dim1-random-{seed}", [1.0], np.zeros((0, 1)), [],
                    (BINARY,), d, w, tuple(scenarios))


def _refinement_example():
    # Four scenarios over one binary x whose technology averages nearly
    # cancel, so the single-cluster aggregation is almost information-free
    # (value 0 versus the true optimum 1.875) while the subproblem duals at
    # x = 0 come out as (3, 3, 0, 0) and split the partition cleanly into
    # {0,1} | {2,3}, after which the aggregation is exact at both integer
    # points.
    data = [(2.0, 1.0), (1.0, 1.5), (-2.0, -1.0), (-2.0, -1.5)]  # (t, h)
    scenarios = tuple(Scenario(0.25, [[t]], [h]) for t, h in data)
    return Instance("refinement-example", [1.0], np.zeros((0, 1)), [],
                    (BINARY,), [3.0], [[1.0]], scenarios)


def builtin(name):
    """Named instances used throughout the tests and the verification suite."""
    if name == "thm1":
        return _thm1()
    if name == "refinement-example":
        return _refinement_example()
    if name.startswith("dim1-random-"):
        try:
            seed = int(name[len("dim1-random-"):])
        except ValueError:
            raise ValueError(f"bad seed in builtin name {name!r}")
        return _dim1_random(seed)
    raise ValueError(f"unknown builtin {name!r}; available: "
                     + ", ".join(BUILTIN_NAMES))
