"""Problem data for two-stage stochastic programs with fixed recourse.

An instance is

    min  c.x + sum_s p_s * d.y_s
    s.t. A x = b,
         T_s x + W y_s >= h_s        for every scenario s,
         0 <= x <= u (plus integrality marks),  y_s >= 0,

where W and d are shared by all scenarios (fixed recourse).  Matrices are
held dense; at the sizes this toolkit targets that is both faster and
simpler than sparse storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mip import MipModel
from .lp import LpModel, EQ, GE

PROB_TOL = 1e-12        # scenario probabilities must sum to 1 within this

CONTINUOUS = "continuous"
BINARY = "binary"
INTEGER = "integer"
_MARKS = (CONTINUOUS, BINARY, INTEGER)

KIND_BENDERS = "benders"
KIND_PBBENC = "pbbenc"
KIND_LAGRANGIAN = "lagrangian"
KIND_PBLAGC = "pblagc"
KIND_FEASIBILITY = "feasibility"
CUT_KINDS = (KIND_BENDERS, KIND_PBBENC, KIND_LAGRANGIAN, KIND_PBLAGC,
             KIND_FEASIBILITY)


class InfeasibleError(ValueError):
    """A solve proved that the instance has no feasible first stage with a
    feasible recourse."""


def _frozen(a, dtype=float):
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Scenario:
    """One realization: probability, technology matrix and right-hand side."""

    probability: float
    technology: np.ndarray   # T_s, shape (m2, n1)
    rhs: np.ndarray          # h_s, shape (m2,)

    def __post_init__(self):
        object.__setattr__(self, "technology",
                           _frozen(np.atleast_2d(self.technology)))
        object.__setattr__(self, "rhs", _frozen(np.atleast_1d(self.rhs)))
        object.__setattr__(self, "probability", float(self.probability))


@dataclass(frozen=True)
class Instance:
    """Immutable two-stage instance; share freely between engines."""

    name: str
    first_stage_cost: np.ndarray          # c, (n1,)
    first_stage_matrix: np.ndarray        # A, (m1, n1); A x = b
    first_stage_rhs: np.ndarray           # b, (m1,)
    integrality: tuple                    # one mark per x variable
    second_stage_cost: np.ndarray         # d, (n2,)
    recourse: np.ndarray                  # W, (m2, n2)
    scenarios: tuple                      # Scenario, ...
    first_stage_upper: np.ndarray = None  # u, (n1,); None: no upper bounds

    def __post_init__(self):
        object.__setattr__(self, "first_stage_cost",
                           _frozen(np.atleast_1d(self.first_stage_cost)))
        a = np.array(self.first_stage_matrix, dtype=float, copy=True)
        a = a.reshape(-1, self.first_stage_cost.size) if a.size else \
            a.reshape(0, self.first_stage_cost.size)
        a.setflags(write=False)
        object.__setattr__(self, "first_stage_matrix", a)
        object.__setattr__(self, "first_stage_rhs",
                           _frozen(np.atleast_1d(self.first_stage_rhs))
                           if np.size(self.first_stage_rhs) else _frozen([]))
        object.__setattr__(self, "integrality", tuple(self.integrality))
        object.__setattr__(self, "second_stage_cost",
                           _frozen(np.atleast_1d(self.second_stage_cost)))
        object.__setattr__(self, "recourse",
                           _frozen(np.atleast_2d(self.recourse)))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        upper = self.first_stage_upper
        object.__setattr__(self, "first_stage_upper", _frozen(
            np.full(self.n1, np.inf) if upper is None
            else np.atleast_1d(upper)))

    # dimensions
    @property
    def n1(self):
        return self.first_stage_cost.size

    @property
    def n2(self):
        return self.second_stage_cost.size

    @property
    def m1(self):
        return self.first_stage_rhs.size

    @property
    def m2(self):
        return self.recourse.shape[0]

    @property
    def n_scenarios(self):
        return len(self.scenarios)

    @property
    def probabilities(self):
        return np.array([s.probability for s in self.scenarios])

    @property
    def binary_mask(self):
        return np.array([m == BINARY for m in self.integrality])

    @property
    def integer_mask(self):
        return np.array([m != CONTINUOUS for m in self.integrality])

    def x_bounds(self):
        """(lb, ub) for the first-stage box: [0, u], and at most 1 for a
        binary."""
        lb = np.zeros(self.n1)
        u = self.first_stage_upper
        ub = np.where(self.binary_mask, np.minimum(u, 1.0), u)
        return lb, ub

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        if (self.name != other.name or self.integrality != other.integrality
                or self.n_scenarios != other.n_scenarios):
            return False
        for f in ("first_stage_cost", "first_stage_matrix", "first_stage_rhs",
                  "first_stage_upper", "second_stage_cost", "recourse"):
            if not np.array_equal(getattr(self, f), getattr(other, f)):
                return False
        for a, b in zip(self.scenarios, other.scenarios):
            if a.probability != b.probability:
                return False
            if not np.array_equal(a.technology, b.technology):
                return False
            if not np.array_equal(a.rhs, b.rhs):
                return False
        return True

    __hash__ = None


def validate(instance):
    """Return a list of human-readable defects; empty means well-formed."""
    out = []
    n1, n2 = instance.n1, instance.n2
    a = instance.first_stage_matrix
    if a.shape != (instance.m1, n1):
        out.append(f"first-stage matrix shape {a.shape} does not match "
                   f"(m1, n1) = ({instance.m1}, {n1})")
    for mark in instance.integrality:
        if mark not in _MARKS:
            out.append(f"unknown integrality mark {mark!r}")
    if len(instance.integrality) != n1:
        out.append(f"integrality has {len(instance.integrality)} marks "
                   f"for {n1} first-stage variables")
    u = instance.first_stage_upper
    if u.shape != (n1,):
        out.append(f"upper bounds have length {u.size} for {n1} "
                   "first-stage variables")
    else:
        if np.isnan(u).any():
            out.append("u has a NaN entry")
        out += [f"u {j} is negative" for j in np.flatnonzero(u < 0.0)]
        # branch and bound, and Lagrangian separation, need a bounded box
        out += [f"integer column {j} needs a finite bound: u {j} <value>"
                for j, mark in enumerate(instance.integrality)
                if mark == INTEGER and j < n1 and not np.isfinite(u[j])]
    w = instance.recourse
    if w.ndim != 2 or w.shape[1] != n2:
        out.append(f"recourse matrix shape {w.shape} does not match n2 = {n2}")
    out += _non_finite("", c=instance.first_stage_cost, A=a,
                       b=instance.first_stage_rhs,
                       d=instance.second_stage_cost, W=w)
    if instance.n_scenarios == 0:
        out.append("no scenarios")
    else:
        total = float(sum(s.probability for s in instance.scenarios))
        if not abs(total - 1.0) <= PROB_TOL:    # NaN fails too
            out.append(f"probabilities sum to {total:g}")
        for idx, s in enumerate(instance.scenarios):
            if not s.probability > 0.0:
                out.append(f"scenario {idx}: probability {s.probability:g} "
                           "is not positive")
            if s.technology.shape != (instance.m2, n1):
                out.append(f"scenario {idx}: technology shape "
                           f"{s.technology.shape} does not match "
                           f"(m2, n1) = ({instance.m2}, {n1})")
            if s.rhs.shape != (instance.m2,):
                out.append(f"scenario {idx}: rhs length {s.rhs.size} "
                           f"does not match m2 = {instance.m2}")
            out += _non_finite(f"scenario {idx}: ", T=s.technology, h=s.rhs)
    return out


def _non_finite(prefix, **arrays):
    """A defect per array (named as in the file format) holding NaN or
    an infinity."""
    return [f"{prefix}{name} has a non-finite entry"
            for name, values in arrays.items()
            if not np.isfinite(values).all()]


def build_extensive(instance):
    """Deterministic extensive form: variables x then y_1 ... y_S."""
    bad = validate(instance)
    if bad:
        raise ValueError("invalid instance: " + "; ".join(bad))
    return stacked_model(instance, instance.first_stage_cost,
                         [(s.probability, s.technology, s.rhs)
                          for s in instance.scenarios])


def stacked_model(instance, x_cost, blocks):
    """The MIP over x and one recourse copy y_k per block (weight, T, h):

        min  x_cost.x + sum_k weight_k * d.y_k
        s.t. A x = b,  T_k x + W y_k >= h_k,  y_k >= 0,  x in its box.

    A block per scenario is the extensive form, a block per cluster the
    partition relaxation, and one block priced (pi, pi0) a target's K.
    """
    n1, n2, m1, m2 = instance.n1, instance.n2, instance.m1, instance.m2
    k = len(blocks)
    nvar = n1 + k * n2
    c = np.zeros(nvar)
    c[:n1] = x_cost
    rows = np.zeros((m1 + k * m2, nvar))
    rhs = np.zeros(m1 + k * m2)
    senses = [EQ] * m1 + [GE] * (k * m2)
    rows[:m1, :n1] = instance.first_stage_matrix
    rhs[:m1] = instance.first_stage_rhs
    for i, (weight, technology, h) in enumerate(blocks):
        cols = slice(n1 + i * n2, n1 + (i + 1) * n2)
        r0 = m1 + i * m2
        c[cols] = float(weight) * instance.second_stage_cost
        rows[r0:r0 + m2, :n1] = technology
        rows[r0:r0 + m2, cols] = instance.recourse
        rhs[r0:r0 + m2] = h
    xlb, xub = instance.x_bounds()
    lb = np.zeros(nvar)
    ub = np.full(nvar, np.inf)
    lb[:n1] = xlb
    ub[:n1] = xub
    lp = LpModel.make(c, rows, senses, rhs, lb, ub)
    integer = np.zeros(nvar, dtype=bool)
    integer[:n1] = instance.integer_mask
    return MipModel(lp, integer)


def theta_weights(instance, cluster):
    """Weights w_s = p_s / sum_{t in cluster} p_t as a dense length-S vector.

    theta_P = sum_s w_s * theta_s is how an aggregated epigraph variable is
    expressed over the per-scenario block, so cuts stated over theta_P stay
    well-defined after later refinements.
    """
    cluster = tuple(cluster)
    if not cluster:
        raise ValueError("empty cluster")
    ns = instance.n_scenarios
    p = instance.probabilities
    for s in cluster:
        if not 0 <= s < ns:
            raise ValueError(f"scenario index {s} out of range")
    if len(set(cluster)) != len(cluster):
        raise ValueError("duplicate scenario index in cluster")
    w = np.zeros(ns)
    total = float(p[list(cluster)].sum())
    for s in cluster:
        w[s] = p[s] / total
    return w


@dataclass
class Cut:
    """A valid inequality  x_coeffs . x + theta_coeffs . theta >= rhs.

    theta_coeffs lives over the per-scenario theta block regardless of which
    partition produced the cut; aggregated cuts carry the probability
    weights of their cluster there.
    """

    kind: str
    x_coeffs: np.ndarray
    theta_coeffs: np.ndarray
    rhs: float
    origin: tuple = ()
    gen_dual: np.ndarray = None

    def __post_init__(self):
        if self.kind not in CUT_KINDS:
            raise ValueError(f"unknown cut kind {self.kind!r}")
        self.x_coeffs = np.asarray(self.x_coeffs, dtype=float)
        self.theta_coeffs = np.asarray(self.theta_coeffs, dtype=float)
        self.rhs = float(self.rhs)
        self.origin = tuple(self.origin)

    def slack(self, x, theta):
        return float(self.x_coeffs @ x + self.theta_coeffs @ theta - self.rhs)
