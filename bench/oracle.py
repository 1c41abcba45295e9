"""Extensive-form bounds of an instance, by scipy's HiGHS."""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp


def extensive_bounds(instance):
    """(LP relaxation, MIP optimum) of the extensive form.

    The model is assembled here from the instance's arrays, not by the
    package, so the oracle shares no code with the solvers it checks."""
    ns, n2, m2 = instance.n_scenarios, instance.n2, instance.m2
    c = np.concatenate([instance.first_stage_cost,
                        np.kron(instance.probabilities,
                                instance.second_stage_cost)])
    tech = sparse.vstack([sparse.csr_matrix(s.technology)
                          for s in instance.scenarios])
    rec = sparse.block_diag([sparse.csr_matrix(instance.recourse)] * ns)
    blocks = [sparse.hstack([tech, rec])]
    lo = [np.concatenate([s.rhs for s in instance.scenarios])]
    hi = [np.full(ns * m2, np.inf)]
    if instance.m1:
        blocks.insert(0, sparse.hstack([
            sparse.csr_matrix(instance.first_stage_matrix),
            sparse.csr_matrix((instance.m1, ns * n2))]))
        lo.insert(0, instance.first_stage_rhs)
        hi.insert(0, instance.first_stage_rhs)
    rows = LinearConstraint(sparse.vstack(blocks).tocsr(),
                            np.concatenate(lo), np.concatenate(hi))
    marks = np.array(instance.integrality)
    ub = np.concatenate([np.where(marks == "binary", 1.0, np.inf),
                         np.full(ns * n2, np.inf)])
    integer = np.concatenate([(marks != "continuous").astype(int),
                              np.zeros(ns * n2, dtype=int)])
    values = []
    for integrality in (np.zeros_like(integer), integer):
        res = milp(c, constraints=rows, bounds=Bounds(np.zeros(c.size), ub),
                   integrality=integrality, options={"mip_rel_gap": 1e-9})
        if res.status != 0:
            raise RuntimeError(f"HiGHS did not solve the extensive form: "
                               f"{res.message}")
        values.append(float(res.fun))
    return values

