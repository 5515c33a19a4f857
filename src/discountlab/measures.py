"""Closed measures, their linear programs, and exact duality audits.

A discrete measure is a nonnegative weight mu_i(x, a) per (mode, state,
control).  Pairing it against the per-control affine relations of the
system gives the closedness constraints: with A the linearized operator
(rows (i, x, a), columns (j, y)) from the discretize module,

    lam > 0:  A^T mu = e_(k,z)      (one equality per test direction)
    lam = 0:  A^T mu = 0  together with the mass bound <mu, 1> <= 1.

Summing all rows of the lam > 0 system against the constant test field
yields the normalization sum_i mu_i(x,a) (lam + sum_j eta_{a,j}) = 1,
which every feasible measure therefore satisfies identically.

Because the constraint matrix is the literal transpose of the matrix the
solver linearizes, the three numbers

    solver value at (z, k),
    min <mu, L> over closed measures,
    max u_k(z) over subsolution fields,

agree exactly in finite dimensions; ``duality_audit`` checks the
agreement at one point to fixed tolerances and is the package's central
oracle.

``field_duality_audit`` obtains the three numbers at every point from
one cold LP and its duals:

- the solver value is read off one policy iteration;
- the measure minimum is one LP seeded with sum e_(k,z).  Its optimal
  basis is dual feasible for every seed, so it is optimal for each seed
  e_(k,z) that it keeps primal feasible, B^-1 e_(k,z) >= 0.  One pass of
  ``lp_solve_rhs`` certifies every seed from that one basis, exactly as
  the seed's own LP would be certified, and solves a seed that the
  basis does not fit as its own LP;
- the subsolution maximum is read off the duals of that same LP.  Its
  LP dual is max sum u s.t. A u <= L, the greatest-subsolution LP: for
  lam > 0 the subsolutions have a greatest element (the solution), so
  every entry of the dual optimum is the pointwise maximum.  The duals
  are checked as a subsolution outside the LP, by the Bellman residual
  at the kernel's feasibility bound, before they are used.

Each point's check is still a certificate.  For a closed measure mu
seeded at (k, z) and a subsolution u, pairing mu against the relations
A u <= L gives u_k(z) = <A^T mu, u> = <mu, A u> <= <mu, L> (weak
duality).  So the measure value bounds the field's entry from above,
and a spread within the tolerance proves the identity at that point
just as the per-point LPs do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .discretize import (DiscreteSystem, Policy, ValueField,
                         bellman_residual, linearized_matrix, policy_matrix,
                         policy_rows)
from .errors import (BadValue, InfeasibleLP, NumericalBreakdown,
                     SingularSystem, UnboundedLP)
from .lp import (FEAS_TOL, OPTIMAL, UNBOUNDED, LPProblem, lp_solve,
                 lp_solve_rhs)
from .solver import policy_iterate

MASS_TOL = 1e-9
ZERO_MASS_TOL = 1e-12
DUALITY_TOL = 1e-7
SUPPORT_MASS_FLOOR = 1e-10   # support_audit counts weights above this


# ---------------------------------------------------------------------------
# measure vectors
# ---------------------------------------------------------------------------

@dataclass
class MeasureVector:
    """Nonnegative weights per (mode, state, control) with a discount tag."""

    lam_tag: float
    weights: list  # per mode, (S, A_i)

    @classmethod
    def from_flat(cls, sys: DiscreteSystem, flat: np.ndarray,
                  lam_tag: float) -> "MeasureVector":
        S = sys.num_states
        return cls(lam_tag=lam_tag, weights=[
            np.asarray(flat[off:off + S * len(mc)], dtype=float)
            .reshape(S, -1).copy()
            for off, mc in zip(sys.var_offsets, sys.controls)])

    def flat(self) -> np.ndarray:
        return np.concatenate([w.reshape(-1) for w in self.weights])

    def total_mass(self) -> float:
        return float(sum(w.sum() for w in self.weights))

    def discount_mass(self, sys: DiscreteSystem) -> float:
        """<mu, (lam + sum_j eta_j) 1>, the discounted normalization."""
        return sum(float((w * (self.lam_tag + mc.eta.sum(axis=1))).sum())
                   for w, mc in zip(self.weights, sys.controls))

    def pair_cost(self, sys: DiscreteSystem) -> float:
        return float(sum((w * sys.cost[i]).sum()
                         for i, w in enumerate(self.weights)))

    def pair_field(self, u: ValueField) -> float:
        """<mu, u>: each (i, x, a) weight multiplies u_i(x)."""
        return float(sum((w.sum(axis=1) * u[i]).sum()
                         for i, w in enumerate(self.weights)))

    def field_coefficients(self, sys: DiscreteSystem) -> np.ndarray:
        """Row vector over flat fields: coefficients of <mu, .>."""
        return np.concatenate([w.sum(axis=1) for w in self.weights])

    def validate(self, sys: DiscreteSystem):
        if self.lam_tag > 0.0:
            _check_nonnegative(self.flat())
            norm = self.discount_mass(sys)
            if abs(norm - 1.0) > MASS_TOL:
                raise BadValue(f"discounted mass {norm} != 1")
        else:
            validate_lam0_rows(self.flat()[None, :])

    def tv_distance(self, other: "MeasureVector") -> float:
        return float(sum(np.abs(a - b).sum()
                         for a, b in zip(self.weights, other.weights)))

    def to_json(self) -> str:
        entries = []
        for i, w in enumerate(self.weights):
            for x, a in zip(*np.nonzero(w)):
                entries.append({"mode": int(i), "x": int(x), "a": int(a),
                                "weight": float(w[x, a])})
        return json.dumps({"lambda_tag": self.lam_tag, "entries": entries})


def _check_nonnegative(rows: np.ndarray):
    if float(np.min(rows, initial=0.0)) < 0.0:
        raise BadValue("negative weight")


def validate_lam0_rows(rows: np.ndarray):
    """The lam = 0 validity rule on flat weight rows, one measure per row:
    every weight >= 0 and every total mass <= 1 + ZERO_MASS_TOL."""
    _check_nonnegative(rows)
    mass = float(np.max(rows.sum(axis=1), initial=0.0))
    if mass > 1.0 + ZERO_MASS_TOL:
        raise BadValue(f"mass {mass} exceeds 1")


# ---------------------------------------------------------------------------
# constraint assembly and the measure-side LP
# ---------------------------------------------------------------------------

def assemble_closed_constraints(sys: DiscreteSystem, lam: float,
                                z: Optional[int] = None,
                                k: Optional[int] = None) -> LPProblem:
    """Equality system over measure weights, transposed from the solver.

    For lam > 0 the right-hand side is the indicator of test direction
    (k, z); for lam = 0 it is zero and the mass row <mu, 1> <= 1 is
    appended.  The objective is left at zero for the caller to fill.
    """
    if lam > 0.0:
        if z is None or k is None:
            raise BadValue("lam > 0 requires a source state and mode")
    elif lam == 0.0:
        if z is not None or k is not None:
            raise BadValue("lam = 0 takes no source point")
    else:
        raise BadValue("lam must be >= 0")
    A = linearized_matrix(sys, lam)
    M = np.ascontiguousarray(A.T)
    nrows, ncols = M.shape
    if lam > 0.0:
        b = np.zeros(nrows)
        b[k * sys.num_states + z] = 1.0
        senses = ["="] * nrows
    else:
        M = np.vstack([M, np.ones((1, ncols))])
        b = np.zeros(nrows + 1)
        b[-1] = 1.0
        senses = ["="] * nrows + ["<="]
    return LPProblem(c=np.zeros(ncols), A=M, b=b, senses=senses)


def _measure_problem(sys: DiscreteSystem, lam: float, z: int,
                     k: int) -> LPProblem:
    if lam <= 0.0:
        raise BadValue("green_poisson requires lam > 0")
    problem = assemble_closed_constraints(sys, lam, z, k)
    problem.c = sys.cost_flat()
    return problem


def _measure_of(sys: DiscreteSystem, lam: float, sol):
    """The validated measure of a measure-LP solution, and the solution."""
    if sol.status != OPTIMAL:
        raise SingularSystem(f"measure LP returned {sol.status}")
    mu = MeasureVector.from_flat(sys, np.maximum(sol.x, 0.0), lam)
    mu.validate(sys)
    return mu, sol


def green_poisson(sys: DiscreteSystem, lam: float, z: int, k: int):
    """Minimizing closed measure representing the value at (z, k).

    Returns (measure, value).  Infeasibility is impossible for a valid
    system (point-mass seeds always generate a feasible occupation), so
    a non-Optimal status signals corrupted data.
    """
    mu, sol = _measure_of(sys, lam, lp_solve(_measure_problem(sys, lam, z, k)))
    return mu, sol.objective_value


def occupation_from_policy(sys: DiscreteSystem, lam: float, policy: Policy,
                           z: int, k: int) -> MeasureVector:
    """Occupation weights of one policy seeded at (z, k).

    Solves the transposed policy system; the M-matrix certificate makes
    the transpose inverse nonnegative, so weights are clamped only of
    roundoff size.
    """
    if lam <= 0.0:
        raise BadValue("occupation requires lam > 0")
    A = policy_matrix(sys, lam, policy)
    rhs = np.zeros(A.shape[0])
    rhs[k * sys.num_states + z] = 1.0
    try:
        dense = np.linalg.solve(A.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"occupation solve failed: {exc}")
    if float(np.min(dense)) < -1e-10:
        raise SingularSystem("occupation weights significantly negative")
    dense = np.maximum(dense, 0.0)
    flat = np.zeros(sys.total_vars)
    flat[policy_rows(sys, policy)] = dense
    mu = MeasureVector.from_flat(sys, flat, lam)
    mu.validate(sys)
    return mu


# ---------------------------------------------------------------------------
# subsolution LP (the dual side)
# ---------------------------------------------------------------------------

def subsolution_lp(sys: DiscreteSystem, lam: float,
                   z: Optional[int] = None, k: Optional[int] = None,
                   extra_rows: Optional[Sequence] = None):
    """max u_k(z) over fields satisfying every per-control relation <= cost.

    With no point given the objective is sum u over every (k, z), and the
    optimum is the greatest field of the set, whenever the set has one:
    a field below it somewhere has a smaller sum.  Returns (field, value),
    the value being u_k(z) or the sum.

    ``extra_rows`` is a list of (measure, bound) pairs adding
    <measure, u> <= bound.  Unboundedness (possible at lam = 0 when
    nothing pins the additive freedom) raises ``UnboundedLP`` with the
    improving ray attached.
    """
    if (z is None) != (k is None):
        raise BadValue("give both z and k, or neither")
    A = linearized_matrix(sys, lam)
    b = sys.cost_flat()
    senses = ["<="] * A.shape[0]
    rows = [A]
    rhs = [b]
    for mu, bound in (extra_rows or []):
        rows.append(mu.field_coefficients(sys)[None, :])
        rhs.append(np.array([bound]))
        senses.append("<=")
    nfields = sys.m * sys.num_states
    if z is None:
        c = -np.ones(nfields)
    else:
        c = np.zeros(nfields)
        c[k * sys.num_states + z] = -1.0
    problem = LPProblem(c=c, A=np.vstack(rows), b=np.concatenate(rhs),
                        senses=senses, free=np.ones(nfields, dtype=bool))
    sol = lp_solve(problem)
    if sol.status == UNBOUNDED:
        raise UnboundedLP("subsolution LP is unbounded", ray=sol.ray)
    if sol.status != OPTIMAL:
        raise InfeasibleLP(f"subsolution LP returned {sol.status}")
    field = sol.x.reshape(sys.m, sys.num_states)
    return field, -sol.objective_value


def check_subsolution(sys: DiscreteSystem, lam: float, u: ValueField,
                      what: str, extra_rows: Sequence = ()):
    """Raise ``NumericalBreakdown`` unless ``u`` is a subsolution at
    ``lam`` that meets every (measure, bound) row <measure, u> <= bound
    of ``extra_rows``, each to ``FEAS_TOL``.  A field read off an LP's
    duals is checked this way, outside the LP, before it is used;
    ``what`` names it in the message."""
    residual = float(np.max(bellman_residual(sys, lam, u)))
    excess = max((mu.pair_field(u) - bound for mu, bound in extra_rows),
                 default=0.0)
    if max(residual, excess) > FEAS_TOL:
        raise NumericalBreakdown(f"{what} are no subsolution: residual "
                                 f"{residual}, pairing excess {excess}")


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

@dataclass
class DualityReport:
    z: int
    k: int
    lam: float
    solver_value: float
    measure_value: float
    subsolution_value: float
    slackness_residual: float
    passed: bool

    def spread(self) -> float:
        vals = (self.solver_value, self.measure_value, self.subsolution_value)
        return max(vals) - min(vals)

    def to_json(self) -> str:
        return json.dumps({
            "z": self.z, "k": self.k, "lambda": self.lam,
            "solver_value": self.solver_value,
            "measure_value": self.measure_value,
            "subsolution_value": self.subsolution_value,
            "slackness_residual": self.slackness_residual,
            "passed": self.passed})


def _duality_report(z, k, lam, solver_value, measure_sol, sub_value):
    measure_value = measure_sol.objective_value
    passed = (abs(solver_value - measure_value) <= DUALITY_TOL
              and abs(solver_value - sub_value) <= DUALITY_TOL)
    return DualityReport(z=z, k=k, lam=lam, solver_value=solver_value,
                         measure_value=measure_value,
                         subsolution_value=sub_value,
                         slackness_residual=measure_sol.slackness_residual,
                         passed=passed)


def duality_audit(sys: DiscreteSystem, lam: float, z: int, k: int,
                  solver_value: Optional[float] = None) -> DualityReport:
    """Three-way agreement: solver value, measure-LP min, subsolution max.

    One point, two cold LPs of its own: the oracle for
    ``field_duality_audit``.
    """
    if lam <= 0.0:
        raise BadValue("duality audit requires lam > 0")
    if solver_value is None:
        u, _, _ = policy_iterate(sys, lam, tol=1e-10)
        solver_value = float(u[k, z])
    _, sol = _measure_of(sys, lam, lp_solve(_measure_problem(sys, lam, z, k)))
    _, sub_value = subsolution_lp(sys, lam, z, k)
    return _duality_report(z, k, lam, solver_value, sol, sub_value)


def field_duality_audit(sys: DiscreteSystem, lam: float) -> list:
    """``duality_audit`` at every (z, k), mode-major, from one cold LP and
    its duals.

    The measure side is one LP seeded with the sum of all point masses;
    one ``lp_solve_rhs`` pass over its optimal basis then certifies every
    point's seed, and solves a seed the basis does not fit as its own LP.
    Each seed's measure is validated as ``green_poisson``'s is.  The
    subsolution side is that LP's duals, the greatest subsolution; a
    dual field with a Bellman residual above ``FEAS_TOL`` anywhere is no
    subsolution and raises ``NumericalBreakdown``.
    """
    if lam <= 0.0:
        raise BadValue("duality audit requires lam > 0")
    problem = _measure_problem(sys, lam, 0, 0)
    u, _, _ = policy_iterate(sys, lam, tol=1e-10)
    summed = lp_solve(replace(problem, b=np.ones_like(problem.b)))
    if summed.status != OPTIMAL:
        raise SingularSystem(f"summed-seed measure LP returned "
                             f"{summed.status}")
    sub = summed.dual.reshape(sys.m, sys.num_states)
    check_subsolution(sys, lam, sub, "summed-seed duals")
    points = [(z, k) for k in range(sys.m) for z in range(sys.num_states)]
    seeds = lp_solve_rhs(problem, summed.basis, np.eye(len(problem.b)))
    reports = []
    for (z, k), sol in zip(points, seeds):
        _measure_of(sys, lam, sol)
        reports.append(_duality_report(z, k, lam, float(u[k, z]), sol,
                                       float(sub[k, z])))
    return reports


@dataclass
class SupportReport:
    entries: list            # (mode, state, control, weight)
    xi_box: list             # per xi axis, (lo, hi) over the support
    eta_box: list            # per eta axis, (lo, hi)
    control_xi_box: list
    control_eta_box: list
    interior: bool

    def to_json(self) -> str:
        return json.dumps({
            "entries": [{"mode": i, "x": x, "a": a, "weight": w}
                        for (i, x, a, w) in self.entries],
            "xi_box": self.xi_box, "eta_box": self.eta_box,
            "control_xi_box": self.control_xi_box,
            "control_eta_box": self.control_eta_box,
            "interior": self.interior})


def _box(rows) -> list:
    """Per-axis (min, max) over a stack of rows."""
    pts = np.vstack(rows)
    return [(float(lo), float(hi))
            for lo, hi in zip(pts.min(axis=0), pts.max(axis=0))]


def support_audit(mu: MeasureVector, sys: DiscreteSystem) -> SupportReport:
    """Bounding box of the carried controls (weight above
    ``SUPPORT_MASS_FLOOR``) versus the sampling box.

    ``interior`` is True when on every non-degenerate xi axis the support
    box stays strictly inside the sampled box; support touching the
    boundary flags an inadequate truncation radius.  The eta axes are
    reported but excluded from the verdict: they sample the coupling
    cone exactly rather than truncating a continuum.
    """
    entries = []
    xi_pts, eta_pts = [], []
    all_xi, all_eta = [], []
    for i, w in enumerate(mu.weights):
        mc = sys.controls[i]
        all_xi.append(mc.xi)
        all_eta.append(mc.eta)
        for x, a in zip(*np.nonzero(w > SUPPORT_MASS_FLOOR)):
            entries.append((int(i), int(x), int(a), float(w[x, a])))
            xi_pts.append(mc.xi[a])
            eta_pts.append(mc.eta[a])
    cxi_box, ceta_box = _box(all_xi), _box(all_eta)
    xi_box, eta_box = (_box(xi_pts), _box(eta_pts)) if xi_pts else ([], [])

    def axis_interior(support, box):
        lo, hi = box
        if lo == hi:
            return True
        slo, shi = support
        return lo < slo and shi < hi

    interior = bool(xi_pts) and \
        all(axis_interior(s, c) for s, c in zip(xi_box, cxi_box))
    return SupportReport(entries=entries, xi_box=xi_box, eta_box=eta_box,
                         control_xi_box=cxi_box, control_eta_box=ceta_box,
                         interior=interior)
