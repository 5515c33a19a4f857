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
one LP and its duals:

- the solver value is read off one policy iteration;
- the measure minimum is one LP seeded with sum e_(k,z), started from
  the basis of the cheapest control at every field entry (a crash
  basis: no phase 1), never from the solver's policy, so that it finds
  its own optimum.  That optimal basis is dual feasible for every seed,
  so it is optimal for each seed e_(k,z) that it keeps primal
  feasible, B^-1 e_(k,z) >= 0.  With b = 1 it is a policy basis, whose
  inverse is nonnegative, so it fits every seed: one solve on B gives
  all seeds' measures (``_basis_measures``);
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

For lam > 0 the measures on a policy basis are that policy's occupation
measures, the columns of (policy matrix)^-T (d'Epenoux, Management
Science 10, 1963).  ``_basis_measures`` is the one place that solves
for them: the audit's seeds, ``occupation_from_policy`` and, through
it, the Mather measure of ``limits.mather_from_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .discretize import (DiscreteSystem, Policy, ValueField,
                         _linearized_rows, bellman_residual,
                         linearized_matrix, policy_rows)
from .errors import (BadValue, InfeasibleLP, NumericalBreakdown,
                     SingularSystem, UnboundedLP)
from .lp import FEAS_TOL, OPTIMAL, UNBOUNDED, LPProblem, lp_solve
from .solver import policy_iterate

MASS_TOL = 1e-9
ZERO_MASS_TOL = 1e-12
DUALITY_TOL = 1e-7
NEGATIVE_WEIGHT_TOL = 1e-10  # a policy-basis weight below -this: no fit
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
        return cls(lam_tag=lam_tag, weights=[
            b.copy() for b in sys.layout.blocks(np.asarray(flat, dtype=float))])

    def flat(self) -> np.ndarray:
        return np.concatenate([w.reshape(-1) for w in self.weights])

    def total_mass(self) -> float:
        return float(sum(w.sum() for w in self.weights))

    def discount_mass(self, sys: DiscreteSystem) -> float:
        """<mu, (lam + sum_j eta_j) 1>, the discounted normalization."""
        return float(self.flat() @ _mass_coefficients(sys, self.lam_tag))

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
        validate_rows(sys, self.lam_tag, self.flat()[None, :])

    def tv_distance(self, other: "MeasureVector") -> float:
        return float(sum(np.abs(a - b).sum()
                         for a, b in zip(self.weights, other.weights)))

    def to_dict(self) -> dict:
        entries = []
        for i, w in enumerate(self.weights):
            for x, a in zip(*np.nonzero(w)):
                entries.append({"mode": int(i), "x": int(x), "a": int(a),
                                "weight": float(w[x, a])})
        return {"lambda_tag": self.lam_tag, "entries": entries}


def _mass_coefficients(sys: DiscreteSystem, lam: float) -> np.ndarray:
    """lam + sum_j eta_{a,j} at every flat (i, x, a) row: pairing a
    measure with it gives its discounted mass."""
    return np.concatenate([np.tile(lam + mc.eta.sum(axis=1), sys.num_states)
                           for mc in sys.controls])


def validate_rows(sys: DiscreteSystem, lam: float, rows: np.ndarray):
    """The measure-validity rule on flat weight rows, one measure per row:
    every weight >= 0, and the discounted mass within ``MASS_TOL`` of 1
    for lam > 0, the total mass at most 1 + ``ZERO_MASS_TOL`` for lam = 0.
    The ``BadValue`` raised names the first failing row."""
    negative = np.min(rows, axis=1, initial=0.0) < 0.0
    if lam > 0.0:
        mass = rows @ _mass_coefficients(sys, lam)
        bad, rule = np.abs(mass - 1.0) > MASS_TOL, "discounted mass {} != 1"
    else:
        mass = rows.sum(axis=1)
        bad, rule = mass > 1.0 + ZERO_MASS_TOL, "mass {} exceeds 1"
    bad |= negative
    if bad.any():
        r = int(bad.argmax())
        raise BadValue(f"measure row {r}: " + ("negative weight" if negative[r]
                                                else rule.format(mass[r])))


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


def _measure_problem(sys: DiscreteSystem, lam: float, z: Optional[int] = None,
                     k: Optional[int] = None) -> LPProblem:
    """``assemble_closed_constraints`` with the cost as objective."""
    problem = assemble_closed_constraints(sys, lam, z, k)
    problem.c = sys.cost_flat()
    return problem


def _measure_of(sys: DiscreteSystem, lam: float, sol):
    """The validated measure of a measure-LP solution, clamped at 0, and
    the solution."""
    if sol.status != OPTIMAL:
        raise SingularSystem(f"measure LP returned {sol.status}")
    row = np.maximum(sol.x, 0.0)
    validate_rows(sys, lam, row[None, :])
    return MeasureVector.from_flat(sys, row, lam), sol


def _basis_measures(sys: DiscreteSystem, lam: float, basis: np.ndarray,
                    seeds: np.ndarray) -> np.ndarray:
    """Flat weight rows of the lam > 0 closed measures on a policy basis,
    one per column of the (mS, k) array ``seeds``: A^T mu = seed, mu 0
    off ``basis``, the flat (i, x, a) columns of one control per field
    entry, in the order of the measure LP's basis positions.

    The one place where a policy basis's measures are solved for: one
    solve on the basis matrix, ``policy_matrix``^T up to column order,
    gives every seed's weights, as the measure LP's final basic solve
    does.  ``NumericalBreakdown`` when the closedness residual exceeds
    ``FEAS_TOL`` on a row or a weight is below -``NEGATIVE_WEIGHT_TOL``
    (the basis does not fit that seed); the weights, clamped at 0, must
    then pass ``validate_rows``.
    """
    B = _linearized_rows(sys, lam, basis).T
    try:
        XB = np.linalg.solve(B, seeds)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"policy basis solve failed: {exc}")
    residual = float(np.max(np.abs(B @ XB - seeds), initial=0.0))
    if residual > FEAS_TOL:
        raise NumericalBreakdown(f"policy basis measures miss closedness "
                                 f"by {residual:.3e}")
    if float(np.min(XB, initial=0.0)) < -NEGATIVE_WEIGHT_TOL:
        raise NumericalBreakdown("policy basis weights significantly "
                                 "negative: the basis does not fit a seed")
    rows = np.zeros((seeds.shape[1], sys.total_vars))
    rows[:, basis] = np.maximum(XB.T, 0.0)
    validate_rows(sys, lam, rows)
    return rows


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
    """Occupation weights of one policy seeded at (z, k), the closed
    measure on the policy's basis (``_basis_measures``): the M-matrix
    certificate makes the transpose inverse nonnegative, so weights are
    clamped only of roundoff size.
    """
    if not lam > 0.0:
        raise BadValue("occupation requires lam > 0")
    seed = np.zeros((sys.m * sys.num_states, 1))
    seed[k * sys.num_states + z] = 1.0
    rows = _basis_measures(sys, lam, policy_rows(sys, policy), seed)
    return MeasureVector.from_flat(sys, rows[0], lam)


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

    def to_dict(self) -> dict:
        return {"z": self.z, "k": self.k, "lambda": self.lam,
                "solver_value": self.solver_value,
                "measure_value": self.measure_value,
                "subsolution_value": self.subsolution_value,
                "slackness_residual": self.slackness_residual,
                "passed": self.passed}


def _duality_report(z, k, lam, solver_value, measure_value, slackness,
                    sub_value):
    passed = (abs(solver_value - measure_value) <= DUALITY_TOL
              and abs(solver_value - sub_value) <= DUALITY_TOL)
    return DualityReport(z=z, k=k, lam=lam, solver_value=solver_value,
                         measure_value=measure_value,
                         subsolution_value=sub_value,
                         slackness_residual=slackness, passed=passed)


def duality_audit(sys: DiscreteSystem, lam: float, z: int, k: int,
                  solver_value: Optional[float] = None) -> DualityReport:
    """Three-way agreement: solver value, measure-LP min, subsolution max.

    One point, two cold LPs of its own: the oracle for
    ``field_duality_audit``.
    """
    if not lam > 0.0:
        raise BadValue("duality audit requires lam > 0")
    if solver_value is None:
        u, _, _ = policy_iterate(sys, lam, tol=1e-10)
        solver_value = float(u[k, z])
    _, sol = _measure_of(sys, lam, lp_solve(_measure_problem(sys, lam, z, k)))
    _, sub_value = subsolution_lp(sys, lam, z, k)
    return _duality_report(z, k, lam, solver_value, sol.objective_value,
                           sol.slackness_residual, sub_value)


def field_duality_audit(sys: DiscreteSystem, lam: float) -> list:
    """``duality_audit`` at every (z, k), mode-major, from one LP and its
    duals.

    The measure side is one LP seeded with the sum of all point masses.
    It starts from the basis of the cheapest control at every field
    entry, which needs no phase 1, and pivots to its own optimum.
    Howard's policy would start it at an optimum in 0 pivots, but then
    the measure side would only re-check the solver's answer, and the
    three numbers would no longer be found independently.  With b = 1 > 0
    every row needs positive weight on its own field entry's columns, so
    every basic feasible solution is a policy basis, whose nonnegative
    inverse fits every seed: each point's measure is read off the final
    basis by ``_basis_measures``, and a seed the basis does not fit
    raises ``NumericalBreakdown``.  Its value is <mu, L> and its
    slackness residual max |mu (L - A y)| under the LP's duals y.  The
    subsolution side is those duals, the greatest subsolution; a dual
    field with a Bellman residual above ``FEAS_TOL`` anywhere is no
    subsolution and raises ``NumericalBreakdown``.
    """
    if not lam > 0.0:
        raise BadValue("duality audit requires lam > 0")
    problem = _measure_problem(sys, lam, 0, 0)
    u, _, _ = policy_iterate(sys, lam, tol=1e-10)
    crash = np.array([c.argmin(axis=1) for c in sys.cost])
    summed = lp_solve(replace(problem, b=np.ones_like(problem.b)),
                      basis=policy_rows(sys, crash))
    if summed.status != OPTIMAL:
        raise SingularSystem(f"summed-seed measure LP returned "
                             f"{summed.status}")
    sub = summed.dual.reshape(sys.m, sys.num_states)
    check_subsolution(sys, lam, sub, "summed-seed duals")
    rows = _basis_measures(sys, lam, summed.basis, np.eye(len(problem.b)))
    values = rows @ problem.c
    slackness = np.max(np.abs(rows * (problem.c - problem.A.T @ summed.dual)),
                       axis=1)
    points = [(z, k) for k in range(sys.m) for z in range(sys.num_states)]
    return [_duality_report(z, k, lam, float(u[k, z]), float(value),
                            float(slack), float(sub[k, z]))
            for (z, k), value, slack in zip(points, values, slackness)]


@dataclass
class SupportReport:
    entries: list            # (mode, state, control, weight)
    xi_box: list             # per xi axis, (lo, hi) over the support
    eta_box: list            # per eta axis, (lo, hi)
    control_xi_box: list
    control_eta_box: list
    interior: bool

    def to_dict(self) -> dict:
        return {"entries": [{"mode": i, "x": x, "a": a, "weight": w}
                            for (i, x, a, w) in self.entries],
                "xi_box": self.xi_box, "eta_box": self.eta_box,
                "control_xi_box": self.control_xi_box,
                "control_eta_box": self.control_eta_box,
                "interior": self.interior}


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
    interior = bool(xi_pts) and all(
        lo == hi or lo < slo and shi < hi
        for (slo, shi), (lo, hi) in zip(xi_box, cxi_box))
    return SupportReport(entries=entries, xi_box=xi_box, eta_box=eta_box,
                         control_xi_box=cxi_box, control_eta_box=ceta_box,
                         interior=interior)
