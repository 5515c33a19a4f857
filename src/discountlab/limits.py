"""Vanishing-discount limits, Mather measures, and the selection principle.

Driving the discount down a geometric ladder produces a Cauchy family of
solutions exactly when the undiscounted system is solvable; instances
are normalized first by subtracting the ergodic constants from the cost
(``shift_costs`` / ``ergodic_normalize``), mirroring the fact that a
nonzero ergodic constant makes the discounted values blow up like c/lam.

On the measure side, the rescaled optimal measures lam * mu^lam converge
to minimizers of <nu, L> over the lam = 0 closed measures (the Mather
measures; the zero measure is always feasible, so the minimum is <= 0
and equals 0 exactly on normalized instances).  The optimal face is a
polytope; its vertices are enumerated exactly from bases over the face's
support.  Mather measures live where the critical subsolution is tight,
so most weight columns are 0 on the whole face and are pruned first:
those with a positive reduced cost under the Mather LP's dual
(complementary slackness), then those that are 0 on the whole face,
found together by one LP over the cone of the face.  The face is
convex, so the average of points that are each positive on one support
column is positive on all of them; scaled by the cone's multiplier it
reaches 1 on every support column at once, which a column that is 0 on
the whole face never does.  The LP writes each column as y + s with
y <= 1, so y <= x needs no row of its own.  Only when the support has
too many bases to enumerate is the same pruned face sampled instead, by
minimizing random linear objectives over it.

The selection principle characterizes the limit field pointwise as the
largest subsolution value at (z, k) among fields that pair
nonpositively with every Mather representative.  That set of fields has
a greatest element, the limit itself, so the whole field maximizes the
sum of its entries over the set.  ``selection_field`` solves that LP
from its dual side, a lam = 0 closed-measure LP with one '=' row per
field entry, and reads the field off its duals (Chvatal, *Linear
Programming*, 1983, ch. 5); ``selection_solve`` keeps the
one-LP-per-point maximum as its oracle.  The sweep limit must reproduce
the field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .discretize import DiscreteSystem, ValueField, linearized_matrix
from .errors import (BadValue, DivergentSweep, EnumerationTooLarge,
                     InfeasibleLP, NumericalBreakdown, UnboundedLP)
from .lp import (FEAS_TOL, INFEASIBLE, OPTIMAL, LPProblem,
                 enumerate_basic_solutions, lp_solve)
from .measures import MeasureVector, assemble_closed_constraints, \
    check_subsolution, green_poisson, subsolution_lp, validate_lam0_rows
from .solver import ergodic_solve, policy_iterate

DIVERGENCE_BOUND = 1e6
FACE_DEDUP_TOL = 1e-7
SUPPORT_TOL = 1e-9         # reduced cost above this: > 0
LIMIT_GAP_TOL = 1e-5       # sweep limit vs selection field, sup norm
PAIRING_TOL = 1e-6         # <nu, limit> over the Mather representatives


# ---------------------------------------------------------------------------
# cost shifting / normalization
# ---------------------------------------------------------------------------

def shift_costs(sys: DiscreteSystem, shift) -> DiscreteSystem:
    """New system with cost_i + shift_i (conjugate of subtracting shift_i
    from the Hamiltonian of mode i)."""
    shift = np.asarray(shift, dtype=float) * np.ones(sys.m)
    return replace(sys, cost=[c + s for c, s in zip(sys.cost, shift)],
                   label=f"{sys.label}+shift")


def ergodic_normalize(sys: DiscreteSystem, lam: float = 0.05,
                      tol: float = 1e-11, damping: float = 0.5):
    """Shift costs by the ergodic constants so the shifted constant is 0."""
    result = ergodic_solve(sys, lam, tol=tol, damping=damping)
    return shift_costs(sys, result.c), result


# ---------------------------------------------------------------------------
# discount sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    lambdas: list
    fields: list                 # ValueField per rung
    diagnostics: list            # SolveDiagnostics per rung
    cauchy_gaps: list
    uniform_bound: float
    divergent: bool = False

    @property
    def limit_candidate(self) -> ValueField:
        """The field at the smallest rung."""
        return self.fields[-1]

    def csv_rows(self):
        """Rows of (lambda, sup_norm, cauchy_gap, solver_iters)."""
        rows = []
        for j, lam in enumerate(self.lambdas):
            gap = self.cauchy_gaps[j] if j < len(self.cauchy_gaps) else float("nan")
            rows.append((lam, float(np.max(np.abs(self.fields[j]))), gap,
                         self.diagnostics[j].iterations))
        return rows

    def to_json(self) -> str:
        return json.dumps({
            "lambdas": self.lambdas,
            "sup_norms": [float(np.max(np.abs(v))) for v in self.fields],
            "cauchy_gaps": self.cauchy_gaps,
            "uniform_bound": self.uniform_bound,
            "divergent": self.divergent})


def discount_sweep(sys: DiscreteSystem, lam_start: float = 0.5,
                   ratio: float = 0.5, rungs: int = 18,
                   tol: float = 1e-10) -> SweepResult:
    """Solve down the ladder lam_j = lam_start * ratio^j with warm starts.

    Records the Cauchy gaps and the uniform bound; a bound above 1e6
    flags divergence (the undiscounted system has no solution at this
    normalization) and truncates the ladder there.
    """
    if lam_start <= 0.0 or not (0.0 < ratio < 1.0) or rungs < 2:
        raise BadValue("need lam_start > 0, ratio in (0,1), rungs >= 2")
    lambdas, fields, diags = [], [], []
    u_prev = None
    divergent = False
    for j in range(rungs):
        lam = lam_start * ratio ** j
        u, _, diag = policy_iterate(sys, lam, tol=tol, u0=u_prev)
        lambdas.append(lam)
        fields.append(u)
        diags.append(diag)
        u_prev = u
        if float(np.max(np.abs(u))) > DIVERGENCE_BOUND:
            divergent = True
            break
    gaps = [float(np.max(np.abs(fields[j + 1] - fields[j])))
            for j in range(len(fields) - 1)]
    bound = max(float(np.max(np.abs(v))) for v in fields)
    return SweepResult(lambdas=lambdas, fields=fields, diagnostics=diags,
                       cauchy_gaps=gaps, uniform_bound=bound,
                       divergent=divergent)


# ---------------------------------------------------------------------------
# Mather measures
# ---------------------------------------------------------------------------

def closedness_residual(sys: DiscreteSystem, mu: MeasureVector) -> float:
    """Sup norm of the lam = 0 closedness rows applied to mu."""
    M = linearized_matrix(sys, 0.0).T
    return float(np.max(np.abs(M @ mu.flat()), initial=0.0))


def stencil_norm(sys: DiscreteSystem) -> float:
    """Largest absolute coefficient of the lam = 0 operator."""
    return float(np.max(np.abs(linearized_matrix(sys, 0.0))))


def mather_from_sweep(sys: DiscreteSystem, sweep: SweepResult, z: int,
                      k: int) -> MeasureVector:
    """lam * (optimal measure) at the smallest rung, re-tagged lam = 0.

    Its closedness residual is O(lam_min) and <nu, L> = lam * v_k(z).
    """
    if sweep.divergent:
        raise DivergentSweep("sweep was flagged divergent")
    lam = sweep.lambdas[-1]
    mu, _ = green_poisson(sys, lam, z, k)
    weights = [lam * w for w in mu.weights]
    return MeasureVector(lam_tag=0.0, weights=weights)


def mather_lp(sys: DiscreteSystem):
    """min <nu, L> over lam = 0 closed measures with mass at most 1.

    Always feasible (nu = 0), so the minimum is <= 0; it is >= 0 exactly
    when the system is normalized (a zero-constant ergodic certificate
    exists).  Returns (nu, minimum, dual), ``dual`` holding one entry per
    row of ``assemble_closed_constraints(sys, 0.0)``.
    """
    problem = assemble_closed_constraints(sys, 0.0)
    problem.c = sys.cost_flat()
    sol = lp_solve(problem)
    if sol.status != OPTIMAL:
        raise BadValue(f"Mather LP returned {sol.status}")
    nu = MeasureVector.from_flat(sys, np.maximum(sol.x, 0.0), 0.0)
    nu.validate(sys)
    return nu, sol.objective_value, sol.dual


@dataclass
class MatherSet:
    representatives: list        # MeasureVector, lam_tag = 0
    min_value: float
    exhaustive: bool = False
    # (kept, total) weight columns of the exact face after pruning
    support_columns: Optional[tuple] = None


def _dedup(rows):
    """Greedy first-kept pass over flat weight rows: a row is kept unless
    it lies within ``FACE_DEDUP_TOL`` in total variation of a row kept
    before it."""
    kept = []
    alive = np.ones(len(rows), dtype=bool)
    while alive.any():
        j = int(np.argmax(alive))
        kept.append(j)
        alive[j:] &= np.abs(rows[j:] - rows[j]).sum(axis=1) > FACE_DEDUP_TOL
    return rows[kept]


def exact_face(sys: DiscreteSystem, min_value: float):
    """The optimal face of the Mather LP as (A, b) of {x >= 0 : A x = b}:
    the lam = 0 closedness rows, the mass row with a slack (the last
    column) and the value row <nu, L> = ``min_value`` (the last row)."""
    base = assemble_closed_constraints(sys, 0.0)
    A = np.vstack([base.A, sys.cost_flat()[None, :]])
    slack = np.zeros((len(A), 1))
    slack[-2] = 1.0
    return np.hstack([A, slack]), np.concatenate([base.b, [min_value]])


def face_support(A_exact, b_exact, dual):
    """Weight columns of the exact face that are positive at some point
    of it, in increasing order; every other column is 0 on the whole
    face.

    ``dual`` is an optimal dual of the Mather LP.  A column whose reduced
    cost under it is positive is 0 at every optimum (complementary
    slackness) and is dropped unsolved.  One LP over the cone of the face
    splits the other columns C: maximize sum_C y subject to A x = tau b
    over C and the mass slack, tau >= 0, y_j <= x_j and y_j <= 1.  Its
    optimal y is 1 on the support and 0 off it (Freund-Roundy-Todd, 1985).
    Written with x_j = y_j + s_j, s_j >= 0, the rows y_j <= x_j hold by
    construction, and the LP has one row per face row and per y_j <= 1.
    """
    rows, cols = A_exact.shape
    weights = cols - 1                                  # the slack is last
    reduced = A_exact[-1, :weights] - A_exact[:-1, :weights].T @ dual
    candidates = np.nonzero(reduced <= SUPPORT_TOL)[0]
    k = len(candidates)
    # columns: y on C, then s on C, the mass slack and tau; with y first,
    # phase 1 leaves y basic wherever it can and phase 2 has less to do
    A = np.block([[A_exact[:, candidates],
                   A_exact[:, np.append(candidates, weights)],
                   -b_exact[:, None]],
                  [np.eye(k), np.zeros((k, k + 2))]])
    c = np.append(-np.ones(k), np.zeros(k + 2))
    sol = lp_solve(LPProblem(c=c, A=A, b=np.append(np.zeros(rows), np.ones(k)),
                             senses=["="] * rows + ["<="] * k))
    if sol.status != OPTIMAL:
        raise InfeasibleLP(f"face support LP returned {sol.status}")
    # y is 1 on every support column and 0 on every other one: any cut
    # strictly between them splits the two, and 0.5 is the farthest
    # from both
    return candidates[sol.x[:k] > 0.5]


def _sample_face(A, b, count: int, seed: int):
    """Optimal points of ``count`` random objectives over {x >= 0 :
    A x = b}, one per row; the last column (the mass slack) costs 0.
    The LPs differ only in their costs, so each one starts from the
    basis the previous one handed back."""
    rng = np.random.default_rng(seed)
    rows, basis = [], None
    for _ in range(count):
        c = np.append(rng.standard_normal(A.shape[1] - 1), 0.0)
        sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["="] * len(b)),
                       basis=basis)
        if sol.status != OPTIMAL:
            raise InfeasibleLP(f"face sampling LP returned {sol.status}")
        basis = sol.basis
        # lp_solve certifies x >= -FEAS_TOL: clear only that rounding
        rows.append(np.where(sol.x < -FEAS_TOL, sol.x, np.maximum(sol.x, 0.0)))
    return np.array(rows).reshape(-1, A.shape[1])


def mather_face_samples(sys: DiscreteSystem, count: int, seed: int,
                        mather=None) -> MatherSet:
    """Representatives of the optimal face of the Mather LP.

    The face (``exact_face``, the value row at equality) is restricted to
    its support: the weight columns ``face_support`` finds positive
    somewhere on it, by a reduced-cost filter under the Mather LP's dual
    and one LP over the cone of the face for the surviving columns.  The
    pruned columns are 0 on the whole face, so its vertex set is that of
    the full face.  The vertices are enumerated exactly from bases over
    the support, and the set is exhaustive.  When the support has more
    bases than the enumeration budget, ``count`` random objectives
    (``seed``) over the same pruned face give the rows instead, and the
    set is not exhaustive.  Either way the rows are scattered back to full width,
    checked against the lam = 0 rule and deduplicated in total variation
    one array at a time; only the kept rows become ``MeasureVector``s.
    ``mather`` is the ``mather_lp(sys)`` result when the caller has
    already solved it; ``None`` solves it here.
    """
    _, min_value, dual = mather_lp(sys) if mather is None else mather
    A_exact, b_exact = exact_face(sys, min_value)
    ncols = A_exact.shape[1] - 1                        # the slack is last
    support = face_support(A_exact, b_exact, dual)
    A_support = A_exact[:, np.append(support, ncols)]
    try:
        vertices = enumerate_basic_solutions(A_support, b_exact, tol=1e-8)
        exhaustive = True
    except EnumerationTooLarge:
        vertices = _sample_face(A_support, b_exact, count, seed)
        exhaustive = False
    rows = np.zeros((len(vertices), ncols))
    rows[:, support] = vertices[:, :-1]
    validate_lam0_rows(rows)
    return MatherSet(representatives=[MeasureVector.from_flat(sys, row, 0.0)
                                      for row in _dedup(rows)],
                     min_value=min_value, exhaustive=exhaustive,
                     support_columns=(len(support), ncols))


# ---------------------------------------------------------------------------
# selection principle
# ---------------------------------------------------------------------------

def _mather_rows(mset: MatherSet):
    if not mset.representatives:
        raise BadValue("selection requires at least one Mather representative")
    return [(nu, 0.0) for nu in mset.representatives]


def selection_solve(sys: DiscreteSystem, mset: MatherSet, z: int, k: int):
    """Largest subsolution value at (z, k) among fields pairing <= 0 with
    every Mather representative.  Unbounded when the rows fail to pin the
    additive freedom (raised with the ray attached).  One LP per point:
    the oracle for ``selection_field``."""
    return subsolution_lp(sys, 0.0, z, k, extra_rows=_mather_rows(mset))


def selection_field(sys: DiscreteSystem, mset: MatherSet) -> ValueField:
    """The selection limit from one LP: the greatest field among the
    subsolutions pairing <= 0 with every Mather representative nu_r.  By
    the selection theorem that set has a greatest element, so each entry
    equals ``selection_solve`` at its point.

    The field maximizes sum u s.t. A_0 u <= L and <nu_r, u> <= 0, an LP
    with one row per control.  Its LP dual has one '=' row per field
    entry: min <mu, L> s.t. A_0^T mu + sum_r t_r nu_r = 1, mu, t >= 0.
    That measure LP is solved instead, and the field is its optimal
    duals, checked as a subsolution that pairs <= 0 with every nu_r
    before it is used (``NumericalBreakdown`` otherwise).  When the rows
    do not pin the additive freedom, the measure LP is infeasible and its
    Farkas certificate y, with A_0 y <= 0, <nu_r, y> <= 0 and sum y > 0,
    is an improving ray of the field LP: ``UnboundedLP`` with y attached,
    as ``selection_solve`` raises it."""
    rows = _mather_rows(mset)
    coupling = np.column_stack([nu.field_coefficients(sys) for nu, _ in rows])
    A = np.hstack([linearized_matrix(sys, 0.0).T, coupling])
    c = np.concatenate([sys.cost_flat(), [bound for _, bound in rows]])
    sol = lp_solve(LPProblem(c=c, A=A, b=np.ones(len(A)),
                             senses=["="] * len(A)))
    if sol.status == INFEASIBLE:
        ray = sol.ray / np.max(np.abs(sol.ray))
        if np.max(A.T @ ray) > FEAS_TOL or ray.sum() <= 0.0:
            raise NumericalBreakdown("selection measure LP's Farkas "
                                     "certificate fails its check")
        raise UnboundedLP("selection field LP is unbounded", ray=ray)
    if sol.status != OPTIMAL:
        raise InfeasibleLP(f"selection measure LP returned {sol.status}")
    field = sol.dual.reshape(sys.m, sys.num_states)
    check_subsolution(sys, 0.0, field, "selection duals", rows)
    return field


@dataclass
class ConvergenceReport:
    rung_gaps: list
    limit_vs_selection_gap: float
    measure_pairings: list
    passed: bool

    def to_json(self) -> str:
        return json.dumps({
            "rung_gaps": self.rung_gaps,
            "limit_vs_selection_gap": self.limit_vs_selection_gap,
            "measure_pairing_max": max(self.measure_pairings, default=0.0),
            "pass": self.passed})


def convergence_report(sys: DiscreteSystem, sweep: SweepResult,
                       selection: ValueField,
                       mset: Optional[MatherSet] = None) -> ConvergenceReport:
    """Machine-readable verdict tying the two pipelines together."""
    limit = sweep.limit_candidate
    gap = float(np.max(np.abs(limit - selection)))
    pairings = []
    if mset is not None:
        pairings = [nu.pair_field(limit) for nu in mset.representatives]
    passed = (not sweep.divergent and gap <= LIMIT_GAP_TOL
              and all(p <= PAIRING_TOL for p in pairings))
    return ConvergenceReport(rung_gaps=list(sweep.cauchy_gaps),
                             limit_vs_selection_gap=gap,
                             measure_pairings=pairings, passed=passed)
