"""Vanishing-discount limits, Mather measures, and the selection principle.

Driving the discount down a geometric ladder produces a Cauchy family of
solutions exactly when the undiscounted system is solvable; instances
are normalized first by subtracting the ergodic constants from the cost
(``shift_costs`` / ``ergodic_normalize``), mirroring the fact that a
nonzero ergodic constant makes the discounted values blow up like c/lam.

On the measure side, the rescaled optimal measures lam * mu^lam converge
to minimizers of <nu, L> over the lam = 0 closed measures (the Mather
measures; the zero measure is always feasible, so the minimum is <= 0
and equals 0 exactly on normalized instances).  There the LP need not be
solved: a lam = 0 subsolution u, such as the ergodic field, makes (u, 0)
a dual feasible point of value 0, so by weak duality nu = 0 and (u, 0)
are optimal (``mather_certificate``).  ``mather_lp`` solves the LP where
no such field is at hand.  At a sweep's smallest rung Howard's policy is
an optimal basis of the Green-Poisson LP, so ``mather_from_sweep`` reads
lam * mu^lam off that policy's occupation measure once the rung's field
passes as a subsolution, and solves no LP.  The optimal face is a
polytope; its vertices are enumerated exactly from bases over the face's
support.  Mather measures live where the critical subsolution is tight,
so most weight columns are 0 on the whole face and are pruned first:
those with a positive reduced cost under an optimal dual of the Mather
LP (complementary slackness), then those that are 0 on every closed
measure over the rest.  A closed measure that leaks no mass is a
conserved flow between field entries, so those are found on a graph,
without an LP: the support is the union of the maximal end components of
the remaining columns (de Alfaro, PhD thesis, Stanford 1997).  Only when
the support has too many bases to enumerate is the same pruned face
sampled instead, by minimizing random linear objectives over it.

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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretize import (DiscreteSystem, ValueField, linearized_matrix,
                         with_cost)
from .errors import (BadValue, DivergentSweep, EnumerationTooLarge,
                     InfeasibleLP, NumericalBreakdown, UnboundedLP)
from .lp import (FEAS_TOL, INFEASIBLE, OPTIMAL, LPProblem,
                 enumerate_basic_solutions, lp_solve)
from .measures import MeasureVector, _mass_coefficients, _measure_of, \
    _measure_problem, assemble_closed_constraints, check_subsolution, \
    occupation_from_policy, subsolution_lp, validate_rows
from .solver import ergodic_solve, policy_iterate

DIVERGENCE_BOUND = 1e6
FACE_DEDUP_TOL = 1e-7
SUPPORT_TOL = 1e-9         # reduced cost above this: > 0
LIMIT_GAP_TOL = 1e-5       # sweep limit vs selection field, sup norm
PAIRING_TOL = 1e-6         # <nu, limit> over the Mather representatives
# Default stopping rule of the ergodic solve that normalizes a system: an
# error dc in the constant shows as dc / lam in the sweep's smallest rungs.
ERGODIC_TOL = 1e-11


# ---------------------------------------------------------------------------
# cost shifting / normalization
# ---------------------------------------------------------------------------

def shift_costs(sys: DiscreteSystem, shift) -> DiscreteSystem:
    """New system with cost_i + shift_i (conjugate of subtracting shift_i
    from the Hamiltonian of mode i); it shares the stencil of ``sys``."""
    shift = np.asarray(shift, dtype=float) * np.ones(sys.m)
    return with_cost(sys, [c + s for c, s in zip(sys.cost, shift)],
                     f"{sys.label}+shift")


def ergodic_normalize(sys: DiscreteSystem, lam: float = 0.05,
                      tol: float = ERGODIC_TOL, damping: float = 0.5):
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
    sup_norms: list              # max |v| per rung
    divergent: bool = False
    policies: list = field(default_factory=list)   # Howard's, per rung

    @property
    def limit_candidate(self) -> ValueField:
        """The field at the smallest rung."""
        return self.fields[-1]

    @property
    def uniform_bound(self) -> float:
        """The largest sup norm over the ladder."""
        return max(self.sup_norms)

    def csv_rows(self):
        """Rows of (lambda, sup_norm, cauchy_gap, solver_iters)."""
        gaps = list(self.cauchy_gaps) + [float("nan")]   # none after the last
        return list(zip(self.lambdas, self.sup_norms, gaps,
                        [diag.iterations for diag in self.diagnostics]))

    def to_dict(self) -> dict:
        return {"lambdas": self.lambdas, "sup_norms": self.sup_norms,
                "cauchy_gaps": self.cauchy_gaps,
                "uniform_bound": self.uniform_bound,
                "divergent": self.divergent}


def discount_sweep(sys: DiscreteSystem, lam_start: float = 0.5,
                   ratio: float = 0.5, rungs: int = 18,
                   tol: float = 1e-10) -> SweepResult:
    """Solve down the ladder lam_j = lam_start * ratio^j with warm starts.

    Records the Cauchy gaps and the uniform bound; a bound above 1e6
    flags divergence (the undiscounted system has no solution at this
    normalization) and truncates the ladder there.
    """
    if not lam_start > 0.0 or not (0.0 < ratio < 1.0) or rungs < 2:
        raise BadValue("need lam_start > 0, ratio in (0,1), rungs >= 2")
    lambdas, fields, diags, norms, policies = [], [], [], [], []
    u_prev = None
    divergent = False
    for j in range(rungs):
        lam = lam_start * ratio ** j
        u, policy, diag = policy_iterate(sys, lam, tol=tol, u0=u_prev)
        lambdas.append(lam)
        fields.append(u)
        policies.append(policy)
        diags.append(diag)
        norms.append(float(np.abs(u).max()))
        u_prev = u
        if norms[-1] > DIVERGENCE_BOUND:
            divergent = True
            break
    gaps = [float(np.abs(fields[j + 1] - fields[j]).max())
            for j in range(len(fields) - 1)]
    return SweepResult(lambdas=lambdas, fields=fields, diagnostics=diags,
                       cauchy_gaps=gaps, sup_norms=norms, divergent=divergent,
                       policies=policies)


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

    The sweep's policy at that rung is an optimal basis of the
    Green-Poisson LP once the rung's field, that policy's value, is a
    subsolution to ``FEAS_TOL``: at a policy basis this is the LP's
    dual-feasibility test, and it raises ``NumericalBreakdown`` when it
    fails.  The measure returned is lam times that policy's occupation
    measure seeded at (z, k) (``occupation_from_policy``), one optimal
    vertex of the LP.  Its closedness residual is O(lam_min) and
    <nu, L> = lam * v_k(z).
    """
    if sweep.divergent:
        raise DivergentSweep("sweep was flagged divergent")
    lam = sweep.lambdas[-1]
    check_subsolution(sys, lam, sweep.fields[-1], "the last rung's values")
    mu = occupation_from_policy(sys, lam, sweep.policies[-1], z, k)
    return MeasureVector(lam_tag=0.0, weights=[lam * w for w in mu.weights])


def mather_lp(sys: DiscreteSystem):
    """min <nu, L> over lam = 0 closed measures with mass at most 1.

    Always feasible (nu = 0), so the minimum is <= 0; it is >= 0 exactly
    when the system is normalized (a zero-constant ergodic certificate
    exists).  Returns (nu, minimum, dual), ``dual`` holding one entry per
    row of ``assemble_closed_constraints(sys, 0.0)``.
    """
    nu, sol = _measure_of(sys, 0.0, lp_solve(_measure_problem(sys, 0.0)))
    return nu, sol.objective_value, sol.dual


def mather_certificate(sys: DiscreteSystem, u: ValueField):
    """``mather_lp(sys)``'s (nu, minimum, dual) from a lam = 0 subsolution
    ``u``, with no LP: nu = 0, minimum 0.0 and the dual (u, 0), ``u`` on
    the closedness rows and 0 on the mass row.  None when ``u`` fails
    ``check_subsolution`` at lam = 0.

    nu = 0 is feasible with value 0, and (u, 0) is dual feasible with
    value 0, as its reduced costs L - A_0 u are the negated Bellman
    slacks.  By weak duality both are optimal (Chvatal, *Linear
    Programming*, 1983, ch. 5).  The ergodic field of a normalized system
    is such a ``u`` up to the ergodic solve's tolerance.
    """
    try:
        check_subsolution(sys, 0.0, u, "the field's values")
    except NumericalBreakdown:
        return None
    nu = MeasureVector.from_flat(sys, np.zeros(sys.total_vars), 0.0)
    return nu, 0.0, np.append(u, 0.0)


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


def face_support(sys: DiscreteSystem, A_exact, dual):
    """Weight columns of the exact face that are positive at some point
    of it, in increasing order; every other column is 0 on the whole
    face.

    A column with a positive reduced cost under ``dual``, an optimal dual
    of the Mather LP, is 0 at every optimum (complementary slackness).
    On the others the face is the cone of closed measures, A_0^T x = 0,
    cut by the mass row.  Column (i, x, a) of A_0^T is positive at most
    on its own entry i*S + x (``NumericalBreakdown`` otherwise) and sums
    to its leak sum_j eta_{a,j} >= 0, so summing the rows shows that a
    leaking column is 0 on the face.  On the rest a closed measure is a
    conserved flow from each column's own entry to its negative entries,
    and the columns positive on some such flow are those of the maximal
    end components (de Alfaro, PhD thesis, Stanford 1997; Chatterjee and
    Henzinger, SODA 2011): drop every column that leaves its strongly
    connected component until none does.  That drops a column pointing
    to an entry with no live column, as that entry has no edge out.
    """
    weights = sys.total_vars
    closed = A_exact[:-2, :weights]                # one row per field entry
    own = np.searchsorted(sys.layout.base, np.arange(weights),
                          side="right") - 1
    stray = closed > 0.0
    stray[own, np.arange(weights)] = False
    if stray.any():
        raise NumericalBreakdown("a closedness column is positive off its "
                                 "own field entry")
    reduced = A_exact[-1, :weights] - A_exact[:-1, :weights].T @ dual
    live = (reduced <= SUPPORT_TOL) & (_mass_coefficients(sys, 0.0) == 0.0)
    target, column = np.nonzero(closed < 0.0)
    while True:
        edge = live[column]
        heads, tails = own[column[edge]], target[edge]
        comp = _components(len(closed), heads, tails)
        leaves = column[edge][comp[heads] != comp[tails]]
        if len(leaves) == 0:
            return np.nonzero(live)[0]
        live[leaves] = False


def _components(n: int, heads, tails) -> np.ndarray:
    """Strongly connected component of each of n nodes under the edges
    heads[e] -> tails[e], by Tarjan's algorithm, iterative."""
    order = np.argsort(heads, kind="stable")
    succ = tails[order].tolist()
    start = np.searchsorted(heads[order], np.arange(n + 1)).tolist()
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack, count, found = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [[root, start[root]]]
        while path:
            v, e = top = path[-1]
            if e < start[v + 1]:
                top[1] += 1
                w = succ[e]
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append([w, start[w]])
                elif comp[w] < 0:                  # w is on the stack
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    comp[w] = found
                    if w == v:
                        break
                found += 1
    return np.array(comp)


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
    somewhere on it, by a reduced-cost filter under an optimal dual of the
    Mather LP and the end components of the surviving columns' graph.  The
    pruned columns are 0 on the whole face, so its vertex set is that of
    the full face.  The vertices are enumerated exactly from bases over
    the support, and the set is exhaustive; nu = 0 with the mass slack at
    1 is always one, so an enumeration that finds none raises
    ``NumericalBreakdown``.  When the support has more bases than the
    enumeration budget, ``count`` random objectives (``seed``) over the
    same pruned face give the rows instead, and the set is not exhaustive.
    Either way the rows are scattered back to full width, checked against
    the lam = 0 rule and deduplicated in total variation one array at a
    time; only the kept rows become ``MeasureVector``s.  ``mather`` is a
    (nu, minimum, dual) triple the caller already holds, from
    ``mather_lp(sys)`` or ``mather_certificate``; ``None`` solves the LP
    here.  A ``count`` below 1 raises ``BadValue`` on either path.
    """
    if count < 1:
        raise BadValue(f"face sample count must be >= 1, got {count}")
    _, min_value, dual = mather_lp(sys) if mather is None else mather
    A_exact, b_exact = exact_face(sys, min_value)
    ncols = A_exact.shape[1] - 1                        # the slack is last
    support = face_support(sys, A_exact, dual)
    A_support = A_exact[:, np.append(support, ncols)]
    try:
        vertices = enumerate_basic_solutions(A_support, b_exact, tol=1e-8)
        exhaustive = True
        if len(vertices) == 0:
            raise NumericalBreakdown("no vertex found on a face that "
                                     "holds nu = 0")
    except EnumerationTooLarge:
        vertices = _sample_face(A_support, b_exact, count, seed)
        exhaustive = False
    rows = np.zeros((len(vertices), ncols))
    rows[:, support] = vertices[:, :-1]
    validate_rows(sys, 0.0, rows)
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

    def to_dict(self) -> dict:
        return {"rung_gaps": self.rung_gaps,
                "limit_vs_selection_gap": self.limit_vs_selection_gap,
                "measure_pairing_max": max(self.measure_pairings, default=0.0),
                "pass": self.passed}


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
