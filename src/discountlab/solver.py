"""Solvers for the discounted discrete system and the ergodic problem.

The discounted system has a unique solution for every lam > 0 because
each per-policy operator is a strictly diagonally dominant M-matrix.
Two independent routes compute it:

* ``value_iterate``: lexicographic Gauss-Seidel sweeps where each state
  is solved exactly.  At a state, every control's relation is affine and
  strictly increasing in u_i(x), so the max-relation has the unique zero
  t* = min_a q_a / s_a with s_a the control's diagonal coefficient and
  q_a its frozen right-hand side.
* ``policy_iterate``: Howard's alternation of exact policy evaluation
  (a dense linear solve, or on the ergodic map's frozen systems a
  stored inverse, below) and greedy improvement, with ties broken to the
  lowest control index.  Evaluated values decrease monotonically in the
  min-cost orientation used here.  A cold start on a fine grid begins
  from the solution on the grid of N/2 points (``coarse_system``),
  reached by the same rule and linearly interpolated (``prolong``).
  Howard's method is a semismooth Newton iteration, so from there it
  needs one to four evaluations on the fine grid where the zero field
  needs about N/4 (more than ``MAX_ITER`` = 200 at N = 1024).

The ergodic suite looks for (c, u) with H_discrete[u] = c.  One sweep of
the map T freezes the coupling slot at the current u, solves the
uncoupled scalar systems

    lam*v_i(x) + max_a [ xi_a . D_h v_i(x) + eta_a . u(x) - L_i(x,a) ]
        = lam*u_i(x),

and normalizes Tu = v - min v.  A fixed point of T solves the ergodic
system exactly with c = -lam * min v; existence does not come with an
iteration guarantee, so the damped iteration reports failure instead of
accepting a stalled run.

The sweeps are warm-started: each mode's frozen scalar system is built
once per system (``DiscreteSystem.uncoupled``; only its cost changes
between sweeps, so its stencil is computed once), and each sweep's
Howard iteration starts from the greedy policy of the previous sweep's
v; from that start it needs one or two evaluations.  The first sweep
starts cold, through the coarse-grid start of ``policy_iterate``.

Those evaluations keep landing on the same few policies (two on
eikonal-f at N = 128), and a policy's matrix does not depend on the
cost.  So the frozen systems, and only they, evaluate through inverses
stored on the system (``DiscreteSystem.inverses``): each (lam, policy)
is inverted once, then every evaluation is a product with the inverse
and one refinement step.  The first evaluation of a policy inverts too,
instead of solving, so a value depends only on (lam, policy, cost) and
never on what was solved on the system before.  Every other system is
solved once per matrix with ``np.linalg.solve``, the oracle of the
inverse path: an inverse costs up to about five solves and pays only
when it is reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretize import (DiscreteSystem, Policy, ValueField,
                         bellman_residual, coarse_system, control_values,
                         drift_stencil, greedy_policy, policy_matrix,
                         policy_rows, prolong, values_at)
from .errors import (BadValue, NoConvergence, NotASubsolution,
                     NotASupersolution, SingularSystem)

SIGN_TOL = 1e-12
MAX_SWEEPS = 20000    # Gauss-Seidel sweeps of value_iterate
MAX_ITER = 200        # Howard steps of policy_iterate, per grid
INNER_TOL = 1e-12     # residual of each inner solve of the ergodic map


@dataclass
class SolveDiagnostics:
    """``iterations`` counts Gauss-Seidel sweeps, or Howard steps on the
    requested grid: the coarse solves of a cold start are left out, and
    so also from ``sweep.csv``'s ``solver_iters`` and the ``solve``
    section's ``iterations``."""

    iterations: int
    final_residual: float
    contraction_estimate: float

    def to_dict(self):
        return {"iterations": self.iterations,
                "final_residual": self.final_residual,
                "contraction_estimate": self.contraction_estimate}


@dataclass
class ErgodicResult:
    c: np.ndarray
    u: ValueField
    outer_iterations: int
    residual: float


def value_iterate(sys: DiscreteSystem, lam: float, u0: Optional[ValueField],
                  tol: float):
    """Gauss-Seidel sweeps with exact per-state solves.

    Stops when the sup norm of the Bellman residual falls below tol, and
    raises ``NoConvergence`` after ``MAX_SWEEPS`` sweeps.
    """
    if lam <= 0.0 or tol <= 0.0:
        raise BadValue("value_iterate requires lam > 0 and tol > 0")
    S = sys.num_states
    u = np.zeros((sys.m, S)) if u0 is None else np.array(u0, dtype=float)

    # frozen per-control data: s_a, upwind gathers, off-mode couplings
    per_mode = []
    for i in range(sys.m):
        mc = sys.controls[i]
        s_vec, gathers, eta_off = [], [], []
        for a in range(len(mc)):
            diag, terms = drift_stencil(sys.grid, mc.xi[a])
            s_vec.append(lam + diag + mc.eta[a, i])
            gathers.append(terms)
            off = mc.eta[a].copy()
            off[i] = 0.0
            eta_off.append(off)
        per_mode.append((np.array(s_vec), gathers, np.array(eta_off)))

    prev_norm = None
    contraction = float("nan")
    for sweep in range(1, MAX_SWEEPS + 1):
        for i in range(sys.m):
            s_vec, gathers, eta_off = per_mode[i]
            cost_i = sys.cost[i]
            ui = u[i]
            for x in range(S):
                q = cost_i[x].copy()
                for a, terms in enumerate(gathers):
                    for nbr, w in terms:
                        q[a] -= w * ui[nbr[x]]
                q -= eta_off @ u[:, x]
                ui[x] = np.min(q / s_vec)
        norm = float(np.max(np.abs(bellman_residual(sys, lam, u))))
        if prev_norm not in (None, 0.0):
            contraction = norm / prev_norm
        prev_norm = norm
        if norm <= tol:
            diag = SolveDiagnostics(sweep, norm, contraction)
            return u, diag
    diag = SolveDiagnostics(MAX_SWEEPS, prev_norm if prev_norm is not None
                            else float("inf"), contraction)
    raise NoConvergence(f"value iteration stalled at residual {diag.final_residual}",
                        diagnostics=diag)


def policy_evaluate(sys: DiscreteSystem, lam: float, policy: Policy,
                    inverses: Optional[dict] = None) -> ValueField:
    """Exact value of a stationary policy (dense solve at desk scale).

    The matrix is the policy's rows of the cached ``sys.stencil``, the
    same triplets that ``linearized_matrix`` and the measure constraints
    are summed from.  Without ``inverses`` it is factorized and solved
    once (``np.linalg.solve``).  ``inverses`` is for a system whose
    policy matrices are solved again with new costs: a dict, keyed by
    ``(lam, policy.tobytes())``, of the inverses of the matrices seen so
    far, filled on first sight.  The value is then ``inv @ rhs`` plus
    one step of iterative refinement, ``x -= inv @ r`` with r the
    policy's relations at x from ``control_values``; the refinement
    brings the residual back to the level of a direct solve.
    """
    if lam <= 0.0:
        raise BadValue("policy_evaluate requires lam > 0")
    rhs = sys.cost_flat()[policy_rows(sys, policy)]
    try:
        if inverses is None:
            flat = np.linalg.solve(policy_matrix(sys, lam, policy), rhs)
        else:
            key = (lam, policy.tobytes())
            inv = inverses.get(key)
            if inv is None:
                inv = inverses[key] = np.linalg.inv(
                    policy_matrix(sys, lam, policy))
            flat = inv @ rhs
            r = values_at(control_values(sys, lam, flat.reshape(sys.m, -1)),
                          policy)
            flat -= inv @ r.reshape(-1)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"policy evaluation failed: {exc}")
    if not np.all(np.isfinite(flat)):
        raise SingularSystem("policy evaluation produced non-finite values")
    return flat.reshape(sys.m, sys.num_states)


IMPROVE_TOL = 1e-11
COARSE_FLOOR = 16   # fewest points per axis of a coarse start's grid


def policy_iterate(sys: DiscreteSystem, lam: float, tol: float = 1e-10,
                   u0: Optional[ValueField] = None,
                   inverses: Optional[dict] = None):
    """Howard iteration: evaluate, improve greedily, repeat to stability.

    A control displaces the incumbent only when it improves the relation
    by more than a small hysteresis; exact ties otherwise go to the
    lowest index.  This keeps roundoff-level ties from cycling the
    policy while leaving every genuine improvement intact.

    The first policy is greedy for ``u0``.  ``u0=None`` is a cold start
    (``_coarse_start``): from the solution on the grid of N/2 points
    where that grid has at least ``COARSE_FLOOR`` points per axis, else
    from the zero field.  The diagnostics count the steps on this grid;
    more than ``MAX_ITER`` of them raise ``NoConvergence``.
    ``inverses`` goes to the evaluations on this grid (``policy_evaluate``);
    the coarse solves of a cold start are one-shot and never use it.
    """
    if lam <= 0.0 or not tol >= 0.0:
        raise BadValue("policy_iterate requires lam > 0 and tol >= 0")
    base = _coarse_start(sys, lam, tol) if u0 is None else np.asarray(u0)
    policy = greedy_policy(control_values(sys, lam, base))
    last_norm = float("inf")
    for it in range(1, MAX_ITER + 1):
        u = policy_evaluate(sys, lam, policy, inverses)
        vals = control_values(sys, lam, u)
        greedy = greedy_policy(vals)
        best = values_at(vals, greedy)
        last_norm = float(np.max(np.abs(best)))
        if last_norm <= tol:
            diag = SolveDiagnostics(it, last_norm, float("nan"))
            return u, policy, diag
        take = best > values_at(vals, policy) + IMPROVE_TOL
        if not np.any(take):
            diag = SolveDiagnostics(it, last_norm, float("nan"))
            if last_norm <= max(10.0 * tol, 10.0 * IMPROVE_TOL):
                return u, policy, diag
            raise NoConvergence(
                f"stable policy with residual {last_norm}", diagnostics=diag)
        policy = np.where(take, greedy, policy)
    diag = SolveDiagnostics(MAX_ITER, last_norm, float("nan"))
    raise NoConvergence("policy iteration exceeded MAX_ITER", diagnostics=diag)


def _coarse_start(sys: DiscreteSystem, lam: float, tol: float) -> ValueField:
    """Start of a cold Howard iteration: the solution on the grid of N/2
    points, reached by the same rule and interpolated to this grid, or
    the zero field when N is odd or N/2 < COARSE_FLOOR."""
    N = sys.grid.N
    if N % 2 or N // 2 < COARSE_FLOOR:
        return np.zeros((sys.m, sys.num_states))
    coarse = coarse_system(sys)
    u, _, _ = policy_iterate(coarse, lam, tol=tol)
    return prolong(u, coarse.grid)


def comparison_check(sys: DiscreteSystem, lam: float, sub: ValueField,
                     sup: ValueField) -> bool:
    """Order test behind the comparison principle.

    Requires residual(sub) <= 0 and residual(sup) >= 0 componentwise
    (within a sign tolerance); then reports whether sub <= sup holds
    everywhere.  For valid inputs the discrete comparison principle makes
    the answer always True; False is a certified counterexample.
    """
    r_sub = bellman_residual(sys, lam, sub)
    if float(np.max(r_sub)) > SIGN_TOL:
        raise NotASubsolution(f"max residual {float(np.max(r_sub))} > 0")
    r_sup = bellman_residual(sys, lam, sup)
    if float(np.min(r_sup)) < -SIGN_TOL:
        raise NotASupersolution(f"min residual {float(np.min(r_sup))} < 0")
    return bool(np.all(sub <= sup + SIGN_TOL))


# ---------------------------------------------------------------------------
# ergodic problem
# ---------------------------------------------------------------------------

def ergodic_map(sys: DiscreteSystem, lam: float, u: ValueField,
                v0: Optional[ValueField] = None):
    """One application of T: solve the frozen scalar systems, normalize.

    Mode i's scalar system is ``sys.uncoupled[i]`` with the coupling slot
    frozen at u, i.e. with the cost
    cost'(x, a) = L_i(x, a) - eta_a . u(x) + lam * u_i(x);
    its solution, to a residual of ``INNER_TOL``, is the v_i of the map
    T; its evaluations reuse the inverses stored on the frozen system.
    Returns (v, Tu, c_est) with Tu = v - min v per mode and
    c_est = -lam * min_x v_i.  ``v0``, when given, is the starting field
    of the inner Howard iterations (mode i starts from the greedy policy
    of v0[i]); ``None`` starts them cold, as ``policy_iterate`` does with
    ``u0=None``.
    """
    if lam <= 0.0:
        raise BadValue("ergodic map requires lam > 0")
    v = np.empty((sys.m, sys.num_states))
    for i, scalar in enumerate(sys.uncoupled):
        eta = sys.controls[i].eta
        scalar.cost[0] = sys.cost[i] - (u.T @ eta.T) + lam * u[i][:, None]
        start = None if v0 is None else v0[i][None, :]
        vi, _, _ = policy_iterate(scalar, lam, tol=INNER_TOL, u0=start,
                                  inverses=scalar.inverses)
        v[i] = vi[0]
    mins = v.min(axis=1)
    return v, v - mins[:, None], -lam * mins


def ergodic_solve(sys: DiscreteSystem, lam: float, tol: float = 1e-8,
                  damping: float = 0.5,
                  max_outer: int = 20000) -> ErgodicResult:
    """Damped fixed-point iteration of T.

    Iterates u <- (1 - damping) u + damping Tu until |Tu - u| <= tol in
    sup norm (tol >= 0), then reports c = -lam * min v from the final
    sweep together with the direct residual |H_discrete[u] - c| (checked
    against 10*tol by the caller's tests; recorded here).  Each sweep after the first
    warm-starts its inner solves from the previous sweep's v.
    Non-convergence raises: the fixed point exists but nothing guarantees
    this iteration finds it.  The ``NoConvergence`` carries the list of
    per-sweep gaps |Tu - u| as ``.diagnostics``.
    """
    if not (0.0 < damping <= 1.0):
        raise BadValue("damping must lie in (0, 1]")
    if lam <= 0.0 or not tol >= 0.0:
        raise BadValue("ergodic_solve requires lam > 0 and tol >= 0")
    u = np.zeros((sys.m, sys.num_states))
    v, gaps = None, []
    for outer in range(1, max_outer + 1):
        v, tu, c_est = ergodic_map(sys, lam, u, v0=v)
        gap = float(np.max(np.abs(tu - u)))
        gaps.append(gap)
        if gap <= tol:
            residual = float(np.max(np.abs(
                bellman_residual(sys, 0.0, tu) - c_est[:, None])))
            return ErgodicResult(c=c_est, u=tu, outer_iterations=outer,
                                 residual=residual)
        u = (1.0 - damping) * u + damping * tu
    raise NoConvergence(f"ergodic iteration gap above {tol} after "
                        f"{max_outer} sweeps", diagnostics=gaps)
