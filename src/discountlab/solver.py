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
  lowest control index.  Each call builds one ``Relations`` kernel for
  its (system, lam): every Howard step applies it once, to the evaluated
  field, and reads the residual, the greedy policy and the incumbent's
  relations off that one flat vector.  A cold start on a fine grid
  begins from the solution on the grid of N/2 points (``coarse_system``),
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
iteration guarantee, so the iteration reports failure instead of
accepting a stalled run.  T is close to idempotent, so the damped step
u <- (1 - damping) u + damping Tu only halves the gap |Tu - u| per sweep
at the default damping; ``ergodic_solve`` mixes in the last
``ANDERSON_DEPTH`` sweeps' differences instead (Anderson mixing), with
the damped step as its restart: 6 sweeps instead of 30 on eikonal-f at
N = 128 and lam = 0.01, and 15 instead of 40 on quadratic-plc at N = 8
and lam = 0.05 (tol 1e-9 and 1e-12).

The sweeps are warm-started: each mode's frozen scalar system is built
once per system (``DiscreteSystem.uncoupled``; only its cost changes
between sweeps), and each sweep's Howard iteration starts from the
greedy policy of the previous sweep's v, from where it needs one or two
evaluations.  The first sweep starts cold.  Those evaluations keep
landing on the same few policies, and a policy's matrix does not depend
on the cost, so the frozen systems, and only they, evaluate through
inverses stored on the system (``DiscreteSystem.inverses``, None on every
other system).  Each (lam, policy) gets its inverse once, on first sight:
by a low-rank (Woodbury) update of the newest cached inverse when that
one is at lam and few field entries changed since its last inversion,
otherwise by ``np.linalg.inv``.  A value therefore depends on (lam,
policy, cost) and, in the last bits, on the order of the inverses the
solve had cached before it: the same run repeats bit for bit, but one
policy evaluated after another history may differ at roundoff.  Every
other system, coarse copies of a frozen one included, is solved once per
matrix with ``np.linalg.solve``, the oracle of the inverse path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .discretize import (DiscreteSystem, Policy, Relations, ValueField,
                         _linearized_rows, bellman_residual,
                         coarse_system, drift_stencil, policy_matrix,
                         policy_rows, prolong)
from .errors import (BadValue, NoConvergence, NotASubsolution,
                     NotASupersolution, SingularSystem)

SIGN_TOL = 1e-12
MAX_SWEEPS = 20000    # Gauss-Seidel sweeps of value_iterate
MAX_ITER = 200        # Howard steps of policy_iterate, per grid
INNER_TOL = 1e-12     # residual of each inner solve of the ergodic map
ANDERSON_DEPTH = 3    # sweeps of history in ergodic_solve's mixing step
# Work done in this process so far, read by difference (manifest.json).
WORK = {"howard_steps": 0, "policy_evaluations": 0, "inversions": 0,
        "inverse_updates": 0, "ergodic_sweeps": 0}


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
        return asdict(self)


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
    if not lam > 0.0 or not tol > 0.0:
        raise BadValue("value_iterate requires lam > 0 and tol > 0")
    S = sys.num_states
    u = np.zeros((sys.m, S)) if u0 is None else np.array(u0, dtype=float)

    # frozen per-control data: s_a, upwind gathers, off-mode couplings
    per_mode = []
    for i, mc in enumerate(sys.controls):
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
            return u, SolveDiagnostics(sweep, norm, contraction)
    diag = SolveDiagnostics(MAX_SWEEPS, prev_norm, contraction)
    raise NoConvergence(f"value iteration stalled at residual {diag.final_residual}",
                        diagnostics=diag)


def policy_evaluate(sys: DiscreteSystem, lam: float, policy: Policy,
                    relations: Optional[Relations] = None) -> ValueField:
    """Exact value of a stationary policy (dense solve at desk scale).

    The matrix is the policy's rows of the cached ``sys.stencil``, the
    same triplets that ``linearized_matrix`` and the measure constraints
    are summed from, with the lam-shifted values that ``relations``
    holds.  When ``sys.inverses`` is None it is factorized and solved
    once (``np.linalg.solve``).  A system whose policy matrices
    are solved again with new costs (``DiscreteSystem.uncoupled``)
    carries a dict there, keyed by ``(lam, policy.tobytes())``, of the
    inverses of the matrices seen so far, filled on first sight by
    ``_policy_inverse`` (a low-rank update of the newest cached inverse
    when it is at lam and its policy is close, else a full inversion),
    each with its count of entries changed since a full inversion.
    The value is then ``inv @ rhs`` plus one step of iterative
    refinement, ``x -= inv @ r`` with r the policy's rows of
    ``relations.apply(x)``; the refinement brings the residual back to
    the level of a direct solve.  ``relations``, the
    ``Relations(sys, lam)`` kernel that also gives the right-hand side,
    is built here when not given.
    """
    if not lam > 0.0:
        raise BadValue("policy_evaluate requires lam > 0")
    WORK["policy_evaluations"] += 1
    rel = Relations(sys, lam) if relations is None else relations
    rows = policy_rows(sys, policy)
    rhs = rel.cost[rows]
    try:
        if sys.inverses is None:
            flat = np.linalg.solve(policy_matrix(sys, lam, policy, rel.vals),
                                   rhs)
        else:
            key = (lam, policy.tobytes())
            if key not in sys.inverses:
                sys.inverses[key] = _policy_inverse(sys, lam, policy,
                                                    rel.vals)
            inv, _ = sys.inverses[key]
            flat = inv @ rhs
            flat -= inv @ rel.apply(flat)[rows]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"policy evaluation failed: {exc}")
    if not np.isfinite(flat).all():
        raise SingularSystem("policy evaluation produced non-finite values")
    return flat.reshape(sys.m, sys.num_states)


def _policy_inverse(sys: DiscreteSystem, lam: float, policy: Policy,
                    vals: np.ndarray):
    """Inverse of the policy matrix on a system that carries ``inverses``,
    and how many field entries changed since its last full inversion.

    The newest cached inverse inv0 (the dict keeps insertion order), c
    entries away from its own inversion, is updated when it is at lam, for
    a policy of this length that differs from this one in k field entries
    r with UPDATE_RATIO * (c + k) < S: with D this policy's rows r less
    inv0's, the Woodbury identity gives inv0 - inv0[:, r]
    (I + D inv0[:, r])^-1 D inv0 in O(k S^2) (singular only with the
    policy matrix: ``LinAlgError``).  The bound on c + k caps the chain
    of updates, and the roundoff it gathers, between two inversions.
    Otherwise the matrix is built and inverted (c = 0).  Both sum the
    lam-shifted stencil values ``vals`` of the caller's ``Relations``.
    """
    flat = policy.ravel()
    r = None
    if sys.inverses:
        (lam0, key0), (inv0, changed) = next(reversed(sys.inverses.items()))
        if lam0 == lam and len(key0) == flat.nbytes:
            old = np.frombuffer(key0, dtype=flat.dtype)
            r = np.flatnonzero(old != flat)
    if r is None or UPDATE_RATIO * (changed + len(r)) >= flat.size:
        WORK["inversions"] += 1
        return np.linalg.inv(policy_matrix(sys, lam, policy, vals)), 0
    WORK["inverse_updates"] += 1
    d = _linearized_rows(sys, lam, policy_rows(sys, policy)[r], vals) - \
        _linearized_rows(sys, lam, policy_rows(sys, old)[r], vals)
    left = inv0[:, r]
    return inv0 - left @ np.linalg.solve(np.eye(len(r)) + d @ left,
                                         d @ inv0), changed + len(r)


IMPROVE_TOL = 1e-11
COARSE_FLOOR = 16   # fewest points per axis of a coarse start's grid
UPDATE_RATIO = 8    # updates while 8 * (entries changed since inversion) < S


def policy_iterate(sys: DiscreteSystem, lam: float, tol: float = 1e-10,
                   u0: Optional[ValueField] = None):
    """Howard iteration: evaluate, improve greedily, repeat to stability.

    A control displaces the incumbent only when it improves the relation
    by more than a small hysteresis; exact ties otherwise go to the
    lowest index.  This keeps roundoff-level ties from cycling the
    policy while leaving every genuine improvement intact.

    The first policy is greedy for ``u0``.  ``u0=None`` is a cold start
    (``_coarse_start``): from the solution on the grid of N/2 points
    where that grid has at least ``COARSE_FLOOR`` points per axis, else
    from the zero field.  The diagnostics count the steps on this grid;
    more than ``MAX_ITER`` of them raise ``NoConvergence``.  The coarse
    copy of a cold start has no ``inverses``, so its solves stay dense.
    """
    if not lam > 0.0 or not tol >= 0.0:
        raise BadValue("policy_iterate requires lam > 0 and tol >= 0")
    base = _coarse_start(sys, lam, tol) if u0 is None else np.asarray(u0)
    rel = Relations(sys, lam)
    policy = rel.greedy(rel.apply(base))
    for it in range(1, MAX_ITER + 1):
        WORK["howard_steps"] += 1
        u = policy_evaluate(sys, lam, policy, rel)
        vals = rel.apply(u)
        greedy = rel.greedy(vals)
        best = rel.at(vals, greedy)
        last_norm = float(np.abs(best).max())
        diag = SolveDiagnostics(it, last_norm, float("nan"))
        if last_norm <= tol:
            return u, policy, diag
        take = best > rel.at(vals, policy) + IMPROVE_TOL
        if not take.any():
            if last_norm <= max(10.0 * tol, 10.0 * IMPROVE_TOL):
                return u, policy, diag
            raise NoConvergence(
                f"stable policy with residual {last_norm}", diagnostics=diag)
        policy = np.where(take, greedy, policy)
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
    if not lam > 0.0:
        raise BadValue("ergodic map requires lam > 0")
    v = np.empty((sys.m, sys.num_states))
    for i, scalar in enumerate(sys.uncoupled):
        eta = sys.controls[i].eta
        scalar.cost[0] = sys.cost[i] - (u.T @ eta.T) + lam * u[i][:, None]
        start = None if v0 is None else v0[i][None, :]
        vi, _, _ = policy_iterate(scalar, lam, tol=INNER_TOL, u0=start)
        v[i] = vi[0]
    mins = v.min(axis=1)
    return v, v - mins[:, None], -lam * mins


def ergodic_solve(sys: DiscreteSystem, lam: float, tol: float = 1e-8,
                  damping: float = 0.5,
                  max_outer: int = 20000) -> ErgodicResult:
    """Anderson-mixed fixed-point iteration of T.

    With f = Tu - u, each sweep steps to u + b f - (dX + b dF) g, where b
    is ``damping``, the columns of dX and dF are the differences of u and
    of f over the last ``ANDERSON_DEPTH`` sweeps, and g solves the k x k
    normal equations (dF^T dF) g = dF^T f (Walker & Ni, SIAM J. Numer.
    Anal. 49, 2011).  With no history this is the damped step
    u <- (1 - b) u + b Tu, which is also taken, with the history cleared,
    when the gap rose against the previous sweep, the normal equations
    are singular or g is not finite: the restart safeguard for a map
    that is only nonexpansive (Zhang, O'Donoghue & Boyd, SIAM J. Optim.
    30, 2020).  The iteration stops when |Tu - u| <= tol in sup norm
    (tol >= 0), then reports c = -lam * min v from the final sweep
    together with the direct residual |H_discrete[u] - c| (checked
    against 10*tol by the caller's tests; recorded here).  Each sweep
    after the first warm-starts its inner solves from the previous
    sweep's v.  Non-convergence raises: the fixed point exists but
    nothing guarantees this iteration finds it.  The ``NoConvergence``
    carries the list of per-sweep gaps |Tu - u| as ``.diagnostics``.
    """
    if not (0.0 < damping <= 1.0):
        raise BadValue("damping must lie in (0, 1]")
    if not lam > 0.0 or not tol >= 0.0:
        raise BadValue("ergodic_solve requires lam > 0 and tol >= 0")
    u = np.zeros((sys.m, sys.num_states))
    v, gaps = None, []
    dx, df, last = [], [], None   # mixing history; last = (u, f) before
    for outer in range(1, max_outer + 1):
        WORK["ergodic_sweeps"] += 1
        v, tu, c_est = ergodic_map(sys, lam, u, v0=v)
        f = (tu - u).ravel()
        gap = float(np.abs(f).max())
        gaps.append(gap)
        if gap <= tol:
            residual = float(np.max(np.abs(
                bellman_residual(sys, 0.0, tu) - c_est[:, None])))
            return ErgodicResult(c=c_est, u=tu, outer_iterations=outer,
                                 residual=residual)
        if last is None or gap > gaps[-2]:
            dx, df = [], []
        else:
            dx = (dx + [u.ravel() - last[0]])[-ANDERSON_DEPTH:]
            df = (df + [f - last[1]])[-ANDERSON_DEPTH:]
        last = u.ravel(), f
        step = _anderson_step(f, dx, df, damping) if df else None
        if step is None:
            dx, df = [], []
            u = (1.0 - damping) * u + damping * tu
        else:
            u = u + step.reshape(u.shape)
    raise NoConvergence(f"ergodic iteration gap above {tol} after "
                        f"{max_outer} sweeps", diagnostics=gaps)


def _anderson_step(f, dx, df, damping):
    """The mixing step ``damping f - (dX + damping dF) g`` of
    ``ergodic_solve``, rows of dX and dF the listed differences; None
    when the normal equations give no finite g."""
    dF = np.array(df)
    try:
        g = np.linalg.solve(dF @ dF.T, dF @ f)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(g).all():
        return None
    return damping * f - g @ (np.array(dx) + damping * dF)
