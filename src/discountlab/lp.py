"""Dense linear programming kernel.

A small two-phase primal simplex on the standard form

    min c.x   s.t.   A x = b,  x >= 0,

with free variables split into differences of nonnegative parts and
inequality rows slacked.  Dantzig pricing runs first, with Harris's
two-pass ratio test (Harris, Math. Programming 5, 1973): the leaving row
is the one with the largest pivot among the rows whose ratio stays
within the step that keeps every basic value above -``FEAS_TOL``, so a
tiny pivot is never taken when a larger one is nearly as good.  After
2 * (rows + cols) iterations the kernel switches to Bland's least-index
rule, on the exact minimum ratio, which guarantees termination.  Every
Optimal return is certified: the final point is re-solved from the final
basis, and the primal feasibility and complementary slackness residuals
are checked against fixed bounds before the solution is handed back.

Every Optimal solution also hands back its final basis, and ``lp_solve``
accepts one as a start.  An optimal basis stays dual feasible whatever
the right-hand side, so a problem that differs only in ``b`` starts
phase 2 from it and is optimal after 0 pivots whenever the basis is
primal feasible for the new ``b``.  A basis that is singular or primal
infeasible for the problem takes the cold two-phase path instead.
Each ``lp_solve`` certifies one right-hand side; a caller that needs
the points of many on one optimal basis solves that basis itself, as
``measures`` does for the lam > 0 measures on a policy basis.

Problems here are desk scale (a few hundred rows and columns): the
revised simplex keeps A and X = [B^-1 | x_B] dense, a pivot updates X
alone, and every basis is factorized by ``np.linalg.solve``.  Exact
vertex answers feed the basis enumeration used as an independent oracle.

An Infeasible return carries a Farkas certificate in ``ray``: the
phase-1 duals, mapped to the original rows, give y with A^T y <= 0
(= 0 on free columns), y <= 0 on every '<=' row and b.y > 0, which no
point satisfying the rows can meet (Chvatal, *Linear Programming*, 1983,
ch. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

import numpy as np

from .errors import EnumerationTooLarge, NumericalBreakdown

FEAS_TOL = 1e-9
CS_TOL = 1e-8
PIVOT_TOL = 1e-12
OPT_TOL = 1e-9
REFACTOR_EVERY = 150
MAX_BASES = 3_000_000       # most column subsets one enumeration solves
ENUM_CHUNK = 65536          # column subsets solved per vectorized batch
# Work done in this process so far, read by difference (manifest.json).
WORK = {"lp_solves": 0, "pivots": 0, "phase1_pivots": 0,
        "refactorizations": 0}

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass
class LPProblem:
    """min c.x subject to row senses ('=' or '<=') and x >= 0 unless free."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: list
    free: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        rows, cols = self.A.shape
        if self.c.shape != (cols,) or self.b.shape != (rows,):
            raise ValueError("inconsistent LP dimensions")
        if len(self.senses) != rows:
            raise ValueError("one sense per row required")
        if any(s not in ("=", "<=") for s in self.senses):
            raise ValueError("senses must be '=' or '<='")
        if self.free is None:
            self.free = np.zeros(cols, dtype=bool)
        else:
            self.free = np.asarray(self.free, dtype=bool)
            if self.free.shape != (cols,):
                raise ValueError("free flags must match column count")


@dataclass
class LPSolution:
    status: str
    x: Optional[np.ndarray]
    objective_value: float
    dual: Optional[np.ndarray]
    iterations: int
    feasibility_residual: float = math.nan
    slackness_residual: float = math.nan
    ray: Optional[np.ndarray] = None
    # Final basis of an Optimal solution: the standard-form column basic
    # in each constraint row, -1 on a row dropped as redundant.
    basis: Optional[np.ndarray] = None
    # Kernel work: basis factorizations (a failed warm start's included),
    # the pivots of phase 1 (counted in ``iterations`` too), and whether
    # any pivot was chosen by Bland's rule.
    refactorizations: int = 0
    phase1_iterations: int = 0
    bland: bool = False


def lp_solve(problem: LPProblem,
             basis: Optional[np.ndarray] = None) -> LPSolution:
    """Two-phase revised primal simplex with certified returns.

    ``basis`` is the ``LPSolution.basis`` of a problem with the same
    constraint matrix and senses.  Phase 2 then starts from it, skipping
    phase 1: after 0 pivots when the costs are the same too, else from a
    feasible vertex instead of from scratch.  When the basis is singular
    or not primal feasible for this ``b``, the cold two-phase path runs
    instead.  ``None`` is the cold path.
    """
    WORK["lp_solves"] += 1
    std = _Standardized(problem)
    budget = 200 * sum(std.A.shape) + 20000
    state = None if basis is None else _warm_start(std, basis)
    failed_warm = int(basis is not None and state is None)

    phase1 = 0
    if state is None:
        state = _Revised(std)
        if std.needs_phase1:
            cost1 = np.zeros(std.A.shape[1])
            cost1[std.artificial] = 1.0
            status, phase1 = state.run(cost1, budget)
            WORK["phase1_pivots"] += phase1
            if status == UNBOUNDED:
                raise NumericalBreakdown("phase 1 reported unbounded")
            if state.objective(cost1) > FEAS_TOL:
                B = std.A[:, state.basis]
                y = state.basic_solve(B, cost1[state.basis], transpose=True)
                return LPSolution(INFEASIBLE, None, math.nan, None, phase1,
                                  ray=std.dual_to_original(y, state.kept_rows),
                                  **state.counters(phase1, failed_warm))
            state.purge_artificials(std.artificial)

    status, iterations = state.run(std.c, budget, start_iter=phase1)
    counters = state.counters(phase1, failed_warm)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, -math.inf, None, iterations,
                          ray=std.to_original(state.ray), **counters)
    return _certified(problem, std, state, iterations, counters)


def _certified(problem, std, state, iterations, counters) -> LPSolution:
    """The Optimal solution on ``state``'s final basis, re-solved from B:
    one solve on B gives the basic values and one on B^T the duals.
    ``NumericalBreakdown`` unless primal feasibility, on every row of
    ``problem`` (the rows the basis dropped as redundant included) and on
    the bounds, and complementary slackness pass their bounds.
    """
    B = std.A[np.ix_(state.kept_rows, state.basis)]
    xB = state.basic_solve(B, std.b[state.kept_rows])
    y_kept, red = state.duals(std, B)
    real = state.basis < len(std.orig)          # no slack, no artificial
    support = std.orig[state.basis[real]]
    x = np.zeros(std.n_orig)
    x[support] = 0.0 + std.sign[state.basis[real]] * xB[real]
    feas = _primal_residual(problem, x, support, std.equality)
    slack = float(np.max(np.abs(xB * red[state.basis]), initial=0.0))
    if feas > FEAS_TOL or slack > CS_TOL:
        raise NumericalBreakdown(f"certification failed: feasibility "
                                 f"{feas:.3e}, slackness {slack:.3e}")
    final = np.full(len(std.b), -1)
    final[state.kept_rows] = state.basis
    return LPSolution(OPTIMAL, x, float(x @ problem.c),
                      std.dual_to_original(y_kept, state.kept_rows),
                      iterations, feasibility_residual=feas,
                      slackness_residual=slack, basis=final, **counters)


def _warm_start(std: "_Standardized", basis):
    """Phase-2 kernel refactorized on a handed-back basis, or ``None``
    when that basis is singular or primal infeasible for ``std.b``,
    including on a row it drops as redundant."""
    basis = np.asarray(basis)
    rows, cols = std.A.shape
    real = cols - int(std.artificial.sum())     # artificials come last
    if basis.shape != (rows,) or not np.issubdtype(basis.dtype, np.integer) \
            or np.any(basis < -1) or np.any(basis >= real):
        raise ValueError("basis does not fit this problem's standard form")
    state = _Revised(std, np.maximum(basis, 0))
    state.restrict(basis >= 0, basis >= 0, std.artificial)
    try:
        state.refactor()
    except NumericalBreakdown:
        return None
    dropped = basis < 0
    residual = std.A[np.ix_(dropped, state.basis)] @ state.X[:, -1] \
        - std.b[dropped]
    if float(np.max(np.abs(residual), initial=0.0)) > FEAS_TOL:
        return None
    return state


class _Standardized:
    """Original problem mapped to equality standard form.

    Columns: each original column in order, a free one followed by its
    negated copy; then one slack per '<=' row, in row order; then one
    artificial per row that has no slack left in the basis.  Rows with a
    negative right-hand side are negated (slack entry included) before
    the artificials are appended.
    """

    def __init__(self, p: LPProblem):
        rows, cols = p.A.shape
        doubled = 1 + p.free.astype(int)
        self.orig = np.repeat(np.arange(cols), doubled)   # original column
        self.sign = np.ones(len(self.orig))
        self.sign[np.cumsum(doubled)[p.free] - 1] = -1.0  # negated copies
        self.equality = np.array([s == "=" for s in p.senses], dtype=bool)
        slack_rows = np.flatnonzero(~self.equality)
        slacks = np.zeros((rows, len(slack_rows)))
        slacks[slack_rows, np.arange(len(slack_rows))] = 1.0
        A = np.hstack([p.A[:, self.orig] * self.sign, slacks])
        c = np.concatenate([p.c[self.orig] * self.sign,
                            np.zeros(len(slack_rows))])
        b = p.b.astype(float).copy()

        flip = b < 0.0
        A[flip] *= -1.0
        b[flip] *= -1.0
        self.row_sign = np.where(flip, -1.0, 1.0)

        basis = np.full(rows, -1, dtype=int)
        kept = ~flip[slack_rows]
        basis[slack_rows[kept]] = len(self.orig) + np.nonzero(kept)[0]
        need_art = np.nonzero(basis < 0)[0]
        n_real = A.shape[1]
        self.artificial = np.zeros(n_real + len(need_art), dtype=bool)
        self.artificial[n_real:] = True
        if len(need_art):
            art_cols = np.zeros((rows, len(need_art)))
            art_cols[need_art, np.arange(len(need_art))] = 1.0
            basis[need_art] = n_real + np.arange(len(need_art))
            A = np.hstack([A, art_cols])
            c = np.concatenate([c, np.zeros(len(need_art))])
        self.needs_phase1 = bool(len(need_art))
        self.A, self.b, self.c, self.basis = A, b, c, basis
        self.n_orig = cols

    def to_original(self, x_std) -> np.ndarray:
        n = len(self.orig)
        return np.bincount(self.orig, weights=self.sign * x_std[:n],
                           minlength=self.n_orig)

    def dual_to_original(self, y_kept, kept_rows) -> np.ndarray:
        y = np.zeros(len(self.row_sign))
        y[kept_rows] = self.row_sign[kept_rows] * y_kept
        return y


class _Revised:
    """Revised simplex over a fixed standard-form matrix.

    The kernel keeps the standard-form matrix A, in row order for pricing
    and transposed once for reading columns, and one array
    X = [B^-1 | x_B] (rows x rows+1), so a pivot is one rank-1 update of
    X, not of a rows x cols tableau (Chvatal, *Linear Programming*, 1983,
    ch. 7).  Pricing forms y = c_B B^-1 and then c - y A; the entering
    column B^-1 a_q feeds the ratio test and the unbounded ray.  The
    leaving row is chosen by Harris's ratio test under Dantzig pricing and
    by the exact minimum ratio, least basic index first, under Bland's
    rule.  X is rebuilt by one dense solve on B every ``REFACTOR_EVERY``
    pivots and before any optimality verdict, so accumulated pivot drift
    can neither stall Bland's rule on noise reduced costs nor produce a
    false optimum.
    """

    def __init__(self, std: "_Standardized", basis=None):
        self.A = std.A.copy()           # priced by rows: y A
        self.AT = std.A.T.copy()        # read by columns: B^-1 a_q
        self.eye_b = np.eye(len(std.b), len(std.b) + 1)    # [I | b]
        self.eye_b[:, -1] = std.b
        self.X = self.eye_b.copy()      # the cold start basis is I
        self.basis = (std.basis if basis is None else basis).astype(int)
        self.artificial = std.artificial
        self.bland_after = 2 * sum(std.A.shape)
        self.kept_rows = np.arange(std.A.shape[0])
        self.ray = None
        self.pivots_since_refactor = 0
        self.refactorizations = 0
        self.bland = False

    def counters(self, phase1, failed_warm):
        return {"refactorizations": self.refactorizations + failed_warm,
                "phase1_iterations": phase1, "bland": self.bland}

    def column(self, q):
        """The entering column B^-1 a_q."""
        return self.X[:, :-1] @ self.AT[q]

    def _pivot(self, row, col, d):
        """Enter ``col`` at ``row``; ``d`` is ``column(col)``, overwritten.
        An artificial that leaves has its column zeroed, so it never prices
        back in."""
        if self.artificial[self.basis[row]]:
            self.A[:, self.basis[row]] = 0.0
            self.AT[self.basis[row]] = 0.0
        self.X[row] /= d[row]
        d[row] = 0.0
        self.X -= d[:, None] * self.X[row]
        self.basis[row] = col
        self.pivots_since_refactor += 1

    def refactor(self):
        """Rebuild X by one solve on the current basis of the original A."""
        self.refactorizations += 1
        WORK["refactorizations"] += 1
        try:
            self.X = np.linalg.solve(self.A[:, self.basis], self.eye_b)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"refactorization failed: {exc}")
        rhs = self.X[:, -1]
        if float(rhs.min(initial=0.0)) < -FEAS_TOL:
            raise NumericalBreakdown("refactorization lost feasibility")
        np.maximum(rhs, 0.0, out=rhs)
        self.pivots_since_refactor = 0

    def objective(self, c):
        return float(c[self.basis] @ self.X[:, -1])

    def entering(self, c, it):
        """The column to enter at iteration ``it`` under costs ``c``, or -1
        when no reduced cost is below -OPT_TOL."""
        red = c - (c[self.basis] @ self.X[:, :-1]) @ self.A
        red[self.basis] = 0.0
        if it >= self.bland_after:
            negs = (red < -OPT_TOL).nonzero()[0]
            return int(negs[0]) if len(negs) else -1
        cand = int(red.argmin())
        return cand if red[cand] < -OPT_TOL else -1

    def run(self, c, budget, start_iter=0):
        it = start_iter
        while True:
            if self.pivots_since_refactor >= REFACTOR_EVERY:
                self.refactor()
            enter = self.entering(c, it)
            if enter < 0:
                if self.pivots_since_refactor == 0:
                    return OPTIMAL, it
                self.refactor()
                continue
            col = self.column(enter)
            eligible = (col > 1e-9).nonzero()[0]
            if len(eligible) == 0:
                eligible = (col > PIVOT_TOL).nonzero()[0]
            if len(eligible) == 0:
                self.ray = np.zeros(len(self.AT))
                self.ray[enter] = 1.0
                self.ray[self.basis] = -col
                return UNBOUNDED, it
            alpha, rhs = col[eligible], self.X[eligible, -1]
            ratios = rhs / alpha
            if it >= self.bland_after:
                ties = eligible[ratios <= ratios.min() + 1e-12]
                leave = int(ties[self.basis[ties].argmin()])
            else:
                # Harris: the largest pivot among rows whose ratio is within
                # the step that keeps every basic value above -FEAS_TOL
                near = ratios <= ((rhs + FEAS_TOL) / alpha).min()
                leave = int(eligible[near][alpha[near].argmax()])
            self._pivot(leave, enter, col)
            self.bland |= it >= self.bland_after
            it += 1
            WORK["pivots"] += 1
            if it - start_iter > budget:
                raise NumericalBreakdown(
                    f"simplex exceeded {budget} iterations")

    def purge_artificials(self, artificial):
        """Pivot zero-level artificials out of the basis, dropping each
        whose row of B^-1 A is zero off the artificials, with the
        constraint row it belongs to (a redundant row)."""
        keep, rows = np.ones((2, len(self.basis)), dtype=bool)
        for r in range(len(self.basis)):
            if not artificial[self.basis[r]]:
                continue
            row = np.where(artificial, 0.0, np.abs(self.X[r, :-1] @ self.A))
            best = int(row.argmax())
            if row[best] > 1e-7:
                self._pivot(r, best, self.column(best))
            else:
                keep[r] = False
                rows[self.AT[self.basis[r]].argmax()] = False
        self.restrict(keep, rows, artificial)

    def restrict(self, keep, rows, artificial):
        """Keep the basis positions flagged in ``keep`` and the constraint
        rows flagged in ``rows``; artificials never price back in.  X stays
        exact when each dropped position holds a dropped row's artificial;
        else a refactor must follow."""
        if not keep.all():
            with_rhs = np.append(rows, True)
            self.X = self.X[np.ix_(keep, with_rhs)]
            self.eye_b = self.eye_b[np.ix_(rows, with_rhs)]
            self.A = self.A[rows]
            self.AT = self.AT[:, rows]
            self.basis = self.basis[keep]
            self.kept_rows = self.kept_rows[rows]
        self.A[:, artificial] = 0.0
        self.AT[artificial] = 0.0

    def basic_solve(self, B, rhs, transpose=False):
        """Fresh solve on the basis matrix ``B`` (the kept rows and basic
        columns of the standard form), not on X: B^-1 rhs, or B^-T rhs."""
        try:
            return np.linalg.solve(B.T if transpose else B, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"final basis is singular: {exc}")

    def duals(self, std, B):
        """Row duals y = B^-T c_B on the kept rows, and the reduced costs
        c - A^T y over every standard-form column."""
        y = self.basic_solve(B, std.c[self.basis], transpose=True)
        return y, std.c - std.A[self.kept_rows].T @ y


def _primal_residual(p: LPProblem, x, support, equality) -> float:
    """Worst violation of ``p``'s rows and bounds at ``x``, which is 0 off
    the columns ``support``; ``equality`` flags ``p``'s '=' rows."""
    res = p.A[:, support] @ x[support] - p.b
    # '<=' rows count only their excess.  As in a max over the rows from
    # 0.0, a NaN row is skipped (fmax) and a zero result is +0.0.
    worst = np.fmax.reduce(np.where(equality, np.abs(res), res), initial=0.0)
    bound = np.min(x[~p.free], initial=0.0)
    return float(np.maximum(worst, -np.minimum(bound, 0.0)))


# ---------------------------------------------------------------------------
# basis enumeration (independent oracle)
# ---------------------------------------------------------------------------

def independent_rows(A: np.ndarray, b: Optional[np.ndarray] = None,
                     tol: float = 1e-9):
    """Select a maximal independent row subset (b filtered alongside)."""
    A = np.asarray(A, dtype=float)
    kept = []
    rank = 0
    for r in range(A.shape[0]):
        trial = A[kept + [r]]
        if np.linalg.matrix_rank(trial, tol=tol) > rank:
            kept.append(r)
            rank += 1
    Ar = A[kept]
    if b is None:
        return Ar, kept
    return Ar, np.asarray(b, dtype=float)[kept], kept


def enumerate_basic_solutions(A: np.ndarray, b: np.ndarray,
                              tol: float = 1e-9) -> np.ndarray:
    """All basic feasible solutions of {A x = b, x >= 0}, one per row.

    Rows are reduced to an independent subset first, then every
    size-rank column subset is solved in vectorized chunks; singular and
    near-singular bases are rejected by a conditioning test on their QR
    factor, which does not decay with the rank, and a residual check.
    Returns a (k, n) array with one raw vertex per feasible basis, in the
    lexicographic order of the column subsets (duplicates from degenerate
    bases included; callers deduplicate), and (0, n) when no basis is
    feasible.  Raises ``EnumerationTooLarge`` when there are more than
    ``MAX_BASES`` column subsets.
    """
    A, b, _ = independent_rows(A, b)
    r, n = A.shape
    if math.comb(n, r) > MAX_BASES:
        raise EnumerationTooLarge(f"enumeration too large: C({n},{r}) bases")
    blocks = [np.zeros((0, n))]
    combos = combinations(range(n), r)
    while True:
        block = np.fromiter(
            (c for cols in islice(combos, ENUM_CHUNK)
             for c in cols), dtype=int)
        if block.size == 0:
            break
        block = block.reshape(-1, r)
        B = np.swapaxes(A[:, block], 0, 1)      # (batch, r, r)
        # the LU drops the exactly singular bases, most of them, cheaply;
        # the rest pass when min |R_ii| / max |R_ii| of their QR, which is
        # at least 1 / cond(B) whatever r, exceeds 1e-12
        ok = np.linalg.slogdet(B).sign != 0.0
        R = np.abs(np.diagonal(np.linalg.qr(B[ok], mode="r"),
                               axis1=1, axis2=2))
        ok[ok] = (np.min(R, axis=1, initial=np.inf)
                  > 1e-12 * np.max(R, axis=1, initial=0.0))
        if not np.any(ok):
            continue
        Bok = B[ok]
        rhs = np.broadcast_to(b, (int(ok.sum()), r))[..., None]
        xB = np.linalg.solve(Bok, rhs)[..., 0]
        resid = np.abs(np.einsum("kij,kj->ki", Bok, xB) - b)
        row_scale = 1.0 + np.abs(b) + np.linalg.norm(Bok, axis=2) \
            * np.max(np.abs(xB), axis=1, keepdims=True)
        feas = (np.min(xB, axis=1) >= -tol) \
            & (np.max(resid / row_scale, axis=1) <= 1e-9)
        x = np.zeros((int(feas.sum()), n))
        np.put_along_axis(x, block[ok][feas], np.maximum(xB[feas], 0.0),
                          axis=1)
        blocks.append(x)
    return np.concatenate(blocks)


def enumeration_minimum(A, b, c, tol: float = 1e-9):
    """min c.x over basic feasible solutions, or None when infeasible."""
    verts = enumerate_basic_solutions(A, b, tol=tol)
    if len(verts) == 0:
        return None, None
    values = [float(np.asarray(c) @ v) for v in verts]
    k = int(np.argmin(values))
    return values[k], verts[k]
