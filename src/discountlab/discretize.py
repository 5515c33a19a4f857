"""Exact finite monotone discretization of a weakly coupled system.

The continuum problem lam*u_i + H_i(x, Du_i, u) = 0 is replaced by the
finite system

    lam*u_i(x) + max_a [ xi_a . D_h u_i(x) + eta_a . u(x) - L_i(x, a) ] = 0

on a periodic grid, where a ranges over a finite per-mode control list
(xi_a, eta_a) with eta_a in the admissible coupling cone, D_h is the
upwind difference (backward where xi_d > 0, forward where xi_d <= 0) and
L_i(x, a) is a finite running cost.

Because eta_a has nonpositive off-mode entries and nonnegative sum, the
per-policy linear operator

    (lam + sum_d |xi_d|/dx + eta_{a,i}) u_i(x)
        - sum_d (|xi_d|/dx) u_i(upwind neighbor)
        + sum_{j != i} eta_{a,j} u_j(x)

has positive diagonal, nonpositive off-diagonal entries and row sums
lam + sum_j eta_{a,j} >= lam: a strictly diagonally dominant M-matrix for
every lam > 0.  That certificate is what makes every downstream identity
exact, and it is re-verified at assembly.

A ``DiscreteSystem`` is its grid, each mode's controls and each mode's
cost tensor; everything else about it is derived from those three.
Assembly runs once per mode, over the stacked control rows: one probe
and one cost call of the model's ``lagrangian_hint``, and one cone and
diagonal check that names the first failing control.  The variants the
package solves (shifted costs, frozen couplings, the grid of N/2
points) are ``dataclasses.replace`` copies of a system that change only
the grid, the controls or the cost, and start with no ``inverses``; a
cost-only copy comes from ``with_cost`` and shares the stencil and
layout of the system it copies.

The same stencil coefficients drive three consumers: the Bellman
residual, the per-policy linear solves, and (transposed) the
closed-measure constraint matrix.  ``DiscreteSystem.stencil`` is their
single source: the lam-independent coefficients, built once per system
(one scalar walk over the blocks, one numpy expansion over the grid) as
COO triplets, plus the diagonal slots where lam is added; next to it,
``DiscreteSystem.layout`` is the flat (i, x, a) row order.  A
``Relations`` kernel, one per (system, lam), applies all the triplets
to a field in one gather-multiply-``bincount``; the Bellman residual,
the greedy policy and ``control_values`` are views of that one flat
vector.  ``linearized_matrix`` accumulates all the triplets and
``policy_matrix`` only the rows a policy selects (``policy_rows``), in
the same order, so the transpose used by the measure module is
bit-identical to the operator used by the solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (BadDimension, BadResolution, BadValue,
                     CouplingOutsideCone, MissingCost, ParseError)
from .model import (HamiltonianModel, LagrangianTable, in_coupling_cone,
                    product_grid)

ValueField = np.ndarray   # shape (m, S)
Policy = np.ndarray       # int array, shape (m, S)
# Work done in this process so far, read by difference (manifest.json).
WORK = {"stencils": 0}


# ---------------------------------------------------------------------------
# periodic grid
# ---------------------------------------------------------------------------

@dataclass
class TorusGrid:
    """N points per axis on the torus [0,1)^n.  A state is the C-order
    flat index of its (N,)*n coordinates; ``x`` holds coordinates / N."""

    n: int
    N: int

    def __post_init__(self):
        self.num_states = self.N ** self.n
        self.dx = 1.0 / self.N
        self.x = product_grid(np.arange(self.N), self.n) / self.N
        # np.take, not np.roll: every cold start builds its coarse grids
        index = np.arange(self.num_states).reshape((self.N,) * self.n)
        ahead, behind = (np.arange(self.N) + [[1], [-1]]) % self.N
        self._fwd = [index.take(ahead, axis=d).ravel() for d in range(self.n)]
        self._bwd = [index.take(behind, axis=d).ravel() for d in range(self.n)]

    def forward(self, d: int) -> np.ndarray:
        """State indices one step ahead along axis d (periodic)."""
        return self._fwd[d]

    def backward(self, d: int) -> np.ndarray:
        return self._bwd[d]


def build_grid(n: int, N: int) -> TorusGrid:
    if n not in (1, 2):
        raise BadDimension(f"dimension {n} unsupported; use 1 or 2")
    if N < 2:
        raise BadResolution(f"need at least 2 points per dimension, got {N}")
    return TorusGrid(n=int(n), N=int(N))


# ---------------------------------------------------------------------------
# control sets
# ---------------------------------------------------------------------------

@dataclass
class ModeControls:
    """Finite controls of one mode: rows of (xi, eta), and the cost source
    that ``assemble_system`` reads (a system's costs are its ``cost``)."""

    xi: np.ndarray    # (A, n)
    eta: np.ndarray   # (A, m)
    cost_fn: Optional[Callable] = None  # cost_fn(x_points) -> (S, A)

    def __len__(self):
        return len(self.xi)


def _symmetric_axis(radius: float, count: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, count)
    if not np.any(axis == 0.0):
        axis = np.sort(np.append(axis, 0.0))
    return axis


def _control_rows(m: int, n: int, mode: int, xi_radius: float,
                  xi_count: int, eta_spec: Sequence):
    """(xi_rows, eta_rows): the symmetric xi grid crossed with eta_spec.

    Every eta must have length m and lie exactly in cone(mode).
    """
    etas = [np.asarray(e, dtype=float) for e in eta_spec]
    for e in etas:
        if e.shape != (m,):
            raise CouplingOutsideCone(f"eta {e.tolist()} has wrong length")
    cone = in_coupling_cone(np.stack(etas), mode)
    if not cone.all():
        raise CouplingOutsideCone(f"eta {etas[int(cone.argmin())].tolist()} "
                                  f"violates the cone of mode {mode}")
    xis = product_grid(_symmetric_axis(float(xi_radius), int(xi_count)), n)
    return (np.repeat(xis, len(etas), axis=0),
            np.tile(np.stack(etas), (len(xis), 1)))


def _table_cost_fn(table: LagrangianTable, values: np.ndarray) -> Callable:
    """Cost source that serves ``values`` on the table's own x points only."""
    def cost_fn(x_points):
        if len(x_points) != len(table.x_points) or \
                not np.allclose(x_points, table.x_points, atol=1e-12):
            raise MissingCost("table x points do not match the grid")
        return values
    return cost_fn


def sample_controls(model_or_table, mode: int, xi_radius: float,
                    xi_count: int, eta_spec: Sequence) -> ModeControls:
    """Build one mode's control list from a model or a numeric cost table.

    xi runs over the symmetric uniform grid of [-xi_radius, xi_radius]^n
    (0 is inserted if the count would miss it, so the constant field is
    always exactly representable), crossed with the given eta vectors.
    Each eta must satisfy the cone sign conditions exactly.  Costs come
    from the model's closed-form running cost when available, otherwise
    from table lookups; a control without a finite cost is rejected, and
    so is a negative or non-finite xi_radius (``BadValue``).
    """
    if xi_count < 1:
        raise BadValue("xi_count must be >= 1")
    if not 0.0 <= xi_radius < math.inf:
        raise BadValue(f"xi_radius must be finite and >= 0, got {xi_radius}")
    if isinstance(model_or_table, LagrangianTable):
        return _controls_from_table_grid(model_or_table, mode, xi_radius,
                                         xi_count, eta_spec)
    model = model_or_table
    xi_rows, eta_rows = _control_rows(model.m, model.n, mode, xi_radius,
                                      xi_count, eta_spec)
    if model.lagrangian_hint is None:
        raise MissingCost(f"model {model.zoo_id!r} provides no cost source")

    def cost_fn(x_points):
        return np.asarray(model.lagrangian_hint(x_points, mode, xi_rows,
                                                eta_rows), dtype=float)

    probe = cost_fn(np.zeros((1, model.n)))
    finite = np.isfinite(probe).reshape(-1, len(xi_rows)).all(axis=0)
    if not finite.all():
        xi, eta = xi_rows[finite.argmin()], eta_rows[finite.argmin()]
        raise MissingCost(f"no finite cost for mode {mode} control "
                          f"xi={xi.tolist()}, eta={eta.tolist()}")
    return ModeControls(xi_rows, eta_rows, cost_fn)


def _controls_from_table_grid(table: LagrangianTable, mode: int,
                              xi_radius: float, xi_count: int,
                              eta_spec: Sequence) -> ModeControls:
    """Table-backed control sampling: requested points must sit on the
    table grids with finite values at every stored x."""
    if mode != table.mode:
        raise MissingCost(f"table covers mode {table.mode}, not {mode}")
    xi_rows, eta_rows = _control_rows(table.m, table.n, mode, xi_radius,
                                      xi_count, eta_spec)
    try:
        values = table.lookup(xi_rows, eta_rows)
    except KeyError as exc:
        raise MissingCost(exc.args[0])
    finite = np.isfinite(values).all(axis=0)
    if not finite.all():
        r = int(finite.argmin())
        raise MissingCost(f"table cost infinite at xi={xi_rows[r].tolist()}, "
                          f"eta={eta_rows[r].tolist()}")
    return ModeControls(xi_rows, eta_rows, _table_cost_fn(table, values))


# ---------------------------------------------------------------------------
# assembled system
# ---------------------------------------------------------------------------

@dataclass
class DiscreteSystem:
    grid: TorusGrid
    controls: list          # per mode, ModeControls
    cost: list              # per mode, (S, A_i)
    label: str = ""
    # (inverse policy matrix, entries changed since its last inversion)
    # by (lam, policy.tobytes()) for ``policy_evaluate``, each inverted or
    # updated from the newest one when that is at its lam and close: a
    # dict on the ``uncoupled`` systems only, None (the dense solve) on
    # every other system and ``replace`` copy.
    inverses: Optional[dict] = field(default=None, init=False)

    @property
    def m(self) -> int:
        return len(self.controls)

    @property
    def num_states(self):
        return self.grid.num_states

    def num_controls(self, i: int) -> int:
        return len(self.controls[i])

    @property
    def total_vars(self) -> int:
        return self.layout.total

    def cost_flat(self) -> np.ndarray:
        """Costs in the flat (i, x, a) variable order."""
        return np.concatenate([self.cost[i].reshape(-1) for i in range(self.m)])

    @cached_property
    def layout(self) -> Layout:
        """The flat (i, x, a) row order, built once; lam plays no part."""
        counts = np.array([len(mc) for mc in self.controls])
        sizes = self.num_states * counts
        offsets = np.cumsum(sizes) - sizes
        base = offsets[:, None] + np.arange(self.num_states) * counts[:, None]
        return Layout(base=base.reshape(-1), offsets=offsets.tolist(),
                      counts=counts.tolist(), total=int(sizes.sum()))

    def var_index(self, i: int, x: int, a: int) -> int:
        return self.layout.offsets[i] + x * self.num_controls(i) + a

    def var_tuple(self, idx: int):
        if not 0 <= idx < self.total_vars:
            raise IndexError(idx)
        i = int(np.searchsorted(self.layout.offsets, idx, side="right")) - 1
        return (i, *divmod(idx - self.layout.offsets[i], self.num_controls(i)))

    @cached_property
    def uncoupled(self) -> list:
        """Each mode as a one-mode system with its coupling dropped, built once.

        The controls, and with them each system's cached stencil, are
        fixed; the cost is a zero placeholder that the user writes before
        each solve (the ergodic map writes the cost of a frozen coupling).
        """
        scalars = []
        for i, (mc, ci) in enumerate(zip(self.controls, self.cost)):
            eta = np.zeros((len(mc), 1))
            scalars.append(replace(self, controls=[ModeControls(mc.xi, eta)],
                                   cost=[np.zeros_like(ci)],
                                   label=f"{self.label}:frozen{i}"))
            scalars[-1].inverses = {}
        return scalars

    @cached_property
    def stencil(self) -> Stencil:
        """The lam-independent operator as COO triplets, built once.

        For each mode i and control a, in that order, the triplets of
        rows (i, x, a) over all x are: the diagonal weight of xi_a . D_h
        (lam is added there), one block per upwind neighbor term, and one
        block per nonzero coupling eta_{a,j}.  Entries that share a
        (row, column) are summed in this order by every consumer.  The
        blocks are walked as scalars, each with its weight and source
        states from ``drift_stencil``, then expanded over x at once.
        """
        WORK["stencils"] += 1
        S, states = self.num_states, np.arange(self.num_states)
        # (mode, control, column block, value, source states) per block
        slots, lam = [], []
        for i, mc in enumerate(self.controls):
            for a, (xi, eta) in enumerate(zip(mc.xi.tolist(),
                                              mc.eta.tolist())):
                diag, terms = drift_stencil(self.grid, xi)
                lam.append(len(slots))
                slots.append((i, a, i, diag, states))
                for nbr, w in terms:
                    slots.append((i, a, i, w, nbr))
                for j, e in enumerate(eta):
                    if e != 0.0:
                        slots.append((i, a, j, e, states))
        mode, ctl, block, vals, srcs = zip(*slots)
        rows = self.layout.base.reshape(-1, S)[list(mode)] \
            + np.array(ctl)[:, None]
        return Stencil(rows=rows.ravel(),
                       cols=np.concatenate(srcs) + np.repeat(block, S) * S,
                       vals=np.repeat(vals, S),
                       lam_slots=(np.array(lam)[:, None] * S + states).ravel())


class Stencil(NamedTuple):
    """COO triplets of ``linearized_matrix`` at lam = 0, in accumulation
    order; ``lam_slots`` indexes the triplets that receive lam."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    lam_slots: np.ndarray

    def values(self, lam: float) -> np.ndarray:
        """Triplet values with lam added on the diagonal slots."""
        vals = self.vals.copy()
        vals[self.lam_slots] += lam
        return vals


class Layout(NamedTuple):
    """The flat (i, x, a) row order: mode i's rows start at ``offsets[i]``,
    ``counts[i]`` of them per state, the rows of field entry i*S + x
    start at ``base[i*S + x]``, and there are ``total`` rows."""

    base: np.ndarray
    offsets: list
    counts: list
    total: int

    def blocks(self, flat: np.ndarray) -> list:
        """Per mode i, the (S, A_i) view of a flat (i, x, a) vector."""
        S = len(self.base) // len(self.counts)
        return [flat[off:off + S * A].reshape(S, A)
                for off, A in zip(self.offsets, self.counts)]


def assemble_system(grid: TorusGrid, controls: Sequence[ModeControls],
                    label: str = "") -> DiscreteSystem:
    """Materialize each mode's cost from its ``cost_fn`` on the grid points
    and certify the monotone scheme (``_certified_system``)."""
    cost = []
    for i, mc in enumerate(controls):
        if mc.cost_fn is None:
            raise MissingCost(f"mode {i} has no cost source")
        cost.append(np.asarray(mc.cost_fn(grid.x), dtype=float))
    return _certified_system(grid, controls, cost, label)


def _certified_system(grid: TorusGrid, controls: Sequence[ModeControls],
                      cost: list, label: str) -> DiscreteSystem:
    """The system of these controls and costs, once certified.

    Verifies for every (i, x, a): finite cost, eta finite and exactly in
    cone(i), so nonpositive off-diagonal coefficients, and the diagonal
    ``drift_stencil`` gives plus eta_{a,i} finite and >= 0 (a NaN or
    infinite xi fails here).  Each mode's controls are checked at once,
    and the first failing one is named.  Rejects control sets that do not
    cover all modes: each mode needs a control, and every eta one entry
    per mode.
    """
    m = len(controls)
    if m == 0 or any(len(mc) == 0 or mc.eta.shape[1] != m
                     for mc in controls):
        raise MissingCost("control set does not cover every mode")
    for i, (mc, ci) in enumerate(zip(controls, cost)):
        if ci.shape != (grid.num_states, len(mc)):
            raise MissingCost(f"mode {i} cost tensor has shape {ci.shape}")
        if not np.all(np.isfinite(ci)):
            raise MissingCost(f"mode {i} has non-finite cost entries")
        cone = in_coupling_cone(mc.eta, i)
        # drift_stencil's diagonal, the sum of its weights, for every row
        diag = (np.abs(mc.xi) * grid.N).sum(axis=1) + mc.eta[:, i]
        bad = ~cone | ~((0.0 <= diag) & (diag < math.inf))
        if bad.any():
            a = int(bad.argmax())
            if not cone[a]:
                raise CouplingOutsideCone(
                    f"mode {i} control {a} eta={mc.eta[a].tolist()}")
            raise CouplingOutsideCone(
                f"mode {i} control {a}: diagonal {diag[a]} is negative "
                f"or not finite")
    return DiscreteSystem(grid=grid, controls=list(controls), cost=cost,
                          label=label)


# ---------------------------------------------------------------------------
# upwind stencil, Bellman residual, linearized operator
# ---------------------------------------------------------------------------

def drift_stencil(grid: TorusGrid, xi):
    """Diagonal weight and (neighbor, weight) terms of xi . D_h.

    Weights are computed as |xi_d| * N once, here, so every consumer sees
    bit-identical coefficients.
    """
    diag = 0.0
    terms = []
    for d in range(grid.n):
        s = float(xi[d])
        if s == 0.0:
            continue
        w = abs(s) * grid.N
        diag += w
        nbr = grid.backward(d) if s > 0.0 else grid.forward(d)
        terms.append((nbr, -w))
    return diag, terms


def upwind_directional(u: ValueField, grid: TorusGrid, mode: int,
                       state: int, xi) -> float:
    """xi . D_h u_mode at one state (backward where xi_d > 0)."""
    diag, terms = drift_stencil(grid, xi)
    val = diag * u[mode, state]
    for nbr, w in terms:
        val += w * u[mode, nbr[state]]
    return float(val)


class Relations:
    """The relations of one system at one lam, flat in (i, x, a) order:
    the lam-shifted ``sys.stencil`` values, the flat cost and
    ``sys.layout``.  ``apply`` is the one implementation of the
    relations; ``control_values``, ``bellman_policy`` and the solver's
    Howard loop all read it."""

    def __init__(self, sys: DiscreteSystem, lam: float):
        st = sys.stencil
        self.rows, self.cols, self.vals = st.rows, st.cols, st.values(lam)
        self.cost, self.layout = sys.cost_flat(), sys.layout

    def apply(self, u: ValueField) -> np.ndarray:
        """lam*u_i + xi_a . D_h u_i + eta_a . u - L_i(., a) at every row
        (i, x, a), its triplets summed in stored order: the row of
        ``linearized_matrix`` applied to u, minus the cost."""
        terms = self.vals * u.reshape(-1)[self.cols]
        return np.bincount(self.rows, weights=terms,
                           minlength=self.layout.total) - self.cost

    def greedy(self, flat: np.ndarray) -> Policy:
        """Argmax control per field entry; ties go to the lowest index."""
        return np.array([b.argmax(axis=1) for b in self.layout.blocks(flat)])

    def at(self, flat: np.ndarray, policy: Policy) -> ValueField:
        """The entries of a flat (i, x, a) vector that a policy selects."""
        return flat[self.layout.base + policy.ravel()].reshape(policy.shape)


def control_values(sys: DiscreteSystem, lam: float, u: ValueField) -> list:
    """Per mode i, the (A_i, S) array of ``Relations(sys, lam).apply(u)``."""
    return [b.T for b in sys.layout.blocks(Relations(sys, lam).apply(u))]


def bellman_residual(sys: DiscreteSystem, lam: float, u: ValueField) -> ValueField:
    """Residual lam*u_i(x) + max_a [...] of the discrete system."""
    return bellman_policy(sys, lam, u)[0]


def bellman_policy(sys: DiscreteSystem, lam: float, u: ValueField):
    """Residual together with the argmax policy (ties to lowest index)."""
    rel = Relations(sys, lam)
    flat = rel.apply(u)
    pol = rel.greedy(flat)
    return rel.at(flat, pol), pol


def linearized_matrix(sys: DiscreteSystem, lam: float) -> np.ndarray:
    """Dense matrix of the per-control affine relations, rows in (i, x, a)
    order and columns in flat field order i*S + x.

    Row (i, x, a) applied to a field u gives
    lam*u_i(x) + xi_a . D_h u_i(x) + eta_a . u(x); subtracting the flat
    cost vector yields the per-control Bellman slack.  Its transpose is
    the closed-measure constraint matrix.  The entries are the cached
    ``sys.stencil`` triplets, summed in their stored order.
    """
    st = sys.stencil
    return _accumulate(st.rows, st.cols, st.values(lam), sys.total_vars,
                       sys.m * sys.num_states)


def policy_matrix(sys: DiscreteSystem, lam: float, policy: Policy,
                  vals: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows of ``linearized_matrix`` selected by a policy, as (mS, mS).

    Only the stencil triplets of the selected rows are accumulated, in
    the same order, so the result equals ``linearized_matrix(...)[rows]``
    bit for bit without building the full matrix.  ``vals``, the
    lam-shifted stencil values of a caller that holds them
    (``Relations.vals``), spares computing them again.
    """
    return _linearized_rows(sys, lam, policy_rows(sys, policy), vals)


def _linearized_rows(sys: DiscreteSystem, lam: float, rows: np.ndarray,
                     vals: Optional[np.ndarray] = None) -> np.ndarray:
    """``linearized_matrix(sys, lam)[rows]`` for distinct flat (i, x, a)
    rows, from their stencil triplets alone, summed in stored order: the
    one assembly routine of a policy's matrix, its low-rank updates and
    its measures.  Every triplet is summed, the unselected ones into a
    scratch row past the last that is dropped.  ``vals`` as in
    ``policy_matrix``."""
    st = sys.stencil
    out_row = np.full(sys.total_vars, len(rows))
    out_row[rows] = np.arange(len(rows))
    return _accumulate(out_row[st.rows], st.cols,
                       st.values(lam) if vals is None else vals,
                       len(rows) + 1, sys.m * sys.num_states)[:-1]


def _accumulate(rows, cols, vals, nrows, ncols) -> np.ndarray:
    """Dense (nrows, ncols) sum of COO triplets, added in array order."""
    flat = np.bincount(rows * ncols + cols, weights=vals,
                       minlength=nrows * ncols)
    return flat.reshape(nrows, ncols)


def policy_rows(sys: DiscreteSystem, policy: Policy) -> np.ndarray:
    """Flat (i, x, a) row the policy selects at each field entry i*S + x.

    For lam > 0 these rows are also a feasible basis of every measure LP
    (``measures.assemble_closed_constraints``) whose b >= 0: those LPs
    have only '=' rows and no free columns, so their standard-form
    columns are the weight columns in order.  The basis matrix is
    ``policy_matrix(sys, lam, policy)``^T, and the M-matrix certificate
    makes its inverse nonnegative (d'Epenoux, Management Science 10,
    1963): the measures on it are the policy's occupation measures,
    which ``measures._basis_measures`` solves for without an LP.
    """
    return sys.layout.base + policy.ravel()


def with_cost(sys: DiscreteSystem, cost: list, label: str) -> DiscreteSystem:
    """The copy of ``sys`` with another cost, the one way to make one.  The
    grid and controls are the same, so it shares the stencil and layout
    of ``sys`` (built there first if need be); it starts with no
    ``inverses``."""
    copy = replace(sys, cost=cost, label=label)
    copy.__dict__.update(stencil=sys.stencil, layout=sys.layout)
    return copy


# ---------------------------------------------------------------------------
# grid coarsening
# ---------------------------------------------------------------------------

def coarse_system(sys: DiscreteSystem) -> DiscreteSystem:
    """The same system on the grid of N/2 points per axis.

    The controls are kept, and the cost at each coarse point is the fine
    cost at the fine point of twice its coordinates.  Only the system
    itself is read, so loaded, table-backed and ``uncoupled`` systems
    coarsen alike.  An odd N has no such grid: ``BadResolution``.
    """
    n, N = sys.grid.n, sys.grid.N
    if N % 2:
        raise BadResolution(f"cannot halve a grid of odd N = {N}")
    grid = build_grid(n, N // 2)
    even = (slice(None, None, 2),) * n
    cost = [c.reshape((N,) * n + (-1,))[even].reshape(grid.num_states, -1)
            for c in sys.cost]
    return replace(sys, grid=grid, cost=cost, label=f"{sys.label}:coarse")


def prolong(u: ValueField, grid: TorusGrid) -> ValueField:
    """Periodic linear interpolation of a field on ``grid`` to the grid of
    2N points per axis: the even points copy u, each odd point is the
    mean of its two neighbors along one axis, axis after axis."""
    v = u.reshape((len(u),) + (grid.N,) * grid.n)
    for ax in range(1, grid.n + 1):
        v = np.stack([v, 0.5 * (v + np.roll(v, -1, axis=ax))], axis=ax + 1)
        v = v.reshape(v.shape[:ax] + (-1,) + v.shape[ax + 2:])
    return v.reshape(len(u), -1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def system_to_json(sys: DiscreteSystem) -> str:
    controls = []
    for i in range(sys.m):
        mc = sys.controls[i]
        for a in range(len(mc)):
            controls.append({"mode": i, "xi": mc.xi[a].tolist(),
                             "eta": mc.eta[a].tolist()})
    return json.dumps({
        "label": sys.label,
        "n": sys.grid.n,
        "N": sys.grid.N,
        "m": sys.m,
        "controls": controls,
        "cost": sys.cost_flat().tolist(),
    })


def _json_int(doc, key) -> int:
    value = doc[key]
    if type(value) is not int:
        raise ParseError(f"{key!r} must be an integer, got {value!r}")
    return value


def system_from_json(text: str) -> DiscreteSystem:
    """Load a serialized system, re-verifying every invariant.

    A document that is not a serialized system raises ``ParseError``: not
    a JSON object, a key missing or of the wrong type (n, N, m and each
    control's mode must be JSON integers), a mode outside 0..m-1, xi rows
    not finite of length n, or eta rows not of length m.  A non-finite or
    out-of-cone eta raises ``CouplingOutsideCone``.
    """
    try:
        doc = json.loads(text)
        grid = build_grid(_json_int(doc, "n"), _json_int(doc, "N"))
        m = _json_int(doc, "m")
        per_mode = [[] for _ in range(max(m, 0))]
        for entry in doc["controls"]:
            mode = _json_int(entry, "mode")
            if not 0 <= mode < m:
                raise ParseError(f"control of mode {mode} in a system of "
                                 f"{m} modes")
            per_mode[mode].append((entry["xi"], entry["eta"]))
        rows = [(np.array([xi for xi, _ in p], dtype=float),
                 np.array([eta for _, eta in p], dtype=float))
                for p in per_mode]
        flat = np.asarray(doc["cost"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"not a serialized system: {exc!r}")
    if m < 1:
        raise ParseError(f"a system needs at least one mode, got m = {m}")
    modes = []
    for i, (xi, eta) in enumerate(rows):
        if not len(xi):
            raise MissingCost(f"serialized system lacks controls for mode {i}")
        if xi.shape != (len(xi), grid.n) or eta.shape != (len(xi), m) \
                or not np.all(np.isfinite(xi)):
            raise ParseError(f"mode {i}: xi rows must be finite of length "
                             f"{grid.n}, and eta rows of length {m}")
        modes.append(ModeControls(xi, eta))
    sizes = [grid.num_states * len(mc) for mc in modes]
    if flat.shape != (sum(sizes),):
        raise MissingCost(f"cost vector has shape {flat.shape}, expected "
                          f"({sum(sizes)},)")
    cost = [block.reshape(grid.num_states, -1)
            for block in np.split(flat, np.cumsum(sizes)[:-1])]
    return _certified_system(grid, modes, cost, doc.get("label", "loaded"))


# ---------------------------------------------------------------------------
# standard zoo systems
# ---------------------------------------------------------------------------

ZOO_CONTROL_DEFAULTS = {
    "constant-coupling": dict(N=4, xi_radius=1.0, xi_count=3),
    "linear-B": dict(N=8, xi_radius=1.0, xi_count=3),
    "quadratic-plc": dict(N=8, xi_radius=2.0, xi_count=9),
    "eikonal-f": dict(N=32, xi_radius=1.0, xi_count=3),
}


def default_eta_spec(model: HamiltonianModel, mode: int):
    zoo = model.zoo_id
    if zoo == "constant-coupling":
        e = np.zeros(model.m)
        e[mode] = 1.0
        return [e]
    if zoo == "linear-B":
        return [np.asarray(model.params["B"], dtype=float)[mode]]
    if zoo == "quadratic-plc":
        th = float(model.params["theta"])
        seg = np.zeros(model.m)
        seg[mode], seg[1 - mode] = th, -th
        return [np.zeros(model.m), seg]
    if zoo == "eikonal-f":
        return [np.zeros(model.m)]
    raise KeyError(f"no default controls for model {zoo!r}")


def standard_system(zoo_id: str, N: Optional[int] = None,
                    xi_radius: Optional[float] = None,
                    xi_count: Optional[int] = None,
                    **model_params) -> DiscreteSystem:
    """Assemble the canonical discrete instance of a zoo family."""
    from .model import make_model
    defaults = ZOO_CONTROL_DEFAULTS[zoo_id]
    model = make_model(zoo_id, **model_params)
    grid = build_grid(model.n, N if N is not None else defaults["N"])
    rad = xi_radius if xi_radius is not None else defaults["xi_radius"]
    cnt = xi_count if xi_count is not None else defaults["xi_count"]
    modes = [sample_controls(model, i, rad, cnt, default_eta_spec(model, i))
             for i in range(model.m)]
    return assemble_system(grid, modes, label=zoo_id)
