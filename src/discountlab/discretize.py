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
cost tensor; everything else about it is derived from those three.  The
variants the package solves (shifted costs, frozen couplings, the grid
of N/2 points) are ``dataclasses.replace`` copies of a system that
change only the grid, the controls or the cost.

The same stencil coefficients drive three consumers: the Bellman
residual, the per-policy linear solves, and (transposed) the
closed-measure constraint matrix.  ``DiscreteSystem.stencil`` is their
single source: the lam-independent coefficients, built once per system
as COO triplets, plus the diagonal slots where lam is added.
``control_values`` applies all of them to a field, ``linearized_matrix``
accumulates all of them and ``policy_matrix`` only the rows a policy
selects (``policy_rows``), in one and the same order, so the transpose
used by the measure module is bit-identical to the operator used by the
solver.
"""

from __future__ import annotations

import json
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


# ---------------------------------------------------------------------------
# periodic grid
# ---------------------------------------------------------------------------

@dataclass
class TorusGrid:
    n: int
    N: int
    num_states: int = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        self.num_states = self.N ** self.n
        self.dx = 1.0 / self.N
        idx = np.arange(self.num_states)
        if self.n == 1:
            coords = idx.reshape(-1, 1)
        else:
            coords = np.stack([idx // self.N, idx % self.N], axis=-1)
        self.x = coords / self.N
        self._fwd, self._bwd = [], []
        for d in range(self.n):
            shift = coords.copy()
            shift[:, d] = (coords[:, d] + 1) % self.N
            self._fwd.append(self._flatten(shift))
            shift = coords.copy()
            shift[:, d] = (coords[:, d] - 1) % self.N
            self._bwd.append(self._flatten(shift))

    def _flatten(self, coords):
        if self.n == 1:
            return coords[:, 0].copy()
        return coords[:, 0] * self.N + coords[:, 1]

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
        if not in_coupling_cone(e, mode):
            raise CouplingOutsideCone(
                f"eta {e.tolist()} violates the cone of mode {mode}")
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
    from table lookups; a control without a finite cost is rejected.
    """
    if xi_count < 1:
        raise BadValue("xi_count must be >= 1")
    if isinstance(model_or_table, LagrangianTable):
        return _controls_from_table_grid(model_or_table, mode, xi_radius,
                                         xi_count, eta_spec)
    model = model_or_table
    xi_rows, eta_rows = _control_rows(model.m, model.n, mode, xi_radius,
                                      xi_count, eta_spec)
    if model.lagrangian_hint is None:
        raise MissingCost(f"model {model.zoo_id!r} provides no cost source")
    probe = np.zeros((1, model.n))
    for r, e in zip(xi_rows, eta_rows):
        val = np.asarray(model.lagrangian_hint(probe, mode, r, e), dtype=float)
        if not np.all(np.isfinite(val)):
            raise MissingCost(
                f"no finite cost for mode {mode} control xi={r.tolist()}, "
                f"eta={e.tolist()}")

    def cost_fn(x_points):
        cols = [np.asarray(model.lagrangian_hint(x_points, mode, r, e),
                           dtype=float)
                for r, e in zip(xi_rows, eta_rows)]
        return np.stack(cols, axis=-1)

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
    cols = []
    for r, e in zip(xi_rows, eta_rows):
        try:
            vals = table.lookup(r, e)
        except KeyError as exc:
            raise MissingCost(str(exc))
        if not np.all(np.isfinite(vals)):
            raise MissingCost(f"table cost infinite at xi={r.tolist()}, "
                              f"eta={e.tolist()}")
        cols.append(np.asarray(vals, dtype=float))
    return ModeControls(xi_rows, eta_rows,
                        _table_cost_fn(table, np.stack(cols, axis=-1)))


# ---------------------------------------------------------------------------
# assembled system
# ---------------------------------------------------------------------------

@dataclass
class DiscreteSystem:
    grid: TorusGrid
    controls: list          # per mode, ModeControls
    cost: list              # per mode, (S, A_i)
    label: str = ""

    @property
    def m(self) -> int:
        return len(self.controls)

    @property
    def num_states(self):
        return self.grid.num_states

    def num_controls(self, i: int) -> int:
        return len(self.controls[i])

    @cached_property
    def var_offsets(self) -> list:
        """Start of each mode's (x, a) block in the flat (i, x, a) order."""
        offs, acc = [], 0
        for i in range(self.m):
            offs.append(acc)
            acc += self.num_states * self.num_controls(i)
        return offs

    @property
    def total_vars(self) -> int:
        return sum(self.num_states * self.num_controls(i) for i in range(self.m))

    def cost_flat(self) -> np.ndarray:
        """Costs in the flat (i, x, a) variable order."""
        return np.concatenate([self.cost[i].reshape(-1) for i in range(self.m)])

    def var_index(self, i: int, x: int, a: int) -> int:
        return self.var_offsets[i] + x * self.num_controls(i) + a

    def var_tuple(self, idx: int):
        for i in reversed(range(self.m)):
            if idx >= self.var_offsets[i]:
                rem = idx - self.var_offsets[i]
                return i, rem // self.num_controls(i), rem % self.num_controls(i)
        raise IndexError(idx)

    @cached_property
    def uncoupled(self) -> list:
        """Each mode as a one-mode system with its coupling dropped, built once.

        The controls, and with them each system's cached stencil, are
        fixed; the cost is a zero placeholder that the user writes before
        each solve (the ergodic map writes the cost of a frozen coupling).
        """
        return [replace(self,
                        controls=[ModeControls(mc.xi, np.zeros((len(mc), 1)))],
                        cost=[np.zeros_like(ci)],
                        label=f"{self.label}:frozen{i}")
                for i, (mc, ci) in enumerate(zip(self.controls, self.cost))]

    @cached_property
    def inverses(self) -> dict:
        """Inverse policy matrices by ``(lam, policy.tobytes())``, for
        ``policy_evaluate``.  They depend on the stencil only, not on the
        cost; only the ergodic map's frozen systems (``uncoupled``), which
        are solved again with a new cost every sweep, fill it."""
        return {}

    @cached_property
    def stencil(self) -> Stencil:
        """The lam-independent operator as COO triplets, built once.

        For each mode i and control a, in that order, the triplets of
        rows (i, x, a) over all x are: the diagonal weight of xi_a . D_h
        (lam is added there), one block per upwind neighbor term, and one
        block per nonzero coupling eta_{a,j}.  Entries that share a
        (row, column) are summed in this order by every consumer.
        """
        S, m = self.num_states, self.m
        states = np.arange(S)
        rows, cols, vals, on_diag = [], [], [], []

        def block(r, c, v, diag=False):
            rows.append(r)
            cols.append(c)
            vals.append(np.full(S, v, dtype=float))
            on_diag.append(np.full(S, diag))

        for i in range(m):
            mc = self.controls[i]
            Ai = len(mc)
            for a in range(Ai):
                r = self.var_offsets[i] + states * Ai + a
                diag, terms = drift_stencil(self.grid, mc.xi[a])
                block(r, i * S + states, diag, diag=True)
                for nbr, w in terms:
                    block(r, i * S + nbr, w)
                for j in range(m):
                    if mc.eta[a, j] != 0.0:
                        block(r, j * S + states, mc.eta[a, j])
        return Stencil(rows=np.concatenate(rows), cols=np.concatenate(cols),
                       vals=np.concatenate(vals),
                       lam_slots=np.flatnonzero(np.concatenate(on_diag)))


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

    Verifies for every (i, x, a): finite cost, eta exactly in cone(i),
    diagonal coefficient sum_d |xi_d|/dx + eta_{a,i} >= 0 and nonpositive
    off-diagonal coefficients.  Rejects control sets that do not cover all
    modes: each mode needs a control, and every eta one entry per mode.
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
        for a in range(len(mc)):
            if not in_coupling_cone(mc.eta[a], i):
                raise CouplingOutsideCone(
                    f"mode {i} control {a} eta={mc.eta[a].tolist()}")
            diag = float(np.sum(np.abs(mc.xi[a])) * grid.N + mc.eta[a, i])
            if diag < 0.0:
                raise CouplingOutsideCone(
                    f"mode {i} control {a}: negative diagonal {diag}")
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


def control_values(sys: DiscreteSystem, lam: float, u: ValueField) -> list:
    """Per mode i, the (A_i, S) array of
    lam*u_i + xi_a . D_h u_i + eta_a . u - L_i(., a).

    Computed for all modes at once from ``sys.stencil``: each row
    (i, x, a) sums its triplets' terms in stored order (diagonal, upwind
    neighbors, each nonzero coupling), so it equals the matching row of
    ``linearized_matrix`` applied to u, minus the cost.
    """
    st = sys.stencil
    terms = st.values(lam) * u.reshape(-1)[st.cols]
    flat = np.bincount(st.rows, weights=terms, minlength=sys.total_vars) \
        - sys.cost_flat()
    S = sys.num_states
    return [flat[off:off + S * sys.num_controls(i)].reshape(S, -1).T
            for i, off in enumerate(sys.var_offsets)]


def greedy_policy(vals: list) -> Policy:
    """Argmax control of each mode's ``control_values`` array, per state;
    ties go to the lowest index."""
    return np.stack([np.argmax(v, axis=0) for v in vals])


def values_at(vals: list, policy: Policy) -> ValueField:
    """Entries of each mode's ``control_values`` array at a policy."""
    states = np.arange(policy.shape[1])
    return np.stack([v[p, states] for v, p in zip(vals, policy)])


def bellman_residual(sys: DiscreteSystem, lam: float, u: ValueField) -> ValueField:
    """Residual lam*u_i(x) + max_a [...] of the discrete system."""
    return np.stack([np.max(v, axis=0) for v in control_values(sys, lam, u)])


def bellman_policy(sys: DiscreteSystem, lam: float, u: ValueField):
    """Residual together with the argmax policy (ties to lowest index)."""
    vals = control_values(sys, lam, u)
    pol = greedy_policy(vals)
    return values_at(vals, pol), pol


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
    ncols = sys.m * sys.num_states
    return _accumulate(st.rows, st.cols, st.values(lam),
                       sys.total_vars, ncols)


def policy_matrix(sys: DiscreteSystem, lam: float, policy: Policy) -> np.ndarray:
    """Rows of ``linearized_matrix`` selected by a policy, as (mS, mS).

    Only the stencil triplets of the selected rows are accumulated, in
    the same order, so the result equals ``linearized_matrix(...)[rows]``
    bit for bit without building the full matrix.
    """
    n = sys.m * sys.num_states
    field_row = np.full(sys.total_vars, -1)
    field_row[policy_rows(sys, policy)] = np.arange(n)
    st = sys.stencil
    out_rows = field_row[st.rows]
    keep = out_rows >= 0
    return _accumulate(out_rows[keep], st.cols[keep], st.values(lam)[keep],
                       n, n)


def _accumulate(rows, cols, vals, nrows, ncols) -> np.ndarray:
    """Dense (nrows, ncols) sum of COO triplets, added in array order."""
    flat = np.bincount(rows * ncols + cols, weights=vals,
                       minlength=nrows * ncols)
    return flat.reshape(nrows, ncols)


def policy_rows(sys: DiscreteSystem, policy: Policy) -> np.ndarray:
    """Flat (i, x, a) row the policy selects at each field entry i*S + x."""
    states = np.arange(sys.num_states)
    return np.concatenate([off + states * sys.num_controls(i) + policy[i]
                           for i, off in enumerate(sys.var_offsets)])


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
    control's mode must be JSON integers), a mode outside 0..m-1, or xi
    and eta rows that are not finite rows of length n and m.
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
