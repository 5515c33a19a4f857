"""Continuum weakly coupled Hamiltonian systems and their convex duality.

A model is a family of Hamiltonians H_i(x, p, u), i = 1..m, on the flat
torus [0,1)^n, coupled through the value vector u in R^m.  This module
provides

* a small zoo of closed-form families used throughout the package,
* sampling-based checkers for the structural hypotheses (monotone
  coupling, joint convexity in (p, u), shift invariance),
* the numerical Legendre-Fenchel transform between H and its running
  cost L_i(x, xi, eta) = sup_{p,u} [xi.p + eta.u - H_i(x, p, u)],
* coercivity profiles used by the ergodic existence condition.

Coupling covectors eta live in the per-mode sign cone

    cone(i) = { eta : eta_j <= 0 for j != i  and  sum_j eta_j >= 0 },

which is exactly the monotonicity of the coupling expressed on the dual
side; every finite Legendre value must fall inside it.

All checkers are pure and deterministic for a given seed.  Samples are
quantized to a dyadic lattice (multiples of 2**-20) so that the
piecewise-affine families in the zoo satisfy their equality cases
exactly in floating point, and a clean check reports a worst violation
of exactly 0.0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EmptySampleSet, MissingRadius

CHECK_TOL = 1e-9
DYADIC = 2.0 ** -20
DEFAULT_CLIP = 1e12
SEARCH_SCALE = 2.0    # default (p, u) search radius over the data's radius


# ---------------------------------------------------------------------------
# model container and zoo
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianModel:
    """A continuum m-system of Hamiltonians on the torus.

    ``H(x, i, p, u)`` evaluates mode ``i`` (0-based).  Implementations must
    broadcast over leading sample axes: ``x`` has shape (..., n), ``p`` has
    shape (..., n), ``u`` has shape (..., m), and the result has shape
    (...).  The leading axes of x, p and u need only broadcast against
    each other, as numpy broadcasts them; the result then has their
    broadcast shape, or any shape that broadcasts to it.
    ``lagrangian_hint(x, i, xi, eta)``, when present, returns the
    closed-form running cost (``inf`` outside the domain); ``x`` may carry
    leading axes, ``(xi, eta)`` is a single control.
    """

    m: int
    n: int
    H: Callable[..., np.ndarray]
    lagrangian_hint: Optional[Callable[..., np.ndarray]] = None
    zoo_id: Optional[str] = None
    params: dict = field(default_factory=dict)

    def eval(self, x, i, p, u):
        return np.asarray(self.H(np.asarray(x, dtype=float), int(i),
                                 np.asarray(p, dtype=float),
                                 np.asarray(u, dtype=float)), dtype=float)


def in_coupling_cone(eta: np.ndarray, mode: int) -> bool:
    """Exact sign test for membership of eta in cone(mode)."""
    eta = np.asarray(eta, dtype=float)
    for j, v in enumerate(eta):
        if j != mode and v > 0.0:
            return False
    return float(np.sum(eta)) >= 0.0


ZOO_IDS = ("constant-coupling", "linear-B", "quadratic-plc", "eikonal-f")


def make_model(zoo_id: str, **params) -> HamiltonianModel:
    """Instantiate a named family from the built-in zoo.

    constant-coupling   H_i = |p| + u_i + offset            (m=2, n=1)
    linear-B            H_i = |p| - f_i(x) + (B u)_i        (m=2, n=1)
    quadratic-plc       H_i = p^2/2 - V_i(x)
                              + theta * max(u_i - u_other, 0)  (m=2, n=1)
    eikonal-f           H = |p| - f(x),  f = a + b cos(2 pi q x)  (m=1, n=1)

    Parameters override the documented defaults; unknown parameters raise
    ``KeyError``.
    """
    if zoo_id == "constant-coupling":
        opts = {"offset": 1.0}
        opts.update(_known(params, opts))
        off = float(opts["offset"])

        def H(x, i, p, u):
            return np.abs(p[..., 0]) + u[..., i] + off

        def lag(x, i, xi, eta):
            if abs(float(xi[0])) > 1.0 or not _eta_is(eta, _unit(2, i)):
                return _inf_like(x)
            return np.zeros(np.shape(x)[:-1]) - off

        return HamiltonianModel(2, 1, H, lag, zoo_id, opts)

    if zoo_id == "linear-B":
        opts = {"B": ((1.0, -1.0), (-1.0, 1.0))}
        opts.update(_known(params, opts))
        B = np.asarray(opts["B"], dtype=float)
        if B.shape != (2, 2):
            raise ValueError("linear-B expects a 2x2 coupling matrix")

        def H(x, i, p, u):
            # coupling summed first: exact on dyadic samples, so the
            # equality cases of the order checks stay exactly zero
            coupling = B[i, 0] * u[..., 0] + B[i, 1] * u[..., 1]
            return np.abs(p[..., 0]) - _lb_forcing(x, i) + coupling

        def lag(x, i, xi, eta):
            if abs(float(xi[0])) > 1.0 or not _eta_is(eta, B[i]):
                return _inf_like(x)
            return _lb_forcing(x, i)

        return HamiltonianModel(2, 1, H, lag, zoo_id, {"B": B})

    if zoo_id == "quadratic-plc":
        opts = {"theta": 1.0}
        opts.update(_known(params, opts))
        th = float(opts["theta"])

        def H(x, i, p, u):
            other = 1 - i
            return (0.5 * p[..., 0] ** 2 - _qp_potential(x, i)
                    + th * np.maximum(u[..., i] - u[..., other], 0.0))

        def lag(x, i, xi, eta):
            # eta traces the segment {s*(e_i - e_other) : 0 <= s <= theta}
            e = np.asarray(eta, dtype=float)
            s = e[i]
            seg = np.zeros(2)
            seg[i], seg[1 - i] = s, -s
            if not (0.0 <= s <= th and _eta_is(e, seg)):
                return _inf_like(x)
            return 0.5 * float(xi[0]) ** 2 + _qp_potential(x, i)

        return HamiltonianModel(2, 1, H, lag, zoo_id, opts)

    if zoo_id == "eikonal-f":
        opts = {"f_const": 2.0, "f_amp": 1.0, "f_freq": 1}
        opts.update(_known(params, opts))
        a, b, q = float(opts["f_const"]), float(opts["f_amp"]), int(opts["f_freq"])

        def f(x):
            return a + b * np.cos(2.0 * math.pi * q * x[..., 0])

        def H(x, i, p, u):
            return np.abs(p[..., 0]) - f(x)

        def lag(x, i, xi, eta):
            if abs(float(xi[0])) > 1.0 or not _eta_is(eta, np.zeros(1)):
                return _inf_like(x)
            return f(x)

        return HamiltonianModel(1, 1, H, lag, zoo_id, opts)

    raise KeyError(f"unknown zoo id {zoo_id!r}; known: {ZOO_IDS}")


def _known(params, opts):
    unknown = set(params) - set(opts)
    if unknown:
        raise KeyError(f"unknown zoo parameters {sorted(unknown)}")
    return params


def _unit(m, i):
    e = np.zeros(m)
    e[i] = 1.0
    return e


def _eta_is(eta, target):
    eta = np.asarray(eta, dtype=float)
    return eta.shape == np.shape(target) and bool(np.all(eta == target))


def _inf_like(x):
    return np.full(np.shape(x)[:-1], np.inf)


def _lb_forcing(x, i):
    if i == 0:
        return 1.0 + 0.5 * np.cos(2.0 * math.pi * x[..., 0])
    return 1.0 + 0.5 * np.sin(2.0 * math.pi * x[..., 0])


def _qp_potential(x, i):
    if i == 0:
        return 0.75 + 0.25 * np.cos(2.0 * math.pi * x[..., 0])
    return 0.75 + 0.25 * np.sin(2.0 * math.pi * x[..., 0])


# ---------------------------------------------------------------------------
# structure reports and sampling checkers
# ---------------------------------------------------------------------------

@dataclass
class StructureReport:
    check_name: str
    passed: bool
    worst_violation: float
    witness: Optional[dict]
    samples_used: int

    def to_json(self) -> str:
        return json.dumps({
            "check_name": self.check_name,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "samples_used": self.samples_used,
        })


def _dyadic(rng, lo, hi, size=None):
    """Uniform draw quantized to the dyadic lattice (exact float sums)."""
    raw = rng.uniform(lo, hi, size)
    return np.round(raw / DYADIC) * DYADIC


def _report(name, violations, witnesses, samples):
    """Fold raw signed violations into a StructureReport (clamped at 0)."""
    idx = int(np.argmax(violations)) if len(violations) else 0
    worst = max(0.0, float(violations[idx])) if len(violations) else 0.0
    witness = witnesses[idx] if (len(violations) and violations[idx] > 0.0) \
        else (witnesses[idx] if len(witnesses) else None)
    return StructureReport(name, worst <= CHECK_TOL, worst, witness, samples)


def check_monotone(model: HamiltonianModel, sample_count: int,
                   seed: int = 0) -> StructureReport:
    """Monotone-coupling check on random samples.

    Draws (x, p, v, k, delta) with delta_k = max_i delta_i >= 0, sets
    u = v + delta and records the worst violation of
    H_k(x, p, u) >= H_k(x, p, v).  Two companion inequalities are also
    sampled with random alpha >= 0: adding alpha to every mode never
    decreases H_i, and adding alpha to a foreign mode never increases H_j.
    """
    if sample_count < 1:
        raise EmptySampleSet("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    m, n = model.m, model.n
    violations, witnesses = [], []
    for _ in range(sample_count):
        x = _dyadic(rng, 0.0, 1.0, n)
        p = _dyadic(rng, -2.0, 2.0, n)
        v = _dyadic(rng, -2.0, 2.0, m)
        delta = _dyadic(rng, -1.0, 1.0, m)
        k = int(np.argmax(delta))
        delta[k] = max(delta[k], 0.0)
        u = v + delta
        viol = float(model.eval(x, k, p, v) - model.eval(x, k, p, u))
        tag = "coupling-order"

        alpha = _dyadic(rng, 0.0, 2.0)
        i = int(rng.integers(m))
        ones = np.ones(m)
        v2 = float(model.eval(x, i, p, u) - model.eval(x, i, p, u + alpha * ones))
        if v2 > viol:
            viol, tag = v2, "uniform-shift"
        if m > 1:
            j = int((i + 1 + rng.integers(m - 1)) % m)
            v3 = float(model.eval(x, j, p, u + alpha * _unit(m, i))
                       - model.eval(x, j, p, u))
            if v3 > viol:
                viol, tag = v3, "foreign-increase"
        violations.append(viol)
        witnesses.append({"x": x.tolist(), "p": p.tolist(), "v": v.tolist(),
                          "u": u.tolist(), "k": k, "alpha": float(alpha),
                          "inequality": tag})
    return _report("monotone", violations, witnesses, sample_count)


def check_convex(model: HamiltonianModel, sample_count: int,
                 seed: int = 0) -> StructureReport:
    """Midpoint-convexity of (p, u) -> H_i(x, p, u) on random pairs."""
    if sample_count < 1:
        raise EmptySampleSet("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    m, n = model.m, model.n
    violations, witnesses = [], []
    for _ in range(sample_count):
        x = _dyadic(rng, 0.0, 1.0, n)
        i = int(rng.integers(m))
        p, q = _dyadic(rng, -2.0, 2.0, n), _dyadic(rng, -2.0, 2.0, n)
        u, w = _dyadic(rng, -2.0, 2.0, m), _dyadic(rng, -2.0, 2.0, m)
        mid = float(model.eval(x, i, (p + q) / 2.0, (u + w) / 2.0))
        avg = 0.5 * (float(model.eval(x, i, p, u)) + float(model.eval(x, i, q, w)))
        violations.append(mid - avg)
        witnesses.append({"x": x.tolist(), "i": i, "p": p.tolist(),
                          "q": q.tolist(), "u": u.tolist(), "w": w.tolist()})
    return _report("convex", violations, witnesses, sample_count)


def check_shift_invariance(model: HamiltonianModel, c: Sequence[float],
                           sample_count: int, seed: int = 0) -> StructureReport:
    """|H_i(x, p, v + t*c) - H_i(x, p, v)| <= tol for t in {-1, 0.5, 2}."""
    rng = np.random.default_rng(seed)
    c = np.asarray(c, dtype=float)
    m, n = model.m, model.n
    violations, witnesses = [], []
    for _ in range(max(sample_count, 1)):
        x = _dyadic(rng, 0.0, 1.0, n)
        p = _dyadic(rng, -2.0, 2.0, n)
        v = _dyadic(rng, -2.0, 2.0, m)
        i = int(rng.integers(m))
        base = float(model.eval(x, i, p, v))
        for t in (-1.0, 0.5, 2.0):
            viol = abs(float(model.eval(x, i, p, v + t * c)) - base)
            violations.append(viol)
            witnesses.append({"x": x.tolist(), "i": i, "p": p.tolist(),
                              "v": v.tolist(), "t": t})
    return _report("shift-invariance", violations, witnesses, sample_count)


# ---------------------------------------------------------------------------
# coercivity profile
# ---------------------------------------------------------------------------

@dataclass
class CoercivityProfile:
    """Sampled lower envelope alpha(r) on spheres |p| = r and supremum beta.

    alpha(r) estimates the infimum of H_i over the torus, |u| <= R and
    |p| = r; beta the supremum of H_i(x, 0, u) over the same (x, u) range.
    """

    R: float
    table: list  # [(r, alpha_r)] with r ascending
    beta: float

    def alpha_at_or_below(self, r: float) -> float:
        """Largest stored radius <= r, the conservative lookup."""
        below = [a for (rr, a) in self.table if rr <= r]
        if not below:
            raise MissingRadius(f"no stored radius at or below {r}")
        return below[-1]


def coercivity_profile(model: HamiltonianModel, R: float,
                       radii: Sequence[float],
                       sample_density: int) -> CoercivityProfile:
    """Deterministic grid estimate of the coercivity constants.

    x runs over a uniform torus grid, u over a lattice of the closed ball
    of radius R, p over the sphere of each radius (both signs in 1-d, a
    uniform fan of angles in 2-d).
    """
    if sample_density <= 0:
        raise EmptySampleSet("sample_density must be positive")
    radii = [float(r) for r in radii]
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise EmptySampleSet("radii must be nonempty and ascending")

    # one evaluation per (mode, p) over the (x, u) grid; x as (nx, 1, n)
    # against u as (nu, m), so terms of H in x alone are computed once per x
    xs = product_grid(np.arange(sample_density) / sample_density,
                      model.n)[:, None, :]
    us = _ball_grid(model.m, R, sample_density)

    def values(i, p):
        return model.eval(xs, i, p, us)

    beta = max(float(np.max(values(i, np.zeros(model.n))))
               for i in range(model.m))
    table = []
    for r in radii:
        alpha = min(float(np.min(values(i, p)))
                    for p in _sphere_points(model.n, r, sample_density)
                    for i in range(model.m))
        table.append((r, alpha))
    return CoercivityProfile(R=float(R), table=table, beta=beta)


def check_erg_condition(profile: CoercivityProfile, n: int) -> bool:
    """Whether beta < alpha(2R / sqrt(n)) using the conservative lookup."""
    r_star = 2.0 * profile.R / math.sqrt(n)
    if not any(r >= r_star for r, _ in profile.table):
        raise MissingRadius(f"coercivity table has no radius >= {r_star}")
    exact = [a for (r, a) in profile.table if r == r_star]
    alpha = exact[0] if exact else profile.alpha_at_or_below(r_star)
    return profile.beta < alpha


def product_grid(axis, dims: int) -> np.ndarray:
    """Every point of axis^dims as a row, in ``ij`` order (first coordinate
    slowest)."""
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _ball_grid(m, R, density):
    g = product_grid(np.linspace(-R, R, max(density, 3)), m)
    if m == 1:
        return g
    return g[np.linalg.norm(g, axis=1) <= R + 1e-12]


def _sphere_points(n, r, density):
    if n == 1:
        return [np.array([-r]), np.array([r])]
    angles = 2.0 * math.pi * np.arange(max(density, 4)) / max(density, 4)
    return [np.array([r * math.cos(a), r * math.sin(a)]) for a in angles]


# ---------------------------------------------------------------------------
# numerical Legendre-Fenchel transform
# ---------------------------------------------------------------------------

@dataclass
class LagrangianTable:
    """Tabulated running cost of one mode on (x, xi, eta) grids.

    ``values[ix, a, b]`` holds L_i(x_points[ix], xi_grid[a], eta_grid[b]);
    entries above the transform's ``clip_bound`` and entries whose eta
    falls outside cone(mode) are stored as ``inf``.
    """

    mode: int
    m: int
    n: int
    x_points: np.ndarray   # (nx, n)
    xi_grid: np.ndarray    # (kxi, n)
    eta_grid: np.ndarray   # (keta, m)
    values: np.ndarray     # (nx, kxi, keta)

    def finite_entries(self):
        """Yield (x, xi, eta, value) for every finite table entry."""
        finite = np.isfinite(self.values)
        for ix, a, b in zip(*np.nonzero(finite)):
            yield (self.x_points[ix], self.xi_grid[a], self.eta_grid[b],
                   float(self.values[ix, a, b]))

    def lookup(self, xi, eta) -> np.ndarray:
        """Per-x values at an exact (xi, eta) grid match, else raises."""
        a = _grid_index(self.xi_grid, xi)
        b = _grid_index(self.eta_grid, eta)
        return self.values[:, a, b]


def _grid_index(grid, point):
    point = np.asarray(point, dtype=float)
    hits = np.nonzero(np.all(np.abs(grid - point) <= 1e-12, axis=1))[0]
    if len(hits) == 0:
        raise KeyError(f"point {point.tolist()} not on grid")
    return int(hits[0])


def _as_grid(arr, width):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if width == 1 else arr.reshape(1, -1)
    if arr.shape[1] != width:
        raise ValueError(f"grid width {arr.shape[1]} != {width}")
    return arr


def default_search_grid(radius: float, points_per_axis: int, dims: int) -> np.ndarray:
    return product_grid(np.linspace(-radius, radius, points_per_axis), dims)


def legendre_transform(model: HamiltonianModel, mode: int, x,
                       xi_grid, eta_grid, p_grid=None, u_grid=None,
                       clip_bound: float = DEFAULT_CLIP) -> LagrangianTable:
    """Grid supremum L_i(x, xi, eta) = max_{p,u} [xi.p + eta.u - H_i].

    The supremum is taken over a bounded (p, u) search grid; the conjugate
    of a coercive convex function is attained on a bounded set, and the
    default search radius is ``SEARCH_SCALE * max(2 max|xi|, 2 max|eta|, 2)``.
    Values above ``clip_bound`` are reported as infinite.  For eta outside
    cone(mode) the supremum diverges along an explicit ray, so the entry is
    forced infinite without searching.
    """
    xi_grid = _as_grid(xi_grid, model.n)
    eta_grid = _as_grid(eta_grid, model.m)
    if len(xi_grid) == 0 or len(eta_grid) == 0:
        raise ValueError("xi and eta grids must be nonempty")
    x_points = np.atleast_2d(np.asarray(x, dtype=float))
    if x_points.shape[1] != model.n:
        raise ValueError("x points have wrong dimension")

    if p_grid is None or u_grid is None:
        rad = SEARCH_SCALE * max(2.0 * np.abs(xi_grid).max(initial=0.0),
                                 2.0 * np.abs(eta_grid).max(initial=0.0), 2.0)
        if p_grid is None:
            p_grid = default_search_grid(rad, 129 if model.n == 1 else 33, model.n)
        if u_grid is None:
            u_grid = default_search_grid(rad, 65 if model.m == 1 else 25, model.m)
    p_grid = _as_grid(p_grid, model.n)
    u_grid = _as_grid(u_grid, model.m)

    # product search set, evaluated once per x
    P = np.repeat(p_grid, len(u_grid), axis=0)
    U = np.tile(u_grid, (len(p_grid), 1))
    values = np.full((len(x_points), len(xi_grid), len(eta_grid)), np.inf)
    admissible = np.array([in_coupling_cone(e, mode) for e in eta_grid])
    for ix, xp in enumerate(x_points):
        hvals = model.eval(np.broadcast_to(xp, (len(P), model.n)), mode, P, U)
        for b, eta in enumerate(eta_grid):
            if not admissible[b]:
                continue
            base = U @ eta - hvals
            for a, xi in enumerate(xi_grid):
                val = float(np.max(P @ xi + base))
                values[ix, a, b] = val if val <= clip_bound else np.inf
    return LagrangianTable(mode=mode, m=model.m, n=model.n, x_points=x_points,
                           xi_grid=xi_grid, eta_grid=eta_grid, values=values)


def fenchel_equality_check(model: HamiltonianModel, table: LagrangianTable,
                           sample_count: int, seed: int = 0,
                           recovery_tol: Optional[float] = None) -> StructureReport:
    """Two-sided audit of the transform against the model.

    The one-sided inequality xi.p + eta.u - L <= H must hold for every
    finite entry at every sample (tolerance 1e-9); the max over entries
    must also recover H within the grid-resolution tolerance at samples
    drawn from the range the xi grid can represent.
    """
    entries = list(table.finite_entries())
    rng = np.random.default_rng(seed)
    if recovery_tol is None:
        recovery_tol = max(CHECK_TOL, 0.5 * _max_spacing(table.xi_grid) ** 2)
    p_rad = max(1.0, max((np.abs(xi).max() for (_, xi, _, _) in entries),
                         default=1.0))
    violations, witnesses = [], []
    for _ in range(max(sample_count, 1)):
        x, xi0, _, _ = entries[int(rng.integers(len(entries)))] if entries \
            else (table.x_points[0], None, None, None)
        p = _dyadic(rng, -p_rad, p_rad, model.n)
        u = _dyadic(rng, -2.0, 2.0, model.m)
        h = float(model.eval(x, table.mode, p, u))
        best = -math.inf
        worst_fy = -math.inf
        for (xe, xi, eta, val) in entries:
            if not np.array_equal(xe, x):
                continue
            score = float(xi @ p + eta @ u) - val
            best = max(best, score)
            worst_fy = max(worst_fy, score - h)
        viol = max(worst_fy, (h - best) - recovery_tol if best > -math.inf
                   else math.inf)
        violations.append(viol)
        witnesses.append({"x": np.asarray(x).tolist(), "p": p.tolist(),
                          "u": u.tolist(), "H": h,
                          "recovered": best if best > -math.inf else None})
    if not entries:
        return StructureReport("fenchel-equality", False, math.inf, None, 0)
    return _report("fenchel-equality", violations, witnesses, sample_count)


def _max_spacing(grid):
    if len(grid) < 2:
        return 0.0
    spacing = 0.0
    for d in range(grid.shape[1]):
        vals = np.unique(grid[:, d])
        if len(vals) > 1:
            spacing = max(spacing, float(np.max(np.diff(vals))))
    return spacing


def check_coupling_domain(table: LagrangianTable) -> StructureReport:
    """Every finite entry must lie in cone(mode); exact sign comparisons.

    An empty table passes vacuously.
    """
    worst = 0.0
    witness = None
    count = 0
    for (x, xi, eta, _val) in table.finite_entries():
        count += 1
        excess = 0.0
        for j, v in enumerate(eta):
            if j != table.mode:
                excess = max(excess, v)
        excess = max(excess, -float(np.sum(eta)))
        if excess > worst:
            worst = excess
            witness = {"x": np.asarray(x).tolist(), "xi": xi.tolist(),
                       "eta": eta.tolist()}
    return StructureReport("coupling-domain", worst <= 0.0, worst, witness, count)
