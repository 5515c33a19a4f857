import itertools
import re

import numpy as np
import pytest

import discountlab as dl
from discountlab.discretize import (WORK, ModeControls, Relations, Stencil,
                                    _linearized_rows, bellman_policy,
                                    coarse_system, control_values,
                                    default_eta_spec, drift_stencil,
                                    linearized_matrix, policy_matrix, prolong,
                                    sample_controls, system_from_json,
                                    system_to_json, with_cost)
from discountlab.errors import (BadDimension, BadResolution, BadValue,
                                CouplingOutsideCone, MissingCost)


def test_build_grid_examples():
    g = dl.build_grid(1, 4)
    assert g.num_states == 4 and g.dx == 0.25
    assert dl.build_grid(2, 8).num_states == 64
    with pytest.raises(BadDimension):
        dl.build_grid(3, 8)
    with pytest.raises(BadResolution):
        dl.build_grid(1, 1)


def test_grid_periodic_neighbors():
    g = dl.build_grid(1, 4)
    assert g.forward(0).tolist() == [1, 2, 3, 0]
    assert g.backward(0).tolist() == [3, 0, 1, 2]
    g2 = dl.build_grid(2, 3)
    # state (2, 1) -> flat 7; forward along axis 0 wraps to (0, 1) -> 1
    assert g2.forward(0)[7] == 1
    assert g2.backward(1)[3] == 5  # (1,0) -> (1,2)
    # every entry against coordinates c, state sum_d c_d N^(n-1-d)
    for n in (1, 2):
        for N in (2, 3, 5):
            g = dl.build_grid(n, N)
            coords = [np.array(c) for c in itertools.product(range(N),
                                                             repeat=n)]
            state = {tuple(c): s for s, c in enumerate(coords)}
            assert g.x.shape == (N ** n, n)
            for s, c in enumerate(coords):
                assert g.x[s].tolist() == (c / N).tolist()
                for d in range(n):
                    step = np.eye(n, dtype=int)[d]
                    assert g.forward(d)[s] == state[tuple((c + step) % N)]
                    assert g.backward(d)[s] == state[tuple((c - step) % N)]


def test_only_the_frozen_systems_carry_inverses():
    sys_ = dl.standard_system("quadratic-plc", N=32)
    assert sys_.inverses is None
    for frozen in sys_.uncoupled:
        assert isinstance(frozen.inverses, dict)
        assert coarse_system(frozen).inverses is None
        assert dl.shift_costs(frozen, 1.0).inverses is None
    assert coarse_system(sys_).inverses is None


def test_sample_controls_constant_coupling():
    m = dl.make_model("constant-coupling")
    mc = sample_controls(m, 0, 1.0, 3, [np.array([1.0, 0.0])])
    assert mc.xi[:, 0].tolist() == [-1.0, 0.0, 1.0]
    cost = mc.cost_fn(np.zeros((4, 1)))
    assert np.all(cost == -1.0)


def test_sample_controls_inserts_zero():
    m = dl.make_model("constant-coupling")
    mc = sample_controls(m, 0, 1.0, 2, [np.array([1.0, 0.0])])
    assert 0.0 in mc.xi[:, 0].tolist()


def test_sample_controls_quadratic_cost_matches_numeric_transform():
    m = dl.make_model("quadratic-plc")
    mc = sample_controls(m, 0, 2.0, 9,
                         [np.array([0.0, 0.0]), np.array([1.0, -1.0])])
    xs = (np.arange(8) / 8.0).reshape(-1, 1)
    cost = mc.cost_fn(xs)
    # cost is xi^2/2 + V_1(x), independent of eta
    v1 = 0.75 + 0.25 * np.cos(2 * np.pi * xs[:, 0])
    for a in range(len(mc)):
        assert np.allclose(cost[:, a], 0.5 * mc.xi[a, 0] ** 2 + v1,
                           atol=1e-12)
    tab = dl.legendre_transform(m, 0, xs, np.array([0.5]),
                                np.array([[1.0, -1.0]]))
    numeric = tab.values[:, 0, 0]
    assert np.max(np.abs(numeric - (0.125 + v1))) <= 1e-3


def test_sample_controls_rejects_cone_violations():
    m = dl.make_model("constant-coupling")
    with pytest.raises(CouplingOutsideCone):
        sample_controls(m, 0, 1.0, 3, [np.array([1.0, 1.0])])


def test_sample_controls_rejects_bad_xi_radius():
    # a negative radius would reverse the control order: [1, 0, -1]
    m = dl.make_model("eikonal-f")
    for radius in (-1.0, float("nan"), float("inf")):
        with pytest.raises(BadValue):
            sample_controls(m, 0, radius, 3, [np.zeros(1)])
        with pytest.raises(BadValue):
            dl.standard_system("eikonal-f", N=8, xi_radius=radius)
    assert sample_controls(m, 0, 0.0, 3, [np.zeros(1)]).xi.tolist() == \
        [[0.0]] * 3


@pytest.mark.parametrize("xi", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_drift_fails_the_certificate(xi):
    # NaN passes a bare `diag < 0` test; an infinite weight is no stencil
    mc = ModeControls(np.array([[0.0], [xi]]), np.zeros((2, 1)),
                      lambda x: np.zeros((len(x), 2)))
    with pytest.raises(CouplingOutsideCone):
        dl.assemble_system(dl.build_grid(1, 8), [mc])


def test_sample_controls_rejects_infinite_cost():
    m = dl.make_model("eikonal-f")
    with pytest.raises(MissingCost):
        sample_controls(m, 0, 2.0, 3, [np.zeros(1)])


def test_sample_controls_names_the_first_control_without_a_cost():
    # finite everywhere but at the middle control, xi = 0
    def lag(x, i, xi, eta):
        return np.where(xi[:, 0] == 0.0, np.inf, 1.0) \
            + np.zeros(np.shape(x)[:-1] + (1,))

    model = dl.HamiltonianModel(1, 1, lambda x, i, p, u: np.abs(p[..., 0]),
                                lag)
    with pytest.raises(MissingCost, match=re.escape(
            "no finite cost for mode 0 control xi=[0.0], eta=[0.0]")):
        sample_controls(model, 0, 1.0, 3, [np.zeros(1)])


@pytest.mark.parametrize("bad", [(1, 2), (2, 1)])
def test_certificate_names_the_first_failing_control(bad):
    # a cone violation (eta = -1 < 0 in a one-mode system) and a NaN drift
    # on two controls: the lower-numbered one is reported, as in a loop
    # over the controls that checks the cone before the diagonal
    cone, drift = bad
    xi, eta = np.zeros((4, 1)), np.zeros((4, 1))
    eta[cone], xi[drift] = -1.0, np.nan
    mc = ModeControls(xi, eta, lambda x: np.zeros((len(x), 4)))
    message = "mode 0 control 1 eta=[-1.0]" if cone == 1 else \
        "mode 0 control 1: diagonal nan is negative or not finite"
    with pytest.raises(CouplingOutsideCone, match=f"^{re.escape(message)}$"):
        dl.assemble_system(dl.build_grid(1, 8), [mc])


def test_upwind_directional_examples():
    g = dl.build_grid(1, 4)
    u = np.array([[0.0, 1.0, 2.0, 3.0]])
    assert dl.upwind_directional(np.zeros((1, 4)), g, 0, 2,
                                 np.array([0.7])) == 0.0
    assert dl.upwind_directional(u, g, 0, 1, np.array([1.0])) == 4.0
    assert dl.upwind_directional(u, g, 0, 1, np.array([-1.0])) == -4.0


def test_upwind_linear_and_homogeneous():
    rng = np.random.default_rng(3)
    g = dl.build_grid(2, 5)
    xi = rng.uniform(-2, 2, 2)
    u = rng.standard_normal((1, g.num_states))
    w = rng.standard_normal((1, g.num_states))
    a, b = 1.7, -0.4
    for s in range(g.num_states):
        lhs = dl.upwind_directional(a * u + b * w, g, 0, s, xi)
        rhs = a * dl.upwind_directional(u, g, 0, s, xi) \
            + b * dl.upwind_directional(w, g, 0, s, xi)
        assert abs(lhs - rhs) <= 1e-9
        scaled = dl.upwind_directional(u, g, 0, s, 2.5 * xi)
        assert abs(scaled - 2.5 * dl.upwind_directional(u, g, 0, s, xi)) \
            <= 1e-9 * (1 + abs(scaled))


def test_bellman_residual_closed_forms(instance_a):
    u = np.full((2, 4), -0.5)
    assert np.all(dl.bellman_residual(instance_a, 1.0, u) == 0.0)
    assert np.all(dl.bellman_residual(instance_a, 1.0, np.zeros((2, 4))) == 1.0)


def test_bellman_residual_solver_output(instance_b):
    u, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    assert np.max(np.abs(dl.bellman_residual(instance_b, 0.5, u))) <= 1e-10
    uv, _ = dl.value_iterate(instance_b, 0.5, None, tol=1e-12)
    assert np.max(np.abs(u - uv)) <= 1e-9


def test_assemble_shapes_and_certificate(instance_a, instance_b):
    assert instance_a.m == 2 and instance_a.num_states == 4
    assert instance_a.num_controls(0) == 3
    assert instance_b.total_vars == 2 * 8 * 18
    for sys_, lam in ((instance_a, 0.3), (instance_b, 0.3)):
        A = linearized_matrix(sys_, lam)
        for r in range(A.shape[0]):
            i, x, a = sys_.var_tuple(r)
            diag = A[r, i * sys_.num_states + x]
            off = np.delete(A[r], i * sys_.num_states + x)
            assert diag >= lam - 1e-12
            assert np.all(off <= 1e-12)
            eta_sum = float(sys_.controls[i].eta[a].sum())
            assert abs(A[r].sum() - (lam + eta_sum)) <= 1e-9
            assert lam + eta_sum >= lam - 1e-15


def test_assemble_missing_mode():
    m = dl.make_model("constant-coupling")
    g = dl.build_grid(1, 4)
    mc0 = sample_controls(m, 0, 1.0, 3, [np.array([1.0, 0.0])])
    with pytest.raises(MissingCost):
        dl.assemble_system(g, [mc0])


def test_shift_adds_at_least_lambda_c(instance_b):
    rng = np.random.default_rng(4)
    lam = 0.7
    u = rng.standard_normal((2, 8))
    base = dl.bellman_residual(instance_b, lam, u)
    for c in (0.0, 0.3, 1.2):
        shifted = dl.bellman_residual(instance_b, lam, u + c)
        assert np.all(shifted - base >= lam * c - 1e-10)


def test_adjoint_consistency_bit_identical(instance_a, instance_b):
    # measure constraint matrix is the literal transpose of the operator
    for sys_, lam in ((instance_a, 0.5), (instance_b, 0.25)):
        A = linearized_matrix(sys_, lam)
        M = dl.assemble_closed_constraints(sys_, lam, z=0, k=0).A
        assert np.array_equal(M, A.T)
        # and the matrix reproduces the apply path on basis fields exactly
        # (compared after the final cost subtraction, the shared last op)
        S = sys_.num_states
        cost_flat = sys_.cost_flat()
        for j in range(sys_.m):
            for y in range(0, S, max(1, S // 4)):
                e = np.zeros((sys_.m, S))
                e[j, y] = 1.0
                applied = np.concatenate(
                    [v.T.reshape(-1) for v in control_values(sys_, lam, e)])
                assert np.array_equal(applied, A[:, j * S + y] - cost_flat)


def _reference_linearized(sys_, lam):
    """linearized_matrix built row by row from drift_stencil and eta, each
    entry summed in the order diagonal, upwind terms, couplings."""
    S = sys_.num_states
    A = np.zeros((sys_.total_vars, sys_.m * S))
    for r in range(sys_.total_vars):
        i, x, a = sys_.var_tuple(r)
        mc = sys_.controls[i]
        diag, terms = drift_stencil(sys_.grid, mc.xi[a])
        A[r, i * S + x] += lam + diag
        for nbr, w in terms:
            A[r, i * S + nbr[x]] += w
        for j in range(sys_.m):
            if mc.eta[a, j] != 0.0:
                A[r, j * S + x] += mc.eta[a, j]
    return A


@pytest.mark.parametrize("zoo_id", ["constant-coupling", "linear-B",
                                    "quadratic-plc", "eikonal-f"])
def test_stencil_matches_row_by_row_reference(zoo_id):
    sys_ = dl.standard_system(zoo_id)
    again = dl.standard_system(zoo_id)
    assert again.stencil is not sys_.stencil
    rng = np.random.default_rng(11)
    S = sys_.num_states
    for lam in (0.0, 0.01, 0.5):
        A = linearized_matrix(sys_, lam)
        assert np.array_equal(A, _reference_linearized(sys_, lam))
        assert np.array_equal(linearized_matrix(again, lam), A)
        for _ in range(5):
            policy = np.stack([rng.integers(0, sys_.num_controls(i), S)
                               for i in range(sys_.m)])
            rows = np.concatenate(
                [[sys_.var_index(i, x, policy[i, x]) for x in range(S)]
                 for i in range(sys_.m)])
            assert np.array_equal(policy_matrix(sys_, lam, policy), A[rows])
            some = rng.choice(rows, size=3, replace=False)
            assert np.array_equal(_linearized_rows(sys_, lam, some), A[some])


def _reference_stencil(sys_):
    """``DiscreteSystem.stencil`` built the slow way: for each control, one
    numpy block per slot (diagonal, upwind neighbors, nonzero couplings),
    concatenated at the end."""
    S, states = sys_.num_states, np.arange(sys_.num_states)
    rows, cols, vals, on_diag = [], [], [], []

    def block(r, c, v, diag=False):
        rows.append(r)
        cols.append(c)
        vals.append(np.full(S, v, dtype=float))
        on_diag.append(np.full(S, diag))

    for i, mc in enumerate(sys_.controls):
        for a in range(len(mc)):
            r = sys_.layout.base[i * S:(i + 1) * S] + a
            diag, terms = drift_stencil(sys_.grid, mc.xi[a])
            block(r, i * S + states, diag, diag=True)
            for nbr, w in terms:
                block(r, i * S + nbr, w)
            for j in range(sys_.m):
                if mc.eta[a, j] != 0.0:
                    block(r, j * S + states, mc.eta[a, j])
    return Stencil(rows=np.concatenate(rows), cols=np.concatenate(cols),
                   vals=np.concatenate(vals),
                   lam_slots=np.flatnonzero(np.concatenate(on_diag)))


_STENCIL_CASES = {
    **{zoo: lambda request, zoo=zoo: dl.standard_system(zoo)
       for zoo in dl.model.ZOO_IDS},
    # N = 2: each axis's forward neighbor is its backward neighbor
    "two-d-2": lambda request: request.getfixturevalue("two_d_system")(2),
    "two-d-4": lambda request: request.getfixturevalue("two_d_system")(4),
    # loaded from JSON, couplings of both signs, 18 and 17 controls
    "loaded-uneven": lambda request: request.getfixturevalue(
        "instance_b_uneven"),
    "uncoupled": lambda request: dl.standard_system(
        "quadratic-plc").uncoupled[1],
    "coarse": lambda request: coarse_system(dl.standard_system("linear-B",
                                                               N=16)),
}


@pytest.mark.parametrize("case", _STENCIL_CASES)
def test_stencil_matches_the_block_by_block_reference(case, request):
    # the same triplets in the same order, bit for bit, so every bincount
    # over them sums exactly as the reference's would
    sys_ = _STENCIL_CASES[case](request)
    for got, ref in zip(sys_.stencil, _reference_stencil(sys_)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_cost_only_copies_share_the_stencil():
    sys_ = dl.standard_system("quadratic-plc")
    built = WORK["stencils"]
    shifted = dl.shift_costs(sys_, [1.0, 2.0])
    copy = with_cost(shifted, [c.copy() for c in sys_.cost], "again")
    assert WORK["stencils"] == built + 1        # the parent's, built once
    assert shifted.stencil is sys_.stencil is copy.stencil
    assert shifted.layout is sys_.layout is copy.layout
    assert shifted.label == "quadratic-plc+shift" and copy.inverses is None
    assert np.array_equal(shifted.cost[1], sys_.cost[1] + 2.0)
    assert np.array_equal(linearized_matrix(copy, 0.5),
                          _reference_linearized(sys_, 0.5))


def _reference_control_values(sys_, lam, u):
    """control_values computed row by row: for each (i, x, a) the sum of
    (lam + diag) u_i(x), then the upwind terms, then each nonzero
    eta_{a,j} u_j(x), in that order, minus the cost."""
    out = [np.empty((sys_.num_controls(i), sys_.num_states))
           for i in range(sys_.m)]
    for r in range(sys_.total_vars):
        i, x, a = sys_.var_tuple(r)
        mc = sys_.controls[i]
        diag, terms = drift_stencil(sys_.grid, mc.xi[a])
        val = (lam + diag) * u[i, x]
        for nbr, w in terms:
            val += w * u[i, nbr[x]]
        for j in range(sys_.m):
            if mc.eta[a, j] != 0.0:
                val += mc.eta[a, j] * u[j, x]
        out[i][a, x] = val - sys_.cost[i][x, a]
    return out


@pytest.mark.parametrize("zoo_id", ["constant-coupling", "linear-B",
                                    "quadratic-plc", "eikonal-f"])
def test_control_values_match_row_by_row_reference(zoo_id):
    sys_ = dl.standard_system(zoo_id)
    rng = np.random.default_rng(12)
    for lam in (0.0, 0.01, 0.5):
        for _ in range(3):
            u = rng.standard_normal((sys_.m, sys_.num_states))
            vals = control_values(sys_, lam, u)
            ref = _reference_control_values(sys_, lam, u)
            assert len(vals) == sys_.m
            for v, r in zip(vals, ref):
                assert np.array_equal(v, r)
            res, _ = bellman_policy(sys_, lam, u)
            assert np.array_equal(res, dl.bellman_residual(sys_, lam, u))


@pytest.mark.parametrize("zoo_id", ["constant-coupling", "linear-B",
                                    "quadratic-plc", "eikonal-f", "uneven"])
def test_relations_kernel_matches_row_by_row_reference(zoo_id, request):
    # "uneven": 18 controls in mode 0, 17 in mode 1, loaded from JSON
    sys_ = request.getfixturevalue("instance_b_uneven") \
        if zoo_id == "uneven" else dl.standard_system(zoo_id)
    rng = np.random.default_rng(13)
    for lam in (0.5, 0.01, 0.0):
        rel = Relations(sys_, lam)
        for _ in range(3):
            u = rng.standard_normal((sys_.m, sys_.num_states))
            ref = _reference_control_values(sys_, lam, u)
            flat = rel.apply(u)
            assert np.array_equal(
                flat, np.concatenate([r.T.reshape(-1) for r in ref]))
            first_max = [[list(r[:, x]).index(max(r[:, x]))
                          for x in range(sys_.num_states)] for r in ref]
            policy = rel.greedy(flat)
            assert np.array_equal(policy, first_max)
            assert np.array_equal(rel.at(flat, policy),
                                  [r.max(axis=0) for r in ref])


def test_policy_tie_break_lowest_index(instance_a):
    _, pol = bellman_policy(instance_a, 1.0, np.zeros((2, 4)))
    assert np.all(pol == 0)


def test_serialization_roundtrip(instance_b):
    text = system_to_json(instance_b)
    loaded = system_from_json(text)
    assert system_to_json(loaded) == text


def test_serialization_reverifies_invariants(instance_a):
    import json
    doc = json.loads(system_to_json(instance_a))
    bad = json.loads(system_to_json(instance_a))
    bad["controls"][0]["eta"] = [1.0, 1.0]
    with pytest.raises(CouplingOutsideCone):
        system_from_json(json.dumps(bad))
    bad = json.loads(system_to_json(instance_a))
    bad["controls"][0]["eta"] = [float("nan"), 0.0]
    with pytest.raises(CouplingOutsideCone):
        system_from_json(json.dumps(bad))
    bad["controls"][0]["eta"] = [float("inf"), 0.0]    # own mode
    with pytest.raises(CouplingOutsideCone):
        system_from_json(json.dumps(bad))
    bad = json.loads(system_to_json(instance_a))
    bad["cost"][5] = float("nan")
    with pytest.raises(MissingCost):
        system_from_json(json.dumps(bad))
    doc["cost"] = doc["cost"][:-1]
    with pytest.raises(MissingCost):
        system_from_json(json.dumps(doc))


def test_standard_system_defaults():
    for zid, (n_states, n_controls) in {
            "constant-coupling": (4, 3), "linear-B": (8, 3),
            "quadratic-plc": (8, 18), "eikonal-f": (32, 3)}.items():
        sys_ = dl.standard_system(zid)
        assert sys_.num_states == n_states
        assert sys_.num_controls(0) == n_controls
        for i in range(sys_.m):
            for eta in sys_.controls[i].eta:
                assert dl.model.in_coupling_cone(eta, i)


def test_default_eta_specs_match_zoo():
    m = dl.make_model("quadratic-plc")
    etas = default_eta_spec(m, 1)
    assert np.array_equal(etas[0], np.zeros(2))
    assert np.array_equal(etas[1], np.array([-1.0, 1.0]))


def test_table_backed_system_matches_closed_form():
    # numeric transform on the grid points feeds the control sampler and
    # reproduces the hint-based system's solution
    m = dl.make_model("eikonal-f")
    g = dl.build_grid(1, 8)
    tab = dl.legendre_transform(m, 0, g.x, np.array([-1.0, 0.0, 1.0]),
                                np.zeros((1, 1)),
                                p_grid=np.linspace(-4, 4, 2001).reshape(-1, 1),
                                u_grid=np.zeros((1, 1)))
    mc = sample_controls(tab, 0, 1.0, 3, [np.zeros(1)])
    sys_tab = dl.assemble_system(g, [mc], label="eikonal-table")
    sys_hint = dl.standard_system("eikonal-f", N=8)
    u_tab, _, _ = dl.policy_iterate(sys_tab, 0.5, tol=1e-11)
    u_hint, _, _ = dl.policy_iterate(sys_hint, 0.5, tol=1e-11)
    assert np.max(np.abs(u_tab - u_hint)) <= 1e-3   # transform grid error


def test_table_backed_sampling_rejects_missing_points():
    m = dl.make_model("eikonal-f")
    g = dl.build_grid(1, 4)
    tab = dl.legendre_transform(m, 0, g.x, np.array([-1.0, 0.0, 1.0]),
                                np.zeros((1, 1)))
    with pytest.raises(MissingCost):
        sample_controls(tab, 0, 0.5, 3, [np.zeros(1)])   # 0.5 not on grid


def _hint_table(model, mode, x_points, xi_grid, eta_grid):
    """The model's closed-form cost at every grid (x, xi, eta), as a table."""
    xi_rows = np.repeat(xi_grid, len(eta_grid), axis=0)
    eta_rows = np.tile(eta_grid, (len(xi_grid), 1))
    values = model.lagrangian_hint(x_points, mode, xi_rows, eta_rows)
    return dl.model.LagrangianTable(
        mode=mode, m=model.m, n=model.n, x_points=x_points, xi_grid=xi_grid,
        eta_grid=eta_grid, values=values.reshape(len(x_points), len(xi_grid),
                                                 len(eta_grid)))


def test_table_backed_costs_are_the_hint_costs():
    # a table of the hint's own values on grids wider than the samples
    # and out of order: the row lookup finds every control's column
    model, g = dl.make_model("quadratic-plc"), dl.build_grid(1, 8)
    etas = default_eta_spec(model, 1)
    xi_grid = np.array([[1.0], [-2.0], [0.0], [-0.5], [-1.0], [2.0]])
    eta_grid = np.vstack([etas[1], [0.5, -0.5], etas[0]])
    tab = _hint_table(model, 1, g.x, xi_grid, eta_grid)
    from_table = sample_controls(tab, 1, 1.0, 3, etas)
    from_hint = sample_controls(model, 1, 1.0, 3, etas)
    assert len(from_table) == 6
    assert np.array_equal(from_table.xi, from_hint.xi)
    assert np.array_equal(from_table.eta, from_hint.eta)
    assert np.array_equal(from_table.cost_fn(g.x), from_hint.cost_fn(g.x))
    # the first control off the grids (xi = 0.5), then the first control
    # with an infinite cost, is the one named
    with pytest.raises(MissingCost, match=re.escape(
            f"xi=[0.5], eta={etas[0].tolist()} not on the table grids")):
        sample_controls(tab, 1, 0.5, 3, etas)
    tab.values[5, 2, 0] = np.inf
    with pytest.raises(MissingCost, match=re.escape(
            f"infinite at xi=[0.0], eta={etas[1].tolist()}")):
        sample_controls(tab, 1, 1.0, 3, etas)


# ---------------------------------------------------------------------------
# grid coarsening
# ---------------------------------------------------------------------------

def _assert_same_system(a, b):
    assert (a.grid.n, a.grid.N, a.m) == (b.grid.n, b.grid.N, b.m)
    for i in range(a.m):
        assert np.array_equal(a.controls[i].xi, b.controls[i].xi)
        assert np.array_equal(a.controls[i].eta, b.controls[i].eta)
        assert np.array_equal(a.cost[i], b.cost[i])
    for x, y in zip(a.stencil, b.stencil):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("zoo_id", dl.model.ZOO_IDS)
def test_coarse_system_is_the_system_on_half_the_grid(zoo_id):
    # the coarse points are the even fine points, bit for bit
    coarse = coarse_system(dl.standard_system(zoo_id, N=32))
    _assert_same_system(coarse, dl.standard_system(zoo_id, N=16))


def test_coarse_system_in_two_dimensions(two_d_system):
    _assert_same_system(coarse_system(two_d_system(8)), two_d_system(4))


def test_coarse_system_rejects_odd_n():
    with pytest.raises(BadResolution, match="N = 33"):
        coarse_system(dl.standard_system("eikonal-f", N=33))


def test_coarse_system_needs_no_cost_source():
    fine = dl.standard_system("quadratic-plc", N=32)
    loaded = system_from_json(system_to_json(fine))
    _assert_same_system(coarse_system(loaded), coarse_system(fine))
    scalar = fine.uncoupled[1]
    scalar.cost[0] = fine.cost[1].copy()
    coarse = coarse_system(scalar)
    assert np.array_equal(coarse.cost[0], fine.cost[1][::2])
    assert np.array_equal(coarse.controls[0].xi, fine.controls[1].xi)


def test_prolong_interpolates_linearly_and_periodically(rng):
    u = rng.standard_normal((2, 8))
    fine = prolong(u, dl.build_grid(1, 8))
    assert np.array_equal(fine[:, ::2], u)
    assert np.array_equal(fine[:, 1::2], 0.5 * (u + np.roll(u, -1, axis=1)))
    v = rng.standard_normal((1, 16))
    fine = prolong(v, dl.build_grid(2, 4)).reshape(8, 8)
    w = v.reshape(4, 4)
    assert np.array_equal(fine[::2, ::2], w)
    assert np.array_equal(fine[1::2, ::2], 0.5 * (w + np.roll(w, -1, 0)))
    assert np.array_equal(fine[::2, 1::2], 0.5 * (w + np.roll(w, -1, 1)))
    corners = w + np.roll(w, -1, 0) + np.roll(w, -1, 1) \
        + np.roll(w, (-1, -1), (0, 1))
    assert np.allclose(fine[1::2, 1::2], 0.25 * corners, rtol=0, atol=1e-15)
