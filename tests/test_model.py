import math

import numpy as np
import pytest

import discountlab as dl
from discountlab.errors import EmptySampleSet, MissingRadius
from discountlab.model import (HamiltonianModel, LagrangianTable, StructureReport,
                               check_coupling_domain, in_coupling_cone)


def test_zoo_ids_exact():
    assert dl.model.ZOO_IDS == ("constant-coupling", "linear-B",
                                "quadratic-plc", "eikonal-f")


def test_zoo_periodicity_and_finiteness():
    rng = np.random.default_rng(0)
    for zid in dl.model.ZOO_IDS:
        m = dl.make_model(zid)
        for _ in range(50):
            x = rng.uniform(0, 1, m.n)
            p = rng.uniform(-3, 3, m.n)
            u = rng.uniform(-3, 3, m.m)
            i = rng.integers(m.m)
            base = float(m.eval(x, i, p, u))
            assert math.isfinite(base)
            shifted = float(m.eval(x + np.eye(m.n)[0], i, p, u))
            assert abs(shifted - base) <= 1e-9


# ---------------------------------------------------------------------------
# monotone coupling
# ---------------------------------------------------------------------------

def test_monotone_constant_coupling_exact_zero():
    m = dl.make_model("constant-coupling")
    rep = dl.check_monotone(m, 1000, seed=1)
    assert rep.passed
    assert rep.worst_violation == 0.0
    assert rep.samples_used == 1000


def test_monotone_linear_b_default():
    m = dl.make_model("linear-B")
    rep = dl.check_monotone(m, 1000, seed=2)
    assert rep.passed
    assert rep.worst_violation == 0.0


def _brute_force_coupling_violation(B):
    """Explicit search for (u, v) with u_k - v_k = max(u - v) >= 0 and
    (B u)_k < (B v)_k, over a coarse sign-pattern grid."""
    grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
    for d1 in grid:
        for d2 in grid:
            delta = np.array([d1, d2])
            k = int(np.argmax(delta))
            if delta[k] < 0:
                continue
            if float(B[k] @ delta) < -1e-12:
                return delta, k
    return None


def test_monotone_linear_b_violating_row_sum():
    B = [[1.0, -2.0], [-1.0, 1.0]]
    assert _brute_force_coupling_violation(np.array(B)) is not None
    m = dl.make_model("linear-B", B=B)
    rep = dl.check_monotone(m, 1000, seed=3)
    assert not rep.passed
    assert rep.worst_violation > 1e-9
    assert rep.witness is not None


def test_monotone_perturbed_off_diagonal():
    B = [[1.0, 0.1], [-1.0, 1.0]]
    rep = dl.check_monotone(dl.make_model("linear-B", B=B), 1000, seed=4)
    assert not rep.passed
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------

def test_convex_quadratic_plc():
    rep = dl.check_convex(dl.make_model("quadratic-plc"), 1000, seed=5)
    assert rep.passed


def test_convex_constant_coupling_exact_zero():
    rep = dl.check_convex(dl.make_model("constant-coupling"), 1000, seed=6)
    assert rep.passed
    assert rep.worst_violation == 0.0


def test_concave_fixture_fails():
    concave = HamiltonianModel(
        1, 1, lambda x, i, p, u: -(p[..., 0] ** 2))
    rep = dl.check_convex(concave, 500, seed=7)
    assert not rep.passed
    assert rep.worst_violation > 1e-9


# ---------------------------------------------------------------------------
# shift invariance
# ---------------------------------------------------------------------------

def test_shift_invariance_zero_row_sums():
    m = dl.make_model("linear-B")  # default B has zero row sums
    rep = dl.check_shift_invariance(m, [1.0, 1.0], 200, seed=8)
    assert rep.passed


def test_shift_invariance_fails_for_constant_coupling():
    m = dl.make_model("constant-coupling")
    rep = dl.check_shift_invariance(m, [1.0, 1.0], 200, seed=9)
    assert not rep.passed


def test_shift_invariance_zero_direction():
    m = dl.make_model("constant-coupling")
    rep = dl.check_shift_invariance(m, [0.0, 0.0], 50, seed=10)
    assert rep.passed
    assert rep.worst_violation == 0.0


# ---------------------------------------------------------------------------
# coercivity profile / ergodic condition
# ---------------------------------------------------------------------------

def _abs_p_model():
    return HamiltonianModel(1, 1, lambda x, i, p, u: np.abs(p[..., 0]))


def test_coercivity_abs_p_exact():
    prof = dl.coercivity_profile(_abs_p_model(), R=1.0, radii=[1, 2, 4],
                                 sample_density=8)
    assert [a for (_, a) in prof.table] == [1.0, 2.0, 4.0]
    assert prof.beta == 0.0


def test_coercivity_quadratic_plc_against_dense_oracle():
    m = dl.make_model("quadratic-plc")
    coarse = dl.coercivity_profile(m, R=1.0, radii=[2.0, 4.0],
                                   sample_density=8)
    dense = dl.coercivity_profile(m, R=1.0, radii=[2.0, 4.0],
                                  sample_density=80)
    for (r, a_c), (_, a_d) in zip(coarse.table, dense.table):
        # analytic envelope: r^2/2 - max V, the coupling term vanishing at u=0
        assert abs(a_d - (r * r / 2.0 - 1.0)) <= 1e-9
        assert abs(a_c - a_d) <= 0.05
    assert coarse.beta <= dense.beta + 1e-12
    # alpha table is nondecreasing
    alphas = [a for (_, a) in coarse.table]
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))


@pytest.mark.parametrize("check", [
    lambda m, tab: dl.check_monotone(m, 0),
    lambda m, tab: dl.check_convex(m, 0),
    lambda m, tab: dl.check_shift_invariance(m, [1.0, 1.0], 0),
    lambda m, tab: dl.fenchel_equality_check(m, tab, 0)],
    ids=["monotone", "convex", "shift-invariance", "fenchel-equality"])
def test_checkers_reject_zero_samples(check):
    m = dl.make_model("constant-coupling")
    tab = dl.legendre_transform(m, 0, np.zeros((1, 1)),
                                np.array([-1.0, 0.0, 1.0]),
                                np.array([[1.0, 0.0]]))
    with pytest.raises(EmptySampleSet):
        check(m, tab)


def test_coercivity_contract_failures():
    with pytest.raises(EmptySampleSet):
        dl.coercivity_profile(_abs_p_model(), 1.0, [], 8)
    with pytest.raises(EmptySampleSet):
        dl.coercivity_profile(_abs_p_model(), 1.0, [1.0], 0)


def _coercivity_per_x(model, R, radii, density):
    """The profile from one evaluation per (mode, p, grid x), as the
    function computed it before it evaluated the whole (x, u) grid."""
    xs = dl.model.product_grid(np.arange(density) / density, model.n)
    us = dl.model._ball_grid(model.m, R, density)

    def values(i, x, p):
        return model.eval(x, i, np.broadcast_to(p, (len(us), model.n)), us)

    beta = -np.inf
    for i in range(model.m):
        for x in xs:
            beta = max(beta, float(np.max(values(i, x, np.zeros(model.n)))))
    table = []
    for r in radii:
        alpha = np.inf
        for p in dl.model._sphere_points(model.n, r, density):
            for i in range(model.m):
                for x in xs:
                    alpha = min(alpha, float(np.min(values(i, x, p))))
        table.append((float(r), alpha))
    return table, beta


def _plane_model():
    def H(x, i, p, u):
        return np.hypot(p[..., 0], p[..., 1]) \
            - np.cos(2.0 * np.pi * x[..., 0]) * np.sin(2.0 * np.pi * x[..., 1])
    return HamiltonianModel(1, 2, H)


@pytest.mark.parametrize("name", dl.model.ZOO_IDS + ("plane",))
def test_coercivity_grid_evaluation_matches_the_per_x_loop(name):
    model = _plane_model() if name == "plane" else dl.make_model(name)
    radii = [1.0, 2.0, 4.0, 8.0]
    for density in (5, 24):
        prof = dl.coercivity_profile(model, 4.0, radii, density)
        table, beta = _coercivity_per_x(model, 4.0, radii, density)
        assert prof.table == table
        assert prof.beta == beta


def test_erg_condition_eikonal_true():
    m = dl.make_model("eikonal-f")  # f = 2 + cos, max 3, min 1
    prof = dl.coercivity_profile(m, R=4.0, radii=[1, 2, 4, 8],
                                 sample_density=16)
    assert abs(prof.table[-1][1] - 5.0) <= 1e-9   # 8 - max f
    assert abs(prof.beta - (-1.0)) <= 1e-9        # -min f
    assert dl.check_erg_condition(prof, n=1)


def test_erg_condition_flat_in_p_false():
    flat = HamiltonianModel(1, 1, lambda x, i, p, u: u[..., 0])
    prof = dl.coercivity_profile(flat, R=4.0, radii=[1, 2, 4, 8],
                                 sample_density=8)
    assert not dl.check_erg_condition(prof, n=1)


def test_erg_condition_missing_radius():
    prof = dl.coercivity_profile(_abs_p_model(), R=4.0, radii=[1.0, 2.0],
                                 sample_density=8)
    with pytest.raises(MissingRadius):
        dl.check_erg_condition(prof, n=1)


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def test_legendre_constant_coupling_closed_form():
    m = dl.make_model("constant-coupling")
    xi = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    etas = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    p_grid = np.linspace(-64, 64, 257).reshape(-1, 1)
    u_grid = dl.model.default_search_grid(64.0, 33, 2)
    tab = dl.legendre_transform(m, 0, np.zeros((1, 1)), xi, etas,
                                p_grid=p_grid, u_grid=u_grid, clip_bound=30.0)
    vals = tab.values[0]
    # finite exactly on |xi| <= 1 at eta = e_1, value -1
    for a, x in enumerate(xi):
        if abs(x) <= 1.0:
            assert vals[a, 0] == -1.0
        else:
            assert np.isinf(vals[a, 0])
    # eta = 0 diverges along -u_1; eta with a positive foreign entry is
    # forced infinite without search
    assert np.all(np.isinf(vals[:, 1]))
    assert np.all(np.isinf(vals[:, 2]))


def test_legendre_quadratic_scalar_against_analytic():
    quad = HamiltonianModel(1, 1, lambda x, i, p, u: 0.5 * p[..., 0] ** 2)
    xi = np.linspace(-1, 1, 9)
    p_grid = np.linspace(-2, 2, 201).reshape(-1, 1)
    tab = dl.legendre_transform(quad, 0, np.zeros((1, 1)), xi,
                                np.zeros((1, 1)), p_grid=p_grid,
                                u_grid=np.zeros((1, 1)))
    for a, x in enumerate(xi):
        assert abs(tab.values[0, a, 0] - 0.5 * x * x) <= 1e-3


def test_legendre_forces_cone_without_search():
    m = dl.make_model("quadratic-plc")
    tab = dl.legendre_transform(m, 0, np.zeros((1, 1)),
                                np.array([0.0]),
                                np.array([[0.5, 0.5], [0.0, -0.5]]),
                                p_grid=np.zeros((1, 1)),
                                u_grid=np.zeros((1, 2)))
    assert np.isinf(tab.values[0, 0, 0])   # foreign positive entry
    assert np.isinf(tab.values[0, 0, 1])   # negative total: diverges too


def test_legendre_monotone_in_search_grid():
    m = dl.make_model("quadratic-plc")
    xi = np.linspace(-1, 1, 5)
    etas = np.array([[0.0, 0.0], [1.0, -1.0]])
    small = dl.legendre_transform(m, 0, np.zeros((1, 1)), xi, etas,
                                  p_grid=np.linspace(-4, 4, 33).reshape(-1, 1),
                                  u_grid=dl.model.default_search_grid(4.0, 9, 2))
    big = dl.legendre_transform(m, 0, np.zeros((1, 1)), xi, etas,
                                p_grid=np.linspace(-4, 4, 65).reshape(-1, 1),
                                u_grid=dl.model.default_search_grid(4.0, 17, 2))
    finite = np.isfinite(small.values)
    assert np.all(big.values[finite] >= small.values[finite] - 1e-12)


def test_legendre_lower_bound_at_zero():
    # every finite entry dominates -H(x, 0, 0): the origin is searched
    for zid in ("constant-coupling", "quadratic-plc", "eikonal-f"):
        m = dl.make_model(zid)
        etas = np.stack(dl.discretize.default_eta_spec(m, 0))
        tab = dl.legendre_transform(m, 0, np.zeros((1, m.n)),
                                    np.linspace(-1, 1, 5), etas)
        h0 = float(m.eval(np.zeros(m.n), 0, np.zeros(m.n), np.zeros(m.m)))
        finite = np.isfinite(tab.values)
        assert np.all(tab.values[finite] >= -h0 - 1e-12)


def test_legendre_superlinear_lower_bound():
    # L >= A|xi| - C_A with C_A = max over |p| = A of H(x, p, 0)
    m = dl.make_model("quadratic-plc")
    etas = np.stack(dl.discretize.default_eta_spec(m, 0))
    xs = (np.arange(8) / 8.0).reshape(-1, 1)
    tab = dl.legendre_transform(m, 0, xs, np.linspace(-2, 2, 9), etas)
    for A in (1.0, 2.0):
        c_a = max(float(m.eval(x, 0, np.array([s * A]), np.zeros(2)))
                  for x in xs for s in (-1.0, 1.0))
        for (x, xi, eta, val) in tab.finite_entries():
            assert val >= A * abs(float(xi[0])) - c_a - 1e-9


# ---------------------------------------------------------------------------
# Fenchel equality / coupling domain
# ---------------------------------------------------------------------------

def test_fenchel_constant_coupling_exact():
    m = dl.make_model("constant-coupling")
    tab = dl.legendre_transform(m, 0, np.zeros((1, 1)),
                                np.array([-1.0, 0.0, 1.0]),
                                np.array([[1.0, 0.0]]))
    rep = dl.fenchel_equality_check(m, tab, 400, seed=11)
    assert rep.passed
    assert rep.worst_violation == 0.0


def test_fenchel_quadratic_recovery_bound():
    m = dl.make_model("quadratic-plc")
    etas = np.array([[0.0, 0.0], [1.0, -1.0]])
    xs = np.zeros((1, 1))

    def worst_gap(step):
        xi = np.arange(-2.0, 2.0 + step / 2, step)
        tab = dl.legendre_transform(m, 0, xs, xi, etas)
        rep = dl.fenchel_equality_check(m, tab, 500, seed=12, recovery_tol=0.0)
        return rep.worst_violation

    coarse = worst_gap(0.25)
    fine = worst_gap(0.025)
    assert coarse <= 0.25 ** 2 / 2.0 + 1e-12
    assert fine <= coarse + 1e-12


def test_fenchel_single_entry_table_fails_recovery():
    m = dl.make_model("constant-coupling")
    tab = LagrangianTable(mode=0, m=2, n=1, x_points=np.zeros((1, 1)),
                          xi_grid=np.zeros((1, 1)),
                          eta_grid=np.array([[1.0, 0.0]]),
                          values=np.full((1, 1, 1), -1.0))
    rep = dl.fenchel_equality_check(m, tab, 300, seed=13)
    assert not rep.passed


def test_fenchel_all_infinite_table_fails_without_sampling():
    # no finite entry: nothing recovers H, and no sample is drawn
    m = dl.make_model("constant-coupling")
    tab = LagrangianTable(mode=0, m=2, n=1, x_points=np.zeros((1, 1)),
                          xi_grid=np.array([[-1.0], [1.0]]),
                          eta_grid=np.array([[1.0, 0.0]]),
                          values=np.full((1, 2, 1), np.inf))
    rep = dl.fenchel_equality_check(m, tab, 300, seed=13)
    assert rep == StructureReport("fenchel-equality", False, math.inf, None, 0)


def test_coupling_domain_quadratic_passes():
    m = dl.make_model("quadratic-plc")
    tab = dl.legendre_transform(m, 0, np.zeros((1, 1)),
                                np.linspace(-1, 1, 5),
                                np.array([[0.0, 0.0], [1.0, -1.0]]))
    rep = check_coupling_domain(tab)
    assert rep.passed
    assert rep.samples_used > 0


def test_coupling_domain_negative_sum_fails():
    tab = LagrangianTable(mode=0, m=2, n=1, x_points=np.zeros((1, 1)),
                          xi_grid=np.zeros((1, 1)),
                          eta_grid=np.array([[-1.0, -1.0]]),
                          values=np.zeros((1, 1, 1)))
    rep = check_coupling_domain(tab)
    assert not rep.passed
    assert rep.worst_violation == 2.0


def test_coupling_domain_empty_table_vacuous():
    tab = LagrangianTable(mode=0, m=2, n=1, x_points=np.zeros((1, 1)),
                          xi_grid=np.zeros((1, 1)),
                          eta_grid=np.array([[0.5, 0.5]]),
                          values=np.full((1, 1, 1), np.inf))
    rep = check_coupling_domain(tab)
    assert rep.passed
    assert rep.samples_used == 0


def test_cone_membership_exact():
    assert in_coupling_cone(np.array([1.0, -1.0]), 0)
    assert in_coupling_cone(np.array([0.0, 0.0]), 0)
    assert not in_coupling_cone(np.array([0.5, 0.5]), 0)      # foreign > 0
    assert not in_coupling_cone(np.array([-1.0, -1e-300]), 0)  # sum < 0


def test_structure_report_json_keys():
    rep = dl.check_monotone(dl.make_model("constant-coupling"), 10, seed=0)
    doc = rep.to_dict()
    assert set(doc) == {"check_name", "passed", "worst_violation",
                        "witness", "samples_used"}


def test_checkers_deterministic_for_fixed_seed():
    m = dl.make_model("quadratic-plc")
    a = dl.check_monotone(m, 200, seed=42)
    b = dl.check_monotone(m, 200, seed=42)
    assert a.to_dict() == b.to_dict()
    c = dl.check_convex(m, 200, seed=42)
    d = dl.check_convex(m, 200, seed=42)
    assert c.to_dict() == d.to_dict()
