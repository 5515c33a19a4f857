from dataclasses import replace

import numpy as np
import pytest

import discountlab as dl
from discountlab.errors import BadValue, NumericalBreakdown, UnboundedLP
from discountlab.discretize import policy_rows
from discountlab.lp import CS_TOL, FEAS_TOL, OPTIMAL, lp_solve
from discountlab.measures import MeasureVector, _measure_problem


def test_constraint_shape_and_rhs(instance_a):
    lp = dl.assemble_closed_constraints(instance_a, 1.0, z=0, k=1)
    assert lp.A.shape == (8, 24)
    assert lp.b[1 * 4 + 0] == 1.0 and lp.b.sum() == 1.0
    assert all(s == "=" for s in lp.senses)


def test_constraint_zero_discount_mass_row(instance_b):
    lp = dl.assemble_closed_constraints(instance_b, 0.0)
    assert lp.A.shape == (17, 288)
    assert np.all(lp.A[-1] == 1.0)
    assert lp.senses[-1] == "<=" and lp.b[-1] == 1.0
    assert np.all(lp.b[:-1] == 0.0)


def test_row_aggregation_is_normalization(instance_a, instance_b):
    # summing all equality rows against the constant test field yields the
    # discounted weights lam + sum(eta) on every column
    for sys_, lam in ((instance_a, 1.0), (instance_b, 0.5)):
        lp = dl.assemble_closed_constraints(sys_, lam, z=0, k=0)
        colsum = lp.A.sum(axis=0)
        expected = np.concatenate(
            [np.tile(lam + sys_.controls[i].eta.sum(axis=1),
                     sys_.num_states) for i in range(sys_.m)])
        assert np.max(np.abs(colsum - expected)) <= 1e-9


def test_green_poisson_instance_a(instance_a):
    for z in range(4):
        for k in range(2):
            mu, value = dl.green_poisson(instance_a, 1.0, z, k)
            assert abs(value + 0.5) <= 1e-10
            assert abs(mu.total_mass() - 0.5) <= 1e-10
            assert abs(mu.discount_mass(instance_a) - 1.0) <= 1e-9


def test_green_poisson_matches_solver(instance_b):
    u, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    for (z, k) in ((0, 0), (3, 1), (7, 0)):
        _, value = dl.green_poisson(instance_b, 0.5, z, k)
        assert abs(value - u[k, z]) <= 1e-8


def test_green_poisson_rejects_zero_lambda(instance_a):
    with pytest.raises(BadValue):
        dl.green_poisson(instance_a, 0.0, 0, 0)


def test_occupation_from_policy_optimal(instance_a, instance_b):
    u, pol, _ = dl.policy_iterate(instance_a, 1.0, tol=1e-12)
    mu = dl.occupation_from_policy(instance_a, 1.0, pol, 2, 1)
    assert abs(mu.pair_cost(instance_a) + 0.5) <= 1e-10

    uB, polB, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    muB = dl.occupation_from_policy(instance_b, 0.5, polB, 0, 0)
    _, gp_value = dl.green_poisson(instance_b, 0.5, 0, 0)
    assert abs(muB.pair_cost(instance_b) - gp_value) <= 1e-9


def test_occupation_suboptimal_policy_dominates(instance_b):
    lam = 0.5
    # argmin improvement step produces a genuinely bad policy
    vals_pol = np.zeros((2, 8), dtype=int)
    from discountlab.discretize import control_values
    u0 = np.zeros((2, 8))
    for i, vals in enumerate(control_values(instance_b, lam, u0)):
        vals_pol[i] = np.argmin(vals, axis=0)
    u_bad = dl.policy_evaluate(instance_b, lam, vals_pol)
    _, gp_value = dl.green_poisson(instance_b, lam, 0, 0)
    mu_bad = dl.occupation_from_policy(instance_b, lam, vals_pol, 0, 0)
    gap_measure = mu_bad.pair_cost(instance_b) - gp_value
    gap_value = u_bad[0, 0] - gp_value
    assert gap_measure > 1e-6
    assert abs(gap_measure - gap_value) <= 1e-8


def test_dirac_feasibility_random_policies(instance_a, instance_b, rng):
    for sys_ in (instance_a, instance_b):
        for _ in range(5):
            pol = np.stack([rng.integers(sys_.num_controls(i),
                                         size=sys_.num_states)
                            for i in range(sys_.m)])
            mu = dl.occupation_from_policy(sys_, 0.7, pol, 1, 0)
            assert abs(mu.discount_mass(sys_) - 1.0) <= 1e-9
            assert all(float(w.min(initial=0.0)) >= 0.0 for w in mu.weights)


def test_subsolution_lp_values(instance_a, instance_b):
    _, value = dl.subsolution_lp(instance_a, 1.0, 0, 0)
    assert abs(value + 0.5) <= 1e-9
    u, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    _, value = dl.subsolution_lp(instance_b, 0.5, 5, 1)
    assert abs(value - u[1, 5]) <= 1e-8


def test_subsolution_lp_unbounded_without_coupling(eikonal8):
    with pytest.raises(UnboundedLP) as info:
        dl.subsolution_lp(eikonal8, 0.0, 0, 0)
    ray = info.value.ray
    assert ray is not None
    ray = ray / np.max(np.abs(ray))
    assert np.allclose(ray, 1.0, atol=1e-9)  # the additive direction


def test_subsolution_lp_bounded_by_coupling_alone(instance_a):
    # sum(eta) = 1 > 0 pins the additive freedom even at lam = 0
    field, value = dl.subsolution_lp(instance_a, 0.0, 0, 0)
    assert abs(value + 1.0) <= 1e-9
    assert np.max(dl.bellman_residual(instance_a, 0.0, field)) <= 1e-9


def test_lemma15_style_inequality(instance_b, rng):
    lam = 0.5
    v, _, _ = dl.policy_iterate(instance_b, lam, tol=1e-11)
    mu, _ = dl.green_poisson(instance_b, lam, 2, 0)
    for _ in range(20):
        delta = float(rng.uniform(0.0, 1.0))
        sub = v - delta
        assert np.max(dl.bellman_residual(instance_b, lam, sub)) <= 1e-10
        assert sub[0, 2] <= mu.pair_cost(instance_b) + 1e-9


def test_duality_audit_examples(instance_a, instance_linear_b):
    for lam in (1.0, 0.1):
        rep = dl.duality_audit(instance_a, lam, 1, 0)
        assert rep.passed
        for v in (rep.solver_value, rep.measure_value, rep.subsolution_value):
            assert abs(v + 1.0 / (1.0 + lam)) <= 1e-9
    rep = dl.duality_audit(instance_linear_b, 0.5, 2, 1)
    assert rep.passed and rep.spread() <= 1e-7


def test_duality_audit_all_pairs_instance_b(instance_b):
    u, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    spreads = []
    for k in range(2):
        for z in range(8):
            rep = dl.duality_audit(instance_b, 0.5, z, k,
                                   solver_value=float(u[k, z]))
            assert rep.passed
            spreads.append(rep.spread())
    assert max(spreads) <= 1e-7


def test_support_audit_interior(instance_b):
    mu, _ = dl.green_poisson(instance_b, 0.5, 0, 0)
    rep = dl.support_audit(mu, instance_b)
    assert rep.interior
    assert rep.control_xi_box == [(-2.0, 2.0)]
    lo, hi = rep.xi_box[0]
    assert -2.0 < lo and hi < 2.0


def test_support_audit_truncation_comparison():
    wide = dl.standard_system("quadratic-plc", xi_radius=3.0, xi_count=13)
    base = dl.standard_system("quadratic-plc")
    for (z, k) in ((0, 0), (4, 1)):
        _, v_base = dl.green_poisson(base, 0.5, z, k)
        _, v_wide = dl.green_poisson(wide, 0.5, z, k)
        assert abs(v_base - v_wide) <= 1e-9


def test_support_audit_flags_small_radius():
    tight = dl.standard_system("quadratic-plc", xi_radius=0.5, xi_count=3)
    mu, _ = dl.green_poisson(tight, 0.5, 0, 0)
    rep = dl.support_audit(mu, tight)
    assert not rep.interior


def test_measure_json_schema(instance_a):
    mu, _ = dl.green_poisson(instance_a, 1.0, 0, 0)
    doc = mu.to_dict()
    assert set(doc) == {"lambda_tag", "entries"}
    assert all(set(e) == {"mode", "x", "a", "weight"} for e in doc["entries"])
    flat = np.zeros(instance_a.total_vars)
    seen = MeasureVector.from_flat(instance_a, flat, 1.0)
    for e in doc["entries"]:
        seen.weights[e["mode"]][e["x"], e["a"]] = e["weight"]
    assert mu.tv_distance(seen) <= 1e-15


def test_measure_validation_rejects_bad_mass(instance_a):
    mu = MeasureVector(lam_tag=1.0,
                       weights=[np.ones((4, 3)), np.ones((4, 3))])
    with pytest.raises(BadValue):
        mu.validate(instance_a)


def test_support_audit_reports_instance_a(instance_a):
    mu, _ = dl.green_poisson(instance_a, 1.0, 0, 0)
    rep = dl.support_audit(mu, instance_a)
    assert rep.entries
    # no cross-mode switching rates here, so mass seeded in mode 0 stays
    # there and the support carries that mode's single coupling covector
    assert all(i == 0 for (i, _, _, _) in rep.entries)
    assert rep.eta_box == [(1.0, 1.0), (0.0, 0.0)]
    doc = rep.to_dict()
    assert {"entries", "xi_box", "eta_box", "control_xi_box",
            "control_eta_box", "interior"} == set(doc)


def test_duality_holds_in_two_dimensions(two_d_system):
    sys2 = two_d_system(4)
    assert sys2.num_states == 16 and sys2.num_controls(0) == 9
    for (z, k) in ((0, 0), (5, 0), (10, 0)):
        rep = dl.duality_audit(sys2, 0.5, z, k)
        assert rep.passed and rep.spread() <= 1e-9


def test_pair_field_matches_coefficients(instance_b, rng):
    mu, _ = dl.green_poisson(instance_b, 0.5, 4, 1)
    u = rng.standard_normal((2, 8))
    direct = mu.pair_field(u)
    via_coeffs = float(mu.field_coefficients(instance_b) @ u.reshape(-1))
    assert abs(direct - via_coeffs) <= 1e-12


@pytest.mark.parametrize("name, sizes", [
    ("constant-coupling", {}), ("linear-B", {}), ("quadratic-plc", {}),
    ("eikonal-f", {}), ("quadratic-plc", dict(N=16))],
    ids=["constant-coupling", "linear-B", "quadratic-plc", "eikonal-f",
         "quadratic-plc-16"])
def test_field_duality_audit_matches_per_point_oracle(name, sizes):
    sys_ = dl.standard_system(name, **sizes)
    reports = dl.field_duality_audit(sys_, 0.5)
    points = [(z, k) for k in range(sys_.m) for z in range(sys_.num_states)]
    assert [(r.z, r.k) for r in reports] == points
    for rep in reports:
        oracle = dl.duality_audit(sys_, 0.5, rep.z, rep.k)
        assert rep.passed == oracle.passed
        assert rep.solver_value == oracle.solver_value
        assert abs(rep.measure_value - oracle.measure_value) <= 1e-12
        assert abs(rep.subsolution_value - oracle.subsolution_value) <= 1e-12


@pytest.mark.parametrize("name, N", [("eikonal-f", 64), ("linear-B", 32)])
def test_field_duality_audit_certifies_every_seed_at_scale(name, N,
                                                            monkeypatch):
    # the one factorization fits all S * m seeds: no seed is handed to an
    # LP of its own, every point passes, and the corners match the
    # per-point oracle
    handed = []
    solve = dl.lp.lp_solve

    def counted(problem, basis=None):
        handed.append(problem)
        return solve(problem, basis=basis)

    sys_ = dl.standard_system(name, N=N)
    with monkeypatch.context() as patch:
        patch.setattr(dl.lp, "lp_solve", counted)
        reports = dl.field_duality_audit(sys_, 0.5)
    assert handed == []
    assert all(rep.passed for rep in reports)
    S, m = sys_.num_states, sys_.m
    for z, k in {(0, 0), (S - 1, 0), (0, m - 1), (S - 1, m - 1)}:
        rep, oracle = reports[k * S + z], dl.duality_audit(sys_, 0.5, z, k)
        assert (rep.z, rep.k) == (z, k)
        assert abs(rep.measure_value - oracle.measure_value) <= 1e-12
        assert abs(rep.subsolution_value - oracle.subsolution_value) <= 1e-12
        assert rep.solver_value == oracle.solver_value


@pytest.mark.parametrize("name", ["constant-coupling", "linear-B",
                                  "quadratic-plc", "eikonal-f"])
def test_field_duality_audit_makes_one_lp_call(name, monkeypatch):
    # the summed-seed measure LP, whose duals are the greatest
    # subsolution, started from the cheapest control at every field entry
    # and not from Howard's policy; every point's seed is certified on its
    # final basis in the same call, without an LP of its own
    calls = []
    solve = dl.lp.lp_solve

    def counted(problem, basis=None):
        calls.append(basis)
        return solve(problem, basis=basis)

    monkeypatch.setattr(dl.measures, "lp_solve", counted)
    monkeypatch.setattr(dl.lp, "lp_solve", counted)
    sys_ = dl.standard_system(name)
    reports = dl.field_duality_audit(sys_, 0.5)
    assert len(reports) == sys_.m * sys_.num_states
    crash = np.array([c.argmin(axis=1) for c in sys_.cost])
    [basis] = calls
    assert np.array_equal(basis, policy_rows(sys_, crash))
    _, howard, _ = dl.policy_iterate(sys_, 0.5, tol=1e-10)
    # on constant-coupling the cheapest control is Howard's
    assert np.array_equal(crash, howard) == (name == "constant-coupling")
    if name != "constant-coupling":
        assert not np.array_equal(basis, policy_rows(sys_, howard))


@pytest.mark.parametrize("name", ["constant-coupling", "linear-B",
                                  "quadratic-plc", "eikonal-f"])
def test_field_duality_audit_lp_needs_no_phase1(name, monkeypatch):
    # with b = 1 > 0 every basic feasible solution of the summed-seed LP
    # is a policy basis: one weight column per field entry
    sols = []
    solve = dl.lp.lp_solve

    def kept(problem, basis=None):
        sols.append(solve(problem, basis=basis))
        return sols[-1]

    monkeypatch.setattr(dl.measures, "lp_solve", kept)
    sys_ = dl.standard_system(name)
    dl.field_duality_audit(sys_, 0.5)
    [summed] = sols
    assert summed.phase1_iterations == 0
    entries = np.searchsorted(sys_.layout.base, summed.basis, "right") - 1
    assert np.array_equal(np.sort(entries),
                          np.arange(sys_.m * sys_.num_states))


def test_field_duality_audit_checks_its_dual_field(instance_b, monkeypatch):
    # duals raised by 1e-6 at one point break a Bellman relation there:
    # they are no subsolution, and the audit must not pass them on
    solve = dl.lp.lp_solve

    def pushed(problem, basis=None):
        sol = solve(problem, basis=basis)
        dual = sol.dual.copy()
        dual[3] += 1e-6
        return replace(sol, dual=dual)

    monkeypatch.setattr(dl.measures, "lp_solve", pushed)
    with pytest.raises(NumericalBreakdown):
        dl.field_duality_audit(instance_b, 0.5)


def test_field_duality_audit_validates_every_seed_measure(instance_a,
                                                          monkeypatch):
    # one seed doubled: its measure is closed for that seed, but its
    # discounted mass reads 2, and the one validation of all seed rows
    # names that seed's row
    measures = dl.measures._basis_measures

    def doubled(sys_, lam, basis, seeds):
        seeds = seeds.copy()
        seeds[:, 5] *= 2.0
        return measures(sys_, lam, basis, seeds)

    monkeypatch.setattr(dl.measures, "_basis_measures", doubled)
    with pytest.raises(BadValue, match="measure row 5: discounted mass 2"):
        dl.field_duality_audit(instance_a, 0.5)


def _policy_basis(sys_, lam):
    """Howard's optimal policy at ``lam`` as flat (i, x, a) rows."""
    _, policy, _ = dl.policy_iterate(sys_, lam, tol=1e-10)
    return policy_rows(sys_, policy)


@pytest.mark.parametrize("name, sizes", [
    ("constant-coupling", {}), ("linear-B", {}), ("quadratic-plc", {}),
    ("eikonal-f", {}), ("quadratic-plc", dict(N=16))],
    ids=["constant-coupling", "linear-B", "quadratic-plc", "eikonal-f",
         "quadratic-plc-N16"])
def test_basis_measures_are_each_seeds_lp_optimum(name, sizes):
    # on the summed-seed LP's optimal basis, in its own position order:
    # every point mass at once, each row within roundoff of that seed's
    # own LP warm-started on the basis, which makes no pivot
    sys_, lam = dl.standard_system(name, **sizes), 0.5
    problem = _measure_problem(sys_, lam, 0, 0)
    basis = lp_solve(replace(problem, b=np.ones_like(problem.b))).basis
    rows = dl.measures._basis_measures(sys_, lam, basis,
                                       np.eye(len(problem.b)))
    for j, row in enumerate(rows):
        sol = lp_solve(replace(problem, b=np.eye(len(problem.b))[j]),
                       basis=basis)
        assert sol.iterations == 0
        assert np.max(np.abs(row - sol.x)) <= 1e-13 * max(1.0, np.max(sol.x))
        assert abs(row @ problem.c - sol.objective_value) \
            <= 1e-13 * max(1.0, abs(sol.objective_value))


def _seed(sys_, *weights):
    """The (mS, 1) seed with ``weights`` on the first field entries."""
    seed = np.zeros((sys_.m * sys_.num_states, 1))
    seed[:len(weights), 0] = weights
    return seed


def test_basis_measures_check_closedness(instance_b, monkeypatch):
    # weights 0.1% too large miss the seed by 1e-3
    basis = _policy_basis(instance_b, 0.5)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1.001 * solve(a, b))
    with pytest.raises(NumericalBreakdown, match="closedness"):
        dl.measures._basis_measures(instance_b, 0.5, basis,
                                    _seed(instance_b, 1.0))


def test_basis_measures_check_nonnegativity(instance_b):
    # e_0 - e_1 is no measure's seed: the basis does not fit it
    with pytest.raises(NumericalBreakdown, match="negative"):
        dl.measures._basis_measures(instance_b, 0.5,
                                    _policy_basis(instance_b, 0.5),
                                    _seed(instance_b, 1.0, -1.0))


def test_basis_measures_validate_their_rows(instance_b):
    # 2 e_0 is closed on the basis, but its measure has discounted mass 2
    with pytest.raises(BadValue, match="measure row 0: discounted mass 2"):
        dl.measures._basis_measures(instance_b, 0.5,
                                    _policy_basis(instance_b, 0.5),
                                    _seed(instance_b, 2.0))


def test_field_duality_audit_rejects_zero_lambda(instance_a):
    with pytest.raises(BadValue):
        dl.field_duality_audit(instance_a, 0.0)


@pytest.mark.xfail(strict=True, raises=NumericalBreakdown,
                   reason="ROADMAP item 1: the cold measure LP's "
                   "refactorization finds B singular at this size")
@pytest.mark.parametrize("name, N", [("quadratic-plc", 36), ("linear-B", 60)])
def test_cold_measure_lp_solves_at_the_last_rung(name, N):
    # the Green-Poisson LP of the mather pipeline at the sweep's last rung,
    # solved cold instead of from the sweep's policy
    work, _ = dl.ergodic_normalize(dl.standard_system(name, N=N), lam=0.05,
                                   tol=1e-12)
    sol = lp_solve(_measure_problem(work, 0.5 * 2.0 ** -17, 0, 0))
    assert sol.status == OPTIMAL
    assert sol.feasibility_residual <= FEAS_TOL
    assert sol.slackness_residual <= CS_TOL


@pytest.mark.xfail(strict=True, raises=NumericalBreakdown,
                   reason="ROADMAP item 6: at lam = 1e-5 the summed-seed "
                   "LP's crash start ends on an optimal basis whose absolute "
                   "slackness, at weights of about 1/lam, exceeds CS_TOL")
def test_field_duality_audit_passes_quadratic_plc_n32_at_1e_5():
    reports = dl.field_duality_audit(
        dl.standard_system("quadratic-plc", N=32), 1e-5)
    assert all(rep.passed for rep in reports)


def test_green_poisson_survives_pivot_drift(instance_b_normalized):
    # every point of the vanishing-discount ladder lam_j = 0.5 * 2^-j: the
    # measure LP grows badly conditioned as lam falls, and its optimum must
    # still equal the policy-iteration value at each rung
    sys_ = instance_b_normalized
    for j in range(18):
        lam = 0.5 * 2.0 ** -j
        u, _, _ = dl.policy_iterate(sys_, lam, tol=1e-10)
        for k in range(sys_.m):
            for z in range(sys_.num_states):
                _, value = dl.green_poisson(sys_, lam, z, k)
                assert abs(value - u[k, z]) <= 1e-9, (j, z, k)
