import math
from dataclasses import fields, replace

import numpy as np
import pytest

from discountlab import lp
from discountlab.errors import EnumerationTooLarge
from discountlab.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LPProblem,
                            _Standardized, enumerate_basic_solutions,
                            enumeration_minimum, independent_rows, lp_solve,
                            lp_solve_rhs)


def test_one_pivot_lp():
    sol = lp_solve(LPProblem(c=[-1.0, 0.0], A=[[1.0, 1.0]], b=[1.0],
                             senses=["="]))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x, [1.0, 0.0])
    assert sol.objective_value == -1.0


def test_infeasible_lp():
    sol = lp_solve(LPProblem(c=[0.0], A=[[1.0]], b=[-1.0], senses=["="]))
    assert sol.status == INFEASIBLE


def _assert_farkas(p, sol):
    """``sol.ray`` proves ``p`` infeasible: A^T y <= 0 (= 0 on free
    columns), y <= 0 on '<=' rows and b.y > 0."""
    assert sol.status == INFEASIBLE
    y = sol.ray / np.max(np.abs(sol.ray))
    slope = p.A.T @ y
    assert np.max(slope) <= lp.FEAS_TOL
    assert np.max(np.abs(slope[p.free]), initial=0.0) <= lp.FEAS_TOL
    assert np.max(y[[s == "<=" for s in p.senses]], initial=0.0) \
        <= lp.FEAS_TOL
    assert p.b @ y > 0.0


def test_infeasible_lp_carries_a_farkas_ray():
    # x1 = x2 + 2 (stored negated, its b is < 0) and x1 + x2 <= 1
    p = LPProblem(c=[1.0, 1.0], A=[[-1.0, 1.0], [1.0, 1.0]], b=[-2.0, 1.0],
                  senses=["=", "<="])
    _assert_farkas(p, lp_solve(p))
    rng = np.random.default_rng(81)
    infeasible = 0
    for _ in range(200):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        p = LPProblem(c=rng.standard_normal(n),
                      A=rng.standard_normal((m, n)),
                      b=rng.standard_normal(m),
                      senses=list(rng.choice(["=", "<="], m)),
                      free=rng.random(n) < 0.2)
        sol = lp_solve(p)
        if sol.status == INFEASIBLE:
            infeasible += 1
            _assert_farkas(p, sol)
    assert infeasible >= 100


def test_unbounded_lp_with_ray():
    # min -x1 with only x2 pinned: x1 can grow without bound
    sol = lp_solve(LPProblem(c=[-1.0, 0.0], A=[[0.0, 1.0]], b=[1.0],
                             senses=["="]))
    assert sol.status == UNBOUNDED
    assert sol.ray is not None and sol.ray[0] > 0


def test_free_variable_split():
    # max x (min -x) with x free and x <= 3: optimum at 3
    sol = lp_solve(LPProblem(c=[-1.0], A=[[1.0]], b=[3.0], senses=["<="],
                             free=[True]))
    assert sol.status == OPTIMAL
    assert abs(sol.x[0] - 3.0) <= 1e-12
    # and with the sign flipped the free part matters: max -x s.t. -x <= 5
    sol = lp_solve(LPProblem(c=[1.0], A=[[-1.0]], b=[5.0], senses=["<="],
                             free=[True]))
    assert abs(sol.x[0] + 5.0) <= 1e-12


def test_degenerate_zero_rhs():
    # x1 - x2 = 0, x1 + x2 <= 1, min x1 - 2 x2: optimum (0.5, 0.5)
    sol = lp_solve(LPProblem(c=[1.0, -2.0], A=[[1.0, -1.0], [1.0, 1.0]],
                             b=[0.0, 1.0], senses=["=", "<="]))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x, [0.5, 0.5], atol=1e-10)


def test_beale_style_degeneracy_terminates():
    # classic degenerate cycling data; Bland's fallback must terminate
    A = [[0.25, -60.0, -1.0 / 25.0, 9.0],
         [0.5, -90.0, -1.0 / 50.0, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    c = [-0.75, 150.0, -0.02, 6.0]
    sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["<="] * 3))
    assert sol.status == OPTIMAL
    # oracle: enumerate the slacked standard form
    A_std = np.hstack([np.asarray(A), np.eye(3)])
    val, _ = enumeration_minimum(A_std, np.asarray(b),
                                 np.concatenate([c, np.zeros(3)]))
    assert abs(sol.objective_value - val) <= 1e-9


def test_certification_fields_present():
    sol = lp_solve(LPProblem(c=[1.0, 1.0], A=[[1.0, 2.0]], b=[2.0],
                             senses=["="]))
    assert sol.status == OPTIMAL
    assert sol.feasibility_residual <= 1e-9
    assert sol.slackness_residual <= 1e-8
    assert sol.dual is not None and sol.dual.shape == (1,)


def test_duals_certify_objective():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, n = 3, 7
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(0.2, 1.0, n)
        b = A @ x0
        c = rng.uniform(0.1, 1.0, n)
        sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["="] * m))
        assert sol.status == OPTIMAL
        # strong duality: b . y equals the optimal value
        assert abs(float(b @ sol.dual) - sol.objective_value) <= 1e-8


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(12)
    solved = 0
    while solved < 60:
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m + 1, 13))
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(0.0, 1.0, n)
        b = A @ x0
        c = rng.uniform(0.05, 1.0, n)
        sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["="] * m))
        assert sol.status == OPTIMAL
        val, _ = enumeration_minimum(A, b, c)
        assert val is not None
        assert abs(sol.objective_value - val) <= 1e-9
        solved += 1


def test_independent_rows():
    A = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    Ar, rows = independent_rows(A)
    assert rows == [0, 2]
    assert Ar.shape == (2, 2)


def test_enumerate_simplex_vertices():
    A = np.array([[1.0, 1.0, 1.0]])
    verts = enumerate_basic_solutions(A, np.array([1.0]))
    uniq = {tuple(np.round(v, 9)) for v in verts}
    assert uniq == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    # one row per basis, in the lexicographic order of the column subsets
    assert isinstance(verts, np.ndarray)
    assert np.array_equal(verts, np.eye(3))


def test_enumeration_infeasible_returns_none():
    val, vert = enumeration_minimum(np.array([[1.0, 1.0]]),
                                    np.array([-1.0]), np.array([1.0, 1.0]))
    assert val is None and vert is None
    verts = enumerate_basic_solutions(np.array([[1.0, 1.0]]),
                                      np.array([-1.0]))
    assert isinstance(verts, np.ndarray) and verts.shape == (0, 2)


def test_enumeration_over_basis_budget_raises(monkeypatch):
    # C(3, 1) = 3 column subsets against a budget of 2
    monkeypatch.setattr(lp, "MAX_BASES", 2)
    with pytest.raises(EnumerationTooLarge):
        enumerate_basic_solutions(np.array([[1.0, 1.0, 1.0]]),
                                  np.array([1.0]))


def test_standardized_starting_basis_is_identity():
    # slacks enter the basis only on rows that were not sign-flipped and
    # artificials are appended after the flip, so the simplex starts from
    # unit columns with no pivoting
    rng = np.random.default_rng(79)
    for _ in range(40):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        p = LPProblem(c=rng.standard_normal(n),
                      A=rng.standard_normal((m, n)),
                      b=rng.standard_normal(m),
                      senses=list(rng.choice(["=", "<="], m)),
                      free=rng.random(n) < 0.3)
        std = _Standardized(p)
        assert np.array_equal(std.A[:, std.basis], np.eye(m))


def test_certification_under_row_scaling():
    rng = np.random.default_rng(77)
    for _ in range(25):
        m, n = 4, 9
        A = rng.standard_normal((m, n)) * (10.0 ** rng.integers(-2, 4, (m, 1)))
        x0 = rng.uniform(0.1, 1.0, n)
        b = A @ x0
        c = rng.uniform(0.05, 1.0, n)
        sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["="] * m))
        assert sol.status == OPTIMAL
        val, _ = enumeration_minimum(A, b, c)
        assert abs(sol.objective_value - val) <= 1e-7 * max(1.0, abs(val))


def test_mixed_senses_and_free_vars_against_enumeration():
    rng = np.random.default_rng(78)
    for _ in range(25):
        m, n = 3, 6
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(0.1, 1.0, n)
        slack = rng.uniform(0.0, 0.5, m)
        senses = ["=", "<=", "<="]
        b = A @ x0 + np.where([s == "<=" for s in senses], slack, 0.0)
        c = rng.uniform(0.05, 1.0, n)
        sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=senses))
        assert sol.status == OPTIMAL
        A_std = np.hstack([A, np.eye(m)[:, 1:]])
        c_std = np.concatenate([c, np.zeros(m - 1)])
        val, _ = enumeration_minimum(A_std, b, c_std)
        assert abs(sol.objective_value - val) <= 1e-9


ZOO = ("constant-coupling", "linear-B", "quadratic-plc", "eikonal-f")


def _measure_problems(name, **kwargs):
    """The lam = 0.5 measure LP of a zoo instance: one problem per point
    seed, and one seeded with the sum of all point masses."""
    import discountlab as dl
    sys_ = dl.standard_system(name, **kwargs)
    base = dl.assemble_closed_constraints(sys_, 0.5, 0, 0)
    base.c = sys_.cost_flat()
    seeds = [replace(base, b=e) for e in np.eye(len(base.b))]
    return seeds, replace(base, b=np.ones_like(base.b))


def _assert_certified(sol):
    assert sol.status == OPTIMAL
    assert sol.feasibility_residual <= lp.FEAS_TOL
    assert sol.slackness_residual <= lp.CS_TOL


@pytest.mark.parametrize("name", ZOO)
def test_warm_and_cold_certify_the_same_optimum(name):
    seeds, summed = _measure_problems(name)
    basis = lp_solve(summed).basis
    for problem in seeds:
        cold = lp_solve(problem)
        warm = lp_solve(problem, basis=basis)
        _assert_certified(cold)
        _assert_certified(warm)
        assert warm.iterations == 0
        assert abs(warm.objective_value - cold.objective_value) <= 1e-12
        # restarting from its own optimal basis is a 0-pivot round trip
        again = lp_solve(problem, basis=cold.basis)
        assert again.iterations == 0
        assert np.array_equal(again.basis, cold.basis)


def _random_lp(rng, m=4, n=9):
    A = rng.standard_normal((m, n))
    return LPProblem(c=rng.uniform(0.05, 1.0, n), A=A,
                     b=A @ rng.uniform(0.1, 1.0, n), senses=["="] * m)


def test_warm_start_falls_back_to_the_cold_path():
    # an optimal basis of one right-hand side that is primal infeasible
    # for another, and a singular one: both solve cold and certify
    rng = np.random.default_rng(80)
    checked = 0
    while checked < 5:
        first = _random_lp(rng)
        basis = lp_solve(first).basis
        second = replace(first, b=first.A @ rng.uniform(0.1, 1.0, 9))
        if np.min(np.linalg.solve(first.A[:, basis], second.b)) >= -1e-3:
            continue            # the basis still fits: no fallback to see
        checked += 1
        for start in (basis, np.full_like(basis, basis[0])):
            warm, cold = lp_solve(second, basis=start), lp_solve(second)
            _assert_certified(warm)
            assert warm.iterations == cold.iterations > 0
            assert np.array_equal(warm.x, cold.x)
            assert np.array_equal(warm.basis, cold.basis)


def test_basis_must_fit_the_standard_form():
    problem = LPProblem(c=[1.0, 1.0], A=[[1.0, 2.0]], b=[2.0], senses=["="])
    for bad in (np.array([0, 1]), np.array([5]), np.array([0.0])):
        with pytest.raises(ValueError):
            lp_solve(problem, basis=bad)


def test_cold_path_keeps_its_pivot_counts():
    # pivots of the cold two-phase path on each zoo instance's first seed
    # LP and summed-seed LP, the same since the first dense kernel
    counts = {"constant-coupling": (8, 8), "linear-B": (26, 26),
              "quadratic-plc": (65, 62), "eikonal-f": (50, 50)}
    for name, (seeded, summed) in counts.items():
        seeds, total = _measure_problems(name)
        assert lp_solve(seeds[0]).iterations == seeded, name
        assert lp_solve(total).iterations == summed, name


def _subsolution_problem(name, **kwargs):
    """The problem that ``subsolution_lp(sys, 0.5)`` solves, and its
    solution, read off the call itself."""
    import discountlab as dl
    from discountlab import measures
    seen = []

    def spy(problem, *args, **kw):
        seen.append((problem, lp_solve(problem, *args, **kw)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "lp_solve", spy)
        measures.subsolution_lp(dl.standard_system(name, **kwargs), 0.5)
    (problem, sol), = seen
    return problem, sol


def test_subsolution_lp_keeps_its_pivot_counts():
    # measured on the dense kernel, the one path every LP runs
    counts = [("quadratic-plc", {}, 49), ("quadratic-plc", {"N": 16}, 103),
              ("eikonal-f", {"N": 6}, 7), ("linear-B", {}, 28),
              ("constant-coupling", {}, 32)]
    for name, kwargs, pivots in counts:
        _, sol = _subsolution_problem(name, **kwargs)
        assert sol.iterations == pivots, (name, kwargs)


def _klee_minty(d):
    A = np.tril(2.0 ** (1 + np.subtract.outer(np.arange(d), np.arange(d))), -1)
    return LPProblem(c=-(2.0 ** np.arange(d - 1, -1, -1)), A=A + np.eye(d),
                     b=5.0 ** np.arange(1, d + 1), senses=["<="] * d)


def test_kernel_counters():
    # Dantzig's rule visits all 2^d vertices of the Klee-Minty cube: 31
    # pivots at d = 5 pass the Bland switch at 2 * (5 + 10)
    for d, bland in ((4, False), (5, True)):
        sol = lp_solve(_klee_minty(d))
        assert sol.objective_value == -(5.0 ** d)
        assert sol.iterations == 2 ** d - 1
        assert sol.phase1_iterations == 0     # no artificials
        assert sol.refactorizations == 1      # the optimality check
        assert sol.bland is bland
    seeds, summed = _measure_problems("linear-B")
    cold = lp_solve(summed)
    assert 0 < cold.phase1_iterations <= cold.iterations
    warm = lp_solve(seeds[0], basis=cold.basis)
    assert warm.iterations == warm.phase1_iterations == 0
    assert warm.refactorizations == 1
    assert not warm.bland


def test_warm_start_checks_the_rows_its_basis_dropped():
    # a duplicated row is dropped as redundant; a right-hand side that is
    # inconsistent on it must come back infeasible, as it does cold
    first = LPProblem(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0],
                      senses=["=", "="])
    basis = lp_solve(first).basis
    assert -1 in basis
    second = replace(first, b=[1.0, 2.0])
    assert lp_solve(second).status == INFEASIBLE
    assert lp_solve(second, basis=basis).status == INFEASIBLE
    consistent = replace(first, b=[2.0, 2.0])
    warm = lp_solve(consistent, basis=basis)
    _assert_certified(warm)
    assert warm.iterations == 0
    assert warm.objective_value == lp_solve(consistent).objective_value


def _assert_same_solution(a, b):
    """Every field of two ``LPSolution``s equal, bit for bit."""
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            assert _same_bits(va, vb), f.name
        elif isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), f.name
        else:
            assert va == vb, f.name


def _rhs_pass(problem, basis, rhs, monkeypatch):
    """``lp_solve_rhs``, and how many columns it handed to ``lp_solve``."""
    handed = []
    solve = lp.lp_solve

    def counted(p, basis=None):
        handed.append(p)
        return solve(p, basis=basis)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "lp_solve", counted)
        sols = lp_solve_rhs(problem, basis, rhs)
    return sols, len(handed)


@pytest.mark.parametrize("name, kwargs",
                         [pytest.param(name, {}, id=name) for name in ZOO]
                         + [pytest.param("quadratic-plc", {"N": 16},
                                         id="quadratic-plc-N16")])
def test_rhs_pass_matches_each_warm_solve(name, kwargs, monkeypatch):
    seeds, summed = _measure_problems(name, **kwargs)
    basis = lp_solve(summed).basis
    rhs = np.stack([p.b for p in seeds], axis=1)
    sols, handed = _rhs_pass(summed, basis, rhs, monkeypatch)
    assert handed == 0          # every seed certified on the one basis
    assert len(sols) == len(seeds)
    for problem, sol in zip(seeds, sols):
        _assert_certified(sol)
        _assert_same_solution(sol, lp_solve(problem, basis=basis))


def test_rhs_pass_hands_misfit_columns_to_lp_solve(monkeypatch):
    # the setup of test_warm_start_falls_back_to_the_cold_path: columns
    # that the basis keeps feasible, columns it does not, one with a
    # negative entry, a singular basis and a basis that is not optimal
    rng = np.random.default_rng(80)
    misfits = 0
    for _ in range(6):
        first = _random_lp(rng)
        basis = lp_solve(first).basis
        rhs = np.stack([first.A @ rng.uniform(0.1, 1.0, 9) for _ in range(5)]
                       + [first.b, -first.b], axis=1)
        negative = [bool(np.any(b < 0.0)) for b in rhs.T]
        infeasible = [bool(np.min(np.linalg.solve(first.A[:, basis], b)) < 0.0)
                      for b in rhs.T]
        misfits += sum(i and not n for n, i in zip(negative, infeasible))
        sols, handed = _rhs_pass(first, basis, rhs, monkeypatch)
        assert handed == sum(n or i for n, i in zip(negative, infeasible))
        for b, sol in zip(rhs.T, sols):
            _assert_same_solution(sol, lp_solve(replace(first, b=b),
                                                basis=basis))
        for start, problem in ((np.full_like(basis, basis[0]), first),
                               (basis, replace(first, c=-first.c))):
            sols, handed = _rhs_pass(problem, start, rhs, monkeypatch)
            assert handed == rhs.shape[1]
            for b, sol in zip(rhs.T, sols):
                _assert_same_solution(sol, lp_solve(replace(problem, b=b),
                                                    basis=start))
    assert misfits > 0


def test_rhs_pass_checks_each_part_of_a_free_column(monkeypatch):
    # min u s.t. u + v = b1, v <= b2, u free.  The optimal basis of
    # b = (3, 1) holds u's positive part and v; on b = (1, 3) that part
    # reads -2.  The point (u, v) = (-2, 3) passes both certification
    # residuals, but the basis is not primal feasible in standard form,
    # so that column is solved by lp_solve, which pivots
    first = LPProblem(c=[1.0, 0.0], A=[[1.0, 1.0], [0.0, 1.0]], b=[3.0, 1.0],
                      senses=["=", "<="], free=np.array([True, False]))
    basis = lp_solve(first).basis
    rhs = np.array([[3.0, 1.0], [1.0, 3.0]]).T
    (fits, misfit), handed = _rhs_pass(first, basis, rhs, monkeypatch)
    assert handed == 1
    assert fits.iterations == 0 and misfit.iterations > 0
    assert np.array_equal(misfit.x, [-2.0, 3.0])
    for b, sol in zip(rhs.T, (fits, misfit)):
        _assert_same_solution(sol, lp_solve(replace(first, b=b), basis=basis))


def test_rhs_pass_checks_the_rows_its_basis_dropped(monkeypatch):
    # the setup of test_warm_start_checks_the_rows_its_basis_dropped
    first = LPProblem(c=[1.0, 2.0], A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0],
                      senses=["=", "="])
    basis = lp_solve(first).basis
    assert -1 in basis
    rhs = np.array([[1.0, 2.0], [2.0, 2.0]]).T
    (inconsistent, consistent), handed = _rhs_pass(first, basis, rhs,
                                                   monkeypatch)
    assert handed == 1
    assert inconsistent.status == INFEASIBLE
    assert consistent.iterations == 0
    _assert_certified(consistent)
    for b, sol in zip(rhs.T, (inconsistent, consistent)):
        _assert_same_solution(sol, lp_solve(replace(first, b=b), basis=basis))


class _LoopStandardized:
    """The column-by-column standard form the kernel used to build: the
    reference that the array construction must reproduce bit for bit."""

    def __init__(self, p):
        rows, cols = p.A.shape
        col_blocks, c_blocks = [], []
        self.var_map = []
        for j in range(cols):
            col_blocks.append(p.A[:, j:j + 1])
            c_blocks.append(p.c[j])
            self.var_map.append((j, 1.0))
            if p.free[j]:
                col_blocks.append(-p.A[:, j:j + 1])
                c_blocks.append(-p.c[j])
                self.var_map.append((j, -1.0))
        A = np.hstack(col_blocks)
        c = np.array(c_blocks, dtype=float)
        b = p.b.astype(float).copy()
        slack_of_row, slack_cols = {}, []
        for r in range(rows):
            if p.senses[r] == "<=":
                col = np.zeros((rows, 1))
                col[r, 0] = 1.0
                slack_of_row[r] = A.shape[1] + len(slack_cols)
                slack_cols.append(col)
        if slack_cols:
            A = np.hstack([A] + slack_cols)
            c = np.concatenate([c, np.zeros(len(slack_cols))])
        self.row_sign = np.ones(rows)
        for r in range(rows):
            if b[r] < 0.0:
                A[r] *= -1.0
                b[r] *= -1.0
                self.row_sign[r] = -1.0
        basis = np.full(rows, -1, dtype=int)
        for r, j in slack_of_row.items():
            if self.row_sign[r] > 0:
                basis[r] = j
        need_art = np.nonzero(basis < 0)[0]
        self.artificial = np.zeros(A.shape[1] + len(need_art), dtype=bool)
        if len(need_art):
            art_cols = np.zeros((rows, len(need_art)))
            for k, r in enumerate(need_art):
                art_cols[r, k] = 1.0
                basis[r] = A.shape[1] + k
                self.artificial[A.shape[1] + k] = True
            A = np.hstack([A, art_cols])
            c = np.concatenate([c, np.zeros(len(need_art))])
        self.needs_phase1 = bool(len(need_art))
        self.A, self.b, self.c, self.basis = A, b, c, basis
        self.n_orig = cols

    def to_original(self, x_std):
        x = np.zeros(self.n_orig)
        for k, (j, sign) in enumerate(self.var_map):
            x[j] += sign * x_std[k]
        return x

    def dual_to_original(self, y_kept, kept_rows):
        y = np.zeros(len(self.row_sign))
        for pos, r in enumerate(kept_rows):
            y[r] = self.row_sign[r] * y_kept[pos]
        return y


def _zoo_lps(name):
    """A measure LP ('=' rows), the Mather LP (a '<=' mass row) and the
    subsolution LP (free columns, '<=' rows, negative right-hand sides
    where a cost is negative) of a zoo instance."""
    import discountlab as dl
    sys_ = dl.standard_system(name)
    measure = dl.assemble_closed_constraints(sys_, 0.5, 1, 0)
    measure.c = sys_.cost_flat()
    mather = dl.assemble_closed_constraints(sys_, 0.0)
    mather.c = sys_.cost_flat()
    A = dl.discretize.linearized_matrix(sys_, 0.5)
    subsolution = LPProblem(c=-np.ones(A.shape[1]), A=A, b=sys_.cost_flat(),
                            senses=["<="] * A.shape[0],
                            free=np.ones(A.shape[1], dtype=bool))
    return [measure, mather, subsolution]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def test_standardized_arrays_match_the_column_loop():
    rng = np.random.default_rng(80)
    problems = [p for name in ZOO for p in _zoo_lps(name)]
    assert any(p.free.any() and (p.b < 0).any() for p in problems)
    for _ in range(40):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        problems.append(LPProblem(c=rng.standard_normal(n),
                                  A=rng.standard_normal((m, n)),
                                  b=rng.standard_normal(m),
                                  senses=list(rng.choice(["=", "<="], m)),
                                  free=rng.random(n) < 0.3))
    for p in problems:
        new, old = _Standardized(p), _LoopStandardized(p)
        for field in ("A", "b", "c", "basis", "artificial", "row_sign"):
            assert _same_bits(getattr(new, field), getattr(old, field)), field
        assert new.needs_phase1 == old.needs_phase1
        x_std = rng.standard_normal(new.A.shape[1])
        assert _same_bits(new.to_original(x_std), old.to_original(x_std))
        kept = np.sort(rng.choice(len(p.b), int(rng.integers(1, len(p.b) + 1)),
                                  replace=False))
        y_kept = rng.standard_normal(len(kept))
        assert _same_bits(new.dual_to_original(y_kept, kept),
                          old.dual_to_original(y_kept, kept))
