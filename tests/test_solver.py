import sys
from dataclasses import replace

import numpy as np
import pytest

import discountlab as dl
from discountlab.discretize import Relations, bellman_policy, policy_matrix
from discountlab import solver
from discountlab.errors import (BadValue, NoConvergence, NotASubsolution,
                                NotASupersolution)
from discountlab.solver import policy_evaluate


def test_value_iterate_closed_forms(instance_a):
    u, diag = dl.value_iterate(instance_a, 1.0, None, tol=1e-10)
    assert np.max(np.abs(u + 0.5)) <= 1e-10
    u, _ = dl.value_iterate(instance_a, 0.25, None, tol=1e-10)
    assert np.max(np.abs(u + 0.8)) <= 1e-10
    assert diag.final_residual <= 1e-10


def test_value_iterate_arbitrary_start(instance_a, rng):
    u0 = rng.standard_normal((2, 4)) * 3
    u, _ = dl.value_iterate(instance_a, 0.5, u0, tol=1e-11)
    up, _, _ = dl.policy_iterate(instance_a, 0.5, tol=1e-12)
    assert np.max(np.abs(u - up)) <= 1e-10


def test_value_vs_policy_iteration_cross_oracle(instance_b):
    uv, _ = dl.value_iterate(instance_b, 0.5, None, tol=1e-10)
    up, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-10)
    assert np.max(np.abs(uv - up)) <= 1e-9


def test_policy_evaluate_constant_controls(instance_a):
    for lam in (1.0, 0.25):
        for a in (1, 2):   # xi = 0 and xi = 1: drift dies on constants
            pol = np.full((2, 4), a, dtype=int)
            u = policy_evaluate(instance_a, lam, pol)
            assert np.max(np.abs(u + 1.0 / (1.0 + lam))) <= 1e-12


def _shrunken_b():
    return dl.standard_system("quadratic-plc", N=4, xi_radius=2.0, xi_count=3)


def test_policy_iterate_matches_exhaustive_enumeration():
    """Every stationary policy of a shrunken instance is evaluated; the
    pointwise minimum over policies is the solver value (min-cost
    orientation)."""
    sys_ = _shrunken_b()
    lam = 0.5
    S, m = sys_.num_states, sys_.m
    A_ctrl = sys_.num_controls(0)
    assert A_ctrl == 6 and S == 4 and m == 2

    from discountlab.discretize import linearized_matrix
    V = linearized_matrix(sys_, lam)       # (m*S*A, m*S) rows in (i,x,a)
    rows = np.asarray([[V[sys_.var_index(i, x, a)]
                        for a in range(A_ctrl)]
                       for i in range(m) for x in range(S)])
    costs = np.asarray([[sys_.cost[i][x, a] for a in range(A_ctrl)]
                        for i in range(m) for x in range(S)])

    n_slots = m * S
    total = A_ctrl ** n_slots
    best = np.full(m * S, np.inf)
    chunk = 1 << 16
    slot_idx = np.arange(n_slots)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        digits = (codes[:, None] // (A_ctrl ** slot_idx)) % A_ctrl
        mats = rows[slot_idx, digits]              # (batch, mS, mS)
        rhs = costs[slot_idx, digits][..., None]   # (batch, mS, 1)
        vals = np.linalg.solve(mats, rhs)[..., 0]
        best = np.minimum(best, np.min(vals, axis=0))
    u, _, _ = dl.policy_iterate(sys_, lam, tol=1e-11)
    assert np.max(np.abs(best.reshape(m, S) - u)) <= 1e-10


def test_policy_iteration_values_nonincreasing(instance_b):
    lam = 0.5
    _, policy = bellman_policy(instance_b, lam, np.zeros((2, 8)))
    prev = None
    for _ in range(30):
        u = policy_evaluate(instance_b, lam, policy)
        if prev is not None:
            assert np.all(u <= prev + 1e-11)
        prev = u
        _, policy = bellman_policy(instance_b, lam, u)
    assert np.max(np.abs(dl.bellman_residual(instance_b, lam, prev))) <= 1e-9


def test_policy_iterate_one_residual_per_step(instance_b, monkeypatch):
    # the initial greedy policy and one residual per Howard step, from
    # which the norm, the greedy policy and the incumbent are all read
    calls = []
    real = Relations.apply

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(Relations, "apply", counted)
    _, _, diag = dl.policy_iterate(instance_b, 0.5)
    assert diag.iterations >= 2
    assert len(calls) == diag.iterations + 1


def test_uneven_control_counts_match_the_oracles(instance_b_uneven):
    sys_ = instance_b_uneven
    assert [sys_.num_controls(i) for i in range(sys_.m)] == [18, 17]
    up, _, _ = dl.policy_iterate(sys_, 0.5, tol=1e-10)
    uv, _ = dl.value_iterate(sys_, 0.5, None, tol=1e-10)
    assert np.max(np.abs(up - uv)) <= 1e-9
    res = dl.ergodic_solve(sys_, 0.05, tol=1e-10)
    assert np.max(np.abs(res.c + 0.5)) <= 1e-9
    assert res.outer_iterations == 12


def test_small_lambda_policy_iteration(instance_b):
    u, _, diag = dl.policy_iterate(instance_b, 1e-3, tol=1e-10)
    assert diag.final_residual <= 1e-9
    uv, _ = dl.value_iterate(instance_b, 1e-3, u + 0.01, tol=1e-9)
    assert np.max(np.abs(u - uv)) <= 1e-6 / 1e-3 * 1e-3  # 1e-6 slack


def test_comparison_check_examples(instance_a):
    sub = np.full((2, 4), -2.0)
    sup = np.zeros((2, 4))
    assert dl.comparison_check(instance_a, 1.0, sub, sup)
    with pytest.raises(NotASubsolution):
        dl.comparison_check(instance_a, 1.0, np.zeros((2, 4)), sup)
    with pytest.raises(NotASupersolution):
        dl.comparison_check(instance_a, 1.0, sub, np.full((2, 4), -2.0))


def test_comparison_shifted_solution(instance_b):
    v, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    assert dl.comparison_check(instance_b, 0.5, v - 0.1, v + 0.1)


def test_solution_shift_residual_bound(instance_b):
    v, _, _ = dl.policy_iterate(instance_b, 0.5, tol=1e-11)
    for c in (0.05, 0.4, 2.0):
        res = dl.bellman_residual(instance_b, 0.5, v + c)
        assert np.all(res >= 0.5 * c - 1e-9)


# ---------------------------------------------------------------------------
# ergodic suite
# ---------------------------------------------------------------------------

def test_ergodic_map_decoupled_constant():
    sys_ = dl.standard_system("eikonal-f", f_const=2.0, f_amp=0.0, N=8)
    lam = 0.5
    v, tu, c = dl.ergodic_map(sys_, lam, np.zeros((1, 8)))
    assert np.max(np.abs(v - 2.0 / lam)) <= 1e-10
    assert np.max(np.abs(tu)) <= 1e-10
    assert np.allclose(c, [-2.0], atol=1e-10)


def test_ergodic_map_constant_coupling(instance_a):
    # coupling slot frozen at u = 0 leaves lam*v + 1 = 0
    lam = 0.25
    v, tu, c = dl.ergodic_map(instance_a, lam, np.zeros((2, 4)))
    assert np.max(np.abs(v + 1.0 / lam)) <= 1e-9
    assert np.max(np.abs(tu)) <= 1e-9
    assert np.allclose(c, [1.0, 1.0], atol=1e-9)


def test_ergodic_solve_constant_coupling(instance_a):
    res = dl.ergodic_solve(instance_a, 0.25, tol=1e-10)
    assert np.allclose(res.c, [1.0, 1.0], atol=1e-8)
    assert np.max(np.abs(res.u)) <= 1e-8
    assert res.residual <= 1e-8


def test_ergodic_solve_eikonal_refinement():
    for N in (64, 512):
        sys_ = dl.standard_system("eikonal-f", N=N)
        res = dl.ergodic_solve(sys_, 0.05, tol=1e-9)
        assert abs(res.c[0] + 1.0) <= 3.0 / N + 2 * 0.05
        assert res.residual <= 1e-6
        assert np.min(res.u, axis=1).tolist() == [0.0]


def test_ergodic_normalization_exact_minimum(instance_b):
    res = dl.ergodic_solve(instance_b, 0.05, tol=1e-10)
    assert np.array_equal(np.min(res.u, axis=1), np.zeros(2))


def test_ergodic_solve_rejects_bad_damping(instance_a):
    with pytest.raises(BadValue):
        dl.ergodic_solve(instance_a, 0.25, damping=0.0)


def test_ergodic_solve_linear_b(instance_linear_b):
    # zero row sums leave an additive freedom; the normalization in the
    # fixed-point map pins it and the residual identity still holds
    res = dl.ergodic_solve(instance_linear_b, 0.05, tol=1e-10)
    assert res.residual <= 1e-8
    assert np.array_equal(np.min(res.u, axis=1), np.zeros(2))
    direct = dl.bellman_residual(instance_linear_b, 0.0, res.u) \
        - res.c[:, None]
    assert np.max(np.abs(direct)) <= 1e-8


def _cold_ergodic(sys_, lam, tol, damping=0.5, max_outer=5000):
    """The damped iteration u <- (1 - damping) u + damping Tu, with every
    inner solve started cold: (c, u, sweeps)."""
    u = np.zeros((sys_.m, sys_.num_states))
    for sweep in range(1, max_outer + 1):
        _, tu, c = dl.ergodic_map(sys_, lam, u)
        if np.max(np.abs(tu - u)) <= tol:
            return c, tu, sweep
        u = (1.0 - damping) * u + damping * tu
    raise AssertionError("cold-start iteration did not converge")


_ZOO_ERGODIC = [("constant-coupling", 0.25), ("linear-B", 0.05),
                ("quadratic-plc", 0.05), ("eikonal-f", 0.01)]


@pytest.mark.parametrize("zoo_id, lam", _ZOO_ERGODIC)
def test_ergodic_warm_start_matches_cold_start(zoo_id, lam):
    # the mixed iteration stops at another point of the last gap's ball
    # than the damped one: 1e-12 is the stopping tolerance
    sys_ = dl.standard_system(zoo_id)
    res = dl.ergodic_solve(sys_, lam, tol=1e-12)
    c, u, _ = _cold_ergodic(sys_, lam, tol=1e-12)
    assert np.max(np.abs(res.c - c)) <= 1e-12
    assert np.max(np.abs(res.u - u)) <= 1e-12


@pytest.mark.parametrize("damping", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("zoo_id, lam", _ZOO_ERGODIC)
def test_anderson_mixing_takes_no_more_sweeps_than_damping(zoo_id, lam,
                                                           damping):
    sys_ = dl.standard_system(zoo_id)
    res = dl.ergodic_solve(sys_, lam, tol=1e-12, damping=damping)
    c, _, sweeps = _cold_ergodic(sys_, lam, tol=1e-12, damping=damping)
    assert res.outer_iterations <= sweeps
    assert np.max(np.abs(res.c - c)) <= 1e-12


@pytest.mark.parametrize("zoo_id, lam", _ZOO_ERGODIC)
def test_singular_mixing_falls_back_to_damped_steps(zoo_id, lam,
                                                    monkeypatch):
    # every mixing solve raises, so each sweep restarts the history and
    # takes the damped step: the damped iteration's sweeps and c
    solve, mixing = np.linalg.solve, []

    def failing(a, b):
        if sys._getframe(1).f_code is solver._anderson_step.__code__:
            mixing.append(1)
            raise np.linalg.LinAlgError("singular mixing matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    sys_ = dl.standard_system(zoo_id)
    res = dl.ergodic_solve(sys_, lam, tol=1e-12)
    c, _, sweeps = _cold_ergodic(sys_, lam, tol=1e-12)
    assert res.outer_iterations == sweeps
    assert len(mixing) == max(sweeps - 2, 0)
    assert np.max(np.abs(res.c - c)) <= 1e-12


def test_a_rising_gap_restarts_with_a_damped_step(monkeypatch):
    # T shifted by 1 on the third sweep makes its gap rise: the history is
    # dropped, the next step is the damped one, and the iteration still
    # reaches the damped iteration's fixed point
    ergodic_map, calls = solver.ergodic_map, []

    def bumped(sys_, lam, u, v0=None):
        v, tu, c = ergodic_map(sys_, lam, u, v0)
        if len(calls) == 2:
            tu = tu + 1.0
        calls.append((u, tu))
        return v, tu, c

    monkeypatch.setattr(solver, "ergodic_map", bumped)
    sys_ = dl.standard_system("quadratic-plc")
    res = dl.ergodic_solve(sys_, 0.05, tol=1e-12)
    (u2, tu2), (u3, _) = calls[2], calls[3]
    assert np.array_equal(u3, 0.5 * u2 + 0.5 * tu2)
    c, _, _ = _cold_ergodic(sys_, 0.05, tol=1e-12)
    assert np.max(np.abs(res.c - c)) <= 1e-12


def test_ergodic_warm_start_evaluation_count(monkeypatch):
    # from the zero field a sweep needs about N/4 evaluations (198 for 6
    # sweeps here); the cold first sweep starts from the coarse-grid
    # solution (7 evaluations at N = 64, 32, 16, one at N = 128), and the
    # warm-started Howard steps of the other 5 sweeps need one each
    calls = []
    evaluate = solver.policy_evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solver, "policy_evaluate", counted)
    sys_ = dl.standard_system("eikonal-f", N=128)
    res = dl.ergodic_solve(sys_, 0.01, tol=1e-9)
    assert abs(res.c[0] + 1.0) <= 1e-9
    assert len(calls) <= 13


@pytest.mark.parametrize("zoo_id, N, lam, tol, sweeps, evaluations", [
    ("eikonal-f", 128, 0.01, 1e-9, 6, 13),
    ("eikonal-f", 6, 0.01, 1e-12, 6, 8),
    ("quadratic-plc", None, 0.05, 1e-12, 15, 39),
    ("linear-B", None, 0.05, 1e-12, 15, 35)])
def test_ergodic_howard_counts_are_pinned(zoo_id, N, lam, tol, sweeps,
                                          evaluations):
    # one evaluation per Howard step, the coarse steps of cold starts too
    sys_ = dl.standard_system(zoo_id, **({} if N is None else {"N": N}))
    before = dict(solver.WORK)
    res = dl.ergodic_solve(sys_, lam, tol=tol)
    assert res.outer_iterations == sweeps
    assert solver.WORK["ergodic_sweeps"] - before["ergodic_sweeps"] == sweeps
    assert solver.WORK["policy_evaluations"] - \
        before["policy_evaluations"] == evaluations
    assert solver.WORK["howard_steps"] - before["howard_steps"] == evaluations


def test_ergodic_builds_each_frozen_policy_matrix_once(monkeypatch):
    # 13 evaluations: the cold first sweep's 7 coarse ones build their own
    # matrices, and the 6 on the fine grid see one policy, inverted on
    # first sight (a matrix per evaluation would be 13)
    calls = []
    build = solver.policy_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(solver, "policy_matrix", counted)
    sys_ = dl.standard_system("eikonal-f", N=128)
    res = dl.ergodic_solve(sys_, 0.01, tol=1e-9)
    assert abs(res.c[0] + 1.0) <= 1e-9
    assert len(calls) <= 8


@pytest.mark.parametrize("zoo_id, N, lam", [
    ("constant-coupling", None, 0.25), ("linear-B", None, 0.05),
    ("quadratic-plc", None, 0.05), ("eikonal-f", None, 0.01),
    ("eikonal-f", 128, 0.01), ("eikonal-f", 1024, 0.01),
    ("linear-B", 128, 0.05), ("quadratic-plc", 64, 0.05)])
def test_inverse_evaluation_matches_the_dense_solve(zoo_id, N, lam):
    # every policy the ergodic solve inverted, on the last sweep's cost
    sys_ = dl.standard_system(zoo_id, **({} if N is None else {"N": N}))
    dl.ergodic_solve(sys_, lam, tol=1e-9)
    checked = 0
    for scalar in sys_.uncoupled:
        for lam_k, key in list(scalar.inverses):
            policy = np.frombuffer(key, dtype=np.intp).reshape(1, -1)
            fast = policy_evaluate(scalar, lam_k, policy)
            dense = policy_evaluate(replace(scalar), lam_k, policy)
            scale = max(1.0, float(np.max(np.abs(dense))))
            assert np.max(np.abs(fast - dense)) <= 1e-13 * scale
            checked += 1
    assert checked >= sys_.m


@pytest.mark.parametrize("zoo_id, N, lam, tol, inversions, updates", [
    ("eikonal-f", 128, 0.01, 1e-9, 1, 0),
    ("linear-B", 128, 0.05, 1e-12, 4, 9),
    ("quadratic-plc", 64, 0.05, 1e-12, 7, 16),
    ("eikonal-f", 6, 0.01, 1e-12, 4, 0),
    ("quadratic-plc", 8, 0.05, 1e-12, 13, 0)])
def test_ergodic_inverse_work_is_pinned(zoo_id, N, lam, tol, inversions,
                                        updates):
    # a new frozen policy is an update of the newest cached inverse when
    # 8 * (entries changed since that one's inversion + entries changed
    # now) < S; S <= 8 never updates
    sys_ = dl.standard_system(zoo_id, N=N)
    before = dict(solver.WORK)
    dl.ergodic_solve(sys_, lam, tol=tol)
    assert solver.WORK["inversions"] - before["inversions"] == inversions
    assert solver.WORK["inverse_updates"] - before["inverse_updates"] \
        == updates
    assert sum(len(s.inverses) for s in sys_.uncoupled) == \
        inversions + updates


@pytest.mark.parametrize("zoo_id, N", [("linear-B", 128),
                                       ("quadratic-plc", 64)])
def test_cached_inverses_stay_near_a_fresh_inversion(zoo_id, N):
    # the chain of updates between two inversions is capped, so every
    # cached inverse stays within 5e-12 of np.linalg.inv, relative to the
    # largest entry (measured: 5.0e-13 on linear-B, 8.9e-16 on
    # quadratic-plc)
    sys_ = dl.standard_system(zoo_id, N=N)
    dl.ergodic_solve(sys_, 0.05, tol=1e-12)
    for scalar in sys_.uncoupled:
        for (lam, key), (inv, changed) in scalar.inverses.items():
            assert solver.UPDATE_RATIO * changed < scalar.num_states
            policy = np.frombuffer(key, dtype=np.intp).reshape(1, -1)
            exact = np.linalg.inv(policy_matrix(scalar, lam, policy))
            assert np.max(np.abs(inv - exact)) \
                <= 5e-12 * np.max(np.abs(exact))


def test_a_new_policy_updates_only_the_newest_inverse():
    # cache: all-left, then left/stay/right in turn; S = 64, so an update
    # needs k < 8 changed entries
    scalar = dl.standard_system("eikonal-f", N=64).uncoupled[0]
    lam, S = 0.05, scalar.num_states
    older = np.zeros((1, S), dtype=np.intp)
    newer = np.arange(S, dtype=np.intp)[None, :] % 3
    for policy in (older, newer):
        policy_evaluate(scalar, lam, policy)
    cached = dict(scalar.inverses)

    def work_of(policy):
        scalar.inverses = dict(cached)
        before = dict(solver.WORK)
        policy_evaluate(scalar, lam, policy)
        return (solver.WORK["inversions"] - before["inversions"],
                solver.WORK["inverse_updates"] - before["inverse_updates"])

    near_newer, near_older = newer.copy(), older.copy()
    near_newer[0, 10:17] = (newer[0, 10:17] + 1) % 3
    near_older[0, 10:17] = 1
    assert work_of(near_newer) == (0, 1)
    inv, changed = scalar.inverses[(lam, near_newer.tobytes())]
    exact = np.linalg.inv(policy_matrix(scalar, lam, near_newer))
    assert np.max(np.abs(inv - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert changed == 7
    assert work_of(near_older) == (1, 0)
    # one entry more on top of near_newer's 7 would chain 8: inverted
    cached = {(lam, near_newer.tobytes()): (inv, changed)}
    further = near_newer.copy()
    further[0, 40] = (further[0, 40] + 1) % 3
    assert work_of(further) == (1, 0)
    assert scalar.inverses[(lam, further.tobytes())][1] == 0


def test_policy_iterate_stops_at_max_iter(monkeypatch):
    # one Howard step cannot solve a cold eikonal-f N=32: the budget runs
    # out, and the partial diagnostics come with the error
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="exceeded MAX_ITER") as info:
        dl.policy_iterate(dl.standard_system("eikonal-f", N=32), 0.5)
    assert isinstance(info.value.diagnostics, dl.SolveDiagnostics)
    assert info.value.diagnostics.iterations == 1


def test_negative_tolerances_are_rejected(instance_a, monkeypatch):
    # tol = 0 stays legal: it asks for an exact fixed point
    res = dl.ergodic_solve(dl.standard_system("eikonal-f"), 0.01, tol=0.0)
    assert abs(res.c[0] + 1.0) <= 1e-12
    evaluate = solver.policy_evaluate

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was made")

    monkeypatch.setattr(solver, "policy_evaluate", no_solve)
    for tol in (-1.0, float("nan")):
        with pytest.raises(BadValue):
            dl.policy_iterate(instance_a, 0.5, tol=tol)
        with pytest.raises(BadValue):
            dl.ergodic_solve(instance_a, 0.25, tol=tol)
        with pytest.raises(BadValue):
            dl.value_iterate(instance_a, 0.5, None, tol=tol)
    nan = float("nan")
    u, policy = np.zeros((2, 4)), np.zeros((2, 4), dtype=int)
    for call in (lambda: dl.value_iterate(instance_a, nan, None, tol=1e-10),
                 lambda: evaluate(instance_a, nan, policy),
                 lambda: dl.policy_iterate(instance_a, nan),
                 lambda: dl.ergodic_map(instance_a, nan, u),
                 lambda: dl.ergodic_solve(instance_a, nan)):
        with pytest.raises(BadValue):
            call()


def test_ergodic_no_convergence_carries_gap_history(eikonal32):
    with pytest.raises(NoConvergence) as info:
        dl.ergodic_solve(eikonal32, 0.01, tol=1e-9, max_outer=3)
    gaps = info.value.diagnostics
    assert len(gaps) == 3
    assert np.all(np.isfinite(gaps))
    assert gaps[-1] > 1e-9


# ---------------------------------------------------------------------------
# coarse-to-fine start
# ---------------------------------------------------------------------------

def _zero_start(sys_, lam):
    return dl.policy_iterate(sys_, lam,
                             u0=np.zeros((sys_.m, sys_.num_states)))


def _assert_matches_zero_start(sys_, lam, atol=1e-12):
    u, _, diag = dl.policy_iterate(sys_, lam)
    u0, _, diag0 = _zero_start(sys_, lam)
    # ties may leave a different, equally optimal final policy
    assert np.max(np.abs(u - u0)) <= atol
    assert diag.final_residual <= 1e-10
    assert diag0.final_residual <= 1e-10
    return diag, diag0


@pytest.mark.parametrize("lam", [0.5, 0.01])
@pytest.mark.parametrize("N", [64, 128])
@pytest.mark.parametrize("zoo_id", dl.model.ZOO_IDS)
def test_coarse_start_matches_the_zero_start(zoo_id, N, lam):
    _assert_matches_zero_start(dl.standard_system(zoo_id, N=N), lam)


@pytest.mark.parametrize("lam", [0.5, 0.01])
def test_coarse_start_matches_the_zero_start_in_two_dimensions(
        two_d_system, lam):
    # many controls tie in 2-d (the final policies differ at 31 of 1024
    # states at lam = 0.01), so the roundoff of the two solves differs:
    # 1e-12 relative to the values' size 1/lam
    _assert_matches_zero_start(two_d_system(32), lam, atol=1e-12 / lam)


def test_coarse_start_saves_the_fine_steps():
    diag, diag0 = _assert_matches_zero_start(
        dl.standard_system("eikonal-f", N=128), 0.01)
    assert (diag.iterations, diag0.iterations) == (1, 33)


@pytest.mark.parametrize("zoo_id, N", [
    ("eikonal-f", 33), ("eikonal-f", 30), ("quadratic-plc", 31),
    ("linear-B", 16)])
def test_cold_start_off_the_ladder_is_the_zero_start(zoo_id, N):
    # odd N, or N/2 below COARSE_FLOOR: no coarse solve
    sys_ = dl.standard_system(zoo_id, N=N)
    for lam in (0.5, 0.01):
        u, policy, diag = dl.policy_iterate(sys_, lam)
        u0, policy0, diag0 = _zero_start(sys_, lam)
        assert np.array_equal(u, u0)
        assert np.array_equal(policy, policy0)
        assert diag.iterations == diag0.iterations


def test_cold_start_converges_on_fine_grids():
    # from the zero field, policy iteration exceeds MAX_ITER = 200 here
    sys_ = dl.standard_system("eikonal-f", N=1024)
    _, _, diag = dl.policy_iterate(sys_, 0.01)
    assert diag.final_residual <= 1e-10
    res = dl.ergodic_solve(sys_, 0.01, tol=1e-9)
    assert abs(res.c[0] + 1.0) <= 1e-9
