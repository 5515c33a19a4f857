"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible under ``pytest -s`` or
in the captured output on failure) and asserts the same condition, so
the suite is both machine-checked and human-readable.
"""

import time

import numpy as np
import pytest

import discountlab as dl
from discountlab.limits import closedness_residual, stencil_norm
from discountlab.lp import LPProblem, enumeration_minimum, lp_solve


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def instances():
    return {
        "A": dl.standard_system("constant-coupling"),
        "B": dl.standard_system("quadratic-plc"),
    }


def test_criterion_01_exact_duality(instances):
    """Three-way agreement of solver, measure LP and subsolution LP."""
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for sys_ in instances.values():
        for lam in (1.0, 0.5, 0.1, 0.01):
            u, _, _ = dl.policy_iterate(sys_, lam, tol=1e-10)
            for k in range(sys_.m):
                for z in range(sys_.num_states):
                    rep = dl.duality_audit(sys_, lam, z, k,
                                           solver_value=float(u[k, z]))
                    worst = max(worst,
                                abs(rep.solver_value - rep.measure_value),
                                abs(rep.solver_value - rep.subsolution_value))
                    count += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-7 and elapsed < 60.0
    _verdict(1, ok, f"{count} audits, worst gap {worst:.3e}, "
                    f"{elapsed:.1f}s (< 60s)")


def test_criterion_02_normalization_identity(instances):
    """Discounted mass of every minimizing measure equals 1 to 1e-9."""
    worst = 0.0
    combos = 0
    plan = [("A", (1.0, 0.5, 0.1)), ("B", (0.5, 0.1))]
    for name, lams in plan:
        sys_ = instances[name]
        for lam in lams:
            for k in range(sys_.m):
                for z in range(sys_.num_states):
                    mu, _ = dl.green_poisson(sys_, lam, z, k)
                    worst = max(worst, abs(mu.discount_mass(sys_) - 1.0))
                    combos += 1
    ok = combos >= 50 and worst <= 1e-9
    _verdict(2, ok, f"{combos} measures, worst |mass - 1| = {worst:.3e}")


def test_criterion_03_closed_form(instances):
    """constant-coupling solves to -1/(1+lam) exactly."""
    worst = 0.0
    for lam in (1.0, 0.25):
        u, _, _ = dl.policy_iterate(instances["A"], lam, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(u + 1.0 / (1.0 + lam)))))
    ok = worst <= 1e-12
    _verdict(3, ok, f"worst deviation {worst:.3e} (<= 1e-12)")


def test_criterion_04_comparison_principle(instances):
    """100 randomized sub/supersolution pairs per instance, sub <= sup."""
    rng = np.random.default_rng(404)
    counterexamples = 0
    checked = 0
    for sys_ in instances.values():
        lam = 0.5
        v, _, _ = dl.policy_iterate(sys_, lam, tol=1e-11)
        for _ in range(100):
            d_lo = float(rng.uniform(1e-3, 1.0))
            d_hi = float(rng.uniform(1e-3, 1.0))
            if not dl.comparison_check(sys_, lam, v - d_lo, v + d_hi):
                counterexamples += 1
            checked += 1
    ok = checked == 200 and counterexamples == 0
    _verdict(4, ok, f"{checked} pairs, {counterexamples} counterexamples")


def test_criterion_05_vanishing_discount_convergence(instances):
    """Cauchy gaps below 1e-6 by rung 18 on normalized instances."""
    started = time.perf_counter()
    details = []
    ok = True
    eik = dl.standard_system("eikonal-f", N=32)
    eik_n, _ = dl.ergodic_normalize(eik, lam=0.01, tol=1e-12)
    b_n, _ = dl.ergodic_normalize(instances["B"], lam=0.05, tol=1e-12)
    for name, sys_ in (("eikonal-f/32", eik_n), ("quadratic-plc", b_n)):
        sweep = dl.discount_sweep(sys_, 0.5, 0.5, 18, tol=1e-10)
        first = float(np.max(np.abs(sweep.fields[0])))
        good = (not sweep.divergent and sweep.cauchy_gaps[-1] <= 1e-6
                and sweep.uniform_bound < 10.0 * first)
        ok &= good
        details.append(f"{name}: gap {sweep.cauchy_gaps[-1]:.2e}, "
                       f"bound {sweep.uniform_bound:.3f}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    _verdict(5, ok, "; ".join(details) + f"; {elapsed:.1f}s (< 120s)")


def test_criterion_06_mather_measures(instances):
    """Mather LP minimum in [-1e-8, 0]; rescaled sweep measures nearly
    closed with vanishing cost pairing."""
    ok = True
    details = []
    eik_n, _ = dl.ergodic_normalize(dl.standard_system("eikonal-f", N=32),
                                    lam=0.01, tol=1e-12)
    b_n, _ = dl.ergodic_normalize(instances["B"], lam=0.05, tol=1e-12)
    for name, sys_ in (("eikonal-f/32", eik_n), ("quadratic-plc", b_n)):
        _, min_value, _ = dl.mather_lp(sys_)
        sweep = dl.discount_sweep(sys_, 0.5, 0.5, 18, tol=1e-10)
        nu = dl.mather_from_sweep(sys_, sweep, 0, 0)
        lam_min = sweep.lambdas[-1]
        resid = closedness_residual(sys_, nu)
        bound = 5.0 * lam_min * stencil_norm(sys_)
        pairing = abs(nu.pair_cost(sys_))
        good = (-1e-8 <= min_value <= 0.0 and resid <= bound
                and pairing <= 1e-4)
        ok &= good
        details.append(f"{name}: min {min_value:.1e}, resid {resid:.1e} "
                       f"(<= {bound:.1e}), |<nu,L>| {pairing:.1e}")
    _verdict(6, ok, "; ".join(details))


def test_criterion_07_selection_principle():
    """Exhaustive Mather-face vertices reproduce the sweep limit."""
    started = time.perf_counter()
    tiny = dl.standard_system("eikonal-f", N=4)
    tiny_n, _ = dl.ergodic_normalize(tiny, lam=0.01, tol=1e-12)
    assert tiny_n.total_vars <= 30
    mset = dl.mather_face_samples(tiny_n, 16, seed=7)
    assert mset.exhaustive
    sweep = dl.discount_sweep(tiny_n, 0.5, 0.5, 24, tol=1e-11)
    field = dl.selection_field(tiny_n, mset)
    gap = float(np.max(np.abs(field - sweep.limit_candidate)))
    pairings = [nu.pair_field(sweep.limit_candidate)
                for nu in mset.representatives]
    elapsed = time.perf_counter() - started
    ok = gap <= 1e-5 and all(p <= 1e-6 for p in pairings) and elapsed < 60.0
    _verdict(7, ok, f"gap {gap:.2e} (<= 1e-5), max pairing "
                    f"{max(pairings):.2e} over {len(pairings)} vertices, "
                    f"{elapsed:.1f}s (< 60s)")


def test_criterion_08_ergodic_solver():
    """Ergodic constants track -min f with residual <= 1e-6."""
    started = time.perf_counter()
    lam = 0.01
    errors = {}
    ok = True
    for N in (64, 256, 512):
        sys_ = dl.standard_system("eikonal-f", N=N)
        res = dl.ergodic_solve(sys_, lam, tol=1e-9)
        err = abs(float(res.c[0]) + 1.0)
        errors[N] = err
        ok &= err <= 3.0 / N + 2.0 * lam
        if N in (64, 256):
            ok &= res.residual <= 1e-6
    ok &= errors[512] <= 3.0 / 512 + 2.0 * lam  # refinement confirms trend
    prof = dl.coercivity_profile(dl.make_model("eikonal-f"), R=4.0,
                                 radii=[1, 2, 4, 8], sample_density=16)
    ok &= dl.check_erg_condition(prof, n=1)
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    _verdict(8, ok, f"|c + min f| = " +
             ", ".join(f"N={n}: {e:.2e}" for n, e in errors.items()) +
             f"; condition holds; {elapsed:.1f}s (< 60s)")


def test_criterion_09_structure_checkers():
    """Monotone checker: exact pass on monotone coupling, witnessed
    failure on a perturbed one; finite transform entries respect the
    coupling cone and injected violations are forced infinite."""
    m_good = dl.make_model("linear-B")
    rep_good = dl.check_monotone(m_good, 1000, seed=9)
    m_bad = dl.make_model("linear-B", B=[[1.0, 0.1], [-1.0, 1.0]])
    rep_bad = dl.check_monotone(m_bad, 1000, seed=9)

    cone_ok = True
    forced_ok = True
    for zid in ("constant-coupling", "quadratic-plc", "eikonal-f"):
        mdl = dl.make_model(zid)
        etas = list(dl.discretize.default_eta_spec(mdl, 0))
        bad_eta = np.full(mdl.m, 0.5)     # positive foreign entry or sum
        bad_eta[0] = -1.0 if mdl.m == 1 else 0.5
        tab = dl.legendre_transform(mdl, 0, np.zeros((1, mdl.n)),
                                    np.linspace(-1, 1, 5),
                                    np.stack(etas + [bad_eta]))
        cone_ok &= dl.check_coupling_domain(tab).passed
        forced_ok &= bool(np.all(np.isinf(tab.values[:, :, -1])))

    ok = (rep_good.passed and rep_good.worst_violation == 0.0
          and not rep_bad.passed and rep_bad.witness is not None
          and cone_ok and forced_ok)
    _verdict(9, ok, f"monotone pass (violation {rep_good.worst_violation}), "
                    f"perturbed fails (violation "
                    f"{rep_bad.worst_violation:.3f}), cone audit clean")


def test_criterion_10_lp_kernel_certification():
    """200 random LPs match exhaustive vertex enumeration to 1e-9."""
    rng = np.random.default_rng(1000)
    worst = 0.0
    solved = 0
    cert_ok = True
    while solved < 200:
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m + 1, 15))
        A = rng.standard_normal((m, n))
        x0 = rng.uniform(0.0, 1.0, n)
        b = A @ x0
        c = rng.uniform(0.05, 1.0, n)
        sol = lp_solve(LPProblem(c=c, A=A, b=b, senses=["="] * m))
        if sol.status != "Optimal":
            cert_ok = False
            break
        cert_ok &= (sol.feasibility_residual <= 1e-9
                    and sol.slackness_residual <= 1e-8)
        val, _ = enumeration_minimum(A, b, c)
        worst = max(worst, abs(sol.objective_value - val))
        solved += 1
    ok = cert_ok and solved == 200 and worst <= 1e-9
    _verdict(10, ok, f"{solved} LPs, worst enumeration gap {worst:.3e}, "
                     f"certificates within bounds")
