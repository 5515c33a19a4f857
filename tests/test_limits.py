import numpy as np
import pytest

import discountlab as dl
from discountlab import limits
from discountlab.errors import (BadValue, DivergentSweep, NumericalBreakdown,
                               UnboundedLP)
from discountlab.lp import (OPTIMAL, LPProblem, enumerate_basic_solutions,
                            lp_solve)
from discountlab.limits import (closedness_residual, ergodic_normalize,
                                face_support, mather_from_sweep,
                                stencil_norm)


def test_sweep_constant_coupling_closed_form(instance_a):
    sweep = dl.discount_sweep(instance_a, 1.0, 0.5, 12, tol=1e-11)
    for lam, field in zip(sweep.lambdas, sweep.fields):
        assert np.max(np.abs(field + 1.0 / (1.0 + lam))) <= 1e-10
    # gaps halve along the ladder (exactly so once lam << 1)
    ratios = [b / a for a, b in zip(sweep.cauchy_gaps, sweep.cauchy_gaps[1:])]
    assert all(r <= 0.85 for r in ratios)
    assert all(0.45 <= r <= 0.55 for r in ratios[-4:])
    assert abs(sweep.limit_candidate[0, 0] + 1.0) <= 1e-3
    assert not sweep.divergent


def test_sweep_lambdas_strictly_decreasing(instance_a):
    sweep = dl.discount_sweep(instance_a, 0.5, 0.5, 6, tol=1e-10)
    assert all(b < a for a, b in zip(sweep.lambdas, sweep.lambdas[1:]))


def test_sweep_divergence_flagged_for_nonzero_constant(eikonal32):
    # ergodic constant -1 != 0: values grow like 1/lam and trip the flag
    sweep = dl.discount_sweep(eikonal32, 0.5, 0.5, 22, tol=1e-9)
    assert sweep.divergent
    assert sweep.uniform_bound > 1e6
    lam_last = sweep.lambdas[-1]
    assert abs(lam_last * np.max(np.abs(sweep.fields[-1])) - 1.0) <= 0.2
    with pytest.raises(DivergentSweep):
        mather_from_sweep(eikonal32, sweep, 0, 0)


def test_sweep_bounded_after_normalization(eikonal32_normalized,
                                           instance_b_normalized):
    for sys_ in (eikonal32_normalized, instance_b_normalized):
        sweep = dl.discount_sweep(sys_, 0.5, 0.5, 18, tol=1e-10)
        assert not sweep.divergent
        first = float(np.max(np.abs(sweep.fields[0])))
        assert sweep.uniform_bound <= 10.0 * first
        assert sweep.cauchy_gaps[-1] <= 1e-6


def test_mather_lp_zero_on_normalized(eikonal32_normalized,
                                      instance_b_normalized):
    for sys_ in (eikonal32_normalized, instance_b_normalized):
        nu, min_value, _ = dl.mather_lp(sys_)
        assert -1e-8 <= min_value <= 1e-12
        assert nu.total_mass() <= 1.0 + 1e-12


def test_mather_lp_detects_negative_cost_circuit():
    # cost dips to -1 at the grid minimizer: the point mass there wins
    sys_ = dl.standard_system("eikonal-f", N=8, f_const=0.0)
    nu, min_value, _ = dl.mather_lp(sys_)
    assert abs(min_value + 1.0) <= 1e-8
    w = nu.weights[0]
    assert abs(w[4, 1] - 1.0) <= 1e-9       # x = 0.5, xi = 0
    assert abs(nu.total_mass() - 1.0) <= 1e-9


def test_mather_from_sweep_constant_coupling(instance_a_shifted):
    sweep = dl.discount_sweep(instance_a_shifted, 0.5, 0.5, 14, tol=1e-11)
    nu = mather_from_sweep(instance_a_shifted, sweep, 0, 0)
    lam_min = sweep.lambdas[-1]
    # mass lam/(1+lam) -> 0: the zero measure is the only closed measure
    assert abs(nu.total_mass() - lam_min / (1 + lam_min)) <= 1e-9
    assert abs(nu.pair_cost(instance_a_shifted)) <= 1e-12
    assert closedness_residual(instance_a_shifted, nu) <= \
        5 * lam_min * (1 + stencil_norm(instance_a_shifted))


def test_mather_from_sweep_concentrates(eikonal32_normalized):
    sweep = dl.discount_sweep(eikonal32_normalized, 0.5, 0.5, 18, tol=1e-10)
    nu = mather_from_sweep(eikonal32_normalized, sweep, 0, 0)
    assert 0.9 <= nu.total_mass() <= 1.0 + 1e-9
    # mass concentrates at the cost minimizer x = 0.5 (state 16), xi = 0,
    # matching the Mather LP optimal support
    assert nu.weights[0][16, 1] >= 0.9
    assert abs(nu.pair_cost(eikonal32_normalized)) <= 1e-4
    lam_min = sweep.lambdas[-1]
    assert closedness_residual(eikonal32_normalized, nu) <= \
        5 * lam_min * (1 + stencil_norm(eikonal32_normalized))


def test_face_zero_only_for_positive_total_coupling(
        instance_a_shifted, constant_coupling_unpruned_face):
    mset = dl.mather_face_samples(instance_a_shifted, 8, seed=2)
    assert mset.exhaustive
    assert len(mset.representatives) == 1
    assert mset.representatives[0].total_mass() == 0.0
    # every closed measure is 0, so no column survives the pruning
    assert mset.support_columns == (0, instance_a_shifted.total_vars)
    assert len(constant_coupling_unpruned_face) == 1
    assert np.all(constant_coupling_unpruned_face == 0.0)


def test_face_tiny_instance_vertices(tiny_eikonal_normalized):
    # sampling is checked by test_fallback_samples_match_the_exact_face
    mset = dl.mather_face_samples(tiny_eikonal_normalized, 16, seed=3)
    assert mset.exhaustive
    masses = sorted(round(nu.total_mass(), 6) for nu in mset.representatives)
    assert masses == [0.0, 1.0]


def test_face_two_minimizers():
    # f = 1 + cos(4 pi x): zero cost at x = 0.25 and x = 0.75
    sys_ = dl.standard_system("eikonal-f", N=8, f_const=1.0, f_freq=2)
    mset = dl.mather_face_samples(sys_, 24, seed=4)
    point_masses = [nu for nu in mset.representatives
                    if abs(nu.total_mass() - 1.0) <= 1e-9]
    supports = set()
    for nu in point_masses:
        x, a = np.nonzero(nu.weights[0] > 1e-9)
        supports.add((int(x[0]), int(a[0])))
    assert {(2, 1), (6, 1)} <= supports
    for nu in mset.representatives:
        assert nu.pair_cost(sys_) <= 1e-8


def _object_dedup_reference(sys_, vertices):
    """Per-vertex reference: each raw vertex becomes a validated
    MeasureVector, kept unless within FACE_DEDUP_TOL in total variation of
    a measure kept before it."""
    kept = []
    for v in vertices:
        nu = dl.MeasureVector.from_flat(sys_, np.maximum(v[:sys_.total_vars],
                                                         0.0), 0.0)
        nu.validate(sys_)
        if all(nu.tv_distance(o) > limits.FACE_DEDUP_TOL for o in kept):
            kept.append(nu)
    return kept


@pytest.mark.parametrize("fixture", ["tiny_eikonal_normalized",
                                     "instance_a_shifted", None],
                         ids=["tiny-eikonal", "constant-coupling-zero",
                              "eikonal-two-wells"])
def test_face_representatives_match_object_reference(fixture, request,
                                                     monkeypatch):
    sys_ = request.getfixturevalue(fixture) if fixture else \
        dl.standard_system("eikonal-f", N=8, f_const=1.0, f_freq=2)
    raw, support = [], []

    def recording(A, b, tol):
        raw.append(enumerate_basic_solutions(A, b, tol=tol))
        return raw[-1]

    def recording_support(*args):
        support.append(face_support(*args))
        return support[-1]

    monkeypatch.setattr(limits, "enumerate_basic_solutions", recording)
    monkeypatch.setattr(limits, "face_support", recording_support)
    mset = dl.mather_face_samples(sys_, 8, seed=13)
    assert mset.exhaustive and len(raw) == 1 and len(support) == 1
    # the enumeration ran on the support columns plus the mass slack:
    # scatter its vertices back to full width
    full = np.zeros((len(raw[0]), sys_.total_vars))
    full[:, support[0]] = raw[0][:, :-1]
    reference = _object_dedup_reference(sys_, full)
    assert len(mset.representatives) == len(reference)
    for nu, ref in zip(mset.representatives, reference):
        assert np.array_equal(nu.flat(), ref.flat())
        nu.validate(sys_)


def unpruned_face(sys_):
    """The oracle: every basis of the exact face over all its columns,
    checked against the lam = 0 rule and deduplicated."""
    _, min_value, _ = dl.mather_lp(sys_)
    A, b = limits.exact_face(sys_, min_value)
    raw = enumerate_basic_solutions(A, b, tol=1e-8)[:, :-1]
    dl.measures.validate_lam0_rows(raw)
    return limits._dedup(raw)


@pytest.fixture(scope="session")
def constant_coupling_unpruned_face(instance_a_shifted):
    """About 103k raw vertices for 1 representative: enumerated once."""
    return unpruned_face(instance_a_shifted)


def _normalized(instance, lam=0.01, tol=1e-12, **kwargs):
    sys_ = dl.standard_system(instance, **kwargs)
    return ergodic_normalize(sys_, lam=lam, tol=tol)[0]


@pytest.mark.parametrize("case", [
    "tiny-eikonal", "constant-coupling-zero", "eikonal-two-wells",
    "eikonal-f-6", "eikonal-f-8"])
def test_pruned_face_matches_unpruned_enumeration(case, request):
    # every face of at most 24 columns the tests build
    if case == "tiny-eikonal":
        sys_ = request.getfixturevalue("tiny_eikonal_normalized")
    elif case == "constant-coupling-zero":
        sys_ = request.getfixturevalue("instance_a_shifted")
    elif case == "eikonal-two-wells":
        sys_ = dl.standard_system("eikonal-f", N=8, f_const=1.0, f_freq=2)
    else:
        sys_ = _normalized("eikonal-f", N=int(case[-1]))
    assert sys_.total_vars <= 24
    reference = request.getfixturevalue("constant_coupling_unpruned_face") \
        if case == "constant-coupling-zero" else unpruned_face(sys_)
    mset = dl.mather_face_samples(sys_, 8, seed=16)
    assert mset.exhaustive
    kept, total = mset.support_columns
    assert total == sys_.total_vars and kept < total
    pruned = np.array([nu.flat() for nu in mset.representatives])
    # same vertex set, representatives in the same order
    assert pruned.shape == reference.shape
    assert np.max(np.abs(pruned - reference), initial=0.0) <= 1e-12


_FALLBACK_FACES = ["tiny-eikonal", "eikonal-f-6", "eikonal-f-8",
                   "eikonal-two-wells", "quadratic-plc", "linear-B",
                   "eikonal-f-10", "constant-coupling-5", "linear-B-5"]


def _face_system(case, request):
    """The system of a named test face.  eikonal-f-10, constant-coupling-5
    and linear-B-5 are the oversize faces of test_cli, normalized as the
    selection pipeline does at its defaults."""
    systems = {
        "tiny-eikonal": lambda: request.getfixturevalue(
            "tiny_eikonal_normalized"),
        "eikonal-f-6": lambda: _normalized("eikonal-f", N=6),
        "eikonal-f-8": lambda: _normalized("eikonal-f", N=8),
        "eikonal-two-wells": lambda: dl.standard_system(
            "eikonal-f", N=8, f_const=1.0, f_freq=2),
        "quadratic-plc": lambda: request.getfixturevalue(
            "instance_b_normalized"),
        "linear-B": lambda: _normalized("linear-B", 0.05, 1e-12),
        "eikonal-f-10": lambda: _normalized("eikonal-f", 0.05, 1e-10, N=10),
        "constant-coupling-5": lambda: _normalized("constant-coupling",
                                                   0.05, 1e-10, N=5),
        "linear-B-5": lambda: _normalized("linear-B", 0.05, 1e-10, N=5),
        # f = 1: every weight column is positive somewhere on the face
        "eikonal-f-flat-16": lambda: _normalized("eikonal-f", N=16,
                                                 f_amp=0.0),
        "eikonal-f-128": lambda: _normalized("eikonal-f", N=128)}
    return systems[case]()


@pytest.mark.parametrize("case", _FALLBACK_FACES)
def test_fallback_samples_match_the_exact_face(case, request, monkeypatch):
    sys_ = _face_system(case, request)
    exact = dl.mather_face_samples(sys_, 12, seed=17)
    assert exact.exhaustive
    monkeypatch.setattr(dl.lp, "MAX_BASES", 0)
    sampled = dl.mather_face_samples(sys_, 12, seed=17)
    assert not sampled.exhaustive
    assert sampled.support_columns == exact.support_columns
    vertices = np.array([nu.flat() for nu in exact.representatives])
    samples = np.array([nu.flat() for nu in sampled.representatives])
    tv = np.abs(vertices[:, None, :] - samples[None, :, :]).sum(axis=2)
    # every vertex is sampled, and every sample is a vertex
    assert np.all(tv.min(axis=1) <= limits.FACE_DEDUP_TOL)
    assert np.all(tv.min(axis=0) <= limits.FACE_DEDUP_TOL)
    assert len(samples) == len(vertices)


def _support_by_columns(A_exact, b_exact, dual):
    """The oracle for ``face_support``: the same reduced-cost filter, then
    one LP per surviving column j, max x_j over the face, each started
    from the previous one's basis.  Column j is kept when it is positive
    in an earlier optimum or its own maximum is positive."""
    rows, cols = A_exact.shape
    weights = cols - 1                                  # the slack is last
    reduced = A_exact[-1, :weights] - A_exact[:-1, :weights].T @ dual
    candidates = np.nonzero(reduced <= limits.SUPPORT_TOL)[0]
    positive = np.zeros(weights, dtype=bool)
    basis = None
    for j in candidates:
        if positive[j]:
            continue
        c = np.zeros(cols)
        c[j] = -1.0
        sol = lp_solve(LPProblem(c=c, A=A_exact, b=b_exact,
                                 senses=["="] * rows), basis=basis)
        assert sol.status == OPTIMAL
        basis = sol.basis
        positive |= sol.x[:weights] > limits.SUPPORT_TOL
    return candidates[positive[candidates]]


@pytest.mark.parametrize("case", _FALLBACK_FACES + ["eikonal-f-flat-16",
                                                    "eikonal-f-128"])
def test_face_support_matches_the_column_loop(case, request, monkeypatch):
    sys_ = _face_system(case, request)
    _, min_value, dual = dl.mather_lp(sys_)
    A_exact, b_exact = limits.exact_face(sys_, min_value)
    expected = _support_by_columns(A_exact, b_exact, dual)
    calls = []

    def counted(problem, basis=None):
        calls.append(basis)
        return lp_solve(problem, basis=basis)

    monkeypatch.setattr(limits, "lp_solve", counted)
    support = face_support(A_exact, b_exact, dual)
    assert np.array_equal(support, expected)
    assert calls == [None]            # one cold LP
    if case == "eikonal-f-flat-16":
        assert len(support) == sys_.total_vars


def test_face_rejects_vertex_outside_lam0_rule(tiny_eikonal_normalized,
                                               monkeypatch):
    def heavy(A, b, tol):
        # one vertex at the enumerated width (support plus mass slack),
        # with mass 1.1 > 1 on the first support column
        vertex = np.zeros((1, A.shape[1]))
        vertex[0, 0] = 1.1
        return vertex

    monkeypatch.setattr(limits, "enumerate_basic_solutions", heavy)
    with pytest.raises(BadValue):
        dl.mather_face_samples(tiny_eikonal_normalized, 4, seed=14)


def test_face_rejects_sampled_row_outside_lam0_rule(
        tiny_eikonal_normalized, monkeypatch):
    # no basis fits the budget, so sampled LP solutions give the rows;
    # every LP solved after the support is found is a sampled one
    sampling = []

    def recording_support(*args):
        support = face_support(*args)
        sampling.append(True)
        return support

    def negative(problem, basis=None):
        sol = lp_solve(problem, basis=basis)
        if sampling:
            sol.x = sol.x.copy()
            sol.x[0] = -1e-3           # the first support column
        return sol

    monkeypatch.setattr(dl.lp, "MAX_BASES", 0)
    monkeypatch.setattr(limits, "face_support", recording_support)
    monkeypatch.setattr(limits, "lp_solve", negative)
    with pytest.raises(BadValue):
        dl.mather_face_samples(tiny_eikonal_normalized, 4, seed=15)
    assert sampling


def test_face_representatives_exactly_closed(eikonal32_normalized):
    mset = dl.mather_face_samples(eikonal32_normalized, 10, seed=5)
    rng = np.random.default_rng(0)
    M = dl.discretize.linearized_matrix(eikonal32_normalized, 0.0).T
    for nu in mset.representatives:
        assert float(np.max(np.abs(M @ nu.flat()), initial=0.0)) <= 1e-8
        # closedness against a random field via linearity
        u = rng.standard_normal(M.shape[0])
        assert abs(float(u @ (M @ nu.flat()))) <= 1e-7


def _assert_field_matches_per_point(sys_, mset, field):
    """The one-LP selection field against the one-LP-per-point oracle."""
    for k in range(sys_.m):
        for z in range(sys_.num_states):
            _, value = dl.selection_solve(sys_, mset, z, k)
            assert abs(field[k, z] - value) <= 1e-12, (k, z)


def test_selection_constant_coupling_shifted(instance_a_shifted):
    mset = dl.mather_face_samples(instance_a_shifted, 6, seed=6)
    sweep = dl.discount_sweep(instance_a_shifted, 0.5, 0.5, 16, tol=1e-12)
    field = dl.selection_field(instance_a_shifted, mset)
    _assert_field_matches_per_point(instance_a_shifted, mset, field)
    assert np.max(np.abs(field)) <= 1e-9
    rep = dl.convergence_report(instance_a_shifted, sweep, field, mset)
    assert rep.passed
    assert rep.limit_vs_selection_gap <= 1e-9


def test_selection_empty_mset_rejected(instance_a_shifted):
    from discountlab.limits import MatherSet
    with pytest.raises(BadValue):
        dl.selection_solve(instance_a_shifted,
                           MatherSet([], 0.0), 0, 0)


def test_selection_unbounded_when_rows_do_not_pin(eikonal32_normalized):
    # the zero measure alone leaves the additive freedom unpinned
    from discountlab.limits import MatherSet
    from discountlab.measures import MeasureVector
    zero = MeasureVector.from_flat(
        eikonal32_normalized, np.zeros(eikonal32_normalized.total_vars), 0.0)
    with pytest.raises(UnboundedLP):
        dl.selection_solve(eikonal32_normalized,
                           MatherSet([zero], 0.0), 0, 0)
    with pytest.raises(UnboundedLP) as info:
        dl.selection_field(eikonal32_normalized, MatherSet([zero], 0.0))
    ray = info.value.ray
    assert ray is not None
    assert np.allclose(ray / np.max(np.abs(ray)), 1.0, atol=1e-9)


def test_selection_field_checks_its_dual_field(instance_b_normalized,
                                               monkeypatch):
    # the field is the greatest one, so duals raised by 1e-6 at one entry
    # break a relation or a pairing there, and must not be passed on
    mset = dl.mather_face_samples(instance_b_normalized, 12, seed=9)
    solve = limits.lp_solve

    def pushed(problem, basis=None):
        sol = solve(problem, basis=basis)
        sol.dual = sol.dual.copy()
        sol.dual[3] += 1e-6
        return sol

    monkeypatch.setattr(limits, "lp_solve", pushed)
    with pytest.raises(NumericalBreakdown):
        dl.selection_field(instance_b_normalized, mset)


def test_selection_monotone_in_rows(eikonal32_normalized):
    mset = dl.mather_face_samples(eikonal32_normalized, 10, seed=7)
    point = [nu for nu in mset.representatives if nu.total_mass() > 0.5]
    from discountlab.limits import MatherSet
    small = MatherSet(point, 0.0)
    _, v_small = dl.selection_solve(eikonal32_normalized, small, 3, 0)
    _, v_full = dl.selection_solve(eikonal32_normalized, mset, 3, 0)
    assert v_full <= v_small + 1e-10


def test_selection_matches_sweep_eikonal(eikonal32_normalized):
    sweep = dl.discount_sweep(eikonal32_normalized, 0.5, 0.5, 18, tol=1e-10)
    mset = dl.mather_face_samples(eikonal32_normalized, 12, seed=8)
    field = dl.selection_field(eikonal32_normalized, mset)
    _assert_field_matches_per_point(eikonal32_normalized, mset, field)
    rep = dl.convergence_report(eikonal32_normalized, sweep, field, mset)
    assert rep.passed
    assert rep.limit_vs_selection_gap <= 1e-5
    assert max(rep.measure_pairings) <= 1e-6


def test_selection_matches_sweep_quadratic(instance_b_normalized):
    sweep = dl.discount_sweep(instance_b_normalized, 0.5, 0.5, 18, tol=1e-10)
    mset = dl.mather_face_samples(instance_b_normalized, 12, seed=9)
    field = dl.selection_field(instance_b_normalized, mset)
    _assert_field_matches_per_point(instance_b_normalized, mset, field)
    rep = dl.convergence_report(instance_b_normalized, sweep, field, mset)
    assert rep.passed
    assert rep.limit_vs_selection_gap <= 1e-5


def test_selection_field_matches_per_point_linear_b(instance_linear_b):
    normalized, _ = ergodic_normalize(instance_linear_b, lam=0.05, tol=1e-12)
    mset = dl.mather_face_samples(normalized, 12, seed=13)
    field = dl.selection_field(normalized, mset)
    _assert_field_matches_per_point(normalized, mset, field)


def test_convergence_report_json_keys(instance_a_shifted):
    mset = dl.mather_face_samples(instance_a_shifted, 4, seed=10)
    sweep = dl.discount_sweep(instance_a_shifted, 0.5, 0.5, 8, tol=1e-10)
    field = dl.selection_field(instance_a_shifted, mset)
    rep = dl.convergence_report(instance_a_shifted, sweep, field, mset)
    import json
    doc = json.loads(rep.to_json())
    assert set(doc) == {"rung_gaps", "limit_vs_selection_gap",
                        "measure_pairing_max", "pass"}


def test_shift_costs_shifts_values(instance_a):
    shifted = dl.shift_costs(instance_a, [1.0, 1.0])
    u, _, _ = dl.policy_iterate(shifted, 1.0, tol=1e-12)
    assert np.max(np.abs(u)) <= 1e-12   # -1/(1+lam) + 1/(1+lam)... cost -1+1=0


def test_ergodic_normalize_zeroes_constant(eikonal32):
    shifted, erg = ergodic_normalize(eikonal32, lam=0.01, tol=1e-12)
    assert abs(erg.c[0] + 1.0) <= 1e-9
    res = dl.ergodic_solve(shifted, 0.01, tol=1e-10)
    assert np.max(np.abs(res.c)) <= 1e-9


def test_face_samples_deterministic(tiny_eikonal_normalized):
    a = dl.mather_face_samples(tiny_eikonal_normalized, 8, seed=11)
    b = dl.mather_face_samples(tiny_eikonal_normalized, 8, seed=11)
    assert len(a.representatives) == len(b.representatives)
    for na, nb in zip(a.representatives, b.representatives):
        assert na.tv_distance(nb) == 0.0


def test_selection_row_bound_shifts_value(eikonal32_normalized):
    # with a unit point mass nu, <nu, u> <= b pins u at the carrier to b;
    # the selection value then moves affinely in b
    mset = dl.mather_face_samples(eikonal32_normalized, 8, seed=12)
    nu = next(n for n in mset.representatives if n.total_mass() > 0.5)
    _, v0 = dl.subsolution_lp(eikonal32_normalized, 0.0, 3, 0,
                              extra_rows=[(nu, 0.0)])
    _, v1 = dl.subsolution_lp(eikonal32_normalized, 0.0, 3, 0,
                              extra_rows=[(nu, -0.3)])
    assert abs((v0 - v1) - 0.3) <= 1e-8
