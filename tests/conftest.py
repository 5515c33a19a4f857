import json
import math
import os

# One BLAS thread, as in the benchmark worker: the wall-clock gates of the
# acceptance criteria must not depend on BLAS threads waiting for a busy
# core.  numpy reads these only when it loads, so they are set before it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import discountlab as dl


@pytest.fixture(scope="session")
def instance_a():
    """constant-coupling, n=1, N=4, m=2, controls xi in {-1,0,1}, cost -1."""
    return dl.standard_system("constant-coupling")


@pytest.fixture(scope="session")
def instance_a_shifted():
    """Same family with zero cost, so the undiscounted limit is 0."""
    return dl.standard_system("constant-coupling", offset=0.0)


@pytest.fixture(scope="session")
def instance_b():
    """quadratic-plc, n=1, N=8, m=2, 18 controls per mode."""
    return dl.standard_system("quadratic-plc")


@pytest.fixture(scope="session")
def instance_b_uneven(instance_b):
    """instance_b through JSON with the last control of mode 1 dropped:
    18 controls in mode 0 and 17 in mode 1."""
    doc = json.loads(dl.system_to_json(instance_b))
    S, A = instance_b.num_states, instance_b.num_controls(1)
    last = max(k for k, c in enumerate(doc["controls"]) if c["mode"] == 1)
    del doc["controls"][last]
    keep = np.ones(len(doc["cost"]), dtype=bool)
    keep[instance_b.layout.offsets[1] + np.arange(S) * A + A - 1] = False
    doc["cost"] = np.asarray(doc["cost"])[keep].tolist()
    return dl.system_from_json(json.dumps(doc))


@pytest.fixture(scope="session")
def instance_linear_b():
    return dl.standard_system("linear-B")


@pytest.fixture(scope="session")
def eikonal8():
    return dl.standard_system("eikonal-f", N=8)


@pytest.fixture(scope="session")
def eikonal32():
    return dl.standard_system("eikonal-f", N=32)


@pytest.fixture(scope="session")
def eikonal32_normalized(eikonal32):
    shifted, _ = dl.ergodic_normalize(eikonal32, lam=0.01, tol=1e-12)
    return shifted


@pytest.fixture(scope="session")
def instance_b_normalized(instance_b):
    shifted, _ = dl.ergodic_normalize(instance_b, lam=0.05, tol=1e-12)
    return shifted


@pytest.fixture(scope="session")
def tiny_eikonal_normalized():
    """m=1, N=4, 12 weight variables: exhaustive-enumeration territory."""
    sys_ = dl.standard_system("eikonal-f", N=4)
    shifted, _ = dl.ergodic_normalize(sys_, lam=0.01, tol=1e-12)
    return shifted


@pytest.fixture(scope="session")
def two_d_system():
    """Builder of a 2-d eikonal system, m=1, 9 controls, on the N x N grid:
    H = |p_1| + |p_2| - f(x), f = 2 + cos(2 pi x_1) sin(2 pi x_2)."""
    def f(x):
        return 2.0 + np.cos(2 * math.pi * x[..., 0]) \
            * np.sin(2 * math.pi * x[..., 1])

    def H2(x, i, p, u):
        return np.abs(p[..., 0]) + np.abs(p[..., 1]) - f(x)

    def lag2(x, i, xi, eta):
        # one column per control row of (xi, eta)
        ok = (np.abs(xi).max(axis=1) <= 1.0) & (eta[:, 0] == 0.0)
        return np.where(ok, f(x)[..., None], np.inf)

    model = dl.HamiltonianModel(1, 2, H2, lag2)
    controls = [dl.sample_controls(model, 0, 1.0, 3, [np.zeros(1)])]
    return lambda N: dl.assemble_system(dl.build_grid(2, N), controls)


def solution_of(sys_, lam, tol=1e-11):
    u, _, _ = dl.policy_iterate(sys_, lam, tol=tol)
    return u


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
